#!/usr/bin/env bash
# Repo gate: formatting, lints, the full test suite (the workspace and
# the separate perfbench package, both formatted, linted and tested),
# release-mode perfbench correctness smokes, and the fault-injection,
# scrub and circuit smoke checks. Run from anywhere, with no arguments;
# exits non-zero on the first failure.
#
# The circuit smoke runs the whole-tile circuit validation campaign in
# smoke mode and schema-checks BENCH_circuit.json. It hard-fails if the
# netlist drifts out of engine tolerance, a sweep group re-analyzes its
# topology (symbolic analysis must be shared across the batch), or IR
# drop stops being monotone in wire resistance. Single-threaded circuit
# solves, well under a second in release.
#
# The bit-identity suites (block_equivalence, batch_equivalence,
# telemetry_equivalence) and the golden-bit suites (circuit_golden,
# equation_golden) run a second time in release mode, so planned ≡
# reference is checked under release codegen on random shapes, not only
# on perfbench's fixed networks, and the recorded transient and equation
# bits hold under the optimizer the benchmark and the binaries use.
#
# Two release-mode perfbench runs (infer_conv, infer_dense: one second
# each, traced) fail the gate if a planned output differs from the
# per-sample reference. A third (serve_open, two seconds, untraced)
# serves MLP-1 over loopback with scrubbing, repair and aging live and
# fails unless every served reply was checked correct and none failed.
#
# Last, it fails if building perfbench rewrote perfbench/Cargo.lock.
#
# Every stage, gate, and output field is documented in
# docs/BENCHMARKS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
    echo "check: takes no arguments (got '$*')" >&2
    exit 2
fi

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# perfbench is a workspace of its own, so neither `fmt --all` nor
# `clippy --workspace` above reaches it.
echo "==> cargo fmt (perfbench) -- --check"
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

echo "==> cargo clippy (perfbench) --all-targets -- -D warnings"
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

# The bit-identity and golden-bit suites again under release codegen:
# the test profile above runs at opt-level 1, and the planned path must
# equal the per-sample reference, and the analog transients and paper
# equations their recorded bits, under the optimizer the benchmark and
# the binaries use.
echo "==> cargo test --release (bit-identity and golden-bit suites)"
cargo test --release -q -p resipe --test block_equivalence --test batch_equivalence \
    --test telemetry_equivalence --test circuit_golden --test equation_golden

# perfbench is a workspace of its own, so `--workspace` above never
# reaches its unit tests.
echo "==> cargo test (perfbench)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Release-mode correctness smoke: perfbench exits non-zero when a
# planned output differs from the per-sample reference. Both inference
# workloads run with the probe on (`--trace 1`) through the command
# line BENCHMARK.json uses, so LeNet, VGG16-S and MLP-2 are checked
# under release codegen, traced and untraced, which the opt-level-1
# test profile above does not cover.
for workload in infer_conv infer_dense; do
    echo "==> perfbench --workload $workload --seed 1 --seconds 1 --trace 1"
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 >/dev/null
done

# Release-mode serving smoke: the only gate besides the 20 s benchmark
# that runs scrub and repair under live serving with the served bytes
# checked. The last stdout line is perfbench's JSON report.
echo "==> perfbench --workload serve_open --seed 1 --seconds 2 --trace 0"
serve_open_report="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload serve_open --seed 1 --seconds 2 --trace 0 | tail -n 1)"
for gate in '"correct": true' '"failed": 0,'; do
    if ! grep -qF "$gate" <<<"$serve_open_report"; then
        echo "check: perfbench serve_open smoke failed ($gate)" >&2
        exit 1
    fi
done

echo "==> fault_sweep --smoke"
cargo run --release -q -p resipe-bench --bin fault_sweep -- --smoke

echo "==> scrub_sweep --smoke (resilience gate + schema check)"
scrub_out="$(mktemp)"
cargo run --release -q -p resipe-bench --bin scrub_sweep -- --smoke --out "$scrub_out" >/dev/null
for key in model fresh_accuracy checkpoints requests_per_checkpoint \
    seconds_per_request drift_tau_s scrub_off scrub_on served_requests accuracy \
    degraded_monotone final_gap recovered scrub_repairs_curve availability \
    total_requests accepted completed rejected_busy expired shutdown_rejects \
    engine_errors scrub_passes scrub_tiles scrub_repairs plan_swaps lossless; do
    if ! grep -q "\"$key\"" "$scrub_out"; then
        echo "check: BENCH_scrub.json schema drift — missing key \"$key\"" >&2
        rm -f "$scrub_out"
        exit 1
    fi
done
for gate in '"degraded_monotone": true' '"recovered": true' '"lossless": true'; do
    if ! grep -q "$gate" "$scrub_out"; then
        echo "check: scrub_sweep resilience gate failed ($gate)" >&2
        rm -f "$scrub_out"
        exit 1
    fi
done
rm -f "$scrub_out"

echo "==> circuit_sweep --smoke (whole-tile circuit gate + schema check)"
circuit_out="$(mktemp)"
cargo run --release -q -p resipe-bench --bin circuit_sweep -- --smoke \
    --out "$circuit_out" >/dev/null
for key in model tolerance v_out_volts t_out_rel arms group rows cols \
    wire_ohms dt_ps steps v_out_mean max_abs_dv mean_abs_dv max_rel_dt \
    saturated_cols saturation_agreement wall_ms solver backend unknowns \
    nonzeros assemblies symbolic_analyses symbolic_reuses numeric_refactors \
    solves reused_factor_solves pivot_growth_max totals runs \
    topology_groups within_tolerance ir_drop_monotone elapsed_s; do
    if ! grep -q "\"$key\"" "$circuit_out"; then
        echo "check: BENCH_circuit.json schema drift — missing key \"$key\"" >&2
        rm -f "$circuit_out"
        exit 1
    fi
done
for gate in '"within_tolerance": true' '"ir_drop_monotone": true' \
    '"topology_groups": 2, "symbolic_analyses": 2'; do
    if ! grep -q "$gate" "$circuit_out"; then
        echo "check: circuit_sweep validation gate failed ($gate)" >&2
        rm -f "$circuit_out"
        exit 1
    fi
done
rm -f "$circuit_out"

# Building and running perfbench above must not rewrite its lock file:
# the benchmark runs from committed files, so a crate-graph change that
# makes every perfbench build re-resolve would show up here first.
if [[ -e .git ]]; then
    echo "==> perfbench/Cargo.lock unchanged"
    if ! git diff --quiet -- perfbench/Cargo.lock; then
        echo "check: building perfbench rewrote perfbench/Cargo.lock; its crate graph no longer matches the committed lock file" >&2
        exit 1
    fi
fi

echo "check: all gates passed"
