#!/usr/bin/env bash
# Repo gate: formatting, lints, the full test suite (the workspace and
# the separate perfbench package, both formatted, linted and tested), and
# the fault-injection smoke check. Run from anywhere; exits non-zero on
# the first failure.
#
# With --perf-smoke, additionally runs the throughput bench in gate
# mode: it fails unless the batched path is bit-identical AND the
# measured speedup clears the host-appropriate floor (4-thread >= 2x
# over 1-thread on hosts with >= 4 CPUs; 1-thread batched >= 2x over
# sequential on smaller hosts, where thread scaling is unobservable).
#
# With --serve-smoke, additionally re-runs the serving bench and
# schema-checks the registry surface of BENCH_serve.json: the per-model
# blocks (per-model p99, per-replica health/load) and the multi-model
# scenario gates (two models, a replica drained mid-load, zero rejects,
# no request lost or duplicated).
#
# With --conn-smoke, additionally runs the serving bench's
# many-connection overload scenario and gates on its *structural* facts
# (the timing on `host_parallelism: 1` CI hosts is not meaningful):
# 256 simultaneous connections served by the configured 2 event-loop
# threads, zero lost or duplicated replies, bit-identical outputs, and
# a p99-under-overload figure recorded in BENCH_serve.json.
#
# With --circuit-smoke, additionally runs the whole-tile circuit
# validation campaign in smoke mode and schema-checks BENCH_circuit.json.
# The bench hard-fails if the netlist drifts out of engine tolerance, a
# sweep group re-analyzes its topology (symbolic analysis must be shared
# across the batch), or IR drop stops being monotone in wire resistance.
# Single-threaded circuit solves, so it runs fine on `host_parallelism: 1`
# CI hosts.
#
# Two release-mode perfbench runs (infer_conv, infer_dense: one second
# each, traced) fail the gate if a planned output differs from the
# per-sample reference. A third (serve_open, two seconds, untraced)
# serves MLP-1 over loopback with scrubbing, repair and aging live and
# fails unless every served reply was checked correct and none failed.
#
# Every stage, flag, gate, and output field is documented in
# docs/BENCHMARKS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

perf_smoke=0
serve_smoke=0
conn_smoke=0
circuit_smoke=0
for arg in "$@"; do
    case "$arg" in
        --perf-smoke) perf_smoke=1 ;;
        --serve-smoke) serve_smoke=1 ;;
        --conn-smoke) conn_smoke=1 ;;
        --circuit-smoke) circuit_smoke=1 ;;
        *) echo "check: unknown argument '$arg' (supported: --perf-smoke, --serve-smoke, --conn-smoke, --circuit-smoke)" >&2; exit 2 ;;
    esac
done

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

echo "==> profile --smoke (schema check)"
profile_out="$(mktemp)"
cargo run --release -q -p resipe-bench --bin profile -- --smoke --out "$profile_out" >/dev/null
for key in model samples mvms_per_sample bit_identical stage_nanos energy \
    s1_encode_j crossbar_j s2_decode_j attributed_total_j measured_total_j \
    relative_error saturation kernel blocks block_samples bytes_streamed \
    mean_samples_per_block kernel_blocks kernel_block_samples \
    kernel_bytes_streamed telemetry counters spans layers t_out v_out; do
    if ! grep -q "\"$key\"" "$profile_out"; then
        echo "check: BENCH_profile.json schema drift — missing key \"$key\"" >&2
        rm -f "$profile_out"
        exit 1
    fi
done
rm -f "$profile_out"

echo "==> serve_bench --smoke (schema check, loopback TCP)"
serve_out="$(mktemp)"
cargo run --release -q -p resipe-bench --bin serve_bench -- --smoke --out "$serve_out" >/dev/null
for key in model clients requests_per_client total_requests max_batch max_wait_us \
    bit_identical lossless sequential batched requests_per_sec mean_batch \
    largest_batch speedup hot_repair latency p50_nanos p99_nanos server accepted \
    completed rejected_busy expired scrub_passes scrub_repairs plan_swaps \
    multi_model models replicas; do
    if ! grep -q "\"$key\"" "$serve_out"; then
        echo "check: BENCH_serve.json schema drift — missing key \"$key\"" >&2
        rm -f "$serve_out"
        exit 1
    fi
done
if ! grep -q '"bit_identical": true' "$serve_out"; then
    echo "check: serve_bench lost bit identity" >&2
    rm -f "$serve_out"
    exit 1
fi
if ! grep -q '"lossless": true' "$serve_out"; then
    echo "check: serve_bench lost or duplicated requests" >&2
    rm -f "$serve_out"
    exit 1
fi
rm -f "$serve_out"

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

if [[ "$perf_smoke" -eq 1 ]]; then
    echo "==> throughput --smoke --gate (perf gate)"
    perf_out="$(mktemp)"
    cargo run --release -q -p resipe-bench --bin throughput -- --smoke --gate \
        --out "$perf_out" >/dev/null
    rm -f "$perf_out"
fi

if [[ "$serve_smoke" -eq 1 ]]; then
    echo "==> serve_bench --smoke (multi-model registry gate + schema check)"
    registry_out="$(mktemp)"
    cargo run --release -q -p resipe-bench --bin serve_bench -- --smoke \
        --out "$registry_out" >/dev/null
    # Per-model blocks: both registered models present with per-replica
    # detail and a per-model p99.
    for name in mlp1 mlp2; do
        if ! grep -q "\"name\": \"$name\"" "$registry_out"; then
            echo "check: BENCH_serve.json missing per-model block for \"$name\"" >&2
            rm -f "$registry_out"
            exit 1
        fi
    done
    for key in multi_model drained_replica p99_nanos health index; do
        if ! grep -q "\"$key\"" "$registry_out"; then
            echo "check: BENCH_serve.json registry schema drift — missing \"$key\"" >&2
            rm -f "$registry_out"
            exit 1
        fi
    done
    for gate in '"rejected_busy": 0' '"lossless": true'; do
        if ! grep -q "$gate" "$registry_out"; then
            echo "check: serve_bench registry gate failed ($gate)" >&2
            rm -f "$registry_out"
            exit 1
        fi
    done
    rm -f "$registry_out"
fi

if [[ "$conn_smoke" -eq 1 ]]; then
    echo "==> serve_bench --smoke (many-connection overload gate)"
    conn_out="$(mktemp)"
    cargo run --release -q -p resipe-bench --bin serve_bench -- --smoke \
        --out "$conn_out" >/dev/null
    for key in many_connections connections requests_per_connection event_threads \
        conns_peak lost duplicated evicted_slow; do
        if ! grep -q "\"$key\"" "$conn_out"; then
            echo "check: BENCH_serve.json overload schema drift — missing \"$key\"" >&2
            rm -f "$conn_out"
            exit 1
        fi
    done
    # Structural gates only — the CI host's timing is not meaningful,
    # but N connections on K threads, zero lost/duplicated replies, and
    # bit identity are facts. (serve_bench itself also asserts
    # conns_peak >= connections and a recorded p99.)
    for gate in '"connections": 256' '"event_threads": 2' '"lost": 0' \
        '"duplicated": 0' '"bit_identical": true' '"lossless": true'; do
        if ! grep -q "$gate" "$conn_out"; then
            echo "check: serve_bench overload gate failed ($gate)" >&2
            rm -f "$conn_out"
            exit 1
        fi
    done
    rm -f "$conn_out"
fi

if [[ "$circuit_smoke" -eq 1 ]]; then
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
fi

echo "check: all gates passed"
