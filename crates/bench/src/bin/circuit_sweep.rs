//! Batched whole-tile circuit validation campaign
//! (`BENCH_circuit.json` at the repo root).
//!
//! Runs the full crossbar MNA netlist ([`AnalogMvm`]) on the sparse
//! reusable-factorization solver path across two sweep groups, each
//! sharing one [`SolverSession`] so every sweep point after the first
//! reuses the cached symbolic analysis:
//!
//! - **`ideal` group** — the zero-wire-resistance tile at several
//!   integration step sizes (pulse-width resolution sweep). Every column
//!   is cross-checked against the closed-form engine under the
//!   `engine_vs_circuit` tolerances (`|Δv_out| < 0.01 V`,
//!   `|Δt_out|/t_out < 0.05`); the campaign fails if any arm drifts out.
//! - **`wire` group** — a smaller tile with per-segment bitline wire
//!   resistance swept over several values. Wire values change matrix
//!   *entries* but not the ladder *topology*, so the whole group must
//!   still report exactly one symbolic analysis. The mean sensed
//!   `v_out` must fall monotonically as the wire gets worse (IR drop),
//!   and is reported against an ideal same-size reference run.
//!
//! ```text
//! cargo run --release -p resipe-bench --bin circuit_sweep             # full
//! cargo run --release -p resipe-bench --bin circuit_sweep -- --smoke  # CI gate
//! ```
//!
//! The process exits non-zero if a tolerance, monotonicity, or
//! factorization-reuse gate fails, so `--smoke` doubles as the CI
//! acceptance gate (a stage of `scripts/check.sh`). Every output
//! field is documented in `docs/BENCHMARKS.md`.

use std::time::Instant;

use resipe::circuit::AnalogMvm;
use resipe::config::ResipeConfig;
use resipe::engine::{MacResult, ResipeEngine};
use resipe_analog::transient::{SolverSession, SolverStats};
use resipe_analog::units::{Ohms, Seconds, Siemens};
use resipe_bench::Args;

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

/// Deterministic pseudo-random cell conductance in the paper's 5–150 µS
/// device range (Knuth multiplicative hash on the cell index).
fn cell_g(i: usize) -> Siemens {
    let frac = (i as u64).wrapping_mul(2654435761) % 1000;
    Siemens(5e-6 + 145e-6 * frac as f64 / 999.0)
}

/// Spike times quantized to five distinct values so the sample-and-hold
/// controller dirties the netlist only a handful of times per run.
fn spike_times(rows: usize) -> Vec<Seconds> {
    (0..rows)
        .map(|i| Seconds(((i * 7) % 5 + 1) as f64 * 10e-9))
        .collect()
}

/// One sweep point: deviation statistics vs the closed-form engine plus
/// the run's solver counters.
struct Arm {
    group: &'static str,
    rows: usize,
    cols: usize,
    wire_ohms: Option<f64>,
    dt_ps: f64,
    v_out_mean: f64,
    max_abs_dv: f64,
    mean_abs_dv: f64,
    max_rel_dt: f64,
    saturated_cols: usize,
    saturation_agreement: usize,
    wall_ms: f64,
    solver: SolverStats,
}

impl Arm {
    fn json(&self) -> String {
        let s = &self.solver;
        format!(
            "{{\"group\": \"{}\", \"rows\": {}, \"cols\": {}, \
             \"wire_ohms\": {}, \"dt_ps\": {}, \"steps\": {}, \
             \"v_out_mean\": {}, \"max_abs_dv\": {}, \"mean_abs_dv\": {}, \
             \"max_rel_dt\": {}, \"saturated_cols\": {}, \
             \"saturation_agreement\": {}, \"wall_ms\": {}, \
             \"solver\": {{\"backend\": \"Sparse\", \"unknowns\": {}, \
             \"nonzeros\": {}, \"assemblies\": {}, \
             \"symbolic_analyses\": {}, \"symbolic_reuses\": {}, \
             \"numeric_refactors\": {}, \"solves\": {}, \
             \"reused_factor_solves\": {}, \"pivot_growth_max\": {}}}}}",
            self.group,
            self.rows,
            self.cols,
            self.wire_ohms.map_or("null".to_owned(), json_num),
            json_num(self.dt_ps),
            s.solves,
            json_num(self.v_out_mean),
            json_num(self.max_abs_dv),
            json_num(self.mean_abs_dv),
            json_num(self.max_rel_dt),
            self.saturated_cols,
            self.saturation_agreement,
            json_num(self.wall_ms),
            s.unknowns,
            s.nonzeros,
            s.assemblies,
            s.symbolic_analyses,
            s.symbolic_reuses,
            s.numeric_refactors,
            s.solves,
            s.reused_factor_solves,
            json_num(s.pivot_growth_max),
        )
    }
}

/// Runs one sweep point through `session` and folds the column-by-column
/// engine comparison into an [`Arm`].
#[allow(clippy::too_many_arguments)]
fn run_arm(
    group: &'static str,
    cfg: ResipeConfig,
    rows: usize,
    cols: usize,
    wire_ohms: Option<f64>,
    dt: Seconds,
    engine: &[MacResult],
    session: &mut SolverSession,
) -> Arm {
    let g: Vec<Siemens> = (0..rows * cols).map(cell_g).collect();
    let t_in = spike_times(rows);
    let mut mvm = AnalogMvm::new(cfg, &g, rows, cols).expect("tile builds");
    if let Some(r) = wire_ohms {
        mvm = mvm.with_wire_resistance(Ohms(r));
    }
    let started = Instant::now();
    let analog = mvm
        .run_with_session(&t_in, dt, session)
        .expect("transient converges");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    assert_eq!(analog.columns.len(), engine.len());
    let mut max_abs_dv = 0.0f64;
    let mut sum_abs_dv = 0.0f64;
    let mut max_rel_dt = f64::NAN;
    let mut v_sum = 0.0f64;
    let mut saturated_cols = 0;
    let mut saturation_agreement = 0;
    for (a, e) in analog.columns.iter().zip(engine) {
        let dv = (a.v_out.0 - e.v_out.0).abs();
        max_abs_dv = max_abs_dv.max(dv);
        sum_abs_dv += dv;
        v_sum += a.v_out.0;
        if a.saturated {
            saturated_cols += 1;
        }
        if a.saturated == e.saturated {
            saturation_agreement += 1;
        }
        if !e.saturated {
            let rel = (a.t_out.0 - e.t_out.0).abs() / e.t_out.0.max(1e-10);
            max_rel_dt = if max_rel_dt.is_nan() {
                rel
            } else {
                max_rel_dt.max(rel)
            };
        }
    }
    Arm {
        group,
        rows,
        cols,
        wire_ohms,
        dt_ps: dt.0 * 1e12,
        v_out_mean: v_sum / cols as f64,
        max_abs_dv,
        mean_abs_dv: sum_abs_dv / cols as f64,
        max_rel_dt,
        saturated_cols,
        saturation_agreement,
        wall_ms,
        solver: analog.solver_stats,
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let out_path = args
        .value_of("out")
        .unwrap_or("BENCH_circuit.json")
        .to_owned();

    const TOL_DV: f64 = 0.01; // volts
    const TOL_DT: f64 = 0.05; // relative

    let cfg = ResipeConfig::paper();
    let engine = ResipeEngine::new(cfg);
    // Whole-tile validation group: big flat tile, step-size sweep.
    let (ideal_rows, ideal_cols) = if smoke { (16, 16) } else { (128, 128) };
    let dt_sweep_ps: &[f64] = if smoke {
        &[100.0, 200.0]
    } else {
        &[25.0, 50.0, 100.0]
    };
    // IR-drop group: smaller tile (the ladder multiplies the node count
    // by the row count), wire-resistance sweep around the typical
    // 2.5 Ω/segment of `resipe::parasitics`.
    let (wire_rows, wire_cols) = if smoke { (8, 8) } else { (32, 32) };
    let wire_sweep: &[f64] = if smoke {
        &[2.5, 10.0]
    } else {
        &[1.0, 2.5, 10.0]
    };
    let wire_dt = if smoke {
        Seconds(50e-12)
    } else {
        Seconds(100e-12)
    };

    let campaign_start = Instant::now();
    let mut arms: Vec<Arm> = Vec::new();

    // ---- Ideal group: one session, dt changes matrix values only.
    let g_flat: Vec<f64> = (0..ideal_rows * ideal_cols).map(|i| cell_g(i).0).collect();
    let ideal_engine = engine
        .mvm_matrix(&g_flat, ideal_rows, ideal_cols, &spike_times(ideal_rows))
        .expect("engine mvm");
    let mut ideal_session = SolverSession::new();
    for &dt_ps in dt_sweep_ps {
        let arm = run_arm(
            "ideal",
            cfg,
            ideal_rows,
            ideal_cols,
            None,
            Seconds(dt_ps * 1e-12),
            &ideal_engine,
            &mut ideal_session,
        );
        eprintln!(
            "ideal {}x{} dt {} ps: max |dv| {:.4} V, max rel dt {:.4}, \
             {} refactors, {:.0} ms",
            ideal_rows,
            ideal_cols,
            dt_ps,
            arm.max_abs_dv,
            arm.max_rel_dt,
            arm.solver.numeric_refactors,
            arm.wall_ms
        );
        arms.push(arm);
    }
    let ideal_totals = ideal_session.stats();

    // ---- Wire group: one session, wire values change entries only.
    let g_wire: Vec<f64> = (0..wire_rows * wire_cols).map(|i| cell_g(i).0).collect();
    let wire_engine = engine
        .mvm_matrix(&g_wire, wire_rows, wire_cols, &spike_times(wire_rows))
        .expect("engine mvm");
    // Ideal same-size reference for the IR-drop comparison (its own
    // topology, so it deliberately runs outside the wire session).
    let wire_ref = run_arm(
        "wire_reference",
        cfg,
        wire_rows,
        wire_cols,
        None,
        wire_dt,
        &wire_engine,
        &mut SolverSession::new(),
    );
    let mut wire_session = SolverSession::new();
    for &ohms in wire_sweep {
        let arm = run_arm(
            "wire",
            cfg,
            wire_rows,
            wire_cols,
            Some(ohms),
            wire_dt,
            &wire_engine,
            &mut wire_session,
        );
        eprintln!(
            "wire {}x{} {} ohm/segment: mean v_out {:.4} V (ideal {:.4}), \
             {:.0} ms",
            wire_rows, wire_cols, ohms, arm.v_out_mean, wire_ref.v_out_mean, arm.wall_ms
        );
        arms.push(arm);
    }
    let wire_totals = wire_session.stats();

    // ---- Gates.
    let failures: Vec<String> = arms
        .iter()
        .filter(|a| a.group == "ideal")
        .chain(std::iter::once(&wire_ref))
        .filter_map(|a| {
            let dv_ok = a.max_abs_dv < TOL_DV;
            let dt_ok = a.max_rel_dt.is_nan() || a.max_rel_dt < TOL_DT;
            let sat_ok = a.saturation_agreement == a.cols;
            (!(dv_ok && dt_ok && sat_ok)).then(|| {
                format!(
                    "{} dt {} ps: max |dv| {:.4}, max rel dt {:.4}, \
                     saturation agreement {}/{}",
                    a.group, a.dt_ps, a.max_abs_dv, a.max_rel_dt, a.saturation_agreement, a.cols
                )
            })
        })
        .collect();
    let within_tolerance = failures.is_empty();
    assert!(
        within_tolerance,
        "circuit drifted out of engine tolerance:\n{}",
        failures.join("\n")
    );
    for totals in [&ideal_totals, &wire_totals] {
        assert_eq!(
            totals.symbolic_analyses, 1,
            "a sweep group must analyze its topology exactly once: {totals:?}"
        );
    }
    assert_eq!(ideal_totals.symbolic_reuses, dt_sweep_ps.len() - 1);
    assert_eq!(wire_totals.symbolic_reuses, wire_sweep.len() - 1);
    let wire_means: Vec<f64> = std::iter::once(wire_ref.v_out_mean)
        .chain(
            arms.iter()
                .filter(|a| a.group == "wire")
                .map(|a| a.v_out_mean),
        )
        .collect();
    let ir_drop_monotone = wire_means.windows(2).all(|w| w[1] <= w[0] + 1e-9);
    assert!(
        ir_drop_monotone,
        "mean v_out must fall as wire resistance grows: {wire_means:?}"
    );

    // ---- Report.
    let elapsed_s = campaign_start.elapsed().as_secs_f64();
    let runs = arms.len() + 1; // + the wire reference
    let arm_rows: Vec<String> = std::iter::once(&wire_ref)
        .chain(arms.iter())
        .map(|a| format!("    {}", a.json()))
        .collect();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"model\": \"ReSiPE 1T1R crossbar (circuit fidelity)\",\n");
    json.push_str(&format!(
        "  \"tolerance\": {{\"v_out_volts\": {TOL_DV}, \"t_out_rel\": {TOL_DT}}},\n"
    ));
    json.push_str(&format!("  \"arms\": [\n{}\n  ],\n", arm_rows.join(",\n")));
    json.push_str(&format!(
        "  \"totals\": {{\"runs\": {runs}, \"topology_groups\": 2, \
         \"symbolic_analyses\": {}, \"symbolic_reuses\": {}, \
         \"numeric_refactors\": {}, \"solves\": {}}},\n",
        ideal_totals.symbolic_analyses + wire_totals.symbolic_analyses,
        ideal_totals.symbolic_reuses + wire_totals.symbolic_reuses,
        ideal_totals.numeric_refactors + wire_totals.numeric_refactors,
        ideal_totals.solves + wire_totals.solves
    ));
    json.push_str(&format!("  \"within_tolerance\": {within_tolerance},\n"));
    json.push_str(&format!("  \"ir_drop_monotone\": {ir_drop_monotone},\n"));
    json.push_str(&format!("  \"elapsed_s\": {}\n", json_num(elapsed_s)));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_circuit.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
