//! Integration test: the closed-form engine against the MNA netlist
//! simulation across a grid of operating points — the reproduction's
//! equivalent of validating the analytical model against Virtuoso.
//!
//! Every transient here, from the two-input MAC grids to the whole tile,
//! runs on the sparse reusable-factorization solver. The whole-tile tests
//! at the bottom are the headline oracle: a full 128×128 crossbar
//! transient, cross-checked column by column against the closed-form
//! engine. Tolerances there (documented in
//! DESIGN.md "Sparse analog validation"): `|Δv_out| < 0.01 V` and
//! `|Δt_out|/t_out < 0.05` per column.

use resipe_suite::analog::transient::SolverSession;
use resipe_suite::analog::units::{Seconds, Siemens};
use resipe_suite::core::circuit::{AnalogMac, AnalogMvm};
use resipe_suite::core::config::ResipeConfig;
use resipe_suite::core::engine::ResipeEngine;

const STEP: Seconds = Seconds(25e-12);

/// Deterministic pseudo-random cell conductance in the paper's 5–150 µS
/// device range (Knuth multiplicative hash on the cell index).
fn cell_g(i: usize) -> Siemens {
    let frac = (i as u64).wrapping_mul(2654435761) % 1000;
    Siemens(5e-6 + 145e-6 * frac as f64 / 999.0)
}

fn check(t_in: &[Seconds], g: &[Siemens], tol_rel: f64) {
    let cfg = ResipeConfig::paper();
    let engine = ResipeEngine::new(cfg).mac(t_in, g).expect("engine mac");
    let analog = AnalogMac::new(cfg, g)
        .expect("circuit builds")
        .run(t_in, STEP)
        .expect("transient converges");
    assert_eq!(engine.saturated, analog.saturated, "saturation agreement");
    let dv = (engine.v_out.0 - analog.v_out.0).abs();
    assert!(
        dv < 0.01,
        "v_out engine {} vs analog {} (inputs {t_in:?})",
        engine.v_out,
        analog.v_out
    );
    if !engine.saturated {
        let rel = (engine.t_out.0 - analog.t_out.0).abs() / engine.t_out.0.max(1e-10);
        assert!(
            rel < tol_rel,
            "t_out engine {} ns vs analog {} ns (rel {rel})",
            engine.t_out.as_nanos(),
            analog.t_out.as_nanos()
        );
    }
}

#[test]
fn two_input_grid() {
    for &(t1, t2) in &[(10.0, 70.0), (30.0, 30.0), (5.0, 45.0)] {
        for &(g1, g2) in &[(20e-6, 80e-6), (100e-6, 100e-6), (5e-6, 300e-6)] {
            check(
                &[Seconds(t1 * 1e-9), Seconds(t2 * 1e-9)],
                &[Siemens(g1), Siemens(g2)],
                0.05,
            );
        }
    }
}

#[test]
fn four_input_column() {
    check(
        &[
            Seconds(12e-9),
            Seconds(34e-9),
            Seconds(56e-9),
            Seconds(78e-9),
        ],
        &[
            Siemens(50e-6),
            Siemens(150e-6),
            Siemens(20e-6),
            Siemens(90e-6),
        ],
        0.03,
    );
}

#[test]
fn high_conductance_saturating_column() {
    // ΣG = 3.2 mS, the top of the Fig. 5 range: deep C_cog saturation.
    check(
        &[Seconds(40e-9), Seconds(60e-9)],
        &[Siemens(1.6e-3), Siemens(1.6e-3)],
        0.05,
    );
}

#[test]
fn early_spikes_small_conductance() {
    // The doubly-linear regime where Eq. 5 itself is accurate.
    check(
        &[Seconds(2e-9), Seconds(4e-9)],
        &[Siemens(5e-6), Siemens(8e-6)],
        0.05,
    );
}

/// Compares every column of an analog MVM run against the closed-form
/// engine under the whole-tile tolerances.
fn check_columns(
    analog: &resipe_suite::core::circuit::AnalogMvmResult,
    g: &[Siemens],
    rows: usize,
    cols: usize,
    t_in: &[Seconds],
) {
    let cfg = ResipeConfig::paper();
    let g_flat: Vec<f64> = g.iter().map(|g| g.0).collect();
    let engine = ResipeEngine::new(cfg)
        .mvm_matrix(&g_flat, rows, cols, t_in)
        .expect("engine mvm");
    assert_eq!(analog.columns.len(), engine.len());
    for (j, (a, e)) in analog.columns.iter().zip(&engine).enumerate() {
        assert_eq!(a.saturated, e.saturated, "col {j}: saturation agreement");
        let dv = (a.v_out.0 - e.v_out.0).abs();
        assert!(dv < 0.01, "col {j}: v_out {} vs {}", a.v_out, e.v_out);
        if !e.saturated {
            let rel = (a.t_out.0 - e.t_out.0).abs() / e.t_out.0.max(1e-10);
            assert!(
                rel < 0.05,
                "col {j}: t_out {} ns vs {} ns (rel {rel})",
                a.t_out.as_nanos(),
                e.t_out.as_nanos()
            );
        }
    }
}

/// The headline oracle: a full 128×128 crossbar tile at circuit fidelity.
///
/// 387 MNA unknowns; the counters must show exactly one symbolic
/// analysis for the whole transient, with every switch event handled by a
/// value-only refactorization and every quiet step reusing the factors
/// outright.
#[test]
fn whole_tile_128x128_sparse_oracle() {
    let cfg = ResipeConfig::paper();
    let (rows, cols) = (128, 128);
    let g: Vec<Siemens> = (0..rows * cols).map(cell_g).collect();
    // Spike times quantized to five distinct values: the sample-and-hold
    // controller then dirties the netlist only five times during S1, so
    // the whole 4000-step run refactors a handful of times.
    let t_in: Vec<Seconds> = (0..rows)
        .map(|i| Seconds(((i * 7) % 5 + 1) as f64 * 10e-9))
        .collect();
    let step = Seconds(50e-12);
    let analog = AnalogMvm::new(cfg, &g, rows, cols)
        .expect("tile builds")
        .run(&t_in, step)
        .expect("sparse transient converges");

    let s = analog.solver_stats;
    assert_eq!(s.unknowns, 387, "(258 nodes − gnd) + 129 source branches");
    assert_eq!(s.symbolic_analyses, 1, "one analysis for the run: {s:?}");
    assert!(
        s.numeric_refactors >= 5 && s.numeric_refactors <= 16,
        "switch events refactor, never re-analyze: {s:?}"
    );
    assert_eq!(
        s.solves, 4000,
        "one solve per 50 ps step over 200 ns: {s:?}"
    );
    assert!(
        s.reused_factor_solves >= s.solves - 20,
        "quiet steps reuse factors outright: {s:?}"
    );
    check_columns(&analog, &g, rows, cols, &t_in);
}

/// Sweep points share one symbolic analysis through a `SolverSession`:
/// three different conductance maps on the same 32×32 topology analyze
/// once and refactor twice.
#[test]
fn sweep_points_share_symbolic_analysis() {
    let cfg = ResipeConfig::paper();
    let (rows, cols) = (32, 32);
    let t_in: Vec<Seconds> = (0..rows)
        .map(|i| Seconds(((i % 4 + 1) as f64) * 15e-9))
        .collect();
    let mut session = SolverSession::new();
    for scale in [1.0, 0.5, 2.0] {
        let g: Vec<Siemens> = (0..rows * cols)
            .map(|i| Siemens(cell_g(i).0 * scale))
            .collect();
        let analog = AnalogMvm::new(cfg, &g, rows, cols)
            .expect("tile builds")
            .run_with_session(&t_in, Seconds(100e-12), &mut session)
            .expect("transient converges");
        check_columns(&analog, &g, rows, cols, &t_in);
    }
    let totals = session.stats();
    assert_eq!(totals.symbolic_analyses, 1, "{totals:?}");
    assert_eq!(totals.symbolic_reuses, 2, "{totals:?}");
}

#[test]
fn zero_time_input_fires_immediately() {
    let cfg = ResipeConfig::paper();
    let g = [Siemens(100e-6)];
    let engine = ResipeEngine::new(cfg)
        .mac(&[Seconds(0.0)], &g)
        .expect("engine mac");
    assert!(engine.t_out.as_nanos() < 0.1);
    let analog = AnalogMac::new(cfg, &g)
        .expect("circuit builds")
        .run(&[Seconds(0.0)], STEP)
        .expect("transient converges");
    assert!(
        analog.t_out.as_nanos() < 1.0,
        "analog {}",
        analog.t_out.as_nanos()
    );
}
