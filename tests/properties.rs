//! Property-based tests (proptest) on the cross-crate invariants of the
//! reproduction: the engine's transfer function, the mapping round trip,
//! the spike codec, and the closed-form S1/S2 voltage codec against the
//! time-domain formulas it replaces.

use proptest::prelude::*;

use resipe_suite::analog::units::{Seconds, Siemens, Volts};
use resipe_suite::core::config::ResipeConfig;
use resipe_suite::core::engine::ResipeEngine;
use resipe_suite::core::mapping::{SpikeEncoding, TileMapper, VoltageCodec};
use resipe_suite::core::repair::{repair_tile, run_bist, BistConfig, RepairPolicy, TileStatus};
use resipe_suite::core::spike::SpikeCodec;
use resipe_suite::reram::device::{ReramCell, ResistanceWindow};
use resipe_suite::reram::faults::{CellFault, FaultMap};
use resipe_suite::reram::program::{ProgramConfig, Programmer};

fn engine() -> ResipeEngine {
    ResipeEngine::new(ResipeConfig::paper())
}

/// Test-only oracle: the time-domain S2 decode the closed form replaced.
/// The comparator fires at `t = f⁻¹(v_eff)`, optionally rounded to the
/// quantum `q`, cut at the slice end, and the peripheral reads back
/// `f(t)`. Returns the read-back voltage and whether the spike
/// saturated.
fn ln_exp_decode(cfg: &ResipeConfig, v_eff: f64, q: Option<f64>) -> (f64, bool) {
    let (tau, vs, slice) = (cfg.tau_gd().0, cfg.vs().0, cfg.slice().0);
    let mut t = -tau * (1.0 - v_eff / vs).ln();
    if let Some(q) = q {
        t = (t / q).round() * q;
    }
    let saturated = t > slice;
    let t = t.min(slice);
    (vs * (1.0 - (-t / tau).exp()), saturated)
}

/// Test-only oracle: the time-domain pass-through S1 encode the closed
/// form replaced — the spike at `t = f⁻¹(a·V_ref)` sampled on the ramp.
fn ln_exp_pass_through(cfg: &ResipeConfig, a: f64) -> f64 {
    let (tau, vs, t_max) = (cfg.tau_gd().0, cfg.vs().0, cfg.t_max().0);
    let v_ref = vs * (1.0 - (-t_max / tau).exp());
    let t = Seconds(-tau * (1.0 - a * v_ref / vs).ln());
    vs * (1.0 - (-t.0 / tau).exp())
}

/// The spacing of `f64` values at `x > 0`.
fn ulp(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1) - x
}

/// How far the closed forms may sit from the `ln`/`exp` oracles, in
/// units of `ulp(V_s)`.
///
/// Both oracles evaluate the round trip `f(f⁻¹(v))` for some `v` in
/// `[0, V_s)`, where the closed form returns `v` itself. With unit
/// roundoff `u = 2⁻⁵³`, and `ln`/`exp` within one ulp (relative error
/// `2u`):
///
/// * `x = v/V_s` and `y = 1 − x` carry an absolute error of at most
///   `u·x + u·(1 − x) = u`;
/// * `ln y`, the products with `τ` and the division by `τ` put a
///   relative error of at most `4u` on the exponent `ln y`, so
///   `exp(·)` lands within `y·|ln y|·4u + 2u·y ≤ 4u/e + 2u·y` of `y`
///   (`y·|ln y| ≤ 1/e`);
/// * `1 − exp(·)` and the final product with `V_s` round by at most
///   `u` each, relative to a result of at most `1`.
///
/// Summed, `|f(f⁻¹(v)) − v| ≤ V_s·u·(4/e + 3) < 4.5·u·V_s` to first
/// order, and `u·V_s < ulp(V_s)`. Five ulps leave room for the
/// second-order terms. Zero, clamped and saturated columns take no
/// rounded step in either form, so they must agree exactly.
const ULP_BOUND: f64 = 5.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The MAC output always lies within the slice and never goes
    /// negative, for any in-range inputs and conductances.
    #[test]
    fn mac_output_within_slice(
        t1 in 0.0..100.0f64,
        t2 in 0.0..100.0f64,
        g1 in 1e-7..2e-3f64,
        g2 in 1e-7..2e-3f64,
    ) {
        let mac = engine()
            .mac(
                &[Seconds(t1 * 1e-9), Seconds(t2 * 1e-9)],
                &[Siemens(g1), Siemens(g2)],
            )
            .expect("valid inputs");
        prop_assert!(mac.t_out.0 >= 0.0);
        prop_assert!(mac.t_out.0 <= 100e-9 + 1e-15);
        prop_assert!(mac.v_out.0 >= 0.0 && mac.v_out.0 < 1.0);
    }

    /// The exact output never exceeds the Eq. 5 linear prediction scaled
    /// by the slice (C_cog charging can only undershoot its target).
    #[test]
    fn exact_never_exceeds_quasi_mean_bound(
        t in 1.0..80.0f64,
        g in 1e-6..1e-4f64,
        n in 1usize..16,
    ) {
        let t_in = vec![Seconds(t * 1e-9); n];
        let g_vec = vec![Siemens(g); n];
        let mac = engine().mac(&t_in, &g_vec).expect("valid inputs");
        // With identical inputs the quasi-arithmetic mean is exact:
        // t_out <= t_in always (charging factor <= 1).
        prop_assert!(
            mac.t_out.0 <= t * 1e-9 + 1e-15,
            "t_out {} ns vs t_in {} ns", mac.t_out.0 * 1e9, t
        );
    }

    /// Monotonicity: delaying any input spike never makes the output
    /// spike earlier.
    #[test]
    fn mac_monotone_in_each_input(
        base in 5.0..40.0f64,
        delta in 0.0..40.0f64,
        g1 in 1e-6..5e-4f64,
        g2 in 1e-6..5e-4f64,
    ) {
        let e = engine();
        let g = [Siemens(g1), Siemens(g2)];
        let a = e.mac(&[Seconds(base * 1e-9), Seconds(20e-9)], &g).expect("valid");
        let b = e
            .mac(&[Seconds((base + delta) * 1e-9), Seconds(20e-9)], &g)
            .expect("valid");
        prop_assert!(b.t_out.0 >= a.t_out.0 - 1e-15);
    }

    /// Spike codec round trip is exact for in-range values.
    #[test]
    fn codec_round_trip(v in 0.0..=1.0f64) {
        let codec = SpikeCodec::new(ResipeConfig::paper()).expect("valid");
        let spike = codec.encode(v).expect("in range");
        prop_assert!((codec.decode(spike) - v).abs() < 1e-12);
    }

    /// The differential mapping reconstructs weights to within the
    /// access-resistance concavity bound.
    #[test]
    fn mapping_round_trip(
        w1 in -1.0..1.0f64,
        w2 in -1.0..1.0f64,
        w3 in -1.0..1.0f64,
        w4 in -1.0..1.0f64,
    ) {
        let weights = [w1, w2, w3, w4];
        let mapped = TileMapper::paper().map(&weights, 2, 2).expect("maps");
        for r in 0..2 {
            for c in 0..2 {
                let back = mapped.reconstruct_weight(r, c);
                let expected = weights[r * 2 + c];
                prop_assert!(
                    (back - expected).abs() < 0.05 * mapped.weight_scale().max(1e-6) + 1e-9,
                    "({r},{c}): {back} vs {expected}"
                );
            }
        }
    }

    /// The pass-through hardware forward tracks the ideal dot product for
    /// any activation vector.
    #[test]
    fn pass_through_tracks_ideal(
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 8, 2).expect("maps");
        let a: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..1.0)).collect();
        let hw = mapped
            .forward(&engine(), &a, SpikeEncoding::PassThrough)
            .expect("runs");
        let ideal = mapped.forward_ideal(&a).expect("runs");
        let scale = ideal.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-9);
        for (h, i) in hw.iter().zip(&ideal) {
            prop_assert!((h - i).abs() / scale < 0.02, "hw {h} vs ideal {i}");
        }
    }

    /// Write–verify programming converges within the pulse budget for any
    /// reachable target, from any starting state.
    #[test]
    fn write_verify_converges_within_budget(
        target_frac in 0.0..=1.0f64,
        start_frac in 0.0..=1.0f64,
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let window = ResistanceWindow::RECOMMENDED;
        let mut cell = ReramCell::new(window);
        cell.program_fraction(start_frac).expect("in range");
        let config = ProgramConfig::typical();
        let target = window
            .conductance_for_fraction(target_frac)
            .expect("in range");
        let report = Programmer::new(config)
            .program(&mut cell, target, &mut rng)
            .expect("reachable target");
        prop_assert!(
            report.converged,
            "did not converge in {} pulses (final error {})",
            report.pulses,
            report.final_error
        );
        prop_assert!(report.pulses <= config.max_pulses());
        let err = ((cell.conductance().0 - target.0) / window.g_max().0).abs();
        prop_assert!(err <= config.tolerance() + 1e-12, "residual error {err}");
    }

    /// Repair is idempotent on a healthy tile: the full ladder detects
    /// nothing, burns no programming pulses, and leaves the mapping
    /// bit-identical.
    #[test]
    fn repair_is_idempotent_on_healthy_tile(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut mapped = TileMapper::paper()
            .with_spare_cols(2)
            .map(&weights, 6, 4)
            .expect("maps");
        let before = mapped.clone();
        let health = repair_tile(
            &engine(),
            &mut mapped,
            0,
            0,
            &RepairPolicy::full(),
            &mut rng,
        )
        .expect("repair runs");
        prop_assert_eq!(health.status, TileStatus::Healthy);
        prop_assert_eq!(health.repair_pulses, 0);
        prop_assert!(mapped == before, "healthy-tile repair mutated the mapping");
    }

    /// A fully-stuck column is never silently used: after the repair
    /// ladder runs, every logical column either passes BIST (it was
    /// remapped to a spare, reprogrammed around, or happened to be stuck
    /// at its own target) or the tile is flagged `Degraded`.
    #[test]
    fn fully_stuck_column_never_silently_used(
        seed in 0u64..300,
        col in 0usize..4,
        stuck_lrs in any::<bool>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper()
            .with_spare_cols(1)
            .map(&weights, 8, 4)
            .expect("maps");
        let (rows, phys) = {
            let tile = &mapped.tiles()[0];
            (tile.rows(), tile.physical_cols())
        };
        let fault = if stuck_lrs { CellFault::StuckLrs } else { CellFault::StuckHrs };
        let mut plus = FaultMap::healthy(rows, phys);
        for r in 0..rows {
            plus.set(r, col, fault);
        }
        let mut mapped = mapped
            .with_fault_maps(0, plus, FaultMap::healthy(rows, phys))
            .expect("geometry matches");
        let health = repair_tile(
            &engine(),
            &mut mapped,
            0,
            0,
            &RepairPolicy::full(),
            &mut rng,
        )
        .expect("repair runs");
        let tile = &mapped.tiles()[0];
        let bist = run_bist(&engine(), tile, mapped.window(), &BistConfig::default())
            .expect("bist runs");
        prop_assert!(
            health.status == TileStatus::Degraded || bist.all_pass(),
            "tile reported {:?} but BIST still fails cols {:?}",
            health.status,
            bist.failing_cols()
        );
    }
    /// The closed-form S2 decode `min(V_eff, V_sat)` stays within
    /// [`ULP_BOUND`] ulps of `V_s` from the time-domain decode, for any
    /// supply voltage, bitline voltage and comparator offset, and agrees
    /// with it exactly on zero, clamped and saturated columns. With a
    /// time quantum the codec still decodes in the time domain, so it
    /// must match the oracle bit for bit.
    #[test]
    fn closed_form_decode_within_ulp_bound(
        vs in 0.5..3.0f64,
        v_frac in -0.1..1.1f64,
        offset_frac in -0.05..0.05f64,
    ) {
        let cfg = ResipeConfig::paper().with_vs(Volts(vs));
        let codec = VoltageCodec::new(&cfg, None);
        let (v_out, offset) = (v_frac * vs, offset_frac * vs);
        let d = codec.decode(v_out, offset);
        let (old, old_saturated) = ln_exp_decode(&cfg, d.v_eff, None);
        let err = (d.v_hat - old).abs() / ulp(vs);
        prop_assert!(err <= ULP_BOUND, "v_eff {:e}: {:e} vs {:e} ({err} ulp)", d.v_eff, d.v_hat, old);
        if d.v_eff == 0.0 || d.offset_clamped || (d.saturated && old_saturated) {
            prop_assert_eq!(d.v_hat.to_bits(), old.to_bits());
        }
        prop_assert!(d.saturated == old_saturated || (d.v_eff - codec.v_sat()).abs() <= ULP_BOUND * ulp(vs));
        let quantized = VoltageCodec::new(&cfg, Some(Seconds(1e-9))).decode(v_out, offset);
        let (old_q, old_q_saturated) = ln_exp_decode(&cfg, quantized.v_eff, Some(1e-9));
        prop_assert_eq!(quantized.v_hat.to_bits(), old_q.to_bits());
        prop_assert_eq!(quantized.saturated, old_q_saturated);
    }

    /// Around the saturation voltage, where the two forms switch between
    /// `V_eff` and `V_sat`, the closed form stays within the bound, and
    /// both forms read back the same `V_sat` once both saturate.
    #[test]
    fn closed_form_decode_at_saturation_edge(
        vs in 0.5..3.0f64,
        ulps in -64i64..64,
    ) {
        let cfg = ResipeConfig::paper().with_vs(Volts(vs));
        let codec = VoltageCodec::new(&cfg, None);
        let v_out = f64::from_bits((codec.v_sat().to_bits() as i64 + ulps) as u64);
        let d = codec.decode(v_out, 0.0);
        prop_assert_eq!(d.saturated, ulps > 0);
        let (old, old_saturated) = ln_exp_decode(&cfg, d.v_eff, None);
        prop_assert!((d.v_hat - old).abs() <= ULP_BOUND * ulp(vs));
        if d.saturated && old_saturated {
            prop_assert_eq!(d.v_hat.to_bits(), old.to_bits());
        }
    }

    /// The closed-form pass-through encode `a·V_ref` stays within
    /// [`ULP_BOUND`] ulps of `V_s` from the ramp sampled at
    /// `f⁻¹(a·V_ref)`, and zero holds exactly `+0.0`. The linear-time
    /// encode keeps its one `exp`, so it matches the ramp bit for bit.
    #[test]
    fn closed_form_pass_through_within_ulp_bound(
        vs in 0.5..3.0f64,
        a in 0.0..=1.0f64,
    ) {
        let cfg = ResipeConfig::paper().with_vs(Volts(vs));
        let codec = VoltageCodec::new(&cfg, None);
        let held = codec.held_voltage(SpikeEncoding::PassThrough, a);
        let old = ln_exp_pass_through(&cfg, a);
        prop_assert!((held - old).abs() <= ULP_BOUND * ulp(vs), "a {a}: {held:e} vs {old:e}");
        for zero in [0.0, -0.0, -0.5] {
            let z = codec.held_voltage(SpikeEncoding::PassThrough, zero);
            prop_assert_eq!(z.to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(z.to_bits(), ln_exp_pass_through(&cfg, zero.max(0.0)).to_bits());
        }
        let (tau, t_max) = (cfg.tau_gd().0, cfg.t_max().0);
        let ramp = vs * (1.0 - (-(a * t_max) / tau).exp());
        prop_assert_eq!(codec.held_voltage(SpikeEncoding::LinearTime, a).to_bits(), ramp.to_bits());
    }
}
