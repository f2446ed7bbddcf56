//! Closed-form BIST ≡ the per-wordline engine probe.
//!
//! `run_bist` evaluates each one-hot wordline probe in closed form. The
//! reference below is the probe loop it replaced: for every physical
//! wordline, a full `ResipeEngine::mvm_matrix` call on the actual and on
//! the target conductances of each array, with that wordline at `t_max`
//! and every other at 0. The two must agree bit for bit in every column's
//! `worst_deviation` and `failing`, on healthy tiles and on tiles damaged
//! every way the system damages them: device-to-device process variation,
//! clustered stuck-at faults (the injection `CompileOptions::with_faults`
//! applies), drift and wear aging, and the repair ladder's spare remaps
//! and row permutations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use resipe::config::ResipeConfig;
use resipe::engine::ResipeEngine;
use resipe::mapping::{MappedWeights, Tile, TileMapper};
use resipe::repair::{repair_tile, run_bist, BistConfig, RepairPolicy};
use resipe_analog::units::Seconds;
use resipe_reram::aging::{AgingClock, AgingConfig};
use resipe_reram::device::ResistanceWindow;
use resipe_reram::faults::RetentionDrift;
use resipe_reram::VariationModel;

fn engine() -> ResipeEngine {
    ResipeEngine::new(ResipeConfig::paper())
}

/// The per-wordline probe loop over `mvm_matrix`: `(worst deviation,
/// failing)` per logical column.
fn reference_bist(
    engine: &ResipeEngine,
    tile: &Tile,
    window: ResistanceWindow,
    config: &BistConfig,
) -> Vec<(f64, bool)> {
    let cfg = engine.config();
    let tau = cfg.tau_gd().0;
    let vs = cfg.vs().0;
    let t_max = cfg.t_max().0;
    let v_ref = vs * (1.0 - (-t_max / tau).exp());
    let dt_over_c = cfg.dt().0 / cfg.c_cog().0;
    let r_acc = tile.access_resistance().0;
    let eff = |g: f64| 1.0 / (1.0 / g + r_acc);
    let (rows, phys_cols) = (tile.rows(), tile.physical_cols());
    let exp_plus: Vec<f64> = tile.target_plus().iter().map(|&g| eff(g)).collect();
    let exp_minus: Vec<f64> = tile.target_minus().iter().map(|&g| eff(g)).collect();
    let cell_swing: Vec<f64> = (0..phys_cols)
        .map(|c| {
            let gsum = tile.gsum_plus()[c].max(tile.gsum_minus()[c]).max(1e-18);
            let k = (1.0 - (-dt_over_c * gsum).exp()) / gsum;
            (v_ref * k * (eff(window.g_max().0) - eff(window.g_min().0))).max(1e-18)
        })
        .collect();
    let mut worst = vec![0.0f64; phys_cols];
    let mut t_in = vec![Seconds(0.0); rows];
    for p in 0..rows {
        t_in[p] = Seconds(t_max);
        for (actual, expected) in [(tile.eff_plus(), &exp_plus), (tile.eff_minus(), &exp_minus)] {
            let meas = engine.mvm_matrix(actual, rows, phys_cols, &t_in).unwrap();
            let exp = engine.mvm_matrix(expected, rows, phys_cols, &t_in).unwrap();
            for c in 0..phys_cols {
                let dev = (meas[c].v_out.0 - exp[c].v_out.0).abs() / cell_swing[c];
                if dev > worst[c] {
                    worst[c] = dev;
                }
            }
        }
        t_in[p] = Seconds(0.0);
    }
    tile.col_map()
        .iter()
        .map(|&pc| (worst[pc], worst[pc] > config.cell_threshold))
        .collect()
}

/// Asserts `run_bist` matches the reference on every tile of `mapped`.
fn assert_bist_matches(mapped: &MappedWeights, stage: &str) {
    let engine = engine();
    for config in [
        BistConfig::default(),
        BistConfig {
            cell_threshold: 0.05,
        },
    ] {
        for (ti, tile) in mapped.tiles().iter().enumerate() {
            let report = run_bist(&engine, tile, mapped.window(), &config).unwrap();
            let reference = reference_bist(&engine, tile, mapped.window(), &config);
            assert_eq!(report.columns.len(), reference.len(), "{stage} tile {ti}");
            for (col, (worst, failing)) in report.columns.iter().zip(reference) {
                assert_eq!(col.physical_col, tile.col_map()[col.logical_col]);
                assert_eq!(
                    col.worst_deviation.to_bits(),
                    worst.to_bits(),
                    "{stage} tile {ti} column {}: {} vs reference {worst}",
                    col.logical_col,
                    col.worst_deviation,
                );
                assert_eq!(col.failing, failing, "{stage} tile {ti}");
            }
        }
    }
}

fn random_weights(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Maps a random `rows × cols` matrix onto tiles of up to 64 wordlines.
fn mapped(rows: usize, cols: usize, spares: usize, seed: u64) -> MappedWeights {
    TileMapper::paper()
        .with_spare_cols(spares)
        .try_with_max_rows(64)
        .unwrap()
        .map(&random_weights(rows, cols, seed), rows, cols)
        .unwrap()
}

/// Retention drift plus endurance wear over `requests` served requests.
fn age(mapped: &mut MappedWeights, requests: u64, seed: u64) {
    let drift = RetentionDrift::new(Seconds(1e6)).unwrap();
    let config = AgingConfig::new(Seconds(100.0), drift)
        .unwrap()
        .with_wear_per_request(0.01)
        .unwrap()
        .with_seed(seed);
    let step = AgingClock::new(config).advance(requests).unwrap();
    mapped.age(&step).unwrap();
}

/// Runs the full repair ladder on every tile.
fn repair(mapped: &mut MappedWeights, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for ti in 0..mapped.tiles().len() {
        repair_tile(&engine(), mapped, ti, 0, &RepairPolicy::full(), &mut rng).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One tile (or two) walked through every kind of damage in turn,
    /// checked after each step.
    #[test]
    fn closed_form_bist_matches_engine_probe_loop(
        rows in 1usize..=64,
        cols in 1usize..=16,
        spares in 0usize..=3,
        sigma in 0.0f64..0.3,
        fault_rate in 0.0f64..0.15,
        requests in 1u64..40_000,
        seed in 0u64..10_000,
    ) {
        let fresh = mapped(rows, cols, spares, seed);
        assert_bist_matches(&fresh, "fresh");

        let model = VariationModel::device_to_device(sigma).unwrap();
        let pv = fresh.perturbed(&model, seed);
        assert_bist_matches(&pv, "pv");

        let faulty = pv.with_faults(fault_rate, 4, seed ^ 0xfa17).unwrap();
        assert_bist_matches(&faulty, "faults");

        let mut aged = faulty.clone();
        age(&mut aged, requests, seed);
        assert_bist_matches(&aged, "aged");

        repair(&mut aged, seed);
        assert_bist_matches(&aged, "repaired");
    }
}

/// The repair ladder's routing changes, pinned explicitly: after repair
/// tiles with spares serve some logical columns from spare bitlines, tiles
/// without drive their wordlines from permuted logical rows, and the
/// closed form still matches the probe loop on both.
#[test]
fn closed_form_bist_matches_after_spare_remap_and_row_permutation() {
    let (mut remapped, mut permuted) = (false, false);
    for seed in 0..8u64 {
        for spares in [0, 3] {
            let mut m = mapped(32, 6, spares, seed)
                .with_faults(0.1, 6, seed ^ 0xfa17)
                .unwrap();
            repair(&mut m, seed);
            assert_bist_matches(&m, "repaired");
            let tile = &m.tiles()[0];
            remapped |= tile.col_map().iter().enumerate().any(|(j, &pc)| j != pc);
            permuted |= tile.is_permuted();
        }
    }
    assert!(remapped, "no seed remapped a column onto a spare");
    assert!(permuted, "no seed kept a row permutation");
}
