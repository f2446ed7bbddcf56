//! Online fault detection (BIST) and the tile repair ladder.
//!
//! ReRAM arrays accumulate hard faults — stuck-at cells from endurance
//! wear-out or forming failures, and retention drift that pulls programmed
//! conductances toward HRS. This module provides the defensive layer the
//! paper's architecture implies but does not spell out:
//!
//! 1. **BIST** ([`run_bist`]) — a built-in self-test that fires known
//!    single-spike probes (one wordline at full scale, the rest silent)
//!    through the engine's own equations — evaluated in closed form for a
//!    one-hot input, bit-identical to a full engine MVM per probe — and
//!    compares each column's response against the response the
//!    *design-time target* conductances would produce. Deviations are
//!    normalized to one full single-cell swing at the column output, so a
//!    threshold of 1.0 means "as wrong as one cell flipped across its
//!    whole window".
//! 2. **The repair ladder** ([`repair_tile`]) — escalating responses to a
//!    failing column:
//!    * *reprogram*: write–verify the column again with a retry budget,
//!      relaxing the verify tolerance per attempt (transient programming
//!      errors and drift are fixed here; stuck cells only burn pulses);
//!    * *spare remap*: copy the column's targets onto a reserved spare
//!      bitline, program it, and reroute the logical column (spares can
//!      themselves be faulty, in which case the next spare is tried);
//!    * *row permutation*: re-sort the tile's wordline assignment so
//!      large-magnitude logical rows land on the least-faulty physical
//!      rows, then reprogram the whole tile (reverted if it does not
//!      reduce the failing-column count);
//!    * *graceful degradation*: mark the tile degraded and report it —
//!      inference keeps running on the damaged array instead of failing.
//!
//! Every rung accounts its programming pulses and energy so fault-sweep
//! campaigns can report the cost of repair, not just its benefit.

use rand::Rng;
use serde::{Deserialize, Serialize};

use resipe_analog::units::{Joules, Seconds, Siemens};
use resipe_reram::device::{ReramCell, ResistanceWindow};
use resipe_reram::faults::FaultMap;
use resipe_reram::program::{ProgramConfig, Programmer};

use crate::engine::{decode_constant, ramp_voltage, ResipeEngine};
use crate::error::ResipeError;
use crate::mapping::{MappedWeights, Tile};

/// Built-in self-test parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BistConfig {
    /// Per-cell deviation threshold in units of one full single-cell
    /// output swing. Process variation at σ = 10 % lands around 0.1–0.2;
    /// a cell stuck across its window lands at ~1.0.
    pub cell_threshold: f64,
}

impl Default for BistConfig {
    fn default() -> BistConfig {
        BistConfig {
            cell_threshold: 0.4,
        }
    }
}

/// Per-logical-column BIST outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColumnDiagnosis {
    /// Logical column index in the tile.
    pub logical_col: usize,
    /// Physical bitline currently serving the column.
    pub physical_col: usize,
    /// Worst per-cell deviation observed, in single-cell-swing units.
    pub worst_deviation: f64,
    /// `true` if the worst deviation exceeds the BIST threshold.
    pub failing: bool,
}

/// Result of one BIST pass over a tile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BistReport {
    /// One diagnosis per logical column.
    pub columns: Vec<ColumnDiagnosis>,
}

impl BistReport {
    /// Logical columns currently failing.
    pub fn failing_cols(&self) -> Vec<usize> {
        self.columns
            .iter()
            .filter(|c| c.failing)
            .map(|c| c.logical_col)
            .collect()
    }

    /// Number of failing logical columns.
    pub fn failing_count(&self) -> usize {
        self.columns.iter().filter(|c| c.failing).count()
    }

    /// `true` if every logical column passes.
    pub fn all_pass(&self) -> bool {
        self.failing_count() == 0
    }
}

/// How aggressively to repair a failing tile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepairPolicy {
    /// Detection parameters.
    pub bist: BistConfig,
    /// Rung 1: write–verify retry attempts per failing column (0 skips
    /// the rung entirely).
    pub reprogram_attempts: usize,
    /// Verify-tolerance relaxation factor applied per retry (≥ 1).
    pub tolerance_backoff: f64,
    /// Pulse budget per cell per programming attempt.
    pub pulse_budget: usize,
    /// Rung 2: remap failing columns onto reserved spare bitlines.
    pub use_spares: bool,
    /// Rung 3: fault-aware row permutation (large-|w| rows routed away
    /// from faulty wordlines), reverted if it does not help.
    pub permute_rows: bool,
}

impl RepairPolicy {
    /// Detection only: BIST runs and tiles are flagged, but nothing is
    /// rewritten — the no-repair baseline of fault campaigns.
    pub fn detect_only() -> RepairPolicy {
        RepairPolicy {
            bist: BistConfig::default(),
            reprogram_attempts: 0,
            tolerance_backoff: 2.0,
            pulse_budget: 32,
            use_spares: false,
            permute_rows: false,
        }
    }

    /// The full ladder: reprogram with retry, spare remap, row
    /// permutation, then graceful degradation.
    pub fn full() -> RepairPolicy {
        RepairPolicy {
            bist: BistConfig::default(),
            reprogram_attempts: 2,
            tolerance_backoff: 2.0,
            pulse_budget: 32,
            use_spares: true,
            permute_rows: true,
        }
    }
}

impl Default for RepairPolicy {
    fn default() -> RepairPolicy {
        RepairPolicy::full()
    }
}

/// Final state of a tile after the ladder ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TileStatus {
    /// BIST found nothing wrong.
    Healthy,
    /// Faults were found and every failing column was recovered.
    Repaired,
    /// Failing columns remain; inference continues on the damaged tile.
    Degraded,
}

/// Per-tile health and repair accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileHealth {
    /// Layer index within the network.
    pub layer: usize,
    /// Tile index within the layer's mapped weights.
    pub tile_index: usize,
    /// Outcome after the ladder ran.
    pub status: TileStatus,
    /// Failing logical columns before repair.
    pub failing_before: usize,
    /// Failing logical columns after repair.
    pub failing_after: usize,
    /// Columns recovered by write–verify reprogramming.
    pub reprogrammed_cols: usize,
    /// Columns rerouted onto spare bitlines.
    pub remapped_cols: usize,
    /// `true` if a row permutation was kept.
    pub permuted: bool,
    /// Spare bitlines consumed (including spares burned on faulty
    /// spares).
    pub spares_used: usize,
    /// Total programming pulses spent on repair.
    pub repair_pulses: u64,
    /// Total programming energy spent on repair.
    pub repair_energy: Joules,
}

/// Health of every tile of a compiled network.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// Per-tile entries, in (layer, tile) order.
    pub tiles: Vec<TileHealth>,
}

impl HealthReport {
    /// Number of tiles left degraded.
    pub fn degraded_tiles(&self) -> usize {
        self.tiles
            .iter()
            .filter(|t| t.status == TileStatus::Degraded)
            .count()
    }

    /// Number of tiles fully repaired.
    pub fn repaired_tiles(&self) -> usize {
        self.tiles
            .iter()
            .filter(|t| t.status == TileStatus::Repaired)
            .count()
    }

    /// Total repair energy across all tiles.
    pub fn total_repair_energy(&self) -> Joules {
        Joules(self.tiles.iter().map(|t| t.repair_energy.0).sum())
    }

    /// Total programming pulses across all tiles.
    pub fn total_repair_pulses(&self) -> u64 {
        self.tiles.iter().map(|t| t.repair_pulses).sum()
    }

    /// Total spare bitlines consumed.
    pub fn total_spares_used(&self) -> usize {
        self.tiles.iter().map(|t| t.spares_used).sum()
    }

    /// `true` if no tile is degraded.
    pub fn is_healthy(&self) -> bool {
        self.degraded_tiles() == 0
    }
}

/// Runs the built-in self-test on one tile.
///
/// Each physical wordline is probed with a full-scale single spike while
/// the others stay silent; the measured column voltages (actual cells) are
/// compared against the voltages the design targets would produce, both
/// through the engine's own equations. A one-hot input lets those
/// equations run in closed form (see `ResipeEngine::one_hot_v_out`): the
/// voltages are bit-identical to a full engine MVM per probe, at
/// `O(rows · cols)` cost per tile instead of `O(rows² · cols)`.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_bist(
    engine: &ResipeEngine,
    tile: &Tile,
    window: ResistanceWindow,
    config: &BistConfig,
) -> Result<BistReport, ResipeError> {
    let cfg = engine.config();
    let tau = cfg.tau_gd().0;
    let vs = cfg.vs().0;
    let t_max = cfg.t_max().0;
    let v_ref = ramp_voltage(t_max, vs, tau);
    let dt_over_c = cfg.gain().0;
    let r_acc = tile.access_resistance;
    let eff = |g: f64| 1.0 / (1.0 / g + r_acc);

    let target_eff = |targets: &[f64]| -> Vec<f64> { targets.iter().map(|&g| eff(g)).collect() };
    let exp_plus = target_eff(&tile.target_plus);
    let exp_minus = target_eff(&tile.target_minus);

    // Per-physical-column normalization: the output swing of one cell
    // moving across its whole window, at the nominal decode constant.
    let cell_swing: Vec<f64> = (0..tile.phys_cols)
        .map(|c| {
            let gsum = tile.gsum_plus[c].max(tile.gsum_minus[c]).max(1e-18);
            let k = decode_constant(gsum, dt_over_c);
            (v_ref * k * (eff(window.g_max().0) - eff(window.g_min().0))).max(1e-18)
        })
        .collect();

    // Every probe of one matrix at once: row p of each is the column
    // voltages with wordline p at full scale and the rest silent.
    let probe = |g: &[f64]| engine.one_hot_v_out(g, tile.rows, tile.phys_cols, Seconds(t_max));
    let pairs = [
        (probe(&tile.eff_plus)?, probe(&exp_plus)?),
        (probe(&tile.eff_minus)?, probe(&exp_minus)?),
    ];
    let mut worst = vec![0.0f64; tile.phys_cols];
    for p in 0..tile.rows {
        let row = p * tile.phys_cols;
        for (meas, exp) in &pairs {
            for c in 0..tile.phys_cols {
                let dev = (meas[row + c] - exp[row + c]).abs() / cell_swing[c];
                if dev > worst[c] {
                    worst[c] = dev;
                }
            }
        }
    }

    let columns = (0..tile.cols)
        .map(|j| {
            let pc = tile.col_map[j];
            ColumnDiagnosis {
                logical_col: j,
                physical_col: pc,
                worst_deviation: worst[pc],
                failing: worst[pc] > config.cell_threshold,
            }
        })
        .collect();
    Ok(BistReport { columns })
}

/// Write–verifies one physical column of one array toward its targets.
///
/// Stuck cells cannot move: the programmer burns its full pulse budget on
/// them unless the pinned value already satisfies the verify window.
/// Returns `(pulses, energy_joules, all_converged)`.
fn program_column<R: Rng + ?Sized>(
    cells: &mut [f64],
    targets: &[f64],
    faults: &FaultMap,
    pc: usize,
    programmer: &Programmer,
    window: ResistanceWindow,
    rng: &mut R,
) -> (u64, f64, bool) {
    // The fault map shares the array's physical geometry.
    let rows = faults.rows();
    let phys_cols = faults.cols();
    let g_max = window.g_max().0;
    let tol = programmer.config().tolerance();
    let budget = programmer.config().max_pulses();
    let pulse_energy = programmer.config().pulse_energy().0;
    let mut pulses = 0u64;
    let mut energy = 0.0;
    let mut all_converged = true;
    for p in 0..rows {
        let idx = p * phys_cols + pc;
        let target = window.clamp(Siemens(targets[idx]));
        if let Some(g) = faults.fault(p, pc).stuck_conductance(window) {
            cells[idx] = g.0;
            let err = (g.0 - target.0).abs() / g_max;
            if err > tol {
                // The verify read never passes; the whole budget is burned.
                pulses += budget as u64;
                energy += budget as f64 * pulse_energy;
                all_converged = false;
            }
            continue;
        }
        let mut cell = ReramCell::new(window);
        cell.program_conductance(Siemens(cells[idx]));
        let report = programmer
            .program(&mut cell, target, rng)
            .expect("target clamped into window");
        cells[idx] = cell.conductance().0;
        pulses += report.pulses as u64;
        energy += report.energy.0;
        all_converged &= report.converged;
    }
    (pulses, energy, all_converged)
}

/// Write–verifies both arrays of one physical column. Returns
/// `(pulses, energy, converged)`.
fn program_column_pair<R: Rng + ?Sized>(
    tile: &mut Tile,
    pc: usize,
    programmer: &Programmer,
    window: ResistanceWindow,
    rng: &mut R,
) -> (u64, f64, bool) {
    let (p1, e1, c1) = program_column(
        &mut tile.cell_plus,
        &tile.target_plus,
        &tile.fault_plus,
        pc,
        programmer,
        window,
        rng,
    );
    let (p2, e2, c2) = program_column(
        &mut tile.cell_minus,
        &tile.target_minus,
        &tile.fault_minus,
        pc,
        programmer,
        window,
        rng,
    );
    (p1 + p2, e1 + e2, c1 && c2)
}

/// Builds a programmer for one repair attempt: the base config with the
/// policy's pulse budget and a verify tolerance relaxed by
/// `tolerance_backoff^attempt`.
fn attempt_programmer(policy: &RepairPolicy, attempt: usize) -> Programmer {
    let base = ProgramConfig::typical();
    let tol = base.tolerance() * policy.tolerance_backoff.max(1.0).powi(attempt as i32);
    let cfg = base
        .with_tolerance(tol)
        .and_then(|c| c.with_max_pulses(policy.pulse_budget.max(1)))
        .expect("repair programming config is valid");
    Programmer::new(cfg)
}

/// Runs the repair ladder on one tile of `mapped`, in place.
///
/// Never fails the tile: if every rung is exhausted the tile is marked
/// [`TileStatus::Degraded`] and inference proceeds on the damaged array.
///
/// # Errors
///
/// Propagates engine errors from the BIST passes.
///
/// # Panics
///
/// Panics if `tile_index` is out of range.
pub fn repair_tile<R: Rng + ?Sized>(
    engine: &ResipeEngine,
    mapped: &mut MappedWeights,
    tile_index: usize,
    layer: usize,
    policy: &RepairPolicy,
    rng: &mut R,
) -> Result<TileHealth, ResipeError> {
    let before = run_bist(
        engine,
        &mapped.tiles()[tile_index],
        mapped.window(),
        &policy.bist,
    )?;
    repair_tile_from(engine, mapped, tile_index, layer, policy, &before, rng)
}

/// [`repair_tile`] opening from `before`, a BIST report already taken on
/// the unchanged tile under `policy.bist` (the scrubber's detection
/// probe), so the tile is not probed twice. [`run_bist`] draws no
/// randomness, so the outcome is bit-identical to [`repair_tile`].
pub(crate) fn repair_tile_from<R: Rng + ?Sized>(
    engine: &ResipeEngine,
    mapped: &mut MappedWeights,
    tile_index: usize,
    layer: usize,
    policy: &RepairPolicy,
    before: &BistReport,
    rng: &mut R,
) -> Result<TileHealth, ResipeError> {
    let window = mapped.window();
    let tile = &mut mapped.tiles_mut()[tile_index];

    let failing_before = before.failing_count();
    let mut health = TileHealth {
        layer,
        tile_index,
        status: TileStatus::Healthy,
        failing_before,
        failing_after: 0,
        reprogrammed_cols: 0,
        remapped_cols: 0,
        permuted: false,
        spares_used: tile.spares_used,
        repair_pulses: 0,
        repair_energy: Joules(0.0),
    };
    if failing_before == 0 {
        return Ok(health);
    }

    let mut failing = before.failing_cols();

    // Rung 1: reprogram with retry and tolerance backoff.
    for attempt in 0..policy.reprogram_attempts {
        if failing.is_empty() {
            break;
        }
        let programmer = attempt_programmer(policy, attempt);
        for &j in &failing {
            let pc = tile.col_map[j];
            let (pulses, energy, _) = program_column_pair(tile, pc, &programmer, window, rng);
            health.repair_pulses += pulses;
            health.repair_energy.0 += energy;
        }
        tile.pin_faults(window);
        let report = run_bist(engine, tile, window, &policy.bist)?;
        let still: Vec<usize> = report.failing_cols();
        health.reprogrammed_cols += failing.iter().filter(|j| !still.contains(j)).count();
        failing = still;
    }

    // Rung 2: remap still-failing columns onto spare bitlines. A spare is
    // consumed even when it turns out faulty itself — the next is tried.
    if policy.use_spares && !failing.is_empty() {
        let programmer = attempt_programmer(policy, 0);
        let mut remaining = Vec::new();
        for &j in &failing {
            let mut recovered = false;
            while tile.spares_used < tile.spare_cols() {
                let pc_spare = tile.cols + tile.spares_used;
                tile.spares_used += 1;
                let pc_old = tile.col_map[j];
                for p in 0..tile.rows {
                    let src = p * tile.phys_cols + pc_old;
                    let dst = p * tile.phys_cols + pc_spare;
                    tile.target_plus[dst] = tile.target_plus[src];
                    tile.target_minus[dst] = tile.target_minus[src];
                }
                let (pulses, energy, _) =
                    program_column_pair(tile, pc_spare, &programmer, window, rng);
                health.repair_pulses += pulses;
                health.repair_energy.0 += energy;
                tile.pin_faults(window);
                tile.recompute_design_gsums();
                tile.col_map[j] = pc_spare;
                let report = run_bist(engine, tile, window, &policy.bist)?;
                if !report.failing_cols().contains(&j) {
                    recovered = true;
                    health.remapped_cols += 1;
                    break;
                }
                // Faulty spare: route back and try the next one.
                tile.col_map[j] = pc_old;
            }
            if !recovered {
                remaining.push(j);
            }
        }
        failing = remaining;
    }

    // Rung 3: fault-aware row permutation — route large-magnitude logical
    // rows onto the least-faulty physical wordlines, reprogram the whole
    // tile, and keep the result only if it reduces the failing count.
    if policy.permute_rows && !failing.is_empty() && tile.rows > 1 {
        let snapshot = tile.clone();

        // Badness of each physical wordline: stuck cells across the
        // bitlines actually in use.
        let used_cols: Vec<usize> = tile.col_map.clone();
        let badness: Vec<usize> = (0..tile.rows)
            .map(|p| {
                used_cols
                    .iter()
                    .map(|&pc| {
                        tile.fault_plus.fault(p, pc).is_stuck() as usize
                            + tile.fault_minus.fault(p, pc).is_stuck() as usize
                    })
                    .sum()
            })
            .collect();

        // Recover the logical target rows from the current routing.
        let mut logical_plus = vec![0.0; tile.rows * tile.phys_cols];
        let mut logical_minus = vec![0.0; tile.rows * tile.phys_cols];
        for p in 0..tile.rows {
            let l = tile.row_source[p];
            let src = p * tile.phys_cols;
            let dst = l * tile.phys_cols;
            logical_plus[dst..dst + tile.phys_cols]
                .copy_from_slice(&tile.target_plus[src..src + tile.phys_cols]);
            logical_minus[dst..dst + tile.phys_cols]
                .copy_from_slice(&tile.target_minus[src..src + tile.phys_cols]);
        }

        // Importance of each logical row: total mapped weight magnitude.
        let importance: Vec<f64> = (0..tile.rows)
            .map(|l| {
                used_cols
                    .iter()
                    .map(|&pc| {
                        (logical_plus[l * tile.phys_cols + pc]
                            - logical_minus[l * tile.phys_cols + pc])
                            .abs()
                    })
                    .sum()
            })
            .collect();

        let mut phys_by_badness: Vec<usize> = (0..tile.rows).collect();
        phys_by_badness.sort_by_key(|&p| badness[p]);
        let mut logical_by_importance: Vec<usize> = (0..tile.rows).collect();
        logical_by_importance.sort_by(|&a, &b| {
            importance[b]
                .partial_cmp(&importance[a])
                .expect("importance is finite")
        });

        for (rank, &p) in phys_by_badness.iter().enumerate() {
            let l = logical_by_importance[rank];
            tile.row_source[p] = l;
            let src = l * tile.phys_cols;
            let dst = p * tile.phys_cols;
            let n = tile.phys_cols;
            tile.target_plus[dst..dst + n].copy_from_slice(&logical_plus[src..src + n]);
            tile.target_minus[dst..dst + n].copy_from_slice(&logical_minus[src..src + n]);
        }

        let programmer = attempt_programmer(policy, 0);
        for pc in 0..tile.phys_cols {
            let (pulses, energy, _) = program_column_pair(tile, pc, &programmer, window, rng);
            health.repair_pulses += pulses;
            health.repair_energy.0 += energy;
        }
        tile.pin_faults(window);
        tile.recompute_design_gsums();

        let report = run_bist(engine, tile, window, &policy.bist)?;
        let still = report.failing_cols();
        if still.len() < failing.len() {
            health.permuted = true;
            failing = still;
        } else {
            // The permutation didn't help; revert (the energy stays spent).
            *tile = snapshot;
        }
    }

    health.failing_after = failing.len();
    health.spares_used = tile.spares_used;
    health.status = if failing.is_empty() {
        TileStatus::Repaired
    } else {
        TileStatus::Degraded
    };
    Ok(health)
}

/// Runs the repair ladder on every tile of one mapped layer, appending a
/// [`TileHealth`] per tile.
///
/// Each tile programs with write noise drawn from its own
/// [`crate::seeds::substream`] of `base_seed`, so the repair outcome of a
/// tile is a pure function of `(base_seed, tile index)` — independent of
/// how many tiles precede it (the per-tile determinism contract).
///
/// # Errors
///
/// Propagates engine errors from the BIST passes.
pub fn repair_layer(
    engine: &ResipeEngine,
    mapped: &mut MappedWeights,
    layer: usize,
    policy: &RepairPolicy,
    base_seed: u64,
) -> Result<Vec<TileHealth>, ResipeError> {
    repair_layer_with(
        engine,
        mapped,
        layer,
        policy,
        base_seed,
        &crate::telemetry::Telemetry::disabled(),
    )
}

/// [`repair_layer`] with a telemetry recorder: each tile's ladder run is
/// timed under a `compile/layer{L}/tile{T}/repair` span, and the
/// spare-remap, escalation (any rung past re-programming) and
/// programming-pulse counters advance from the per-tile health.
/// Recording never changes a repair outcome — the seed substreams are
/// untouched.
///
/// # Errors
///
/// Propagates engine errors from the BIST passes.
pub fn repair_layer_with(
    engine: &ResipeEngine,
    mapped: &mut MappedWeights,
    layer: usize,
    policy: &RepairPolicy,
    base_seed: u64,
    telemetry: &crate::telemetry::Telemetry,
) -> Result<Vec<TileHealth>, ResipeError> {
    use crate::telemetry::Counter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let n = mapped.tiles().len();
    (0..n)
        .map(|i| {
            let _repair_span =
                telemetry.span_with(|| format!("compile/layer{layer}/tile{i}/repair"));
            let mut rng = StdRng::seed_from_u64(crate::seeds::substream(base_seed, i as u64));
            let health = repair_tile(engine, mapped, i, layer, policy, &mut rng)?;
            telemetry.add(Counter::SpareRemaps, health.remapped_cols as u64);
            telemetry.add(Counter::RepairPulses, health.repair_pulses);
            if health.remapped_cols > 0 || health.permuted {
                telemetry.add(Counter::RepairEscalations, 1);
            }
            Ok(health)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResipeConfig;
    use crate::mapping::TileMapper;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> ResipeEngine {
        ResipeEngine::new(ResipeConfig::paper())
    }

    fn test_weights(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn healthy_tile_passes_bist() {
        let mapped = TileMapper::paper()
            .map(&test_weights(32, 6, 1), 32, 6)
            .unwrap();
        let report = run_bist(
            &engine(),
            &mapped.tiles()[0],
            mapped.window(),
            &BistConfig::default(),
        )
        .unwrap();
        assert!(report.all_pass(), "{:?}", report.failing_cols());
        assert_eq!(report.columns.len(), 6);
    }

    #[test]
    fn moderate_pv_does_not_trip_bist() {
        let mapped = TileMapper::paper()
            .map(&test_weights(32, 6, 2), 32, 6)
            .unwrap();
        let model = resipe_reram::VariationModel::device_to_device(0.10).unwrap();
        let noisy = mapped.perturbed(&model, 2);
        let report = run_bist(
            &engine(),
            &noisy.tiles()[0],
            noisy.window(),
            &BistConfig::default(),
        )
        .unwrap();
        assert!(report.all_pass(), "PV flagged: {:?}", report.columns);
    }

    #[test]
    fn stuck_column_detected_by_bist() {
        let mapped = TileMapper::paper()
            .map(&test_weights(32, 6, 3), 32, 6)
            .unwrap()
            .with_faults(0.05, 8, 11)
            .unwrap();
        assert!(mapped.fault_rate() > 0.0);
        let report = run_bist(
            &engine(),
            &mapped.tiles()[0],
            mapped.window(),
            &BistConfig::default(),
        )
        .unwrap();
        assert!(
            report.failing_count() > 0,
            "5 % clustered faults must trip BIST"
        );
    }

    #[test]
    fn repair_on_healthy_tile_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut mapped = TileMapper::paper()
            .with_spare_cols(2)
            .map(&test_weights(32, 6, 4), 32, 6)
            .unwrap();
        let before = mapped.clone();
        let health = repair_tile(
            &engine(),
            &mut mapped,
            0,
            0,
            &RepairPolicy::full(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(health.status, TileStatus::Healthy);
        assert_eq!(health.repair_pulses, 0);
        assert_eq!(health.repair_energy, Joules(0.0));
        assert_eq!(mapped, before, "healthy repair must not touch the tile");
    }

    #[test]
    fn detect_only_reports_but_does_not_repair() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mapped = TileMapper::paper()
            .map(&test_weights(32, 6, 5), 32, 6)
            .unwrap()
            .with_faults(0.08, 8, 5)
            .unwrap();
        let health = repair_tile(
            &engine(),
            &mut mapped,
            0,
            0,
            &RepairPolicy::detect_only(),
            &mut rng,
        )
        .unwrap();
        assert!(health.failing_before > 0);
        assert_eq!(health.failing_after, health.failing_before);
        assert_eq!(health.status, TileStatus::Degraded);
        assert_eq!(health.repair_pulses, 0);
    }

    #[test]
    fn full_ladder_recovers_faulty_columns_with_spares() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut mapped = TileMapper::paper()
            .with_spare_cols(6)
            .map(&test_weights(32, 6, 6), 32, 6)
            .unwrap()
            .with_faults(0.03, 6, 21)
            .unwrap();
        let health = repair_tile(
            &engine(),
            &mut mapped,
            0,
            0,
            &RepairPolicy::full(),
            &mut rng,
        )
        .unwrap();
        assert!(health.failing_before > 0, "faults must be detected first");
        assert!(
            health.failing_after < health.failing_before,
            "ladder must recover columns: {health:?}"
        );
        assert!(health.repair_pulses > 0);
        assert!(health.repair_energy.0 > 0.0);
    }

    #[test]
    fn heavy_faults_degrade_without_panicking() {
        let mut mapped = TileMapper::paper()
            .with_spare_cols(1)
            .map(&test_weights(32, 6, 7), 32, 6)
            .unwrap()
            .with_faults(0.25, 10, 7)
            .unwrap();
        let healths = repair_layer(&engine(), &mut mapped, 0, &RepairPolicy::full(), 7).unwrap();
        assert!(healths
            .iter()
            .any(|h| h.status == TileStatus::Degraded || h.status == TileStatus::Repaired));
        // Forward still runs on the (possibly degraded) tile.
        let y = mapped
            .forward(
                &engine(),
                &vec![0.5; 32],
                crate::mapping::SpikeEncoding::PassThrough,
            )
            .unwrap();
        assert_eq!(y.len(), 6);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn health_report_aggregates() {
        let report = HealthReport {
            tiles: vec![
                TileHealth {
                    layer: 0,
                    tile_index: 0,
                    status: TileStatus::Repaired,
                    failing_before: 2,
                    failing_after: 0,
                    reprogrammed_cols: 1,
                    remapped_cols: 1,
                    permuted: false,
                    spares_used: 1,
                    repair_pulses: 100,
                    repair_energy: Joules(1e-10),
                },
                TileHealth {
                    layer: 1,
                    tile_index: 0,
                    status: TileStatus::Degraded,
                    failing_before: 3,
                    failing_after: 2,
                    reprogrammed_cols: 0,
                    remapped_cols: 1,
                    permuted: true,
                    spares_used: 2,
                    repair_pulses: 50,
                    repair_energy: Joules(5e-11),
                },
            ],
        };
        assert_eq!(report.degraded_tiles(), 1);
        assert_eq!(report.repaired_tiles(), 1);
        assert_eq!(report.total_spares_used(), 3);
        assert_eq!(report.total_repair_pulses(), 150);
        assert!(!report.is_healthy());
        assert!((report.total_repair_energy().0 - 1.5e-10).abs() < 1e-20);
        assert!(HealthReport::default().is_healthy());
    }
}
