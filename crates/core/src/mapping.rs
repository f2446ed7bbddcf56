//! Mapping weight matrices onto tiled differential crossbar pairs.
//!
//! A logical weight matrix `W: [rows, cols]` becomes:
//!
//! * a **differential pair** of conductance arrays (`G⁺`, `G⁻`) since
//!   crossbars only realize non-negative conductances — positive weights
//!   program `G⁺`, negative weights `G⁻`, and the peripheral subtracts the
//!   two decoded column results;
//! * a stack of **row tiles** of at most `max_rows` (the paper's array has
//!   32 wordlines), whose partial results are accumulated digitally —
//!   standard practice for PIM designs whose layers exceed the array size.
//!
//! # The decode model and the calibration cancellation
//!
//! With the paper's parameters the column charging `V_out = V_eq (1 −
//! e^(−Δt ΣG / C_cog))` operates far from its linear region, so the naive
//! Eq. 5 time-domain decode would be wildly mis-scaled. The faithful model
//! follows from an observation the paper makes qualitatively ("C_gd is
//! used for calibration in both S1 and S2, which partially cancels out the
//! effect"): because S2 inverts exactly the ramp S1 samples,
//! **voltages propagate exactly** through the spike domain —
//! `f(t_out) = V_out` with `f(t) = V_s (1 − e^(−t/τ))`. The column
//! transfer is exactly linear in the held voltages:
//!
//! `V_out_j = k_j · Σ_i V_i G_ij`, with the known per-column constant
//! `k_j = (1 − e^(−Δt ΣG_j / C_cog)) / ΣG_j`.
//!
//! The peripheral therefore decodes `Σ V_i G_ij = f(t_out_j) / k_j` using
//! the *nominal* (design-time) `ΣG_j`; under process variation the true
//! `ΣG_j` differs, which is part of the accuracy loss Fig. 7 measures.
//!
//! # Closed forms of the cancellation
//!
//! [`VoltageCodec`] evaluates both ends of the spike domain in closed
//! form wherever the time domain carries no information:
//!
//! * **S2 decode.** The comparator sees `V_eff = clamp(V_out + offset)`
//!   and fires at `t_obs = f⁻¹(V_eff)`, cut at the slice end; the
//!   peripheral reads back `f(t_obs)`. With continuous timing that round
//!   trip is `V̂ = min(V_eff, V_sat)` with `V_sat = f(slice)`, so no `ln`
//!   or `exp` is evaluated. Only a spike-time quantum
//!   ([`MappedWeights::with_time_quantization`]) rounds in the time
//!   domain, and then the decode still goes through `f⁻¹` and `f`.
//! * **S1 encode.** A [`SpikeEncoding::PassThrough`] spike sits at
//!   `f⁻¹(a·V_ref)`, so the ramp sample it produces is held as `a·V_ref`
//!   directly. Only [`SpikeEncoding::LinearTime`] evaluates the ramp
//!   (one `exp`), because there the concave `f(a·t_max)` is the paper's
//!   real distortion.
//!
//! The residual circuit non-linearity is confined to how values enter the
//! voltage domain, captured by [`SpikeEncoding`]:
//!
//! * [`SpikeEncoding::LinearTime`] — the paper's raw format `t = a·t_max`:
//!   the held voltage is the concave `f(a·t_max)`, distorting the
//!   activations (the σ = 0 accuracy drop of Fig. 7);
//! * [`SpikeEncoding::PassThrough`] — a spike produced by a previous
//!   ReSiPE stage: its time already sits on the ramp curve, so the voltage
//!   it samples is exactly proportional to the value it carries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use resipe_analog::units::{Ohms, Seconds, Siemens};
use resipe_reram::aging::AgingStep;
use resipe_reram::device::ResistanceWindow;
use resipe_reram::faults::{CellFault, FaultMap, RetentionDrift};
use resipe_reram::quantize::Quantizer;
use resipe_reram::variation::VariationModel;

use crate::config::ResipeConfig;
use crate::engine::{crossing_time, decode_constant, ramp_fraction, ramp_voltage, ResipeEngine};
use crate::error::ResipeError;

/// Maximum wordlines per tile — the paper's 32×32 array.
pub const PAPER_TILE_ROWS: usize = 32;

/// How a normalized activation `a ∈ \[0, 1\]` becomes an input spike time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SpikeEncoding {
    /// Raw single-spiking format: `t = a · t_max` (paper Sec. III-A). The
    /// sampled voltage `f(a·t_max)` is a concave distortion of `a`.
    #[default]
    LinearTime,
    /// Spike produced by an upstream ReSiPE stage: `t = f⁻¹(a · V_ref)`,
    /// so the sampled voltage is exactly `a · V_ref` (`V_ref = f(t_max)`).
    PassThrough,
}

/// The concave activation distortion of the raw time encoding:
/// `ã(a) = f(a·t_max) / f(t_max)`.
///
/// This is *the* non-linearity of Fig. 7's σ = 0 case once the calibration
/// cancellation is accounted for.
///
/// # Panics
///
/// Panics in debug builds if `a` is outside `\[0, 1\]`.
pub fn linear_time_distortion(config: &ResipeConfig, a: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&a), "activation {a} outside [0, 1]");
    let tau = config.tau_gd().0;
    let t_max = config.t_max().0;
    ramp_fraction(a * t_max, tau) / ramp_fraction(t_max, tau)
}

/// The S1 encode and S2 decode of one mapped layer in the voltage
/// domain, with the Eq. 1/Eq. 4 cancellation taken in closed form (see
/// the [module docs](crate::mapping#closed-forms-of-the-cancellation)).
///
/// [`MappedWeights::forward`] and [`crate::batch::BatchPlan`] both encode
/// and decode through this one type, which is what keeps the planned
/// path bit-identical to the reference.
///
/// ```
/// use resipe::config::ResipeConfig;
/// use resipe::mapping::{SpikeEncoding, VoltageCodec};
///
/// let codec = VoltageCodec::new(&ResipeConfig::paper(), None);
/// // A pass-through spike holds exactly a·V_ref on its wordline.
/// assert_eq!(codec.held_voltage(SpikeEncoding::PassThrough, 0.5), 0.5 * codec.v_ref());
/// // Continuous timing decodes an in-range comparator voltage to itself…
/// assert_eq!(codec.decode(0.25, 0.0).v_hat, 0.25);
/// // …and a column past the slice end to the saturation voltage.
/// let top = codec.decode(0.999_99, 0.0);
/// assert!(top.saturated);
/// assert_eq!(top.v_hat, codec.v_sat());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageCodec {
    pub(crate) tau: f64,
    pub(crate) vs: f64,
    t_max: f64,
    slice: f64,
    /// Held voltage of a full-scale activation, `f(t_max)`.
    v_ref: f64,
    /// Upper comparator clamp `V_s (1 − 1e−12)`.
    v_clamp: f64,
    /// Read-back voltage of a spike at the slice end, `f(slice)`.
    v_sat: f64,
    /// Spike-time quantum in seconds; `None` is continuous timing.
    pub(crate) time_quantum: Option<f64>,
}

/// One S2 column decode from [`VoltageCodec::decode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnDecode {
    /// Comparator voltage after the offset and the range clamp.
    pub v_eff: f64,
    /// The voltage the peripheral reads back from the output spike.
    pub v_hat: f64,
    /// The observed spike time, evaluated only when a time quantum is
    /// set (rounding happens in the time domain); `None` otherwise.
    pub t_obs: Option<f64>,
    /// `true` when the clamp changed `V_out + offset`.
    pub offset_clamped: bool,
    /// `true` when the spike fell past the slice end.
    pub saturated: bool,
}

impl VoltageCodec {
    /// The codec of an engine configuration, with an optional spike-time
    /// quantum (see [`MappedWeights::with_time_quantization`]).
    pub fn new(config: &ResipeConfig, time_quantum: Option<Seconds>) -> VoltageCodec {
        let tau = config.tau_gd().0;
        let vs = config.vs().0;
        let t_max = config.t_max().0;
        let slice = config.slice().0;
        VoltageCodec {
            tau,
            vs,
            t_max,
            slice,
            v_ref: ramp_voltage(t_max, vs, tau),
            v_clamp: vs * (1.0 - 1e-12),
            // The time-domain decode of a column saturated at the slice
            // end, evaluated once with the same expression.
            v_sat: ramp_voltage(slice, vs, tau),
            time_quantum: time_quantum.map(|q| q.0),
        }
    }

    /// Held voltage of a full-scale activation, `V_ref = f(t_max)`.
    pub fn v_ref(&self) -> f64 {
        self.v_ref
    }

    /// Read-back voltage of a saturated column, `V_sat = f(slice)`.
    pub fn v_sat(&self) -> f64 {
        self.v_sat
    }

    /// The S1 wordline voltage an activation holds. The activation is
    /// clamped to `\[0, 1\]`, and zero holds exactly `+0.0` in both
    /// encodings.
    #[inline]
    pub fn held_voltage(&self, encoding: SpikeEncoding, a: f64) -> f64 {
        let a = a.clamp(0.0, 1.0);
        if a == 0.0 {
            return 0.0;
        }
        match encoding {
            SpikeEncoding::LinearTime => ramp_voltage(a * self.t_max, self.vs, self.tau),
            // The ramp sampled at t = f⁻¹(a·V_ref) is a·V_ref.
            SpikeEncoding::PassThrough => a * self.v_ref,
        }
    }

    /// The S2 decode of one bitline: the comparator fires where the ramp
    /// crosses `V_out` plus its (unknown to the decode) input offset,
    /// and the peripheral reads the voltage back from that spike time.
    #[inline]
    pub fn decode(&self, v_out: f64, offset: f64) -> ColumnDecode {
        let raw = v_out + offset;
        let v_eff = raw.clamp(0.0, self.v_clamp);
        let (v_hat, t_obs, saturated) = match self.time_quantum {
            None => {
                if v_eff > self.v_sat {
                    (self.v_sat, None, true)
                } else {
                    (v_eff, None, false)
                }
            }
            Some(q) => {
                let t = crossing_time(v_eff, self.vs, self.tau);
                let t = (t / q).round() * q;
                let saturated = t > self.slice;
                let t = t.min(self.slice);
                (ramp_voltage(t, self.vs, self.tau), Some(t), saturated)
            }
        };
        ColumnDecode {
            v_eff,
            v_hat,
            t_obs,
            offset_clamped: raw != v_eff,
            saturated,
        }
    }
}

/// Configures how weights are lowered onto crossbars.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileMapper {
    window: ResistanceWindow,
    access_resistance: Ohms,
    max_rows: usize,
    quantizer: Option<Quantizer>,
    spare_cols: usize,
}

impl TileMapper {
    /// The paper's setup: recommended 50 kΩ–1 MΩ window, 1 kΩ access
    /// transistor, 32-row tiles, analog (unquantized) programming, no
    /// spare columns.
    pub fn paper() -> TileMapper {
        TileMapper {
            window: ResistanceWindow::RECOMMENDED,
            access_resistance: resipe_reram::crossbar::DEFAULT_ACCESS_RESISTANCE,
            max_rows: PAPER_TILE_ROWS,
            quantizer: None,
            spare_cols: 0,
        }
    }

    /// Sets the cell resistance window.
    pub fn with_window(mut self, window: ResistanceWindow) -> TileMapper {
        self.window = window;
        self
    }

    /// Sets the access-transistor series resistance.
    pub fn with_access_resistance(mut self, r: Ohms) -> TileMapper {
        self.access_resistance = r;
        self
    }

    /// Sets the maximum wordlines per tile, rejecting zero.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::InvalidOptions`] if `rows` is zero.
    pub fn try_with_max_rows(mut self, rows: usize) -> Result<TileMapper, ResipeError> {
        if rows == 0 {
            return Err(ResipeError::InvalidOptions {
                reason: "tile mapper max_rows must be nonzero".into(),
            });
        }
        self.max_rows = rows;
        Ok(self)
    }

    /// Maximum wordlines per tile.
    pub fn max_rows(&self) -> usize {
        self.max_rows
    }

    /// Quantizes programmed conductances to a multi-level cell.
    pub fn with_quantizer(mut self, q: Quantizer) -> TileMapper {
        self.quantizer = Some(q);
        self
    }

    /// Reserves `n` spare bitlines per tile for column-remap repair. The
    /// spares are programmed to zero weight at compile time and only
    /// activated when the repair ladder remaps a failing column onto one.
    pub fn with_spare_cols(mut self, n: usize) -> TileMapper {
        self.spare_cols = n;
        self
    }

    /// Spare bitlines reserved per tile.
    pub fn spare_cols(&self) -> usize {
        self.spare_cols
    }

    /// The cell resistance window.
    pub fn window(&self) -> ResistanceWindow {
        self.window
    }

    /// Maps a row-major weight matrix into tiled differential conductance
    /// arrays.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] for a shape mismatch or
    /// [`ResipeError::Reram`] for non-finite weights.
    pub fn map(
        &self,
        weights: &[f64],
        rows: usize,
        cols: usize,
    ) -> Result<MappedWeights, ResipeError> {
        if weights.len() != rows * cols || rows == 0 || cols == 0 {
            return Err(ResipeError::DimensionMismatch {
                expected: rows * cols,
                got: weights.len(),
            });
        }
        let w_absmax = weights
            .iter()
            .try_fold(0.0_f64, |acc, &w| {
                if !w.is_finite() {
                    Err(ResipeError::Reram(
                        resipe_reram::ReramError::InvalidFraction { value: w },
                    ))
                } else {
                    Ok(acc.max(w.abs()))
                }
            })?
            .max(f64::MIN_POSITIVE);

        let g_min = self.window.g_min().0;
        let g_max = self.window.g_max().0;
        let delta_g = g_max - g_min;
        let r_acc = self.access_resistance.0;

        let phys_cols = cols + self.spare_cols;
        let mut tiles = Vec::new();
        let mut row_start = 0;
        while row_start < rows {
            let tile_rows = (rows - row_start).min(self.max_rows);
            let mut cell_plus = Vec::with_capacity(tile_rows * phys_cols);
            let mut cell_minus = Vec::with_capacity(tile_rows * phys_cols);
            for r in 0..tile_rows {
                for c in 0..phys_cols {
                    if c >= cols {
                        // Spare bitline: zero weight until a remap claims it.
                        cell_plus.push(g_min);
                        cell_minus.push(g_min);
                        continue;
                    }
                    let w = weights[(row_start + r) * cols + c];
                    let mut fp = w.max(0.0) / w_absmax;
                    let mut fm = (-w).max(0.0) / w_absmax;
                    if let Some(q) = self.quantizer {
                        fp = q.quantize(fp).expect("fraction in range");
                        fm = q.quantize(fm).expect("fraction in range");
                    }
                    cell_plus.push(g_min + fp * delta_g);
                    cell_minus.push(g_min + fm * delta_g);
                }
            }
            tiles.push(Tile::new(
                tile_rows, cols, phys_cols, cell_plus, cell_minus, r_acc,
            ));
            row_start += tile_rows;
        }

        // End-to-end effective conductance swing, used as the decode scale.
        let eff = |g_cell: f64| 1.0 / (1.0 / g_cell + r_acc);
        let delta_g_eff = eff(g_max) - eff(g_min);

        Ok(MappedWeights {
            rows,
            cols,
            tiles,
            weight_scale: w_absmax,
            delta_g_eff: Siemens(delta_g_eff),
            window: self.window,
            access_resistance: self.access_resistance,
            time_quantum: None,
        })
    }
}

impl Default for TileMapper {
    fn default() -> TileMapper {
        TileMapper::paper()
    }
}

/// One crossbar tile of a differential pair: nominal cell conductances,
/// the derived effective (access-transistor-inclusive) conductances, and
/// the design-time column sums the peripheral decodes with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tile {
    pub(crate) rows: usize,
    /// Logical (weight-matrix) columns.
    pub(crate) cols: usize,
    /// Physical bitlines: logical columns plus reserved spares.
    pub(crate) phys_cols: usize,
    pub(crate) cell_plus: Vec<f64>,
    pub(crate) cell_minus: Vec<f64>,
    pub(crate) eff_plus: Vec<f64>,
    pub(crate) eff_minus: Vec<f64>,
    /// Column-major (SoA) mirror of `eff_plus`/`eff_minus`:
    /// `phys_cols` contiguous runs of `rows` entries, maintained by
    /// [`Tile::recompute_eff`] alongside the row-major arrays. This is
    /// the layout the inference hot path streams — each bitline's
    /// conductances are one unit-stride slice.
    pub(crate) eff_plus_cm: Vec<f64>,
    pub(crate) eff_minus_cm: Vec<f64>,
    /// Nominal per-physical-column effective conductance sums (decode
    /// constants, fixed from the design targets — NOT updated by process
    /// variation; refreshed only when repair rewrites the targets).
    pub(crate) gsum_plus: Vec<f64>,
    pub(crate) gsum_minus: Vec<f64>,
    /// Static comparator input offsets per physical column (volts), drawn
    /// once per compiled instance — the COG's dominant analog mismatch.
    pub(crate) offset_plus: Vec<f64>,
    pub(crate) offset_minus: Vec<f64>,
    pub(crate) access_resistance: f64,
    /// Design-time target cell conductances — what write–verify repair
    /// programs toward and what BIST expects to observe.
    pub(crate) target_plus: Vec<f64>,
    pub(crate) target_minus: Vec<f64>,
    /// Persistent stuck-at faults of the two physical arrays.
    pub(crate) fault_plus: FaultMap,
    pub(crate) fault_minus: FaultMap,
    /// Logical column → physical bitline (changed by spare remapping).
    pub(crate) col_map: Vec<usize>,
    /// Physical wordline → logical tile row driving it (changed by
    /// fault-aware row permutation).
    pub(crate) row_source: Vec<usize>,
    /// Spare bitlines consumed by remaps.
    pub(crate) spares_used: usize,
}

impl Tile {
    fn new(
        rows: usize,
        cols: usize,
        phys_cols: usize,
        cell_plus: Vec<f64>,
        cell_minus: Vec<f64>,
        access_resistance: f64,
    ) -> Tile {
        let target_plus = cell_plus.clone();
        let target_minus = cell_minus.clone();
        let mut tile = Tile {
            rows,
            cols,
            phys_cols,
            cell_plus,
            cell_minus,
            eff_plus: Vec::new(),
            eff_minus: Vec::new(),
            eff_plus_cm: Vec::new(),
            eff_minus_cm: Vec::new(),
            gsum_plus: Vec::new(),
            gsum_minus: Vec::new(),
            offset_plus: vec![0.0; phys_cols],
            offset_minus: vec![0.0; phys_cols],
            access_resistance,
            target_plus,
            target_minus,
            fault_plus: FaultMap::healthy(rows, phys_cols),
            fault_minus: FaultMap::healthy(rows, phys_cols),
            col_map: (0..cols).collect(),
            row_source: (0..rows).collect(),
            spares_used: 0,
        };
        tile.recompute_eff();
        tile.recompute_design_gsums();
        tile
    }

    /// Wordlines in this tile.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical (weight-matrix) columns in this tile.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Physical bitlines (logical columns + spares).
    pub fn physical_cols(&self) -> usize {
        self.phys_cols
    }

    /// Spare bitlines reserved in this tile.
    pub fn spare_cols(&self) -> usize {
        self.phys_cols - self.cols
    }

    /// Spare bitlines already consumed by remaps.
    pub fn spares_used(&self) -> usize {
        self.spares_used
    }

    /// The logical-column → physical-bitline routing.
    pub fn col_map(&self) -> &[usize] {
        &self.col_map
    }

    /// `true` once the repair ladder has applied a row permutation.
    pub fn is_permuted(&self) -> bool {
        self.row_source.iter().enumerate().any(|(p, &l)| p != l)
    }

    /// The stuck-at map of the positive array.
    pub fn fault_plus(&self) -> &FaultMap {
        &self.fault_plus
    }

    /// The stuck-at map of the negative array.
    pub fn fault_minus(&self) -> &FaultMap {
        &self.fault_minus
    }

    /// The effective positive-array conductances, row-major over physical
    /// bitlines.
    pub fn eff_plus(&self) -> &[f64] {
        &self.eff_plus
    }

    /// The effective negative-array conductances, row-major over physical
    /// bitlines.
    pub fn eff_minus(&self) -> &[f64] {
        &self.eff_minus
    }

    /// The effective positive-array conductances, column-major: physical
    /// bitline `c` is the contiguous slice `[c * rows .. (c + 1) * rows]`.
    pub fn eff_plus_cm(&self) -> &[f64] {
        &self.eff_plus_cm
    }

    /// The effective negative-array conductances, column-major (see
    /// [`Tile::eff_plus_cm`]).
    pub fn eff_minus_cm(&self) -> &[f64] {
        &self.eff_minus_cm
    }

    /// The design-time target cell conductances of the positive array,
    /// row-major over physical bitlines: what write–verify repair programs
    /// toward and what BIST expects to observe.
    pub fn target_plus(&self) -> &[f64] {
        &self.target_plus
    }

    /// The design-time target cell conductances of the negative array (see
    /// [`Tile::target_plus`]).
    pub fn target_minus(&self) -> &[f64] {
        &self.target_minus
    }

    /// Nominal per-physical-bitline effective conductance sums of the
    /// positive array: the decode constants, fixed from the design targets.
    pub fn gsum_plus(&self) -> &[f64] {
        &self.gsum_plus
    }

    /// Nominal per-physical-bitline effective conductance sums of the
    /// negative array (see [`Tile::gsum_plus`]).
    pub fn gsum_minus(&self) -> &[f64] {
        &self.gsum_minus
    }

    /// The access-transistor series resistance of every cell.
    pub fn access_resistance(&self) -> Ohms {
        Ohms(self.access_resistance)
    }

    /// Recomputes the effective conductances from the cell conductances —
    /// the single maintenance point for both layouts: the column-major
    /// mirror is a pure transpose of values already computed, so the two
    /// layouts hold bit-equal entries.
    pub(crate) fn recompute_eff(&mut self) {
        let r_acc = self.access_resistance;
        let eff = |g: &f64| 1.0 / (1.0 / *g + r_acc);
        self.eff_plus = self.cell_plus.iter().map(eff).collect();
        self.eff_minus = self.cell_minus.iter().map(eff).collect();
        let transpose = |rm: &[f64]| -> Vec<f64> {
            let mut cm = vec![0.0; rm.len()];
            for r in 0..self.rows {
                for c in 0..self.phys_cols {
                    cm[c * self.rows + r] = rm[r * self.phys_cols + c];
                }
            }
            cm
        };
        self.eff_plus_cm = transpose(&self.eff_plus);
        self.eff_minus_cm = transpose(&self.eff_minus);
    }

    /// Recomputes the nominal decode constants from the design targets
    /// (the peripheral always decodes with the *intended* column sums).
    pub(crate) fn recompute_design_gsums(&mut self) {
        let r_acc = self.access_resistance;
        let eff = |g: f64| 1.0 / (1.0 / g + r_acc);
        let col_sums = |m: &[f64]| -> Vec<f64> {
            let mut sums = vec![0.0; self.phys_cols];
            for r in 0..self.rows {
                for (c, s) in sums.iter_mut().enumerate() {
                    *s += eff(m[r * self.phys_cols + c]);
                }
            }
            sums
        };
        self.gsum_plus = col_sums(&self.target_plus);
        self.gsum_minus = col_sums(&self.target_minus);
    }

    /// Pins stuck cells to their fault conductance and refreshes the
    /// effective conductances. Idempotent.
    pub(crate) fn pin_faults(&mut self, window: ResistanceWindow) {
        for (cells, map) in [
            (&mut self.cell_plus, &self.fault_plus),
            (&mut self.cell_minus, &self.fault_minus),
        ] {
            for (r, c, fault) in map.stuck_cells() {
                if let Some(g) = fault.stuck_conductance(window) {
                    cells[r * self.phys_cols + c] = g.0;
                }
            }
        }
        self.recompute_eff();
    }
}

/// A weight matrix lowered onto tiled differential crossbar pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappedWeights {
    rows: usize,
    cols: usize,
    tiles: Vec<Tile>,
    weight_scale: f64,
    delta_g_eff: Siemens,
    window: ResistanceWindow,
    access_resistance: Ohms,
    /// Optional spike-time quantization grid (the pulse-width limit on
    /// timing resolution); `None` models ideal continuous timing.
    time_quantum: Option<f64>,
}

impl MappedWeights {
    /// Logical input dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical output dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row tiles.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Number of physical crossbar MVMs per logical forward pass
    /// (tiles × 2 for the differential pair).
    pub fn mvms_per_forward(&self) -> usize {
        self.tiles.len() * 2
    }

    /// The `max |w|` normalization constant.
    pub fn weight_scale(&self) -> f64 {
        self.weight_scale
    }

    /// Quantizes every observed output spike time to a `quantum` grid —
    /// the pulse-width limit on timing resolution (the paper's 1 ns pulse
    /// over a 100 ns slice resolves ~100 levels).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not positive and finite.
    pub fn with_time_quantization(mut self, quantum: Seconds) -> MappedWeights {
        assert!(
            quantum.0 > 0.0 && quantum.0.is_finite(),
            "time quantum must be positive and finite"
        );
        self.time_quantum = Some(quantum.0);
        self
    }

    /// Draws static per-column comparator input offsets with standard
    /// deviation `sigma_volts` — the COG's dominant analog mismatch,
    /// fixed per fabricated instance. The digital decode does not know
    /// the offsets, so they reach the output as systematic error.
    ///
    /// Each tile draws from its own [`crate::seeds::substream`] of
    /// `base_seed`, so the offsets of any tile are independent of how
    /// many tiles precede it (the per-tile determinism contract).
    pub fn with_comparator_offsets(mut self, sigma_volts: f64, base_seed: u64) -> MappedWeights {
        assert!(
            sigma_volts >= 0.0 && sigma_volts.is_finite(),
            "offset sigma must be non-negative and finite"
        );
        use resipe_reram::variation::standard_normal;
        for (ti, tile) in self.tiles.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(crate::seeds::substream(base_seed, ti as u64));
            for offs in [&mut tile.offset_plus, &mut tile.offset_minus] {
                for o in offs.iter_mut() {
                    *o = sigma_volts * standard_normal(&mut rng);
                }
            }
        }
        self
    }

    /// Executes one logical MVM on the engine: normalized activations
    /// `a ∈ \[0, 1\]` in, dot products `y_j ≈ Σ_i a_i w_ij` out.
    ///
    /// Activations outside `\[0, 1\]` are clamped (the spike encoder cannot
    /// represent them), mirroring the hardware's input range limit.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == rows`, and [`ResipeError::SpikeOutOfSlice`]
    /// for a NaN activation, which no spike time can encode.
    pub fn forward(
        &self,
        engine: &ResipeEngine,
        activations: &[f64],
        encoding: SpikeEncoding,
    ) -> Result<Vec<f64>, ResipeError> {
        if activations.len() != self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: self.rows,
                got: activations.len(),
            });
        }
        if let Some(&a) = activations.iter().find(|a| a.is_nan()) {
            return Err(ResipeError::SpikeOutOfSlice {
                time: a,
                slice: engine.config().slice().0,
            });
        }
        let codec = VoltageCodec::new(engine.config(), self.time_quantum.map(Seconds));

        // Tiles are independent up to the final digital accumulation, so
        // they evaluate in parallel (one MVM pair per tile); the partial
        // results are then summed **in tile order**, giving bit-identical
        // output to the serial loop for any thread count.
        use rayon::prelude::*;
        let tile_offsets: Vec<usize> = self
            .tiles
            .iter()
            .scan(0usize, |start, t| {
                let s = *start;
                *start += t.rows;
                Some(s)
            })
            .collect();
        let partials: Vec<Result<Vec<f64>, ResipeError>> = (0..self.tiles.len())
            .into_par_iter()
            .map(|ti| {
                self.tile_partial(
                    engine,
                    &codec,
                    &self.tiles[ti],
                    tile_offsets[ti],
                    activations,
                    encoding,
                )
            })
            .collect();
        let mut acc = vec![0.0f64; self.cols];
        for partial in partials {
            let partial = partial?;
            for (out, p) in acc.iter_mut().zip(&partial) {
                *out += p;
            }
        }
        // Σ V_i ΔG_ij / V_ref · w_scale / Δg_eff ≈ Σ a_i w_ij.
        let scale = self.weight_scale / (codec.v_ref() * self.delta_g_eff.0);
        for y in &mut acc {
            *y *= scale;
        }
        Ok(acc)
    }

    /// One tile's contribution to [`MappedWeights::forward`]: the decoded
    /// differential column values (before the global weight rescale).
    fn tile_partial(
        &self,
        engine: &ResipeEngine,
        codec: &VoltageCodec,
        tile: &Tile,
        row_start: usize,
        activations: &[f64],
        encoding: SpikeEncoding,
    ) -> Result<Vec<f64>, ResipeError> {
        let dt_over_c = engine.config().gain().0;
        // Each physical wordline is driven by the logical tile row the
        // (possibly repair-permuted) routing assigns to it.
        let v_in: Vec<f64> = tile
            .row_source
            .iter()
            .map(|&l| codec.held_voltage(encoding, activations[row_start + l]))
            .collect();
        // The SoA (column-major) kernel: contiguous per-bitline streams.
        let plus = engine.mvm_held_cm(&tile.eff_plus_cm, tile.rows, tile.phys_cols, &v_in)?;
        let minus = engine.mvm_held_cm(&tile.eff_minus_cm, tile.rows, tile.phys_cols, &v_in)?;
        // Read the voltage back from the output spike and divide out the
        // known nominal column constant k_j.
        let decode_column = |v_out: f64, offset: f64, gsum_nom: f64| -> f64 {
            codec.decode(v_out, offset).v_hat / decode_constant(gsum_nom, dt_over_c)
        };
        let mut acc = vec![0.0f64; self.cols];
        for (j, out) in acc.iter_mut().enumerate().take(tile.cols) {
            let pc = tile.col_map[j];
            let d_plus = decode_column(plus[pc], tile.offset_plus[pc], tile.gsum_plus[pc]);
            let d_minus = decode_column(minus[pc], tile.offset_minus[pc], tile.gsum_minus[pc]);
            *out += d_plus - d_minus;
        }
        Ok(acc)
    }

    /// The ideal dot products using the *reconstructed* weights (what a
    /// perfect linear engine would compute on the programmed
    /// conductances) — the reference for non-linearity measurements.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == rows`.
    pub fn forward_ideal(&self, activations: &[f64]) -> Result<Vec<f64>, ResipeError> {
        if activations.len() != self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: self.rows,
                got: activations.len(),
            });
        }
        let mut acc = vec![0.0f64; self.cols];
        let scale = self.weight_scale / self.delta_g_eff.0;
        let mut row_start = 0;
        for tile in &self.tiles {
            for (p, &l) in tile.row_source.iter().enumerate() {
                let a = activations[row_start + l].clamp(0.0, 1.0);
                if a == 0.0 {
                    continue;
                }
                for (j, y) in acc.iter_mut().enumerate() {
                    let pc = tile.col_map[j];
                    let dg = tile.eff_plus[p * tile.phys_cols + pc]
                        - tile.eff_minus[p * tile.phys_cols + pc];
                    *y += a * dg * scale;
                }
            }
            row_start += tile.rows;
        }
        Ok(acc)
    }

    /// Draws a Monte-Carlo process-variation instance: every cell's
    /// nominal conductance is independently perturbed and the effective
    /// conductances recomputed. The decode constants stay at their
    /// design-time values — the peripheral does not know the actual
    /// perturbed conductances, which is how PV reaches the output.
    ///
    /// Each tile draws from its own [`crate::seeds::substream`] of
    /// `base_seed`, which makes the instance a pure function of
    /// `(base_seed, tile index)` rather than of tile visit order — so the
    /// tiles can be perturbed in parallel with a bit-identical result.
    pub fn perturbed(&self, model: &VariationModel, base_seed: u64) -> MappedWeights {
        use rayon::prelude::*;
        let mut out = self.clone();
        let window = self.window;
        let tiles: Vec<Tile> = (0..self.tiles.len())
            .into_par_iter()
            .map(|ti| {
                let mut tile = self.tiles[ti].clone();
                let mut rng = StdRng::seed_from_u64(crate::seeds::substream(base_seed, ti as u64));
                for cells in [&mut tile.cell_plus, &mut tile.cell_minus] {
                    for g in cells.iter_mut() {
                        *g = model.perturb(Siemens(*g), window, &mut rng).0;
                    }
                }
                // Stuck cells ignore programming noise; re-pin them (this
                // also recomputes the effective conductances).
                tile.pin_faults(window);
                // gsum_plus/gsum_minus intentionally NOT recomputed.
                tile
            })
            .collect();
        out.tiles = tiles;
        out
    }

    /// Injects seeded spatially-clustered stuck-at faults into every tile
    /// (independent maps for the positive and negative arrays) and pins
    /// the affected cells. Decode constants stay at their design values —
    /// the peripheral does not know which cells are stuck.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::Reram`] if the fault parameters are invalid.
    pub fn with_faults(
        mut self,
        rate: f64,
        cluster_size: usize,
        seed: u64,
    ) -> Result<MappedWeights, ResipeError> {
        for (i, tile) in self.tiles.iter_mut().enumerate() {
            let base = seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
            tile.fault_plus =
                FaultMap::clustered(tile.rows, tile.phys_cols, rate, cluster_size, base)?;
            tile.fault_minus =
                FaultMap::clustered(tile.rows, tile.phys_cols, rate, cluster_size, base ^ 0x5a5a)?;
            tile.pin_faults(self.window);
        }
        Ok(self)
    }

    /// Installs explicit fault maps on one tile (targeted fault injection
    /// for campaigns and tests) and pins the affected cells. Both maps
    /// must match the tile's physical geometry
    /// (`rows × physical_cols`). Decode constants stay at their design
    /// values.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::InvalidConfig`] if `tile_index` is out of
    /// range or either map's geometry does not match the tile.
    pub fn with_fault_maps(
        mut self,
        tile_index: usize,
        plus: FaultMap,
        minus: FaultMap,
    ) -> Result<MappedWeights, ResipeError> {
        let window = self.window;
        let n_tiles = self.tiles.len();
        let tile = self
            .tiles
            .get_mut(tile_index)
            .ok_or_else(|| ResipeError::InvalidConfig {
                reason: format!("tile index {tile_index} out of range ({n_tiles} tiles)"),
            })?;
        for map in [&plus, &minus] {
            if map.rows() != tile.rows || map.cols() != tile.phys_cols {
                return Err(ResipeError::InvalidConfig {
                    reason: format!(
                        "fault map {}x{} does not match tile geometry {}x{}",
                        map.rows(),
                        map.cols(),
                        tile.rows,
                        tile.phys_cols
                    ),
                });
            }
        }
        tile.fault_plus = plus;
        tile.fault_minus = minus;
        tile.pin_faults(window);
        Ok(self)
    }

    /// Applies retention drift: every cell conductance relaxes toward the
    /// HRS floor with time constant `drift.tau()`, after which stuck cells
    /// are re-pinned. Decode constants stay at their design values.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::Reram`] if `elapsed` is negative or not
    /// finite.
    pub fn with_retention_drift(
        mut self,
        drift: &RetentionDrift,
        elapsed: Seconds,
    ) -> Result<MappedWeights, ResipeError> {
        let window = self.window;
        for tile in &mut self.tiles {
            for (cells, map) in [
                (&mut tile.cell_plus, &tile.fault_plus),
                (&mut tile.cell_minus, &tile.fault_minus),
            ] {
                drift.age_and_reassert_values(cells, window, elapsed, map)?;
            }
            tile.recompute_eff();
        }
        Ok(self)
    }

    /// Applies one [`AgingStep`] of live-traffic aging in place:
    /// endurance wear events strike deterministically-chosen cells
    /// stuck-at-LRS, then every cell relaxes by the step's retention
    /// drift over its elapsed virtual time, with stuck cells re-pinned.
    /// Decode constants stay at their design values — aging is invisible
    /// to the peripheral, which is exactly why accuracy degrades until a
    /// repair reprograms the drifted cells back toward their targets.
    ///
    /// Each wear event's placement is a pure function of the step's
    /// `(seed, event index)` — independent of how the request stream was
    /// chunked into steps and of tile visit order.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::Reram`] if the step's elapsed time is
    /// invalid.
    pub fn age(&mut self, step: &AgingStep) -> Result<(), ResipeError> {
        // Endurance wear: global event k picks one physical cell across
        // the whole mapped layer (both arrays of every tile).
        let geometry: Vec<(usize, usize)> =
            self.tiles.iter().map(|t| (t.rows, t.phys_cols)).collect();
        let total_cells: usize = geometry.iter().map(|&(r, c)| 2 * r * c).sum();
        if total_cells > 0 {
            for event in step.wear_events() {
                let mut rng = StdRng::seed_from_u64(step.wear_event_seed(event));
                let mut flat = rng.gen_range(0..total_cells);
                for (ti, &(rows, cols)) in geometry.iter().enumerate() {
                    let per_array = rows * cols;
                    if flat >= 2 * per_array {
                        flat -= 2 * per_array;
                        continue;
                    }
                    let tile = &mut self.tiles[ti];
                    let map = if flat < per_array {
                        &mut tile.fault_plus
                    } else {
                        flat -= per_array;
                        &mut tile.fault_minus
                    };
                    let (r, c) = (flat / cols, flat % cols);
                    if map.fault(r, c) == CellFault::Healthy {
                        map.set(r, c, CellFault::StuckLrs);
                    }
                    break;
                }
            }
        }
        // Retention drift with automatic stuck-cell re-pinning (also
        // pins any cells the wear loop above just struck).
        let window = self.window;
        for tile in &mut self.tiles {
            for (cells, map) in [
                (&mut tile.cell_plus, &tile.fault_plus),
                (&mut tile.cell_minus, &tile.fault_minus),
            ] {
                step.drift()
                    .age_and_reassert_values(cells, window, step.elapsed(), map)?;
            }
            tile.recompute_eff();
        }
        Ok(())
    }

    /// The cell resistance window the weights were mapped with.
    pub fn window(&self) -> ResistanceWindow {
        self.window
    }

    /// Fraction of cells (across both arrays of every tile) that are
    /// stuck.
    pub fn fault_rate(&self) -> f64 {
        let mut stuck = 0usize;
        let mut total = 0usize;
        for tile in &self.tiles {
            stuck += tile.fault_plus.fault_count() + tile.fault_minus.fault_count();
            total += 2 * tile.rows * tile.phys_cols;
        }
        if total == 0 {
            0.0
        } else {
            stuck as f64 / total as f64
        }
    }

    pub(crate) fn tiles_mut(&mut self) -> &mut [Tile] {
        &mut self.tiles
    }

    /// The effective conductance swing used as the decode scale.
    pub(crate) fn delta_g_eff(&self) -> Siemens {
        self.delta_g_eff
    }

    /// The optional spike-time quantization grid (seconds).
    pub(crate) fn time_quantum(&self) -> Option<f64> {
        self.time_quantum
    }

    /// Reconstructs the logical weight at `(row, col)` from the programmed
    /// conductances.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn reconstruct_weight(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        let mut row_start = 0;
        for tile in &self.tiles {
            if row < row_start + tile.rows {
                let l = row - row_start;
                let p = tile
                    .row_source
                    .iter()
                    .position(|&src| src == l)
                    .expect("row routing is a permutation");
                let pc = tile.col_map[col];
                let idx = p * tile.phys_cols + pc;
                let dg = tile.eff_plus[idx] - tile.eff_minus[idx];
                return dg * self.weight_scale / self.delta_g_eff.0;
            }
            row_start += tile.rows;
        }
        unreachable!("tiles cover all rows");
    }
}

/// Convenience: build a [`ResipeEngine`] + [`TileMapper`] pair from one
/// configuration (the common case in examples and benches).
pub fn paper_stack(config: ResipeConfig) -> Result<(ResipeEngine, TileMapper), ResipeError> {
    Ok((ResipeEngine::try_new(config)?, TileMapper::paper()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> ResipeEngine {
        ResipeEngine::new(ResipeConfig::paper())
    }

    #[test]
    fn small_matrix_round_trip() {
        let weights = vec![0.5, -1.0, 0.25, 0.0, 0.75, -0.5];
        let mapped = TileMapper::paper().map(&weights, 3, 2).unwrap();
        assert_eq!(mapped.rows(), 3);
        assert_eq!(mapped.cols(), 2);
        assert_eq!(mapped.tiles().len(), 1);
        for r in 0..3 {
            for c in 0..2 {
                let w = mapped.reconstruct_weight(r, c);
                let expected = weights[r * 2 + c];
                // Access-resistance concavity introduces a small error.
                assert!((w - expected).abs() < 0.05, "({r},{c}): {w} vs {expected}");
            }
        }
    }

    #[test]
    fn tiling_splits_rows() {
        let mapper = TileMapper::paper().try_with_max_rows(8).unwrap();
        let mapped = mapper.map(&vec![0.1; 20 * 3], 20, 3).unwrap();
        let tile_rows: Vec<usize> = mapped.tiles().iter().map(Tile::rows).collect();
        assert_eq!(tile_rows, vec![8, 8, 4]);
        assert_eq!(mapped.mvms_per_forward(), 6);
    }

    #[test]
    fn zero_tile_rows_rejected_without_panic() {
        let err = TileMapper::paper().try_with_max_rows(0).unwrap_err();
        assert!(matches!(err, ResipeError::InvalidOptions { .. }), "{err}");
        assert_eq!(
            TileMapper::paper().try_with_max_rows(8).unwrap().max_rows(),
            8
        );
    }

    #[test]
    fn forward_ideal_matches_dot_product() {
        let weights = vec![0.5, -0.5, 1.0, 0.25];
        let mapped = TileMapper::paper()
            .with_access_resistance(Ohms(1e-6))
            .map(&weights, 2, 2)
            .unwrap();
        let a = [0.8, 0.4];
        let y = mapped.forward_ideal(&a).unwrap();
        let expected = [0.8 * 0.5 + 0.4 * 1.0, 0.8 * -0.5 + 0.4 * 0.25];
        for (got, exp) in y.iter().zip(&expected) {
            assert!((got - exp).abs() < 1e-6, "{got} vs {exp}");
        }
    }

    #[test]
    fn pass_through_forward_is_nearly_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let weights: Vec<f64> = (0..32 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 32, 4).unwrap();
        let a: Vec<f64> = (0..32).map(|_| rng.gen_range(0.0..1.0)).collect();
        let hw = mapped
            .forward(&engine(), &a, SpikeEncoding::PassThrough)
            .unwrap();
        let ideal = mapped.forward_ideal(&a).unwrap();
        let ref_mag = ideal.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-9);
        for (h, i) in hw.iter().zip(&ideal) {
            assert!(
                (h - i).abs() / ref_mag < 5e-3,
                "hw {h} vs ideal {i} (ref {ref_mag})"
            );
        }
    }

    #[test]
    fn linear_time_forward_matches_distorted_ideal() {
        let mut rng = StdRng::seed_from_u64(7);
        let weights: Vec<f64> = (0..32 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 32, 4).unwrap();
        let a: Vec<f64> = (0..32).map(|_| rng.gen_range(0.0..1.0)).collect();
        let cfg = ResipeConfig::paper();
        let distorted: Vec<f64> = a.iter().map(|&x| linear_time_distortion(&cfg, x)).collect();
        let hw = mapped
            .forward(&engine(), &a, SpikeEncoding::LinearTime)
            .unwrap();
        let ideal_distorted = mapped.forward_ideal(&distorted).unwrap();
        let ref_mag = ideal_distorted
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-9);
        for (h, i) in hw.iter().zip(&ideal_distorted) {
            assert!(
                (h - i).abs() / ref_mag < 5e-3,
                "hw {h} vs distorted ideal {i}"
            );
        }
    }

    #[test]
    fn distortion_is_concave_and_normalized() {
        let cfg = ResipeConfig::paper();
        assert!(linear_time_distortion(&cfg, 0.0).abs() < 1e-12);
        assert!((linear_time_distortion(&cfg, 1.0) - 1.0).abs() < 1e-12);
        // Concavity: midpoint above the chord.
        let mid = linear_time_distortion(&cfg, 0.5);
        assert!(mid > 0.5, "ã(0.5) = {mid}");
        // Monotone.
        let mut prev = -1.0;
        for i in 0..=20 {
            let v = linear_time_distortion(&cfg, i as f64 / 20.0);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn all_zero_activations_give_zero() {
        let mapped = TileMapper::paper().map(&[0.5, -0.5], 2, 1).unwrap();
        for enc in [SpikeEncoding::LinearTime, SpikeEncoding::PassThrough] {
            let y = mapped.forward(&engine(), &[0.0, 0.0], enc).unwrap();
            assert!(y[0].abs() < 1e-9, "got {} for {enc:?}", y[0]);
        }
    }

    #[test]
    fn perturbed_changes_effective_conductances() {
        let mapped = TileMapper::paper()
            .map(&[0.5, -0.5, 0.1, 0.9], 2, 2)
            .unwrap();
        let model = VariationModel::device_to_device(0.2).unwrap();
        let noisy = mapped.perturbed(&model, 2);
        assert_ne!(noisy, mapped);
        // Same seed, same instance (per-tile substreams are pure functions
        // of the base seed).
        assert_eq!(noisy, mapped.perturbed(&model, 2));
        // Ideal variation keeps it identical.
        let same = mapped.perturbed(&VariationModel::IDEAL, 2);
        assert_eq!(same, mapped);
    }

    #[test]
    fn perturbation_shifts_hardware_output() {
        let mut rng = StdRng::seed_from_u64(3);
        let weights: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 16, 1).unwrap();
        let a: Vec<f64> = (0..16).map(|_| rng.gen_range(0.2..0.9)).collect();
        let e = engine();
        let clean = mapped.forward(&e, &a, SpikeEncoding::PassThrough).unwrap()[0];
        let model = VariationModel::device_to_device(0.2).unwrap();
        let noisy = mapped.perturbed(&model, 3);
        let shifted = noisy.forward(&e, &a, SpikeEncoding::PassThrough).unwrap()[0];
        assert!((clean - shifted).abs() > 1e-6, "PV must move the output");
    }

    #[test]
    fn quantized_mapping_changes_weights() {
        let q = Quantizer::new(2).unwrap();
        let analog = TileMapper::paper().map(&[0.4, -0.6], 2, 1).unwrap();
        let quantized = TileMapper::paper()
            .with_quantizer(q)
            .map(&[0.4, -0.6], 2, 1)
            .unwrap();
        assert_ne!(analog, quantized);
        // Binary cell: 0.4/0.6 -> fraction 2/3 -> rounds to 1.0 -> weight
        // reconstructs near ±0.6.
        let w0 = quantized.reconstruct_weight(0, 0);
        assert!((w0 - 0.6).abs() < 0.05, "w0 {w0}");
    }

    #[test]
    fn validation_errors() {
        let mapper = TileMapper::paper();
        assert!(mapper.map(&[0.0; 5], 2, 2).is_err());
        assert!(mapper.map(&[f64::NAN, 0.0], 2, 1).is_err());
        let mapped = mapper.map(&[0.5; 4], 2, 2).unwrap();
        assert!(mapped
            .forward(&engine(), &[0.1], SpikeEncoding::LinearTime)
            .is_err());
        assert!(mapped.forward_ideal(&[0.1, 0.2, 0.3]).is_err());
        for enc in [SpikeEncoding::LinearTime, SpikeEncoding::PassThrough] {
            let err = mapped.forward(&engine(), &[0.5, f64::NAN], enc);
            assert!(matches!(err, Err(ResipeError::SpikeOutOfSlice { .. })));
        }
    }

    #[test]
    fn out_of_range_activations_clamp() {
        let mapped = TileMapper::paper().map(&[1.0], 1, 1).unwrap();
        let e = engine();
        let over = mapped
            .forward(&e, &[1.5], SpikeEncoding::LinearTime)
            .unwrap();
        let at_one = mapped
            .forward(&e, &[1.0], SpikeEncoding::LinearTime)
            .unwrap();
        assert!((over[0] - at_one[0]).abs() < 1e-12);
    }

    #[test]
    fn time_quantization_coarsens_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let weights: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 16, 1).unwrap();
        let a: Vec<f64> = (0..16).map(|_| rng.gen_range(0.1..0.9)).collect();
        let e = engine();
        let exact = mapped.forward(&e, &a, SpikeEncoding::PassThrough).unwrap()[0];
        // A very coarse 10 ns grid must visibly move the output; a 1 fs
        // grid must not.
        let coarse = mapped
            .clone()
            .with_time_quantization(Seconds(10e-9))
            .forward(&e, &a, SpikeEncoding::PassThrough)
            .unwrap()[0];
        let fine = mapped
            .clone()
            .with_time_quantization(Seconds(1e-15))
            .forward(&e, &a, SpikeEncoding::PassThrough)
            .unwrap()[0];
        assert!((exact - fine).abs() < 1e-6, "fine grid {fine} vs {exact}");
        assert!((exact - coarse).abs() > 1e-4, "coarse grid had no effect");
    }

    #[test]
    fn aging_is_chunking_invariant_and_degrades_output() {
        use resipe_reram::aging::{AgingClock, AgingConfig};
        use resipe_reram::faults::RetentionDrift;
        let mut rng = StdRng::seed_from_u64(9);
        let weights: Vec<f64> = (0..32 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 32, 4).unwrap();
        let cfg = AgingConfig::new(Seconds(10.0), RetentionDrift::new(Seconds(1e4)).unwrap())
            .unwrap()
            .with_wear_per_request(0.002)
            .unwrap()
            .with_seed(17);

        // One big step vs. the same requests in uneven chunks.
        let mut whole = mapped.clone();
        let mut clock = AgingClock::new(cfg);
        whole.age(&clock.advance(1000).unwrap()).unwrap();

        let mut chunked = mapped.clone();
        let mut clock2 = AgingClock::new(cfg);
        for n in [1u64, 499, 300, 200] {
            chunked.age(&clock2.advance(n).unwrap()).unwrap();
        }
        // The wear schedule (which cells got struck) is *exactly*
        // chunking-invariant; drifted conductances match to FP rounding
        // (chunked decay multiplies exponentials instead of summing
        // exponents).
        assert!(whole.fault_rate() > 0.0, "wear events must strike cells");
        assert_eq!(whole.fault_rate(), chunked.fault_rate());
        for (tw, tc) in whole.tiles().iter().zip(chunked.tiles()) {
            assert_eq!(tw.fault_plus(), tc.fault_plus());
            assert_eq!(tw.fault_minus(), tc.fault_minus());
            for (a, b) in tw.eff_plus().iter().zip(tc.eff_plus()) {
                assert!((a - b).abs() <= 1e-12 * a.abs(), "{a} vs {b}");
            }
            for (a, b) in tw.eff_minus().iter().zip(tc.eff_minus()) {
                assert!((a - b).abs() <= 1e-12 * a.abs(), "{a} vs {b}");
            }
        }

        // Aged hardware produces measurably different (degraded) output.
        let e = engine();
        let a: Vec<f64> = (0..32).map(|_| 0.5).collect();
        let fresh_y = mapped.forward(&e, &a, SpikeEncoding::PassThrough).unwrap();
        let aged_y = whole.forward(&e, &a, SpikeEncoding::PassThrough).unwrap();
        let moved = fresh_y
            .iter()
            .zip(&aged_y)
            .any(|(f, g)| (f - g).abs() > 1e-6);
        assert!(moved, "aging must move the decoded output");
    }

    #[test]
    fn zero_request_aging_never_fires() {
        use resipe_reram::aging::{AgingClock, AgingConfig};
        use resipe_reram::faults::RetentionDrift;
        let cfg =
            AgingConfig::new(Seconds(1.0), RetentionDrift::new(Seconds(1.0)).unwrap()).unwrap();
        let mut clock = AgingClock::new(cfg);
        assert!(clock.advance(0).is_none());
    }

    #[test]
    fn comparator_offsets_shift_output() {
        let weights = vec![0.5, -0.25, 0.75, 0.1];
        let mapped = TileMapper::paper().map(&weights, 4, 1).unwrap();
        let a = [0.5, 0.5, 0.5, 0.5];
        let e = engine();
        let clean = mapped.forward(&e, &a, SpikeEncoding::PassThrough).unwrap()[0];
        let offset = mapped
            .clone()
            .with_comparator_offsets(0.02, 6)
            .forward(&e, &a, SpikeEncoding::PassThrough)
            .unwrap()[0];
        assert!((clean - offset).abs() > 1e-6, "offsets had no effect");
        // Zero sigma leaves the output untouched.
        let zero = mapped
            .clone()
            .with_comparator_offsets(0.0, 7)
            .forward(&e, &a, SpikeEncoding::PassThrough)
            .unwrap()[0];
        assert!((clean - zero).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_time_quantum_panics() {
        let mapped = TileMapper::paper().map(&[1.0], 1, 1).unwrap();
        let _ = mapped.with_time_quantization(Seconds(0.0));
    }

    #[test]
    fn paper_stack_builds() {
        let (e, m) = paper_stack(ResipeConfig::paper()).unwrap();
        assert_eq!(e.config().slice(), ResipeConfig::paper().slice());
        assert_eq!(m.window(), ResistanceWindow::RECOMMENDED);
    }
}
