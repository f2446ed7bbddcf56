//! Amortized batched execution of mapped layers.
//!
//! [`BatchPlan`] precomputes everything in a [`MappedWeights`] forward
//! pass that does not depend on the input sample and then replays the
//! *exact* per-sample floating-point operation sequence of
//! [`MappedWeights::forward`] against those hoisted values:
//!
//! * a column-major copy of the effective conductances, routed through
//!   the logical→physical column map;
//! * the per-column crossbar conductance sums and capacitor charge
//!   factors;
//! * the nominal decode constants `k_j`;
//! * the layer's [`VoltageCodec`]: `V_ref`, the comparator clamp, the
//!   saturation voltage `V_sat = f(slice)`, and the optional time
//!   quantum.
//!
//! Because every hoisted quantity is computed by the same expression on
//! the same inputs (in the same order) as the per-sample path, and a
//! value computed once is bit-equal to the same value recomputed, the
//! plan's outputs are **bit-identical** to the sequential path. What the
//! plan removes is pure redundancy:
//!
//! * column sums and charge factors, recomputed per sample by the
//!   reference, are computed once per batch;
//! * spare (unrouted) bitlines are not evaluated;
//! * the S1 held voltages are shared between the positive and negative
//!   arrays of the differential pair instead of being recomputed per
//!   array;
//! * a **zero activation holds exactly `+0.0`** in both encodings, so it
//!   is skipped before the codec is asked;
//! * wordlines held at `V = 0` are skipped inside the weighted
//!   accumulation (their products are exactly `+0.0`, so skipping them
//!   cannot change the sum's bits).
//!
//! Neither path evaluates a spike time it does not need: with continuous
//! timing the S2 decode is `min(V_eff, V_sat) / k_j` and a pass-through
//! S1 encode is `a·V_ref` (see the
//! [mapping docs](crate::mapping#closed-forms-of-the-cancellation)).
//!
//! This is what makes the batched inference path faster even on a single
//! core; on multicore hosts [`crate::inference::HardwareNetwork::forward_batch`]
//! additionally fans samples out across the rayon pool.

use std::sync::OnceLock;
use std::time::Instant;

use resipe_analog::units::Seconds;

use crate::engine::ResipeEngine;
use crate::error::ResipeError;
use crate::kernel::{Backend, FIXED_LEVELS, VECTOR_LANES};
use crate::mapping::{MappedWeights, SpikeEncoding, Tile, VoltageCodec};
use crate::telemetry::{LayerProbe, SampleStats};

/// Sample-independent constants of one crossbar tile pair.
#[derive(Debug, Clone)]
struct TilePlan {
    /// First logical input row of this tile.
    row_start: usize,
    /// Wordlines in this tile.
    rows: usize,
    /// Logical columns decoded from this tile.
    cols: usize,
    /// Physical wordline → logical tile row driving it.
    row_source: Vec<usize>,
    /// Effective conductances, column-major `[cols × rows]`, routed
    /// through the logical→physical column map (spares dropped).
    g_plus: Vec<f64>,
    g_minus: Vec<f64>,
    /// Actual per-logical-column conductance sums (row-order partial
    /// sums, exactly as `mvm_matrix` accumulates them).
    g_total_plus: Vec<f64>,
    g_total_minus: Vec<f64>,
    /// Hoisted charge factors `1 − e^(−Δt/C · ΣG)` per logical column.
    charge_plus: Vec<f64>,
    charge_minus: Vec<f64>,
    /// Hoisted nominal decode constants `k_j` per logical column.
    k_plus: Vec<f64>,
    k_minus: Vec<f64>,
    /// Static comparator offsets per logical column.
    offset_plus: Vec<f64>,
    offset_minus: Vec<f64>,
}

/// Pre-quantized integer mirror of one [`TilePlan`] for the
/// [`Backend::FixedI32`] kernel: conductances rounded to `i32` codes of
/// `g_lsb` siemens each, built lazily once per plan and shared by every
/// fixed-point block afterwards.
#[derive(Debug, Clone)]
struct FixedTile {
    /// Column-major conductance codes `round(g / g_lsb)`.
    q_plus: Vec<i32>,
    q_minus: Vec<i32>,
    /// Conductance quantization step: `max(g) / 2^FIXED_QBITS` over both
    /// arrays of this tile (floored at `f64::MIN_POSITIVE` so an
    /// all-zero tile stays well-defined).
    g_lsb: f64,
    /// Dequantization factor `v_lsb * g_lsb` applied to the integer dot
    /// product.
    w_scale: f64,
}

impl TilePlan {
    fn new(tile: &Tile, row_start: usize, dt_over_c: f64) -> TilePlan {
        let rows = tile.rows();
        let cols = tile.cols();
        let mut plan = TilePlan {
            row_start,
            rows,
            cols,
            row_source: tile.row_source.clone(),
            g_plus: Vec::with_capacity(cols * rows),
            g_minus: Vec::with_capacity(cols * rows),
            g_total_plus: Vec::with_capacity(cols),
            g_total_minus: Vec::with_capacity(cols),
            charge_plus: Vec::with_capacity(cols),
            charge_minus: Vec::with_capacity(cols),
            k_plus: Vec::with_capacity(cols),
            k_minus: Vec::with_capacity(cols),
            offset_plus: Vec::with_capacity(cols),
            offset_minus: Vec::with_capacity(cols),
        };
        for j in 0..cols {
            let pc = tile.col_map()[j];
            for (eff_cm, g_col, g_total, charge, k, offs, gsum, offsets) in [
                (
                    tile.eff_plus_cm(),
                    &mut plan.g_plus,
                    &mut plan.g_total_plus,
                    &mut plan.charge_plus,
                    &mut plan.k_plus,
                    &mut plan.offset_plus,
                    &tile.gsum_plus,
                    &tile.offset_plus,
                ),
                (
                    tile.eff_minus_cm(),
                    &mut plan.g_minus,
                    &mut plan.g_total_minus,
                    &mut plan.charge_minus,
                    &mut plan.k_minus,
                    &mut plan.offset_minus,
                    &tile.gsum_minus,
                    &tile.offset_minus,
                ),
            ] {
                // Column sum in row order — the exact accumulation order
                // of `mvm_matrix`, so the hoisted sum is bit-equal to the
                // per-sample recomputation it replaces. The tile's SoA
                // mirror already holds the column contiguously.
                let col = &eff_cm[pc * rows..(pc + 1) * rows];
                let mut total = 0.0f64;
                for &g in col {
                    total += g;
                }
                g_col.extend_from_slice(col);
                g_total.push(total);
                charge.push(1.0 - (-dt_over_c * total).exp());
                let gsum_nom = gsum[pc];
                k.push((1.0 - (-dt_over_c * gsum_nom).exp()) / gsum_nom);
                offs.push(offsets[pc]);
            }
        }
        plan
    }
}

/// Reusable per-worker buffers for every [`BatchPlan`] kernel: the
/// per-sample, blocked, probed and backend paths.
///
/// Create one per thread with [`BatchPlan::scratch`] and reuse it across
/// calls to keep the hot loop allocation-free.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    /// Held S1 wordline voltages of the current tile.
    v_in: Vec<f64>,
    /// Indices of wordlines with a non-zero held voltage.
    nonzero: Vec<u32>,
    /// Sampled `(V_out⁺, V_out⁻)` per column of the current tile —
    /// used only by the probed path, which splits the column loop into
    /// a crossbar pass and a decode pass to time them separately.
    v_cols: Vec<(f64, f64)>,
    /// Held wordline voltages of every sample in the current block,
    /// stride `tile.rows` per sample ([`BatchPlan::forward_block`]).
    v_in_block: Vec<f64>,
    /// Concatenated non-zero wordline indices of the block's samples.
    nz_idx: Vec<u32>,
    /// Prefix bounds into `nz_idx`: sample `b` of the block owns
    /// `nz_idx[nz_bounds[b]..nz_bounds[b + 1]]`.
    nz_bounds: Vec<usize>,
    /// Staged `(V_out⁺, V_out⁻)` per (column, sample) of the probed
    /// block path and of the non-scalar kernel backends, indexed
    /// `j * samples + b`.
    v_cols_block: Vec<(f64, f64)>,
    /// Quantized held-voltage codes of the current tile block (stride
    /// `tile.rows` per sample), filled by the [`Backend::FixedI32`]
    /// prepare stage.
    q_in_block: Vec<i32>,
    /// Normalized-activation staging for a block of samples — borrowed
    /// by `HardwareNetwork` between kernel invocations so the per-block
    /// input copy reuses one allocation.
    pub(crate) a_block: Vec<f64>,
}

/// A sample-independent execution plan for one mapped weight layer.
///
/// See the [module docs](crate::batch) for the amortization/determinism
/// contract. Build once per layer per batch with [`BatchPlan::new`], then
/// call [`BatchPlan::forward_one`] per sample (from any number of
/// threads, each with its own [`BatchScratch`]).
#[derive(Debug, Clone)]
pub struct BatchPlan {
    rows: usize,
    cols: usize,
    encoding: SpikeEncoding,
    /// The layer's S1/S2 codec: `V_ref`, `V_sat`, the comparator clamp
    /// and the optional time quantum, hoisted once per plan.
    codec: VoltageCodec,
    /// Final digital rescale `w_scale / (V_ref Δg_eff)`.
    scale: f64,
    tiles: Vec<TilePlan>,
    max_tile_rows: usize,
    /// Conductance bytes read from the tile plans by one pass over all
    /// tiles (both differential arrays) — the traffic one block of the
    /// blocked kernel streams, versus once per *sample* unblocked.
    tile_stream_bytes: u64,
    /// Held-voltage quantization step `V_s / 2^FIXED_QBITS` of the
    /// fixed-point backend.
    v_lsb: f64,
    /// Lazily built integer tile mirrors for [`Backend::FixedI32`] —
    /// a pure function of the plan, so sharing the cache across threads
    /// and backends is race-free.
    fixed: OnceLock<Vec<FixedTile>>,
}

impl BatchPlan {
    /// Builds the plan for one mapped layer on one engine.
    pub fn new(
        engine: &ResipeEngine,
        mapped: &MappedWeights,
        encoding: SpikeEncoding,
    ) -> BatchPlan {
        let cfg = engine.config();
        let codec = VoltageCodec::new(cfg, mapped.time_quantum().map(Seconds));
        let dt_over_c = cfg.dt().0 / cfg.c_cog().0;
        let mut tiles = Vec::with_capacity(mapped.tiles().len());
        let mut row_start = 0usize;
        for tile in mapped.tiles() {
            tiles.push(TilePlan::new(tile, row_start, dt_over_c));
            row_start += tile.rows();
        }
        let tile_stream_bytes = tiles
            .iter()
            .map(|t| ((t.g_plus.len() + t.g_minus.len()) * std::mem::size_of::<f64>()) as u64)
            .sum();
        BatchPlan {
            rows: mapped.rows(),
            cols: mapped.cols(),
            encoding,
            codec,
            scale: mapped.weight_scale() / (codec.v_ref() * mapped.delta_g_eff().0),
            max_tile_rows: mapped.tiles().iter().map(Tile::rows).max().unwrap_or(0),
            tile_stream_bytes,
            v_lsb: codec.vs / FIXED_LEVELS,
            fixed: OnceLock::new(),
            tiles,
        }
    }

    /// Allocates a scratch buffer sized for this plan.
    pub fn scratch(&self) -> BatchScratch {
        BatchScratch {
            v_in: Vec::with_capacity(self.max_tile_rows),
            nonzero: Vec::with_capacity(self.max_tile_rows),
            v_cols: Vec::with_capacity(self.cols),
            ..BatchScratch::default()
        }
    }

    /// Logical input dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical output dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Conductance bytes streamed from the tile plans by one pass over
    /// all tiles (both differential arrays). The blocked kernel pays
    /// this once per *block*; the unblocked path pays it once per
    /// *sample*.
    pub fn tile_stream_bytes(&self) -> u64 {
        self.tile_stream_bytes
    }

    /// Deterministic sample-block size for [`BatchPlan::forward_block`]:
    /// as many samples as keep one block's per-sample working set
    /// (held wordline voltages, non-zero index list, output row) inside
    /// a 32 KiB L1 budget, clamped to `[1, 64]`. A pure function of the
    /// layer shape — never of the host — so blocked execution partitions
    /// work identically on every machine.
    pub fn preferred_block(&self) -> usize {
        let per_sample = 12 * self.max_tile_rows + 8 * self.cols;
        (32 * 1024 / per_sample.max(1)).clamp(1, 64)
    }

    /// Executes one logical MVM — bit-identical to
    /// [`MappedWeights::forward`] on the same activations and encoding.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == rows`.
    pub fn forward_one(
        &self,
        activations: &[f64],
        scratch: &mut BatchScratch,
    ) -> Result<Vec<f64>, ResipeError> {
        if activations.len() != self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: self.rows,
                got: activations.len(),
            });
        }
        let mut acc = vec![0.0f64; self.cols];
        for tile in &self.tiles {
            scratch.v_in.clear();
            scratch.nonzero.clear();
            // S1: encode each driven wordline's activation into a spike
            // time and sample the shared GD ramp — once per tile, shared
            // by both arrays of the differential pair.
            for (p, &l) in tile.row_source.iter().enumerate() {
                let a = activations[tile.row_start + l].clamp(0.0, 1.0);
                if a == 0.0 {
                    // A zero activation holds exactly +0.0 in both
                    // encodings (`VoltageCodec::held_voltage`).
                    scratch.v_in.push(0.0);
                    continue;
                }
                let v = self.codec.held_voltage(self.encoding, a);
                scratch.v_in.push(v);
                if v != 0.0 {
                    scratch.nonzero.push(p as u32);
                }
            }
            for (j, slot) in acc.iter_mut().enumerate().take(tile.cols) {
                let col = j * tile.rows..(j + 1) * tile.rows;
                // One pass over the held wordlines accumulates both
                // arrays' weighted sums; each accumulator still adds its
                // products in row order, so the bits are unchanged.
                let gp = &tile.g_plus[col.clone()];
                let gm = &tile.g_minus[col];
                let mut wp = 0.0f64;
                let mut wm = 0.0f64;
                for &p in &scratch.nonzero {
                    let v = scratch.v_in[p as usize];
                    wp += v * gp[p as usize];
                    wm += v * gm[p as usize];
                }
                let vp = Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]);
                let vm = Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]);
                let d_plus = self.decode_column(vp, tile.offset_plus[j], tile.k_plus[j]);
                let d_minus = self.decode_column(vm, tile.offset_minus[j], tile.k_minus[j]);
                *slot += d_plus - d_minus;
            }
        }
        for y in &mut acc {
            *y *= self.scale;
        }
        Ok(acc)
    }

    /// The sampled bitline voltage of one column from its accumulated
    /// weighted sum: `V_eq` times the hoisted charge factor. Zero-voltage
    /// wordlines contribute exactly `+0.0` to the weighted sum, so the
    /// caller skips them without changing a single bit of the
    /// accumulation.
    fn v_out(weighted: f64, g_total: f64, charge: f64) -> f64 {
        if g_total == 0.0 {
            0.0
        } else {
            (weighted / g_total) * charge
        }
    }

    /// The digital decode of one observed bitline voltage: the codec's
    /// read-back voltage (`min(V_eff, V_sat)` with continuous timing)
    /// divided by the hoisted nominal column constant `k_j` — the
    /// reference's operation sequence.
    #[inline]
    fn decode_column(&self, v_out: f64, offset: f64, k: f64) -> f64 {
        self.codec.decode(v_out, offset).v_hat / k
    }

    /// [`BatchPlan::decode_column`] plus what telemetry observes of it,
    /// recorded into `probe` and `stats`.
    fn decode_column_probed(
        &self,
        v_out: f64,
        offset: f64,
        k: f64,
        probe: &LayerProbe,
        stats: &mut SampleStats,
    ) -> f64 {
        let d = self.codec.decode(v_out, offset);
        probe.record_decode(d.v_eff, d.v_hat, d.t_obs);
        stats.comparator_offset_rejects += u64::from(d.offset_clamped);
        stats.saturated_decodes += u64::from(d.saturated);
        d.v_hat / k
    }

    /// [`BatchPlan::forward_one`] with an optional telemetry probe.
    ///
    /// With `None` this *is* `forward_one`. With a probe, the per-tile
    /// column loop is split into a crossbar pass (weighted sums and
    /// sampled `V_out`, staged in the scratch buffer) and a decode pass,
    /// so S1 encode, the computation stage and S2 decode can be timed
    /// separately — and the decode records the `t_out`/`V_out`
    /// histograms, zero-activation skips, comparator-offset rejects and
    /// slice-end saturations. Every column still sees the exact
    /// floating-point operation sequence of the unprobed path on the
    /// same inputs (columns are independent; staging an intermediate in
    /// memory does not change its bits), so probed outputs remain
    /// **bit-identical**.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == rows`.
    pub fn forward_one_probed(
        &self,
        activations: &[f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) -> Result<Vec<f64>, ResipeError> {
        let Some(probe) = probe else {
            return self.forward_one(activations, scratch);
        };
        if activations.len() != self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: self.rows,
                got: activations.len(),
            });
        }
        let mut stats = SampleStats {
            mvms: 2 * self.tiles.len() as u64,
            ..SampleStats::default()
        };
        let mut acc = vec![0.0f64; self.cols];
        for tile in &self.tiles {
            let t0 = Instant::now();
            scratch.v_in.clear();
            scratch.nonzero.clear();
            for (p, &l) in tile.row_source.iter().enumerate() {
                let a = activations[tile.row_start + l].clamp(0.0, 1.0);
                if a == 0.0 {
                    scratch.v_in.push(0.0);
                    stats.zero_activation_skips += 1;
                    continue;
                }
                let v = self.codec.held_voltage(self.encoding, a);
                scratch.v_in.push(v);
                if v != 0.0 {
                    scratch.nonzero.push(p as u32);
                }
            }
            let t1 = Instant::now();
            scratch.v_cols.clear();
            for j in 0..tile.cols {
                let col = j * tile.rows..(j + 1) * tile.rows;
                let gp = &tile.g_plus[col.clone()];
                let gm = &tile.g_minus[col];
                let mut wp = 0.0f64;
                let mut wm = 0.0f64;
                for &p in &scratch.nonzero {
                    let v = scratch.v_in[p as usize];
                    wp += v * gp[p as usize];
                    wm += v * gm[p as usize];
                }
                scratch.v_cols.push((
                    Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]),
                    Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]),
                ));
            }
            let t2 = Instant::now();
            for (j, slot) in acc.iter_mut().enumerate().take(tile.cols) {
                let (vp, vm) = scratch.v_cols[j];
                let d_plus = self.decode_column_probed(
                    vp,
                    tile.offset_plus[j],
                    tile.k_plus[j],
                    probe,
                    &mut stats,
                );
                let d_minus = self.decode_column_probed(
                    vm,
                    tile.offset_minus[j],
                    tile.k_minus[j],
                    probe,
                    &mut stats,
                );
                *slot += d_plus - d_minus;
            }
            let t3 = Instant::now();
            stats.s1_encode_nanos += (t1 - t0).as_nanos() as u64;
            stats.crossbar_nanos += (t2 - t1).as_nanos() as u64;
            stats.s2_decode_nanos += (t3 - t2).as_nanos() as u64;
        }
        let t_scale = Instant::now();
        for y in &mut acc {
            *y *= self.scale;
        }
        stats.s2_decode_nanos += t_scale.elapsed().as_nanos() as u64;
        probe.record_sample(stats);
        Ok(acc)
    }

    /// Encodes one tile's wordlines for every sample of a block into the
    /// scratch staging buffers: held voltages at stride `tile.rows`, and
    /// the per-sample non-zero index lists behind a shared prefix-bounds
    /// array. Each sample sees the exact encode sequence of
    /// [`BatchPlan::forward_one`]; only the buffer it lands in differs.
    /// Returns the number of zero-activation skips taken.
    fn encode_block(
        &self,
        tile: &TilePlan,
        activations: &[f64],
        samples: usize,
        scratch: &mut BatchScratch,
    ) -> u64 {
        let mut skips = 0u64;
        scratch.v_in_block.clear();
        scratch.nz_idx.clear();
        scratch.nz_bounds.clear();
        scratch.nz_bounds.push(0);
        for b in 0..samples {
            let base = b * self.rows + tile.row_start;
            for (p, &l) in tile.row_source.iter().enumerate() {
                let a = activations[base + l].clamp(0.0, 1.0);
                if a == 0.0 {
                    scratch.v_in_block.push(0.0);
                    skips += 1;
                    continue;
                }
                let v = self.codec.held_voltage(self.encoding, a);
                scratch.v_in_block.push(v);
                if v != 0.0 {
                    scratch.nz_idx.push(p as u32);
                }
            }
            scratch.nz_bounds.push(scratch.nz_idx.len());
        }
        skips
    }

    /// Executes `samples` logical MVMs in one pass over the tile data —
    /// the cache-blocked kernel. `activations` holds the samples
    /// back-to-back (`samples × rows`), `out` receives the outputs
    /// back-to-back (`samples × cols`).
    ///
    /// Per tile, the S1 encode runs for every sample of the block first,
    /// then each column's conductance pair is loaded **once** and swept
    /// across all samples, so tile data is read from cache instead of
    /// being re-streamed from memory per sample. For every sample the
    /// per-(tile, column) contributions still accumulate in tile order
    /// with the row-order weighted sums of `forward_one`, so the result
    /// is **bit-identical** to calling [`BatchPlan::forward_one`] on
    /// each sample — for any block size.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == samples * rows` and
    /// `out.len() == samples * cols`.
    pub fn forward_block(
        &self,
        activations: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) -> Result<(), ResipeError> {
        if activations.len() != samples * self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.rows,
                got: activations.len(),
            });
        }
        if out.len() != samples * self.cols {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.cols,
                got: out.len(),
            });
        }
        out.fill(0.0);
        for tile in &self.tiles {
            self.encode_block(tile, activations, samples, scratch);
            for j in 0..tile.cols {
                let col = j * tile.rows..(j + 1) * tile.rows;
                let gp = &tile.g_plus[col.clone()];
                let gm = &tile.g_minus[col];
                for b in 0..samples {
                    let v_in = &scratch.v_in_block[b * tile.rows..(b + 1) * tile.rows];
                    let nz = &scratch.nz_idx[scratch.nz_bounds[b]..scratch.nz_bounds[b + 1]];
                    let mut wp = 0.0f64;
                    let mut wm = 0.0f64;
                    for &p in nz {
                        let v = v_in[p as usize];
                        wp += v * gp[p as usize];
                        wm += v * gm[p as usize];
                    }
                    let vp = Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]);
                    let vm = Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]);
                    let d_plus = self.decode_column(vp, tile.offset_plus[j], tile.k_plus[j]);
                    let d_minus = self.decode_column(vm, tile.offset_minus[j], tile.k_minus[j]);
                    out[b * self.cols + j] += d_plus - d_minus;
                }
            }
        }
        for y in out.iter_mut() {
            *y *= self.scale;
        }
        Ok(())
    }

    /// [`BatchPlan::forward_block`] with an optional telemetry probe.
    ///
    /// With `None` this *is* `forward_block`. With a probe, the per-tile
    /// work is split into a block encode pass, a crossbar pass staging
    /// every `(column, sample)` voltage pair, and a decode pass, so the
    /// three stages can be timed separately and every column decode is
    /// observed — the same staging argument as
    /// [`BatchPlan::forward_one_probed`] keeps the outputs
    /// **bit-identical**. The probe's layer counters advance by the
    /// whole block (`calls += samples`), and the global kernel counters
    /// record one block of `samples` samples streaming
    /// [`BatchPlan::tile_stream_bytes`] conductance bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == samples * rows` and
    /// `out.len() == samples * cols`.
    pub fn forward_block_probed(
        &self,
        activations: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) -> Result<(), ResipeError> {
        let Some(probe) = probe else {
            return self.forward_block(activations, samples, out, scratch);
        };
        if activations.len() != samples * self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.rows,
                got: activations.len(),
            });
        }
        if out.len() != samples * self.cols {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.cols,
                got: out.len(),
            });
        }
        let mut stats = SampleStats {
            mvms: (samples * 2 * self.tiles.len()) as u64,
            ..SampleStats::default()
        };
        out.fill(0.0);
        for tile in &self.tiles {
            let t0 = Instant::now();
            stats.zero_activation_skips += self.encode_block(tile, activations, samples, scratch);
            let t1 = Instant::now();
            scratch.v_cols_block.clear();
            for j in 0..tile.cols {
                let col = j * tile.rows..(j + 1) * tile.rows;
                let gp = &tile.g_plus[col.clone()];
                let gm = &tile.g_minus[col];
                for b in 0..samples {
                    let v_in = &scratch.v_in_block[b * tile.rows..(b + 1) * tile.rows];
                    let nz = &scratch.nz_idx[scratch.nz_bounds[b]..scratch.nz_bounds[b + 1]];
                    let mut wp = 0.0f64;
                    let mut wm = 0.0f64;
                    for &p in nz {
                        let v = v_in[p as usize];
                        wp += v * gp[p as usize];
                        wm += v * gm[p as usize];
                    }
                    scratch.v_cols_block.push((
                        Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]),
                        Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]),
                    ));
                }
            }
            let t2 = Instant::now();
            for j in 0..tile.cols {
                for b in 0..samples {
                    let (vp, vm) = scratch.v_cols_block[j * samples + b];
                    let d_plus = self.decode_column_probed(
                        vp,
                        tile.offset_plus[j],
                        tile.k_plus[j],
                        probe,
                        &mut stats,
                    );
                    let d_minus = self.decode_column_probed(
                        vm,
                        tile.offset_minus[j],
                        tile.k_minus[j],
                        probe,
                        &mut stats,
                    );
                    out[b * self.cols + j] += d_plus - d_minus;
                }
            }
            let t3 = Instant::now();
            stats.s1_encode_nanos += (t1 - t0).as_nanos() as u64;
            stats.crossbar_nanos += (t2 - t1).as_nanos() as u64;
            stats.s2_decode_nanos += (t3 - t2).as_nanos() as u64;
        }
        let t_scale = Instant::now();
        for y in out.iter_mut() {
            *y *= self.scale;
        }
        stats.s2_decode_nanos += t_scale.elapsed().as_nanos() as u64;
        probe.record_block(stats, samples as u64);
        probe.record_kernel(samples as u64, self.tile_stream_bytes, Backend::Scalar);
        Ok(())
    }

    /// [`BatchPlan::forward_one`] executed by the selected
    /// [`Backend`]. [`Backend::Scalar`] *is* `forward_one`;
    /// [`Backend::VectorF32`] returns the same bits through the lane
    /// kernel; [`Backend::FixedI32`] stays within
    /// [`BatchPlan::backend_error_bound`] of the reference.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == rows`.
    pub fn forward_one_with(
        &self,
        backend: Backend,
        activations: &[f64],
        scratch: &mut BatchScratch,
    ) -> Result<Vec<f64>, ResipeError> {
        if backend == Backend::Scalar {
            return self.forward_one(activations, scratch);
        }
        let mut out = vec![0.0f64; self.cols];
        self.forward_block_with(backend, activations, 1, &mut out, scratch)?;
        Ok(out)
    }

    /// [`BatchPlan::forward_block`] executed by the selected
    /// [`Backend`]. The scalar arm delegates to the untouched reference
    /// kernel; the other backends run the shared
    /// encode → prepare → stage → decode pipeline with their own
    /// computation stage (see [`crate::kernel`] for the per-backend
    /// equivalence guarantees).
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == samples * rows` and
    /// `out.len() == samples * cols`.
    pub fn forward_block_with(
        &self,
        backend: Backend,
        activations: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) -> Result<(), ResipeError> {
        if backend == Backend::Scalar {
            return self.forward_block(activations, samples, out, scratch);
        }
        self.run_block_kernel(backend, activations, samples, out, scratch, None)
    }

    /// [`BatchPlan::forward_block_probed`] executed by the selected
    /// [`Backend`]: the probed counterpart of
    /// [`BatchPlan::forward_block_with`]. The probe's kernel counters
    /// record the block against the backend that ran it (per-backend
    /// block counters, backend-specific streamed bytes).
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == samples * rows` and
    /// `out.len() == samples * cols`.
    pub fn forward_block_probed_with(
        &self,
        backend: Backend,
        activations: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) -> Result<(), ResipeError> {
        if backend == Backend::Scalar {
            return self.forward_block_probed(activations, samples, out, scratch, probe);
        }
        self.run_block_kernel(backend, activations, samples, out, scratch, probe)
    }

    /// The generic staged block pipeline behind the non-scalar
    /// backends: shared S1 block encode, backend prepare + compute
    /// stages filling the `(V_out⁺, V_out⁻)` staging buffer, then the
    /// shared decode pass, the same per-column decode as the fused
    /// scalar kernel.
    fn run_block_kernel(
        &self,
        backend: Backend,
        activations: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) -> Result<(), ResipeError> {
        if activations.len() != samples * self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.rows,
                got: activations.len(),
            });
        }
        if out.len() != samples * self.cols {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.cols,
                got: out.len(),
            });
        }
        let kernel = backend.kernel();
        let mut stats = SampleStats {
            mvms: (samples * 2 * self.tiles.len()) as u64,
            ..SampleStats::default()
        };
        out.fill(0.0);
        for ti in 0..self.tiles.len() {
            let t0 = Instant::now();
            stats.zero_activation_skips +=
                self.encode_block(&self.tiles[ti], activations, samples, scratch);
            kernel.prepare_tile_block(self, ti, samples, scratch);
            let t1 = Instant::now();
            scratch.v_cols_block.clear();
            scratch
                .v_cols_block
                .resize(self.tiles[ti].cols * samples, (0.0, 0.0));
            kernel.stage_tile_block(self, ti, samples, scratch);
            let t2 = Instant::now();
            let tile = &self.tiles[ti];
            for j in 0..tile.cols {
                for b in 0..samples {
                    let (vp, vm) = scratch.v_cols_block[j * samples + b];
                    let (op, kp) = (tile.offset_plus[j], tile.k_plus[j]);
                    let (om, km) = (tile.offset_minus[j], tile.k_minus[j]);
                    let (d_plus, d_minus) = match probe {
                        Some(probe) => (
                            self.decode_column_probed(vp, op, kp, probe, &mut stats),
                            self.decode_column_probed(vm, om, km, probe, &mut stats),
                        ),
                        None => (
                            self.decode_column(vp, op, kp),
                            self.decode_column(vm, om, km),
                        ),
                    };
                    out[b * self.cols + j] += d_plus - d_minus;
                }
            }
            let t3 = Instant::now();
            stats.s1_encode_nanos += (t1 - t0).as_nanos() as u64;
            stats.crossbar_nanos += (t2 - t1).as_nanos() as u64;
            stats.s2_decode_nanos += (t3 - t2).as_nanos() as u64;
        }
        let t_scale = Instant::now();
        for y in out.iter_mut() {
            *y *= self.scale;
        }
        stats.s2_decode_nanos += t_scale.elapsed().as_nanos() as u64;
        if let Some(probe) = probe {
            probe.record_block(stats, samples as u64);
            probe.record_kernel(samples as u64, kernel.stream_bytes(self), backend);
        }
        Ok(())
    }

    /// The scalar computation stage in staged form: the sparse
    /// non-zero-index walk of [`BatchPlan::forward_block`] writing the
    /// sampled voltage pairs into the staging buffer instead of fusing
    /// the decode.
    pub(crate) fn stage_tile_block_scalar(
        &self,
        ti: usize,
        samples: usize,
        scratch: &mut BatchScratch,
    ) {
        let tile = &self.tiles[ti];
        for j in 0..tile.cols {
            let col = j * tile.rows..(j + 1) * tile.rows;
            let gp = &tile.g_plus[col.clone()];
            let gm = &tile.g_minus[col];
            for b in 0..samples {
                let v_in = &scratch.v_in_block[b * tile.rows..(b + 1) * tile.rows];
                let nz = &scratch.nz_idx[scratch.nz_bounds[b]..scratch.nz_bounds[b + 1]];
                let mut wp = 0.0f64;
                let mut wm = 0.0f64;
                for &p in nz {
                    let v = v_in[p as usize];
                    wp += v * gp[p as usize];
                    wm += v * gm[p as usize];
                }
                scratch.v_cols_block[j * samples + b] = (
                    Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]),
                    Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]),
                );
            }
        }
    }

    /// The [`Backend::VectorF32`] computation stage: [`VECTOR_LANES`]
    /// samples advance per conductance load, each lane's accumulator
    /// adding its products in the reference ascending row order, and the
    /// dense rows replace the non-zero index walk (zero-voltage rows
    /// contribute exact `±0.0` products, which cannot flip an
    /// accumulator that is never `-0.0`). Bit-identical to
    /// [`BatchPlan::stage_tile_block_scalar`] by construction.
    pub(crate) fn stage_tile_block_vector(
        &self,
        ti: usize,
        samples: usize,
        scratch: &mut BatchScratch,
    ) {
        let tile = &self.tiles[ti];
        let rows = tile.rows;
        for j in 0..tile.cols {
            let col = j * rows..(j + 1) * rows;
            let gp = &tile.g_plus[col.clone()];
            let gm = &tile.g_minus[col];
            let (gtp, chp) = (tile.g_total_plus[j], tile.charge_plus[j]);
            let (gtm, chm) = (tile.g_total_minus[j], tile.charge_minus[j]);
            let mut b = 0usize;
            while b + VECTOR_LANES <= samples {
                let mut wp = [0.0f64; VECTOR_LANES];
                let mut wm = [0.0f64; VECTOR_LANES];
                let lanes: [&[f64]; VECTOR_LANES] = std::array::from_fn(|l| {
                    &scratch.v_in_block[(b + l) * rows..(b + l + 1) * rows]
                });
                for (p, (&gpv, &gmv)) in gp.iter().zip(gm).enumerate() {
                    for l in 0..VECTOR_LANES {
                        let v = lanes[l][p];
                        wp[l] += v * gpv;
                        wm[l] += v * gmv;
                    }
                }
                for l in 0..VECTOR_LANES {
                    scratch.v_cols_block[j * samples + b + l] =
                        (Self::v_out(wp[l], gtp, chp), Self::v_out(wm[l], gtm, chm));
                }
                b += VECTOR_LANES;
            }
            while b < samples {
                let v_in = &scratch.v_in_block[b * rows..(b + 1) * rows];
                let mut swp = 0.0f64;
                let mut swm = 0.0f64;
                for (p, (&gpv, &gmv)) in gp.iter().zip(gm).enumerate() {
                    let v = v_in[p];
                    swp += v * gpv;
                    swm += v * gmv;
                }
                scratch.v_cols_block[j * samples + b] =
                    (Self::v_out(swp, gtp, chp), Self::v_out(swm, gtm, chm));
                b += 1;
            }
        }
    }

    /// The [`Backend::FixedI32`] prepare stage: rounds the block's held
    /// wordline voltages to `i32` codes of `v_lsb` volts each. Codes
    /// never exceed `2^FIXED_QBITS` because held voltages live in
    /// `[0, V_s)`.
    pub(crate) fn quantize_block_inputs(&self, scratch: &mut BatchScratch) {
        scratch.q_in_block.clear();
        for &v in &scratch.v_in_block {
            scratch.q_in_block.push((v / self.v_lsb).round() as i32);
        }
    }

    /// The [`Backend::FixedI32`] computation stage: an exact `i64` dot
    /// product of the quantized voltage and conductance codes,
    /// dequantized once per `(column, sample)` and fed through the same
    /// analog charge division as the reference. Products are bounded by
    /// `2^(2·FIXED_QBITS)`, so the accumulator cannot overflow below
    /// `2^33` wordlines per tile.
    pub(crate) fn stage_tile_block_fixed(
        &self,
        ti: usize,
        samples: usize,
        scratch: &mut BatchScratch,
    ) {
        let tile = &self.tiles[ti];
        let ft = &self.fixed_tiles()[ti];
        let rows = tile.rows;
        for j in 0..tile.cols {
            let col = j * rows..(j + 1) * rows;
            let qp = &ft.q_plus[col.clone()];
            let qm = &ft.q_minus[col];
            for b in 0..samples {
                let qv = &scratch.q_in_block[b * rows..(b + 1) * rows];
                let mut ap = 0i64;
                let mut am = 0i64;
                for (p, (&qpv, &qmv)) in qp.iter().zip(qm).enumerate() {
                    let v = i64::from(qv[p]);
                    ap += v * i64::from(qpv);
                    am += v * i64::from(qmv);
                }
                scratch.v_cols_block[j * samples + b] = (
                    Self::v_out(
                        ap as f64 * ft.w_scale,
                        tile.g_total_plus[j],
                        tile.charge_plus[j],
                    ),
                    Self::v_out(
                        am as f64 * ft.w_scale,
                        tile.g_total_minus[j],
                        tile.charge_minus[j],
                    ),
                );
            }
        }
    }

    /// The lazily built integer tile mirrors of the fixed-point backend.
    fn fixed_tiles(&self) -> &[FixedTile] {
        self.fixed.get_or_init(|| {
            self.tiles
                .iter()
                .map(|t| {
                    let g_max = t
                        .g_plus
                        .iter()
                        .chain(&t.g_minus)
                        .fold(f64::MIN_POSITIVE, |m, &g| m.max(g));
                    let g_lsb = g_max / FIXED_LEVELS;
                    let quantize =
                        |gs: &[f64]| gs.iter().map(|&g| (g / g_lsb).round() as i32).collect();
                    FixedTile {
                        q_plus: quantize(&t.g_plus),
                        q_minus: quantize(&t.g_minus),
                        g_lsb,
                        w_scale: self.v_lsb * g_lsb,
                    }
                })
                .collect()
        })
    }

    /// Worst-case absolute deviation of the selected backend from the
    /// scalar reference, per logical output column, on *any* valid
    /// input. Exact backends return all-zero bounds; the documented
    /// [`Backend::FixedI32`] bound is, per column `j` and differential
    /// arm of each tile:
    ///
    /// * weighted-sum quantization
    ///   `Δw ≤ ΣG_j · v_lsb/2 + rows · (V_s · g_lsb/2 + v_lsb·g_lsb/4)`
    ///   (each held voltage is within `v_lsb/2` of its code, each
    ///   conductance within `g_lsb/2`, voltages below `V_s`);
    /// * through the charge division, `Δv_out = (Δw / ΣG_j) · charge_j`;
    /// * through the decode, divided by the column constant `k_j`. With
    ///   continuous timing the decode is exactly `min(clamp(·), V_sat)`,
    ///   which is 1-Lipschitz and evaluated without rounding. When spike
    ///   times are quantized to `q`, the time-domain round trip adds
    ///   `V_s · q / τ_gd` (time rounding moves each decode by at most
    ///   `q/2 · V_s/τ_gd`). A `10⁻¹² V_s` allowance covers the `ln`/`exp`
    ///   evaluation of that quantized path;
    /// * summed over both arms and all tiles, scaled by the digital
    ///   rescale, with a `1 + 10⁻⁹` safety factor for `f64` rounding in
    ///   the comparison itself.
    ///
    /// The `backend_equivalence` proptests pin every fixed-point output
    /// inside this bound across shapes, block sizes and the full
    /// non-ideality chain.
    pub fn backend_error_bound(&self, backend: Backend) -> Vec<f64> {
        if backend.is_exact() {
            return vec![0.0; self.cols];
        }
        let dv = self.v_lsb / 2.0;
        let vs = self.codec.vs;
        let tq = self
            .codec
            .time_quantum
            .map_or(0.0, |q| vs * q / self.codec.tau);
        let fixed = self.fixed_tiles();
        let mut bound = vec![0.0f64; self.cols];
        for (tile, ft) in self.tiles.iter().zip(fixed) {
            let dg = ft.g_lsb / 2.0;
            let per_row = vs * dg + dv * dg;
            for (j, slot) in bound.iter_mut().enumerate().take(tile.cols) {
                for (g_total, charge, k) in [
                    (tile.g_total_plus[j], tile.charge_plus[j], tile.k_plus[j]),
                    (tile.g_total_minus[j], tile.charge_minus[j], tile.k_minus[j]),
                ] {
                    if g_total == 0.0 {
                        // Both backends sample exactly V_out = 0 here.
                        continue;
                    }
                    let dw = g_total * dv + tile.rows as f64 * per_row;
                    let dvout = dw / g_total * charge;
                    *slot += (dvout + tq + 1e-12 * vs) / k;
                }
            }
        }
        let s = self.scale.abs() * (1.0 + 1e-9);
        for b in &mut bound {
            *b *= s;
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResipeConfig;
    use crate::mapping::TileMapper;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> ResipeEngine {
        ResipeEngine::new(ResipeConfig::paper())
    }

    fn exact_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "column {i}: {x:e} vs {y:e} differ in bits"
            );
        }
    }

    #[test]
    fn plan_matches_sequential_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        let weights: Vec<f64> = (0..64 * 5).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 64, 5).unwrap();
        let e = engine();
        for encoding in [SpikeEncoding::LinearTime, SpikeEncoding::PassThrough] {
            let plan = BatchPlan::new(&e, &mapped, encoding);
            let mut scratch = plan.scratch();
            for _ in 0..5 {
                let a: Vec<f64> = (0..64).map(|_| rng.gen_range(0.0..1.0)).collect();
                let seq = mapped.forward(&e, &a, encoding).unwrap();
                let bat = plan.forward_one(&a, &mut scratch).unwrap();
                exact_eq(&seq, &bat);
            }
        }
    }

    #[test]
    fn plan_matches_under_nonidealities() {
        let mut rng = StdRng::seed_from_u64(13);
        let weights: Vec<f64> = (0..48 * 3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let model = resipe_reram::VariationModel::device_to_device(0.15).unwrap();
        let mapped = TileMapper::paper()
            .with_spare_cols(2)
            .map(&weights, 48, 3)
            .unwrap()
            .with_faults(0.02, 4, 99)
            .unwrap()
            .perturbed(&model, 7)
            .with_comparator_offsets(0.01, 21)
            .with_time_quantization(Seconds(1e-9));
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
        let mut scratch = plan.scratch();
        for _ in 0..5 {
            // Sparse activations exercise the zero-skip path.
            let a: Vec<f64> = (0..48)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.5 {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let seq = mapped.forward(&e, &a, SpikeEncoding::PassThrough).unwrap();
            let bat = plan.forward_one(&a, &mut scratch).unwrap();
            exact_eq(&seq, &bat);
        }
    }

    #[test]
    fn probed_path_is_bit_identical_and_records() {
        let mut rng = StdRng::seed_from_u64(17);
        let weights: Vec<f64> = (0..48 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper()
            .map(&weights, 48, 4)
            .unwrap()
            .with_comparator_offsets(0.01, 5);
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
        let telemetry = crate::telemetry::Telemetry::enabled();
        let cfg = e.config();
        let probe = telemetry.layer_probe(0, cfg).expect("enabled probe");
        let mut scratch = plan.scratch();
        let mut samples = 0u64;
        for _ in 0..4 {
            let a: Vec<f64> = (0..48)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.4 {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let plain = plan.forward_one(&a, &mut scratch).unwrap();
            let probed = plan
                .forward_one_probed(&a, &mut scratch, Some(&probe))
                .unwrap();
            exact_eq(&plain, &probed);
            samples += 1;
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.layers.len(), 1);
        let l = snap.layers[0];
        assert_eq!(l.calls, samples);
        assert_eq!(l.mvms, samples * mapped.mvms_per_forward() as u64);
        assert!(l.zero_activation_skips > 0, "sparse inputs must skip");
        // Every decoded column lands in both histograms (2 arrays/col).
        let decodes = samples * 2 * 4 * plan.tiles.len() as u64;
        assert_eq!(snap.t_out.total(), decodes);
        assert_eq!(snap.v_out.total(), decodes);
    }

    /// The probe bins the read-back voltage against the voltage images
    /// of the `t_out` bin edges instead of evaluating a spike time. Its
    /// histograms and saturation count must match what the time-domain
    /// decode records: `t_obs = f⁻¹(V_eff)`, rounded to the quantum if
    /// one is set, cut at the slice end and binned by `t_obs / slice`.
    #[test]
    fn probed_histograms_match_time_domain_spike_times() {
        use crate::telemetry::HISTOGRAM_BINS;
        let mut rng = StdRng::seed_from_u64(31);
        let (rows, cols, n) = (64usize, 16usize, 12usize);
        let weights: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let e = engine();
        let cfg = e.config();
        let (tau, vs, slice) = (cfg.tau_gd().0, cfg.vs().0, cfg.slice().0);
        let bin = |x: f64| -> usize {
            if !(x > 0.0) {
                0
            } else {
                ((x * HISTOGRAM_BINS as f64) as usize).min(HISTOGRAM_BINS - 1)
            }
        };
        for quantum in [None, Some(1e-9)] {
            // Wide comparator offsets drive columns into both clamps and
            // past the slice end.
            let mut mapped = TileMapper::paper()
                .map(&weights, rows, cols)
                .unwrap()
                .with_comparator_offsets(0.3, 5);
            if let Some(q) = quantum {
                mapped = mapped.with_time_quantization(Seconds(q));
            }
            let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::LinearTime);
            let telemetry = crate::telemetry::Telemetry::enabled();
            let probe = telemetry.layer_probe(0, cfg).expect("enabled probe");
            let a: Vec<f64> = (0..n * rows).map(|_| rng.gen_range(0.3..1.0)).collect();
            let mut out = vec![0.0; n * cols];
            plan.forward_block_probed(&a, n, &mut out, &mut plan.scratch(), Some(&probe))
                .unwrap();

            let mut t_bins = vec![0u64; HISTOGRAM_BINS];
            let mut v_bins = vec![0u64; HISTOGRAM_BINS];
            let mut saturated = 0u64;
            for b in 0..n {
                let mut row_start = 0;
                for tile in mapped.tiles() {
                    let t_in: Vec<Seconds> = tile
                        .row_source
                        .iter()
                        .map(|&l| Seconds(a[b * rows + row_start + l] * cfg.t_max().0))
                        .collect();
                    for (g_cm, offsets) in [
                        (&tile.eff_plus_cm, &tile.offset_plus),
                        (&tile.eff_minus_cm, &tile.offset_minus),
                    ] {
                        let macs = e
                            .mvm_matrix_cm(g_cm, tile.rows, tile.phys_cols, &t_in)
                            .unwrap();
                        for &pc in tile.col_map() {
                            let v_eff =
                                (macs[pc].v_out.0 + offsets[pc]).clamp(0.0, vs * (1.0 - 1e-12));
                            let mut t_obs = -tau * (1.0 - v_eff / vs).ln();
                            if let Some(q) = quantum {
                                t_obs = (t_obs / q).round() * q;
                            }
                            saturated += u64::from(t_obs > slice);
                            t_bins[bin(t_obs.min(slice) / slice)] += 1;
                            v_bins[bin(v_eff / vs)] += 1;
                        }
                    }
                    row_start += tile.rows;
                }
            }
            let snap = telemetry.snapshot();
            assert_eq!(snap.t_out.bins, t_bins, "t_out bins (quantum {quantum:?})");
            assert_eq!(snap.v_out.bins, v_bins, "v_out bins (quantum {quantum:?})");
            assert_eq!(snap.counters.saturated_decodes, saturated);
            assert!(saturated > 0, "offsets must saturate some columns");
            assert!(t_bins.iter().filter(|&&c| c > 0).count() > HISTOGRAM_BINS / 2);
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mapped = TileMapper::paper().map(&[0.5, -0.5], 2, 1).unwrap();
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::LinearTime);
        let mut scratch = plan.scratch();
        assert!(plan.forward_one(&[0.1], &mut scratch).is_err());
        let mut out = vec![0.0; 2];
        assert!(plan
            .forward_block(&[0.1; 3], 2, &mut out, &mut scratch)
            .is_err());
        assert!(plan
            .forward_block(&[0.1; 4], 2, &mut out[..1], &mut scratch)
            .is_err());
    }

    #[test]
    fn block_kernel_matches_forward_one_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(23);
        let weights: Vec<f64> = (0..80 * 6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let model = resipe_reram::VariationModel::device_to_device(0.12).unwrap();
        let mapped = TileMapper::paper()
            .with_spare_cols(2)
            .map(&weights, 80, 6)
            .unwrap()
            .with_faults(0.02, 4, 31)
            .unwrap()
            .perturbed(&model, 9)
            .with_comparator_offsets(0.01, 17)
            .with_time_quantization(Seconds(1e-9));
        let e = engine();
        for encoding in [SpikeEncoding::LinearTime, SpikeEncoding::PassThrough] {
            let plan = BatchPlan::new(&e, &mapped, encoding);
            let mut scratch = plan.scratch();
            let n = 13usize;
            let a: Vec<f64> = (0..n * 80)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.4 {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let mut reference = Vec::with_capacity(n * 6);
            for b in 0..n {
                reference.extend(
                    plan.forward_one(&a[b * 80..(b + 1) * 80], &mut scratch)
                        .unwrap(),
                );
            }
            for block in [1usize, 2, 3, 5, 8, 13, 64] {
                let mut out = vec![f64::NAN; n * 6];
                for start in (0..n).step_by(block) {
                    let b = block.min(n - start);
                    plan.forward_block(
                        &a[start * 80..(start + b) * 80],
                        b,
                        &mut out[start * 6..(start + b) * 6],
                        &mut scratch,
                    )
                    .unwrap();
                }
                exact_eq(&reference, &out);
            }
        }
    }

    #[test]
    fn probed_block_is_bit_identical_and_counts_whole_block() {
        let mut rng = StdRng::seed_from_u64(29);
        let weights: Vec<f64> = (0..48 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper()
            .map(&weights, 48, 4)
            .unwrap()
            .with_comparator_offsets(0.01, 5);
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
        let telemetry = crate::telemetry::Telemetry::enabled();
        let cfg = e.config();
        let probe = telemetry.layer_probe(0, cfg).expect("enabled probe");
        let mut scratch = plan.scratch();
        let n = 7usize;
        let a: Vec<f64> = (0..n * 48).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut plain = vec![0.0; n * 4];
        plan.forward_block(&a, n, &mut plain, &mut scratch).unwrap();
        let mut probed = vec![0.0; n * 4];
        plan.forward_block_probed(&a, n, &mut probed, &mut scratch, Some(&probe))
            .unwrap();
        exact_eq(&plain, &probed);
        let snap = telemetry.snapshot();
        let l = snap.layers[0];
        assert_eq!(l.calls, n as u64, "one block must count all its samples");
        assert_eq!(l.mvms, (n * mapped.mvms_per_forward()) as u64);
        assert_eq!(snap.counters.kernel_blocks, 1);
        assert_eq!(snap.counters.kernel_block_samples, n as u64);
        assert_eq!(
            snap.counters.kernel_bytes_streamed,
            plan.tile_stream_bytes()
        );
        assert!(plan.tile_stream_bytes() > 0);
    }

    /// A mapped layer carrying the full non-ideality chain, shared by
    /// the backend tests below.
    fn nonideal_mapped(rows: usize, cols: usize, quantized: bool) -> MappedWeights {
        let mut rng = StdRng::seed_from_u64(41);
        let weights: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let model = resipe_reram::VariationModel::device_to_device(0.12).unwrap();
        let mapped = TileMapper::paper()
            .with_spare_cols(2)
            .map(&weights, rows, cols)
            .unwrap()
            .with_faults(0.02, 4, 31)
            .unwrap()
            .perturbed(&model, 9)
            .with_comparator_offsets(0.01, 17);
        if quantized {
            mapped.with_time_quantization(Seconds(1e-9))
        } else {
            mapped
        }
    }

    #[test]
    fn vector_backend_is_bit_identical_across_blocks() {
        let mut rng = StdRng::seed_from_u64(43);
        let mapped = nonideal_mapped(80, 6, true);
        let e = engine();
        for encoding in [SpikeEncoding::LinearTime, SpikeEncoding::PassThrough] {
            let plan = BatchPlan::new(&e, &mapped, encoding);
            let mut scratch = plan.scratch();
            let n = 11usize;
            let a: Vec<f64> = (0..n * 80)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.4 {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let mut reference = Vec::with_capacity(n * 6);
            for b in 0..n {
                reference.extend(
                    plan.forward_one(&a[b * 80..(b + 1) * 80], &mut scratch)
                        .unwrap(),
                );
            }
            // Blocks below, at, and above the lane width exercise both
            // the unrolled lanes and the scalar remainder loop.
            for block in [1usize, 3, 4, 5, 8, 11] {
                let mut out = vec![f64::NAN; n * 6];
                for start in (0..n).step_by(block) {
                    let b = block.min(n - start);
                    plan.forward_block_with(
                        Backend::VectorF32,
                        &a[start * 80..(start + b) * 80],
                        b,
                        &mut out[start * 6..(start + b) * 6],
                        &mut scratch,
                    )
                    .unwrap();
                }
                exact_eq(&reference, &out);
            }
        }
    }

    #[test]
    fn fixed_backend_stays_within_documented_bound() {
        let mut rng = StdRng::seed_from_u64(47);
        let e = engine();
        for quantized in [false, true] {
            let mapped = nonideal_mapped(64, 5, quantized);
            let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
            let bound = plan.backend_error_bound(Backend::FixedI32);
            assert!(bound.iter().all(|&b| b > 0.0 && b.is_finite()));
            let mut scratch = plan.scratch();
            for _ in 0..8 {
                let a: Vec<f64> = (0..64).map(|_| rng.gen_range(0.0..1.0)).collect();
                let exact = plan.forward_one(&a, &mut scratch).unwrap();
                let fixed = plan
                    .forward_one_with(Backend::FixedI32, &a, &mut scratch)
                    .unwrap();
                for (j, ((x, f), b)) in exact.iter().zip(&fixed).zip(&bound).enumerate() {
                    let dev = (x - f).abs();
                    assert!(
                        dev <= *b,
                        "column {j}: |{x:e} - {f:e}| = {dev:e} exceeds bound {b:e} \
                         (quantized: {quantized})"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_backends_report_zero_bound() {
        let mapped = nonideal_mapped(32, 3, false);
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::LinearTime);
        assert!(plan
            .backend_error_bound(Backend::Scalar)
            .iter()
            .all(|&b| b == 0.0));
        assert!(plan
            .backend_error_bound(Backend::VectorF32)
            .iter()
            .all(|&b| b == 0.0));
    }

    #[test]
    fn probed_backend_blocks_count_per_backend() {
        let mut rng = StdRng::seed_from_u64(53);
        let weights: Vec<f64> = (0..48 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 48, 4).unwrap();
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
        let telemetry = crate::telemetry::Telemetry::enabled();
        let cfg = e.config();
        let probe = telemetry.layer_probe(0, cfg).expect("enabled probe");
        let mut scratch = plan.scratch();
        let n = 6usize;
        let a: Vec<f64> = (0..n * 48).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut plain = vec![0.0; n * 4];
        plan.forward_block_with(Backend::VectorF32, &a, n, &mut plain, &mut scratch)
            .unwrap();
        let mut probed = vec![0.0; n * 4];
        plan.forward_block_probed_with(
            Backend::VectorF32,
            &a,
            n,
            &mut probed,
            &mut scratch,
            Some(&probe),
        )
        .unwrap();
        exact_eq(&plain, &probed);
        let mut fixed = vec![0.0; n * 4];
        plan.forward_block_probed_with(
            Backend::FixedI32,
            &a,
            n,
            &mut fixed,
            &mut scratch,
            Some(&probe),
        )
        .unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counters.kernel_blocks, 2);
        assert_eq!(snap.counters.backend_vector_f32_blocks, 1);
        assert_eq!(snap.counters.backend_fixed_i32_blocks, 1);
        assert_eq!(snap.counters.backend_scalar_blocks, 0);
        // The vector backend streams the f64 mirrors, the fixed backend
        // its half-width i32 codes.
        assert_eq!(
            snap.counters.kernel_bytes_streamed,
            plan.tile_stream_bytes() + plan.tile_stream_bytes() / 2
        );
    }
}
