//! Amortized batched execution of mapped layers.
//!
//! [`BatchPlan`] precomputes everything in a [`MappedWeights`] forward
//! pass that does not depend on the input sample and then replays the
//! *exact* per-sample floating-point operation sequence of
//! [`MappedWeights::forward`] against those hoisted values:
//!
//! * a copy of the effective conductances, routed through the
//!   logical→physical column map and laid out for the grouped walk (see
//!   [One kernel](#one-kernel));
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
//! * **each input is encoded once**: the kernel takes held wordline
//!   voltages, and [`BatchPlan::encode_into`] is the planned path's only
//!   S1 encode, so a conv input pixel read by k² windows is encoded
//!   once, not once per window copy (encoding the same value again
//!   would give the same bits);
//! * wordlines held at `V = 0` are skipped inside the weighted
//!   accumulation (their products are exactly `+0.0`, so skipping them
//!   cannot change the sum's bits) and counted as zero-activation skips.
//!
//! Neither path evaluates a spike time it does not need: with continuous
//! timing the S2 decode is `min(V_eff, V_sat) / k_j` and a pass-through
//! S1 encode is `a·V_ref` (see the
//! [mapping docs](crate::mapping#closed-forms-of-the-cancellation)).
//!
//! # One kernel
//!
//! [`BatchPlan::forward_held`] is the kernel: it evaluates a block of
//! `B` samples (one sample is a block of 1) from their held wordline
//! voltages in one pass over the tile data;
//! [`BatchPlan::forward_block`] is [`BatchPlan::encode_into`] followed
//! by it. Per tile the kernel gathers every sample's wordline voltages
//! through the tile's wordline routing, then sweeps the conductances
//! across the block with the sparse non-zero wordline walk, **four
//! logical columns per pass**: each full group of four columns is stored
//! interleaved `[group][row][4][±]`, so one non-zero wordline of a
//! sample loads one 64-byte row holding both arrays' conductances of
//! the four columns and feeds eight independent weighted sums (four
//! columns × the ± arrays). The `cols % 4` tail
//! columns stay column-major and take the same walk one column at a
//! time. Each column's sum still adds its products in row order, so
//! grouping only runs independent chains side by side and changes no
//! bit. The optional [`LayerProbe`] selects the loop order around that
//! walk:
//!
//! * without a probe, each `(column, sample)` is decoded as soon as its
//!   weighted sums are formed (fused);
//! * with a probe, the crossbar pass stages every `(column, sample)`
//!   voltage pair first and a separate decode pass follows, so the S1
//!   gather, the crossbar and S2 decode can each be timed; every decode
//!   is binned into block-local histograms that reach the shared
//!   telemetry once per block.
//!
//! Columns and samples are independent and staging a value in memory
//! does not change its bits, so both orders return the same outputs.
//!
//! This is what makes the batched inference path faster even on a single
//! core; on multicore hosts [`crate::inference::HardwareNetwork::forward_batch`]
//! additionally fans sample blocks out across the rayon pool.

use std::time::Instant;

use resipe_analog::units::Seconds;

use crate::engine::{charge_factor, charged_v_out, decode_constant, ResipeEngine};
use crate::error::ResipeError;
use crate::mapping::{MappedWeights, SpikeEncoding, Tile, VoltageCodec};
use crate::telemetry::{DecodeBins, LayerProbe, SampleStats};

/// Logical columns one pass of the crossbar walk accumulates: each
/// non-zero wordline of a sample feeds `GROUP` independent weighted-sum
/// chains per array instead of one.
const GROUP: usize = 4;

/// Values per wordline of a column group: `GROUP` columns × the ± arrays.
const LANES: usize = 2 * GROUP;

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
    /// Effective conductances of the full column groups, routed through
    /// the logical→physical column map (spares dropped) and interleaved
    /// `[group][row][GROUP][±]`: entry `[q * rows + p][2 * l + s]` is
    /// wordline `p` of logical column `q * GROUP + l` in the positive
    /// (`s = 0`) or negative (`s = 1`) array, so one wordline of a group
    /// is one 64-byte row.
    g_group: Vec<[f64; LANES]>,
    /// The `cols % GROUP` tail columns, column-major `[tail × rows]`.
    g_plus_tail: Vec<f64>,
    g_minus_tail: Vec<f64>,
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

impl TilePlan {
    fn new(tile: &Tile, row_start: usize, dt_over_c: f64) -> TilePlan {
        let rows = tile.rows();
        let cols = tile.cols();
        let groups = cols / GROUP;
        let tail = cols % GROUP;
        let mut plan = TilePlan {
            row_start,
            rows,
            cols,
            row_source: tile.row_source.clone(),
            g_group: vec![[0.0; LANES]; groups * rows],
            g_plus_tail: Vec::with_capacity(tail * rows),
            g_minus_tail: Vec::with_capacity(tail * rows),
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
            for (s, (eff_cm, g_tail, g_total, charge, k, offs, gsum, offsets)) in [
                (
                    tile.eff_plus_cm(),
                    &mut plan.g_plus_tail,
                    &mut plan.g_total_plus,
                    &mut plan.charge_plus,
                    &mut plan.k_plus,
                    &mut plan.offset_plus,
                    &tile.gsum_plus,
                    &tile.offset_plus,
                ),
                (
                    tile.eff_minus_cm(),
                    &mut plan.g_minus_tail,
                    &mut plan.g_total_minus,
                    &mut plan.charge_minus,
                    &mut plan.k_minus,
                    &mut plan.offset_minus,
                    &tile.gsum_minus,
                    &tile.offset_minus,
                ),
            ]
            .into_iter()
            .enumerate()
            {
                // Column sum in row order — the exact accumulation order
                // of `mvm_matrix`, so the hoisted sum is bit-equal to the
                // per-sample recomputation it replaces. The tile's SoA
                // mirror already holds the column contiguously.
                let col = &eff_cm[pc * rows..(pc + 1) * rows];
                let mut total = 0.0f64;
                for &g in col {
                    total += g;
                }
                if j < groups * GROUP {
                    let group = &mut plan.g_group[j / GROUP * rows..(j / GROUP + 1) * rows];
                    for (lanes, &g) in group.iter_mut().zip(col) {
                        lanes[2 * (j % GROUP) + s] = g;
                    }
                } else {
                    g_tail.extend_from_slice(col);
                }
                g_total.push(total);
                charge.push(charge_factor(total, dt_over_c));
                k.push(decode_constant(gsum[pc], dt_over_c));
                offs.push(offsets[pc]);
            }
        }
        plan
    }

    /// Full column groups; logical columns `groups() * GROUP..cols` are
    /// the tail.
    #[inline(always)]
    fn groups(&self) -> usize {
        self.cols / GROUP
    }

    /// Group `q`'s interleaved conductances and its columns' hoisted
    /// sums and charge factors.
    #[inline(always)]
    fn group(&self, q: usize) -> Group<'_> {
        let lanes = |plus: &[f64], minus: &[f64]| -> [f64; LANES] {
            std::array::from_fn(|i| [plus, minus][i % 2][q * GROUP + i / 2])
        };
        Group {
            g: &self.g_group[q * self.rows..(q + 1) * self.rows],
            total: lanes(&self.g_total_plus, &self.g_total_minus),
            charge: lanes(&self.charge_plus, &self.charge_minus),
        }
    }

    /// Tail column `j`'s conductances in both arrays, row order.
    #[inline(always)]
    fn tail_column(&self, j: usize) -> (&[f64], &[f64]) {
        let t = j - self.groups() * GROUP;
        let col = t * self.rows..(t + 1) * self.rows;
        (&self.g_plus_tail[col.clone()], &self.g_minus_tail[col])
    }

    /// Conductance bytes one pass over this tile reads (both arrays).
    fn stream_bytes(&self) -> u64 {
        let values = self.g_group.len() * LANES + self.g_plus_tail.len() + self.g_minus_tail.len();
        (values * std::mem::size_of::<f64>()) as u64
    }
}

/// One full column group of a [`TilePlan`], ready for the grouped walk.
struct Group<'a> {
    /// Interleaved conductances, `[row][GROUP][±]`.
    g: &'a [[f64; LANES]],
    /// The group's conductance sums and charge factors, `[GROUP][±]`.
    total: [f64; LANES],
    charge: [f64; LANES],
}

/// Reusable per-worker buffers for [`BatchPlan::forward_held`] and
/// [`BatchPlan::forward_block`].
///
/// Create one per thread with [`BatchPlan::scratch`] and reuse it across
/// calls to keep the hot loop allocation-free.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    /// Held wordline voltages of every sample in the current block,
    /// stride `tile.rows` per sample.
    v_in_block: Vec<f64>,
    /// Concatenated non-zero wordline indices of the block's samples.
    nz_idx: Vec<u32>,
    /// Prefix bounds into `nz_idx`: sample `b` of the block owns
    /// `nz_idx[nz_bounds[b]..nz_bounds[b + 1]]`.
    nz_bounds: Vec<usize>,
    /// Staged `(V_out⁺, V_out⁻)` per (column, sample) of the probed
    /// loop order, indexed `j * samples + b`.
    v_cols_block: Vec<(f64, f64)>,
    /// Held voltages of a block of windows in logical row order, the
    /// input of [`BatchPlan::forward_held`] — staged here by
    /// [`BatchPlan::forward_block`] and by `HardwareNetwork`'s window
    /// gather, so the per-block staging reuses one allocation.
    pub(crate) a_block: Vec<f64>,
    /// One parallel task's samples, normalized and encoded once into
    /// held voltages by [`BatchPlan::encode_into`]; `HardwareNetwork`
    /// gathers each window from here into `a_block`, or feeds these
    /// voltages to the kernel directly when the window is the whole
    /// sample (every dense layer).
    pub(crate) a_task: Vec<f64>,
}

impl BatchScratch {
    /// Sample `b`'s held wordline voltages (`rows` of them) and its
    /// non-zero wordline indices in the current tile.
    #[inline(always)]
    fn held(&self, b: usize, rows: usize) -> (&[f64], &[u32]) {
        (
            &self.v_in_block[b * rows..(b + 1) * rows],
            &self.nz_idx[self.nz_bounds[b]..self.nz_bounds[b + 1]],
        )
    }
}

/// A sample-independent execution plan for one mapped weight layer.
///
/// See the [module docs](crate::batch) for the amortization/determinism
/// contract. Build once per layer with [`BatchPlan::new`], then call
/// [`BatchPlan::forward_block`] per block of samples, or
/// [`BatchPlan::encode_into`] and [`BatchPlan::forward_held`] to encode
/// and evaluate separately (from any number of threads, each with its
/// own [`BatchScratch`]).
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
    /// kernel streams, versus once per *sample* unblocked.
    tile_stream_bytes: u64,
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
        let dt_over_c = cfg.gain().0;
        let mut tiles = Vec::with_capacity(mapped.tiles().len());
        let mut row_start = 0usize;
        for tile in mapped.tiles() {
            tiles.push(TilePlan::new(tile, row_start, dt_over_c));
            row_start += tile.rows();
        }
        let tile_stream_bytes = tiles.iter().map(TilePlan::stream_bytes).sum();
        BatchPlan {
            rows: mapped.rows(),
            cols: mapped.cols(),
            encoding,
            codec,
            scale: mapped.weight_scale() / (codec.v_ref() * mapped.delta_g_eff().0),
            max_tile_rows: mapped.tiles().iter().map(Tile::rows).max().unwrap_or(0),
            tile_stream_bytes,
            tiles,
        }
    }

    /// Allocates a scratch buffer for this plan (its buffers grow to
    /// the largest block on first use and are reused afterwards).
    pub fn scratch(&self) -> BatchScratch {
        BatchScratch::default()
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
    /// all tiles (both differential arrays). The kernel pays this once
    /// per *block*; a one-sample block pays it per *sample*.
    pub fn tile_stream_bytes(&self) -> u64 {
        self.tile_stream_bytes
    }

    /// Deterministic sample-block size for [`BatchPlan::forward_held`]:
    /// as many samples as keep one block's per-sample working set
    /// (held wordline voltages, non-zero index list, output row) inside
    /// a 32 KiB L1 budget, clamped to `[1, 64]`. A pure function of the
    /// layer shape — never of the host — so blocked execution partitions
    /// work identically on every machine.
    pub fn preferred_block(&self) -> usize {
        let per_sample = 12 * self.max_tile_rows + 8 * self.cols;
        (32 * 1024 / per_sample.max(1)).clamp(1, 64)
    }

    /// The digital decode of one observed bitline voltage: the codec's
    /// read-back voltage (`min(V_eff, V_sat)` with continuous timing)
    /// divided by the hoisted nominal column constant `k_j` — the
    /// reference's operation sequence.
    #[inline]
    fn decode_column(&self, v_out: f64, offset: f64, k: f64) -> f64 {
        self.codec.decode(v_out, offset).v_hat / k
    }

    /// Logical column `j`'s differential contribution `d⁺ − d⁻` from its
    /// sampled voltage pair.
    #[inline(always)]
    fn decode_pair(&self, tile: &TilePlan, j: usize, vp: f64, vm: f64) -> f64 {
        self.decode_column(vp, tile.offset_plus[j], tile.k_plus[j])
            - self.decode_column(vm, tile.offset_minus[j], tile.k_minus[j])
    }

    /// [`BatchPlan::decode_column`] plus what telemetry observes of it,
    /// binned by `probe` into the block-local `bins` and counted in
    /// `stats`.
    fn decode_column_probed(
        &self,
        v_out: f64,
        offset: f64,
        k: f64,
        probe: &LayerProbe,
        stats: &mut SampleStats,
        bins: &mut DecodeBins,
    ) -> f64 {
        let d = self.codec.decode(v_out, offset);
        probe.bin_decode(bins, d.v_eff, d.v_hat, d.t_obs);
        stats.comparator_offset_rejects += u64::from(d.offset_clamped);
        stats.saturated_decodes += u64::from(d.saturated);
        d.v_hat / k
    }

    /// S1: the held wordline voltage of every activation in `src`
    /// (the layer's [`VoltageCodec::held_voltage`] under its encoding),
    /// appended to `dst` in order — the only place the planned path
    /// evaluates the S1 ramp. With a probe its wall time is added to
    /// the layer's `s1_encode_nanos`.
    pub fn encode_into(
        &self,
        src: impl IntoIterator<Item = f64>,
        dst: &mut Vec<f64>,
        probe: Option<&LayerProbe>,
    ) {
        let t0 = probe.map(|_| Instant::now());
        dst.extend(
            src.into_iter()
                .map(|a| self.codec.held_voltage(self.encoding, a)),
        );
        if let (Some(probe), Some(t0)) = (probe, t0) {
            probe.record_encode(t0.elapsed().as_nanos() as u64);
        }
    }

    /// S1, per tile: gathers one tile's held wordline voltages for every
    /// sample of a block into the scratch staging buffers — physical
    /// wordline order through `row_source`, at stride `tile.rows` — and
    /// the per-sample non-zero index lists behind a shared prefix-bounds
    /// array. Returns the number of wordlines held at exactly 0 V.
    fn gather_block(
        &self,
        tile: &TilePlan,
        voltages: &[f64],
        samples: usize,
        scratch: &mut BatchScratch,
    ) -> u64 {
        scratch.v_in_block.clear();
        scratch.nz_idx.clear();
        scratch.nz_bounds.clear();
        scratch.nz_bounds.push(0);
        for b in 0..samples {
            let held = &voltages[b * self.rows + tile.row_start..][..tile.rows];
            let start = scratch.v_in_block.len();
            scratch
                .v_in_block
                .extend(tile.row_source.iter().map(|&l| held[l]));
            for (p, &v) in scratch.v_in_block[start..].iter().enumerate() {
                if v != 0.0 {
                    scratch.nz_idx.push(p as u32);
                }
            }
            scratch.nz_bounds.push(scratch.nz_idx.len());
        }
        (samples * tile.rows - scratch.nz_idx.len()) as u64
    }

    /// The crossbar stage of one `(group, sample)`: the sparse walk over
    /// the sample's non-zero wordlines against the `GROUP` columns of a
    /// column group, returning the sampled bitline voltages in the
    /// group's `[GROUP][±]` order. The pass carries `LANES` independent
    /// weighted sums; each one still adds its products in row order, so
    /// every column's bits match the reference. A zero-voltage wordline
    /// would only add an exact `+0.0` product, so skipping it is
    /// bit-neutral.
    #[inline(always)]
    fn crossbar_group(g: &Group, (v_in, nz): (&[f64], &[u32])) -> [f64; LANES] {
        // Equal lengths let one bounds check cover both loads.
        let rows = &g.g[..v_in.len()];
        let mut w = [0.0f64; LANES];
        for &p in nz {
            let v = v_in[p as usize];
            let row = rows[p as usize];
            for i in 0..LANES {
                w[i] += v * row[i];
            }
        }
        let mut v_out = [0.0f64; LANES];
        for i in 0..LANES {
            v_out[i] = charged_v_out(w[i], g.total[i], g.charge[i]);
        }
        v_out
    }

    /// The crossbar stage of one tail `(column, sample)`: the same walk
    /// with one weighted sum per array.
    #[inline(always)]
    fn crossbar_tail(
        tile: &TilePlan,
        j: usize,
        (gp, gm): (&[f64], &[f64]),
        (v_in, nz): (&[f64], &[u32]),
    ) -> (f64, f64) {
        let mut wp = 0.0f64;
        let mut wm = 0.0f64;
        for &p in nz {
            let v = v_in[p as usize];
            wp += v * gp[p as usize];
            wm += v * gm[p as usize];
        }
        (
            charged_v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]),
            charged_v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]),
        )
    }

    /// Executes `samples` logical MVMs from raw activations —
    /// bit-identical to calling [`MappedWeights::forward`] on each
    /// sample, for any block size and with or without a probe.
    /// `activations` holds the samples back-to-back (`samples × rows`),
    /// `out` receives the outputs back-to-back (`samples × cols`).
    ///
    /// This is [`BatchPlan::encode_into`] into the scratch followed by
    /// [`BatchPlan::forward_held`]; callers that already hold the
    /// voltages (or can share one encode across several wordlines, as
    /// a convolution's overlapping windows do) call those two directly.
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
        probe: Option<&LayerProbe>,
    ) -> Result<(), ResipeError> {
        let mut held = std::mem::take(&mut scratch.a_block);
        held.clear();
        self.encode_into(activations.iter().copied(), &mut held, probe);
        let r = self.forward_held(&held, samples, out, scratch, probe);
        scratch.a_block = held;
        r
    }

    /// Executes `samples` logical MVMs from held S1 wordline voltages in
    /// one pass over the tile data. `voltages` holds the samples
    /// back-to-back in logical row order (`samples × rows`), as
    /// [`BatchPlan::encode_into`] produces them; `out` receives the
    /// outputs back-to-back (`samples × cols`).
    ///
    /// For every sample the per-(tile, column) contributions accumulate
    /// in tile order with row-order weighted sums, exactly as the
    /// reference does; the block only changes how often the tile data is
    /// streamed (once per block instead of once per sample).
    ///
    /// With `probe: None` each `(column, sample)` is decoded as soon as
    /// its weighted sums are formed. With a probe the crossbar pass
    /// stages every voltage pair first and a decode pass follows, so
    /// the probe can time the S1 gather, crossbar and S2 decode
    /// separately and record the `t_out`/`V_out` histograms,
    /// zero-voltage wordline skips, comparator-offset rejects and
    /// slice-end saturations. The probe's layer counters advance by the
    /// whole block (`calls += samples`), and the global kernel counters
    /// record one block of `samples` samples streaming
    /// [`BatchPlan::tile_stream_bytes`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `voltages.len() == samples * rows` and
    /// `out.len() == samples * cols`.
    pub fn forward_held(
        &self,
        voltages: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) -> Result<(), ResipeError> {
        if voltages.len() != samples * self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.rows,
                got: voltages.len(),
            });
        }
        if out.len() != samples * self.cols {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.cols,
                got: out.len(),
            });
        }
        out.fill(0.0);
        match probe {
            None => self.block_fused(voltages, samples, out, scratch),
            Some(probe) => self.block_staged(voltages, samples, out, scratch, probe),
        }
        Ok(())
    }

    /// The unprobed loop order: decode each `(column, sample)` straight
    /// from the crossbar walk.
    fn block_fused(
        &self,
        voltages: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) {
        for tile in &self.tiles {
            self.gather_block(tile, voltages, samples, scratch);
            for q in 0..tile.groups() {
                let g = tile.group(q);
                for b in 0..samples {
                    let v = Self::crossbar_group(&g, scratch.held(b, tile.rows));
                    for l in 0..GROUP {
                        let j = q * GROUP + l;
                        out[b * self.cols + j] += self.decode_pair(tile, j, v[2 * l], v[2 * l + 1]);
                    }
                }
            }
            for j in tile.groups() * GROUP..tile.cols {
                let g = tile.tail_column(j);
                for b in 0..samples {
                    let (vp, vm) = Self::crossbar_tail(tile, j, g, scratch.held(b, tile.rows));
                    out[b * self.cols + j] += self.decode_pair(tile, j, vp, vm);
                }
            }
        }
        for y in out.iter_mut() {
            *y *= self.scale;
        }
    }

    /// The probed loop order: gather pass, crossbar pass staging every
    /// voltage pair, decode pass — each timed into `probe`.
    fn block_staged(
        &self,
        voltages: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: &LayerProbe,
    ) {
        let mut stats = SampleStats {
            mvms: (samples * 2 * self.tiles.len()) as u64,
            ..SampleStats::default()
        };
        let mut bins = DecodeBins::default();
        for tile in &self.tiles {
            let t0 = Instant::now();
            stats.zero_activation_skips += self.gather_block(tile, voltages, samples, scratch);
            let t1 = Instant::now();
            let mut staged = std::mem::take(&mut scratch.v_cols_block);
            staged.clear();
            staged.resize(tile.cols * samples, (0.0, 0.0));
            for q in 0..tile.groups() {
                let g = tile.group(q);
                for b in 0..samples {
                    let v = Self::crossbar_group(&g, scratch.held(b, tile.rows));
                    for l in 0..GROUP {
                        staged[(q * GROUP + l) * samples + b] = (v[2 * l], v[2 * l + 1]);
                    }
                }
            }
            for j in tile.groups() * GROUP..tile.cols {
                let g = tile.tail_column(j);
                for b in 0..samples {
                    staged[j * samples + b] =
                        Self::crossbar_tail(tile, j, g, scratch.held(b, tile.rows));
                }
            }
            scratch.v_cols_block = staged;
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
                        &mut bins,
                    );
                    let d_minus = self.decode_column_probed(
                        vm,
                        tile.offset_minus[j],
                        tile.k_minus[j],
                        probe,
                        &mut stats,
                        &mut bins,
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
        probe.record_bins(&bins);
        probe.record_kernel(samples as u64, self.tile_stream_bytes);
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

    /// One sample through the kernel: a block of 1.
    fn run_one(
        plan: &BatchPlan,
        a: &[f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) -> Vec<f64> {
        let mut out = vec![f64::NAN; plan.cols()];
        plan.forward_block(a, 1, &mut out, scratch, probe).unwrap();
        out
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
                let bat = run_one(&plan, &a, &mut scratch, None);
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
            let bat = run_one(&plan, &a, &mut scratch, None);
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
            let seq = mapped.forward(&e, &a, SpikeEncoding::PassThrough).unwrap();
            let plain = run_one(&plan, &a, &mut scratch, None);
            let probed = run_one(&plan, &a, &mut scratch, Some(&probe));
            exact_eq(&seq, &plain);
            exact_eq(&seq, &probed);
            samples += 1;
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.layers.len(), 1);
        let l = snap.layers[0];
        assert_eq!(l.calls, samples);
        assert_eq!(l.mvms, samples * mapped.mvms_per_forward() as u64);
        assert!(l.zero_activation_skips > 0, "sparse inputs must skip");
        // One sample is one kernel block.
        assert_eq!(snap.counters.kernel_blocks, samples);
        assert_eq!(snap.counters.kernel_block_samples, samples);
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
            plan.forward_block(&a, n, &mut out, &mut plan.scratch(), Some(&probe))
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
                    for (g, offsets) in [
                        (tile.eff_plus(), &tile.offset_plus),
                        (tile.eff_minus(), &tile.offset_minus),
                    ] {
                        let macs = e.mvm_matrix(g, tile.rows, tile.phys_cols, &t_in).unwrap();
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
        let telemetry = crate::telemetry::Telemetry::enabled();
        let probe = telemetry.layer_probe(0, e.config()).expect("enabled probe");
        let mut scratch = plan.scratch();
        let mut out = vec![0.0; 2];
        for probe in [None, Some(&probe)] {
            assert!(plan
                .forward_block(&[0.1], 1, &mut out[..1], &mut scratch, probe)
                .is_err());
            assert!(plan
                .forward_block(&[0.1; 3], 2, &mut out, &mut scratch, probe)
                .is_err());
            assert!(plan
                .forward_block(&[0.1; 4], 2, &mut out[..1], &mut scratch, probe)
                .is_err());
        }
        assert_eq!(telemetry.snapshot().counters.kernel_blocks, 0);
    }

    #[test]
    fn block_kernel_matches_sequential_bit_for_bit() {
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
                    mapped
                        .forward(&e, &a[b * 80..(b + 1) * 80], encoding)
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
                        None,
                    )
                    .unwrap();
                }
                exact_eq(&reference, &out);
            }
        }
    }

    /// Every logical column reads back, through the group or the tail
    /// accessor, as the tile's column-major conductances of the physical
    /// bitline it is routed to, and the interleaved layout streams
    /// exactly the bytes of the column-major one.
    #[test]
    fn grouped_layout_holds_every_routed_column() {
        let mut rng = StdRng::seed_from_u64(37);
        let e = engine();
        for cols in 1..=13usize {
            let rows = 45;
            let weights: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut mapped = TileMapper::paper()
                .with_spare_cols(2)
                .map(&weights, rows, cols)
                .unwrap();
            // Route the last logical column onto the second spare.
            mapped.tiles_mut()[0].col_map[cols - 1] = cols + 1;
            let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::LinearTime);
            let mut column_major_bytes = 0;
            for (tp, tile) in plan.tiles.iter().zip(mapped.tiles()) {
                assert_eq!(tp.groups(), cols / GROUP);
                for j in 0..cols {
                    let (plus, minus): (Vec<f64>, Vec<f64>) = if j < tp.groups() * GROUP {
                        let lane = 2 * (j % GROUP);
                        let group = tp.group(j / GROUP);
                        (
                            group.g.iter().map(|row| row[lane]).collect(),
                            group.g.iter().map(|row| row[lane + 1]).collect(),
                        )
                    } else {
                        let (gp, gm) = tp.tail_column(j);
                        (gp.to_vec(), gm.to_vec())
                    };
                    let pc = tile.col_map()[j];
                    let col = pc * tile.rows()..(pc + 1) * tile.rows();
                    exact_eq(&plus, &tile.eff_plus_cm()[col.clone()]);
                    exact_eq(&minus, &tile.eff_minus_cm()[col]);
                }
                column_major_bytes += 2 * tile.rows() * cols * std::mem::size_of::<f64>();
            }
            assert_eq!(plan.tile_stream_bytes(), column_major_bytes as u64);
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
        plan.forward_block(&a, n, &mut plain, &mut scratch, None)
            .unwrap();
        let mut probed = vec![0.0; n * 4];
        plan.forward_block(&a, n, &mut probed, &mut scratch, Some(&probe))
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
}
