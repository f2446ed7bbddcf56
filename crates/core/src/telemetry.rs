//! Hierarchical telemetry and profiling for compile and inference.
//!
//! The ReSiPE pipeline spends its time in three physically distinct
//! stages per MVM — **S1 encode** (the GD ramp sampling of Eq. 1), the
//! **computation stage** (the Δt crossbar charge of Eqs. 2–3), and
//! **S2 decode** (the comparator crossing of Eqs. 4–6) — and its energy
//! mostly in the COG cluster (the paper's Table II, 98.1 %). This module
//! makes that attribution observable:
//!
//! * **spans** — wall-clock timed regions forming the hierarchy
//!   `compile → layer → tile → (program/repair)` and
//!   `forward → layer → {s1_encode, crossbar, s2_decode}`;
//! * **counters** — MVMs issued, zero-activation skips, spare-column
//!   remaps, repair-ladder escalations, compile-cache hits/misses,
//!   comparator-offset rejects and saturated decodes;
//! * **histograms** — the `t_out` spike-time distribution and the
//!   `V_out` occupancy of the `C_cog` range (both normalized, 32 bins),
//!   so the Sec. III-D saturation non-linearity behind the Fig. 5/Fig. 7
//!   error is directly inspectable;
//! * **per-stage energy** — [`TelemetrySnapshot::attributed_energy`]
//!   multiplies the MVM counter by [`EnergyModel::stage_energy`], so
//!   the stages sum to the MVM count times
//!   [`EnergyModel::mvm_energy`]'s total.
//!
//! # Overhead contract
//!
//! A [`Telemetry`] handle is a cheap clone of an optional [`Arc`] sink.
//! When **disabled** (the default everywhere), every recording call is a
//! single `Option` branch — no allocation, no atomics, no locks — and
//! the numeric path is untouched, so disabled-telemetry outputs are
//! **bit-identical** to the pre-telemetry engine. When **enabled**, the
//! kernel aggregates each sample block in plain locals (stage times,
//! counters, and the `t_out`/`V_out` bins of every decode) and folds them
//! into lock-free atomics once per block; mutexes guard only the coarse
//! span map, touched once per layer or tile, never per sample.
//! Enabling telemetry never changes a computed bit either — it only adds
//! observation (and the wall-clock cost of taking it).
//!
//! # Snapshot / reset semantics
//!
//! Like the MVM counter on [`crate::inference::HardwareNetwork`], the
//! sink accumulates monotonically; [`Telemetry::snapshot`] copies the
//! current totals out and [`Telemetry::reset`] zeroes them (e.g. between
//! measured batches). Handles cloned from one another share a sink —
//! a [`HardwareNetwork`](crate::inference::HardwareNetwork) clone keeps
//! reporting into the same recorder.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use resipe_analog::units::Joules;
use serde::{Deserialize, Serialize};

use crate::config::ResipeConfig;
use crate::engine::ramp_voltage;
use crate::power::{EnergyModel, StageEnergy};

/// Bins in the normalized `t_out` / `V_out` histograms.
pub const HISTOGRAM_BINS: usize = 32;

/// Counter identities — the crate-internal recording interface.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counter {
    /// Physical crossbar MVMs issued.
    Mvms,
    /// Gathered wordlines skipped because they are held at exactly 0 V
    /// (per window wordline for a conv layer).
    ZeroActivationSkips,
    /// Failing columns remapped onto spare bitlines by the repair ladder.
    SpareRemaps,
    /// Tiles whose repair escalated past re-programming (remap/permute).
    RepairEscalations,
    /// Programming pulses spent by the repair ladder.
    RepairPulses,
    /// Compile-cache hits.
    CompileCacheHits,
    /// Compile-cache misses (fresh compiles).
    CompileCacheMisses,
    /// Compiled networks evicted from the compile cache (LRU pressure).
    CompileCacheEvictions,
    /// Decodes whose comparator offset pushed `V_eff` outside the valid
    /// comparator range (the clamp engaged).
    ComparatorOffsetRejects,
    /// Decodes whose observed spike time saturated at the slice end.
    SaturatedDecodes,
    /// Sample blocks executed by the cache-blocked kernel.
    KernelBlocks,
    /// Samples evaluated inside those blocks (so
    /// `kernel_block_samples / kernel_blocks` is the mean block size).
    KernelBlockSamples,
    /// Tile conductance bytes streamed by the blocked kernel — one
    /// tile pass per block, versus one per sample unblocked.
    KernelBytesStreamed,
    /// Background scrub passes completed.
    ScrubPasses,
    /// Tiles BIST-checked by the background scrubber.
    TilesScrubbed,
    /// Tile repairs triggered by the background scrubber.
    ScrubRepairs,
    /// Epoch swaps: repaired/aged crossbar state published atomically.
    PlanSwaps,
    /// Wall-clock nanoseconds between a scrub pass detecting degradation
    /// and publishing the repaired epoch (time served degraded).
    DegradedServingNanos,
    /// Wall-clock nanoseconds spent inside scrub passes.
    ScrubNanos,
}

const COUNTER_COUNT: usize = 19;

/// One span's running aggregate.
#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    nanos: u64,
}

/// Lock-free per-layer stage accumulators (all in nanoseconds / counts).
#[derive(Debug, Default)]
struct LayerStats {
    calls: AtomicU64,
    mvms: AtomicU64,
    zero_activation_skips: AtomicU64,
    s1_encode_nanos: AtomicU64,
    crossbar_nanos: AtomicU64,
    s2_decode_nanos: AtomicU64,
}

/// The bin of a value normalized to `[0, 1]`: NaN and values `≤ 0`
/// land in bin 0, values `≥ 1` in the top bin.
fn bin_of(v: f64) -> usize {
    if !(v > 0.0) {
        0
    } else if v >= 1.0 {
        HISTOGRAM_BINS - 1
    } else {
        ((v * HISTOGRAM_BINS as f64) as usize).min(HISTOGRAM_BINS - 1)
    }
}

/// A fixed-bin histogram over the normalized range `[0, 1]`.
#[derive(Debug)]
struct Histogram {
    bins: [AtomicU64; HISTOGRAM_BINS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[cfg(test)]
    fn record(&self, v: f64) {
        self.bins[bin_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds block-local bin counts, skipping empty bins.
    fn add_bins(&self, counts: &[u64; HISTOGRAM_BINS]) {
        for (bin, &n) in self.bins.iter().zip(counts) {
            if n > 0 {
                bin.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bins: self
                .bins
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn reset(&self) {
        for b in &self.bins {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The shared recorder behind enabled [`Telemetry`] handles.
///
/// Every critical section on the two maps is a single insert, update or
/// clear, so a holder that panics cannot leave a map half-written: a
/// poisoned lock is recovered rather than propagated.
#[derive(Debug)]
struct Sink {
    counters: [AtomicU64; COUNTER_COUNT],
    spans: Mutex<BTreeMap<String, SpanAgg>>,
    layers: Mutex<BTreeMap<usize, Arc<LayerStats>>>,
    t_out: Histogram,
    v_out: Histogram,
}

impl Sink {
    fn new() -> Sink {
        Sink {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(BTreeMap::new()),
            layers: Mutex::new(BTreeMap::new()),
            t_out: Histogram::new(),
            v_out: Histogram::new(),
        }
    }
}

/// A cloneable handle to an optional telemetry recorder.
///
/// See the [module docs](crate::telemetry) for the overhead contract and
/// the span hierarchy. Construct with [`Telemetry::enabled`] to record or
/// [`Telemetry::disabled`] (also [`Default`]) for the zero-cost no-op.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Sink>>,
}

impl Telemetry {
    /// A no-op handle: every recording call is a single branch.
    pub fn disabled() -> Telemetry {
        Telemetry { sink: None }
    }

    /// A fresh recorder. Clones of this handle share its sink.
    pub fn enabled() -> Telemetry {
        Telemetry {
            sink: Some(Arc::new(Sink::new())),
        }
    }

    /// `true` when this handle records into a sink.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a wall-clock span at `path`; it is recorded when the
    /// returned guard drops. A no-op on a disabled handle.
    pub fn span(&self, path: &str) -> SpanGuard {
        self.span_with(|| path.to_owned())
    }

    /// Like [`Telemetry::span`] but builds the path lazily, so a
    /// disabled handle never pays for the `format!`.
    pub fn span_with<F: FnOnce() -> String>(&self, path: F) -> SpanGuard {
        SpanGuard {
            inner: self
                .sink
                .as_ref()
                .map(|s| (Arc::clone(s), path(), Instant::now())),
        }
    }

    /// Adds `n` to a counter. A no-op on a disabled handle.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        if let Some(sink) = &self.sink {
            sink.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A recording probe for one network layer, or `None` on a disabled
    /// handle — what [`crate::batch::BatchPlan::encode_into`] and
    /// [`crate::batch::BatchPlan::forward_held`] take to time their
    /// stages and fill the histograms. The engine
    /// configuration's slice and supply voltage normalize the histogram
    /// inputs.
    pub fn layer_probe(&self, layer: usize, config: &ResipeConfig) -> Option<LayerProbe> {
        let sink = self.sink.as_ref()?;
        let stats = {
            let mut layers = sink.layers.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(layers.entry(layer).or_default())
        };
        let slice = config.slice().0;
        let tau = config.tau_gd().0;
        let vs = config.vs().0;
        Some(LayerProbe {
            stats,
            sink: Arc::clone(sink),
            inv_slice: 1.0 / slice,
            inv_vs: 1.0 / vs,
            // Bin i of the t_out histogram holds spike times in
            // [i, i + 1) · slice/BINS; Eq. 1 maps each inner edge to the
            // read-back voltage a spike at that time decodes to.
            t_edges: std::array::from_fn(|i| {
                ramp_voltage((i + 1) as f64 * slice / HISTOGRAM_BINS as f64, vs, tau)
            }),
        })
    }

    /// Copies the current totals out (cheap and empty on a disabled
    /// handle). Stage aggregates are also synthesized into
    /// `forward/layer{i}/{s1_encode, crossbar, s2_decode}` span entries,
    /// completing the span hierarchy.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(sink) = &self.sink else {
            return TelemetrySnapshot::default();
        };
        let c = |i: Counter| sink.counters[i as usize].load(Ordering::Relaxed);
        let counters = CounterSnapshot {
            mvms: c(Counter::Mvms),
            zero_activation_skips: c(Counter::ZeroActivationSkips),
            spare_remaps: c(Counter::SpareRemaps),
            repair_escalations: c(Counter::RepairEscalations),
            repair_pulses: c(Counter::RepairPulses),
            compile_cache_hits: c(Counter::CompileCacheHits),
            compile_cache_misses: c(Counter::CompileCacheMisses),
            compile_cache_evictions: c(Counter::CompileCacheEvictions),
            comparator_offset_rejects: c(Counter::ComparatorOffsetRejects),
            saturated_decodes: c(Counter::SaturatedDecodes),
            kernel_blocks: c(Counter::KernelBlocks),
            kernel_block_samples: c(Counter::KernelBlockSamples),
            kernel_bytes_streamed: c(Counter::KernelBytesStreamed),
            scrub_passes: c(Counter::ScrubPasses),
            tiles_scrubbed: c(Counter::TilesScrubbed),
            scrub_repairs: c(Counter::ScrubRepairs),
            plan_swaps: c(Counter::PlanSwaps),
            degraded_serving_nanos: c(Counter::DegradedServingNanos),
            scrub_nanos: c(Counter::ScrubNanos),
        };
        let mut spans: Vec<SpanSnapshot> = sink
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(path, agg)| SpanSnapshot {
                path: path.clone(),
                count: agg.count,
                nanos: agg.nanos,
            })
            .collect();
        let layers: Vec<LayerSnapshot> = sink
            .layers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&layer, s)| LayerSnapshot {
                layer,
                calls: s.calls.load(Ordering::Relaxed),
                mvms: s.mvms.load(Ordering::Relaxed),
                zero_activation_skips: s.zero_activation_skips.load(Ordering::Relaxed),
                s1_encode_nanos: s.s1_encode_nanos.load(Ordering::Relaxed),
                crossbar_nanos: s.crossbar_nanos.load(Ordering::Relaxed),
                s2_decode_nanos: s.s2_decode_nanos.load(Ordering::Relaxed),
            })
            .collect();
        for l in &layers {
            for (stage, nanos) in [
                ("s1_encode", l.s1_encode_nanos),
                ("crossbar", l.crossbar_nanos),
                ("s2_decode", l.s2_decode_nanos),
            ] {
                spans.push(SpanSnapshot {
                    path: format!("forward/layer{}/{stage}", l.layer),
                    count: l.calls,
                    nanos,
                });
            }
        }
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        TelemetrySnapshot {
            enabled: true,
            counters,
            spans,
            layers,
            t_out: sink.t_out.snapshot(),
            v_out: sink.v_out.snapshot(),
        }
    }

    /// Zeroes every counter, span, layer aggregate and histogram.
    pub fn reset(&self) {
        let Some(sink) = &self.sink else { return };
        for c in &sink.counters {
            c.store(0, Ordering::Relaxed);
        }
        sink.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        sink.layers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        sink.t_out.reset();
        sink.v_out.reset();
    }
}

/// RAII guard of one open span — records its wall-clock duration into
/// the sink on drop. Obtained from [`Telemetry::span`].
#[must_use = "a span guard records on drop; binding it to `_x` keeps it open"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(Arc<Sink>, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((sink, path, start)) = self.inner.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            let mut spans = sink.spans.lock().unwrap_or_else(PoisonError::into_inner);
            let agg = spans.entry(path).or_default();
            agg.count += 1;
            agg.nanos += nanos;
        }
    }
}

/// Stage aggregates of one kernel block, delivered by the hot path in
/// one call, keeping atomic traffic off the inner loops.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SampleStats {
    pub(crate) s1_encode_nanos: u64,
    pub(crate) crossbar_nanos: u64,
    pub(crate) s2_decode_nanos: u64,
    pub(crate) mvms: u64,
    pub(crate) zero_activation_skips: u64,
    pub(crate) comparator_offset_rejects: u64,
    pub(crate) saturated_decodes: u64,
}

/// Block-local `t_out` / `V_out` histogram counts: the kernel bins every
/// probed decode of a block into plain integers and
/// [`LayerProbe::record_bins`] adds them to the shared histograms once,
/// so no decode touches a shared atomic.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DecodeBins {
    t_out: [u64; HISTOGRAM_BINS],
    v_out: [u64; HISTOGRAM_BINS],
}

/// A hot-path recording probe bound to one network layer.
///
/// Built by [`Telemetry::layer_probe`] from an enabled handle (per layer,
/// per forward call); safe to share across the rayon workers of a
/// batched forward — all recording is atomic.
#[derive(Debug, Clone)]
pub struct LayerProbe {
    stats: Arc<LayerStats>,
    sink: Arc<Sink>,
    inv_slice: f64,
    inv_vs: f64,
    /// Read-back voltages `f(i · slice/BINS)` of the inner `t_out` bin
    /// edges, ascending: a decode reading back `V̂` lands in bin
    /// `#{edges ≤ V̂}`, the bin of its spike time `f⁻¹(V̂)`.
    t_edges: [f64; HISTOGRAM_BINS - 1],
}

impl LayerProbe {
    /// Folds one block's stage aggregates into the layer and global
    /// counters. The call counter advances by the block's `samples`, so
    /// per-layer `calls` means "samples seen".
    pub(crate) fn record_block(&self, s: SampleStats, samples: u64) {
        self.stats.calls.fetch_add(samples, Ordering::Relaxed);
        self.stats.mvms.fetch_add(s.mvms, Ordering::Relaxed);
        self.stats
            .zero_activation_skips
            .fetch_add(s.zero_activation_skips, Ordering::Relaxed);
        self.stats
            .s1_encode_nanos
            .fetch_add(s.s1_encode_nanos, Ordering::Relaxed);
        self.stats
            .crossbar_nanos
            .fetch_add(s.crossbar_nanos, Ordering::Relaxed);
        self.stats
            .s2_decode_nanos
            .fetch_add(s.s2_decode_nanos, Ordering::Relaxed);
        let c = &self.sink.counters;
        c[Counter::Mvms as usize].fetch_add(s.mvms, Ordering::Relaxed);
        c[Counter::ZeroActivationSkips as usize]
            .fetch_add(s.zero_activation_skips, Ordering::Relaxed);
        c[Counter::ComparatorOffsetRejects as usize]
            .fetch_add(s.comparator_offset_rejects, Ordering::Relaxed);
        c[Counter::SaturatedDecodes as usize].fetch_add(s.saturated_decodes, Ordering::Relaxed);
    }

    /// Adds the wall time of one S1 encode
    /// ([`crate::batch::BatchPlan::encode_into`]) to the layer's
    /// `s1_encode_nanos`.
    pub(crate) fn record_encode(&self, nanos: u64) {
        self.stats
            .s1_encode_nanos
            .fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one kernel invocation against the global kernel
    /// counters: a block of `samples` samples that streamed `bytes` of
    /// tile conductance data.
    pub(crate) fn record_kernel(&self, samples: u64, bytes: u64) {
        let c = &self.sink.counters;
        c[Counter::KernelBlocks as usize].fetch_add(1, Ordering::Relaxed);
        c[Counter::KernelBlockSamples as usize].fetch_add(samples, Ordering::Relaxed);
        c[Counter::KernelBytesStreamed as usize].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `n` MVMs against this layer (the per-sample sequential
    /// path, which has no stage-level timing).
    pub(crate) fn record_mvms(&self, n: u64) {
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.mvms.fetch_add(n, Ordering::Relaxed);
        self.sink.counters[Counter::Mvms as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Bins one column decode into the block-local `bins`: `v_eff`
    /// against the `C_cog`/comparator voltage range `[0, V_s]`, and the
    /// output spike time against the S2 slice. A decode that evaluated
    /// its spike time (`t_obs`, quantized timing) is binned by it;
    /// otherwise the read-back voltage `v_hat` is binned against the
    /// voltage images of the time-bin edges, which places it in the bin
    /// of `f⁻¹(v_hat)` without evaluating a logarithm.
    #[inline]
    pub(crate) fn bin_decode(
        &self,
        bins: &mut DecodeBins,
        v_eff: f64,
        v_hat: f64,
        t_obs: Option<f64>,
    ) {
        bins.v_out[bin_of(v_eff * self.inv_vs)] += 1;
        let t_bin = match t_obs {
            Some(t) => bin_of(t * self.inv_slice),
            None => self.t_edges.partition_point(|&e| e <= v_hat),
        };
        bins.t_out[t_bin] += 1;
    }

    /// Adds one block's [`LayerProbe::bin_decode`] counts to the shared
    /// histograms.
    pub(crate) fn record_bins(&self, bins: &DecodeBins) {
        self.sink.t_out.add_bins(&bins.t_out);
        self.sink.v_out.add_bins(&bins.v_out);
    }

    /// Records one column decode straight into the shared histograms
    /// (see [`LayerProbe::bin_decode`]).
    #[cfg(test)]
    pub(crate) fn record_decode(&self, v_eff: f64, v_hat: f64, t_obs: Option<f64>) {
        let mut bins = DecodeBins::default();
        self.bin_decode(&mut bins, v_eff, v_hat, t_obs);
        self.record_bins(&bins);
    }
}

/// A point-in-time copy of one counter set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Physical crossbar MVMs issued.
    pub mvms: u64,
    /// Gathered wordlines skipped because they are held at exactly 0 V
    /// (per window wordline for a conv layer).
    pub zero_activation_skips: u64,
    /// Failing columns remapped onto spare bitlines.
    pub spare_remaps: u64,
    /// Tiles whose repair escalated past re-programming.
    pub repair_escalations: u64,
    /// Programming pulses spent by the repair ladder.
    pub repair_pulses: u64,
    /// Compile-cache hits.
    pub compile_cache_hits: u64,
    /// Compile-cache misses (fresh compiles).
    pub compile_cache_misses: u64,
    /// Compiled networks evicted from the compile cache (LRU pressure).
    pub compile_cache_evictions: u64,
    /// Decodes whose comparator offset engaged the range clamp.
    pub comparator_offset_rejects: u64,
    /// Decodes whose observed spike time saturated at the slice end.
    pub saturated_decodes: u64,
    /// Sample blocks executed by the cache-blocked kernel.
    pub kernel_blocks: u64,
    /// Samples evaluated inside those blocks.
    pub kernel_block_samples: u64,
    /// Tile conductance bytes streamed by the blocked kernel.
    pub kernel_bytes_streamed: u64,
    /// Background scrub passes completed.
    pub scrub_passes: u64,
    /// Tiles BIST-checked by the background scrubber.
    pub tiles_scrubbed: u64,
    /// Tile repairs triggered by the background scrubber.
    pub scrub_repairs: u64,
    /// Epoch swaps (repaired/aged state published atomically).
    pub plan_swaps: u64,
    /// Wall-clock nanoseconds served degraded (detection → publish).
    pub degraded_serving_nanos: u64,
    /// Wall-clock nanoseconds spent inside scrub passes (BIST walk,
    /// repairs, publish), summed over passes. Wall clock, not CPU time:
    /// on a loaded host it includes time the scrub thread waited to run.
    pub scrub_nanos: u64,
}

/// One aggregated span: every open/close of `path` summed.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Hierarchical path, e.g. `compile/layer0/tile3/repair`.
    pub path: String,
    /// Times the span was opened.
    pub count: u64,
    /// Total wall-clock nanoseconds across all openings.
    pub nanos: u64,
}

/// One layer's stage attribution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSnapshot {
    /// Network layer index (matching `forward/layer{i}` spans).
    pub layer: usize,
    /// MVM invocations recorded (samples, or pixels for convolutions).
    pub calls: u64,
    /// Physical crossbar MVMs issued by this layer.
    pub mvms: u64,
    /// Wordlines of this layer held at exactly 0 V and skipped by the
    /// kernel (per window wordline for a conv layer).
    pub zero_activation_skips: u64,
    /// Wall-clock nanoseconds in S1: the caller's encode of each input
    /// (`BatchPlan::encode_into`) plus the kernel's per-tile gather of
    /// held voltages onto the wordlines.
    pub s1_encode_nanos: u64,
    /// Wall-clock nanoseconds in the Δt computation stage.
    pub crossbar_nanos: u64,
    /// Wall-clock nanoseconds in S2 decode (including the digital
    /// rescale).
    pub s2_decode_nanos: u64,
}

/// A fixed-bin histogram over a normalized `[0, 1]` range.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Bin counts; bin `i` covers `[i/N, (i+1)/N)` of the range.
    pub bins: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total recorded events.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Fraction of events in the top bin — the saturation occupancy of
    /// the observed range (0 when nothing was recorded).
    pub fn saturation_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        *self.bins.last().unwrap_or(&0) as f64 / total as f64
    }
}

/// A point-in-time copy of a telemetry sink, as returned by
/// [`Telemetry::snapshot`] and carried on
/// [`crate::inference::RunResult`].
///
/// The scrub counters `counters.scrub_nanos` (time inside scrub passes)
/// and `counters.degraded_serving_nanos` (detection → publish) are wall
/// clock read on the scrub thread, summed over passes: on a loaded host
/// they include time that thread waited for a CPU.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// `false` for the empty snapshot of a disabled handle.
    pub enabled: bool,
    /// Global counters.
    pub counters: CounterSnapshot,
    /// Aggregated spans, sorted by path (stage spans synthesized from
    /// the per-layer aggregates included).
    pub spans: Vec<SpanSnapshot>,
    /// Per-layer stage attribution, sorted by layer index.
    pub layers: Vec<LayerSnapshot>,
    /// Normalized `t_out / slice` spike-time distribution.
    pub t_out: HistogramSnapshot,
    /// Normalized `V_out / V_s` occupancy of the `C_cog` range.
    pub v_out: HistogramSnapshot,
}

impl TelemetrySnapshot {
    /// The aggregated span at `path`, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Total `(s1_encode, crossbar, s2_decode)` nanoseconds across all
    /// layers.
    pub fn stage_nanos(&self) -> (u64, u64, u64) {
        self.layers.iter().fold((0, 0, 0), |(a, b, c), l| {
            (
                a + l.s1_encode_nanos,
                b + l.crossbar_nanos,
                c + l.s2_decode_nanos,
            )
        })
    }

    /// Energy attributed per stage: the MVM counter times the model's
    /// per-MVM stage split, so the stage total equals
    /// `mvms × EnergyModel::mvm_energy().total()` up to rounding.
    pub fn attributed_energy(&self, model: &EnergyModel) -> StageEnergy {
        let n = self.counters.mvms as f64;
        let per = model.stage_energy();
        StageEnergy {
            s1_encode: Joules(n * per.s1_encode.0),
            crossbar: Joules(n * per.crossbar.0),
            s2_decode: Joules(n * per.s2_decode.0),
        }
    }

    /// Serializes the snapshot as a stable-key-order JSON object (the
    /// serving `STATS` snapshot's `telemetry_json`, and perfbench's
    /// traced reports).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"enabled\": {},\n", self.enabled));
        let c = &self.counters;
        s.push_str(&format!(
            "  \"counters\": {{\"mvms\": {}, \"zero_activation_skips\": {}, \
             \"spare_remaps\": {}, \"repair_escalations\": {}, \"repair_pulses\": {}, \
             \"compile_cache_hits\": {}, \"compile_cache_misses\": {}, \
             \"compile_cache_evictions\": {}, \
             \"comparator_offset_rejects\": {}, \"saturated_decodes\": {}, \
             \"kernel_blocks\": {}, \"kernel_block_samples\": {}, \
             \"kernel_bytes_streamed\": {}, \
             \"scrub_passes\": {}, \"tiles_scrubbed\": {}, \"scrub_repairs\": {}, \
             \"plan_swaps\": {}, \"degraded_serving_nanos\": {}, \"scrub_nanos\": {}}},\n",
            c.mvms,
            c.zero_activation_skips,
            c.spare_remaps,
            c.repair_escalations,
            c.repair_pulses,
            c.compile_cache_hits,
            c.compile_cache_misses,
            c.compile_cache_evictions,
            c.comparator_offset_rejects,
            c.saturated_decodes,
            c.kernel_blocks,
            c.kernel_block_samples,
            c.kernel_bytes_streamed,
            c.scrub_passes,
            c.tiles_scrubbed,
            c.scrub_repairs,
            c.plan_swaps,
            c.degraded_serving_nanos,
            c.scrub_nanos
        ));
        s.push_str("  \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"path\": \"{}\", \"count\": {}, \"nanos\": {}}}{comma}\n",
                sp.path, sp.count, sp.nanos
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"layers\": [\n");
        for (i, l) in self.layers.iter().enumerate() {
            let comma = if i + 1 < self.layers.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"layer\": {}, \"calls\": {}, \"mvms\": {}, \
                 \"zero_activation_skips\": {}, \"s1_encode_nanos\": {}, \
                 \"crossbar_nanos\": {}, \"s2_decode_nanos\": {}}}{comma}\n",
                l.layer,
                l.calls,
                l.mvms,
                l.zero_activation_skips,
                l.s1_encode_nanos,
                l.crossbar_nanos,
                l.s2_decode_nanos
            ));
        }
        s.push_str("  ],\n");
        for (name, hist, comma) in [("t_out", &self.t_out, ","), ("v_out", &self.v_out, "")] {
            let bins: Vec<String> = hist.bins.iter().map(u64::to_string).collect();
            s.push_str(&format!(
                "  \"{name}\": {{\"bins\": [{}], \"total\": {}}}{comma}\n",
                bins.join(", "),
                hist.total()
            ));
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.add(Counter::Mvms, 5);
        {
            let _g = t.span("forward");
        }
        assert!(t.layer_probe(0, &ResipeConfig::paper()).is_none());
        let snap = t.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.counters.mvms, 0);
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_and_spans_accumulate() {
        let t = Telemetry::enabled();
        t.add(Counter::Mvms, 3);
        t.add(Counter::Mvms, 4);
        t.add(Counter::CompileCacheHits, 1);
        {
            let _g = t.span("compile");
        }
        {
            let _g = t.span("compile");
        }
        let snap = t.snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.counters.mvms, 7);
        assert_eq!(snap.counters.compile_cache_hits, 1);
        let compile = snap.span("compile").expect("compile span");
        assert_eq!(compile.count, 2);
    }

    #[test]
    fn shared_sink_across_clones() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.add(Counter::SpareRemaps, 2);
        assert_eq!(t.snapshot().counters.spare_remaps, 2);
        t.reset();
        assert_eq!(u.snapshot().counters.spare_remaps, 0);
    }

    #[test]
    fn probe_aggregates_per_layer_and_globally() {
        let t = Telemetry::enabled();
        let probe = t
            .layer_probe(1, &ResipeConfig::paper())
            .expect("enabled probe");
        probe.record_block(
            SampleStats {
                s1_encode_nanos: 10,
                crossbar_nanos: 20,
                s2_decode_nanos: 30,
                mvms: 50,
                zero_activation_skips: 7,
                comparator_offset_rejects: 1,
                saturated_decodes: 2,
            },
            1,
        );
        probe.record_decode(0.5, 0.0, Some(50e-9));
        probe.record_decode(2.0, 0.0, Some(120e-9)); // clamps into the top bins
        let snap = t.snapshot();
        assert_eq!(snap.counters.mvms, 50);
        assert_eq!(snap.counters.zero_activation_skips, 7);
        assert_eq!(snap.counters.comparator_offset_rejects, 1);
        assert_eq!(snap.counters.saturated_decodes, 2);
        assert_eq!(snap.layers.len(), 1);
        let l = snap.layers[0];
        assert_eq!(l.layer, 1);
        assert_eq!(l.calls, 1);
        assert_eq!(
            (l.s1_encode_nanos, l.crossbar_nanos, l.s2_decode_nanos),
            (10, 20, 30)
        );
        assert_eq!(snap.stage_nanos(), (10, 20, 30));
        assert_eq!(snap.v_out.total(), 2);
        assert_eq!(snap.t_out.total(), 2);
        assert_eq!(*snap.t_out.bins.last().unwrap(), 1);
        assert!(snap.v_out.saturation_fraction() > 0.4);
        // Stage spans are synthesized into the hierarchy.
        assert!(snap.span("forward/layer1/s1_encode").is_some());
    }

    #[test]
    fn block_records_count_samples_and_kernel_traffic() {
        let t = Telemetry::enabled();
        let probe = t
            .layer_probe(0, &ResipeConfig::paper())
            .expect("enabled probe");
        probe.record_block(
            SampleStats {
                mvms: 16,
                zero_activation_skips: 3,
                ..SampleStats::default()
            },
            8,
        );
        probe.record_kernel(8, 4096);
        probe.record_kernel(5, 4096);
        probe.record_kernel(2, 2048);
        let snap = t.snapshot();
        assert_eq!(snap.layers[0].calls, 8, "calls advance by the block");
        assert_eq!(snap.layers[0].mvms, 16);
        assert_eq!(snap.counters.zero_activation_skips, 3);
        assert_eq!(snap.counters.kernel_blocks, 3);
        assert_eq!(snap.counters.kernel_block_samples, 15);
        assert_eq!(snap.counters.kernel_bytes_streamed, 10240);
    }

    #[test]
    fn histogram_edges_clamp() {
        let h = Histogram::new();
        h.record(-0.5);
        h.record(0.0);
        h.record(0.999);
        h.record(1.0);
        h.record(55.0);
        let snap = h.snapshot();
        assert_eq!(snap.bins[0], 2);
        assert_eq!(snap.bins[HISTOGRAM_BINS - 1], 3);
    }

    #[test]
    fn attributed_energy_sums_to_measured_total() {
        let t = Telemetry::enabled();
        t.add(Counter::Mvms, 150);
        let model = EnergyModel::paper();
        let e = t.snapshot().attributed_energy(&model);
        let expected = 150.0 * model.mvm_energy().total().0;
        let total = e.total().0;
        assert!(
            ((total - expected) / expected).abs() < 0.01,
            "stage attribution {total:e} vs measured {expected:e}"
        );
    }

    #[test]
    fn json_has_stable_schema_keys() {
        let t = Telemetry::enabled();
        t.add(Counter::Mvms, 1);
        let json = t.snapshot().to_json();
        for key in [
            "\"enabled\"",
            "\"counters\"",
            "\"mvms\"",
            "\"zero_activation_skips\"",
            "\"spare_remaps\"",
            "\"repair_escalations\"",
            "\"repair_pulses\"",
            "\"compile_cache_hits\"",
            "\"compile_cache_misses\"",
            "\"compile_cache_evictions\"",
            "\"comparator_offset_rejects\"",
            "\"saturated_decodes\"",
            "\"kernel_blocks\"",
            "\"kernel_block_samples\"",
            "\"kernel_bytes_streamed\"",
            "\"scrub_passes\"",
            "\"tiles_scrubbed\"",
            "\"scrub_repairs\"",
            "\"plan_swaps\"",
            "\"degraded_serving_nanos\"",
            "\"scrub_nanos\"",
            "\"spans\"",
            "\"layers\"",
            "\"t_out\"",
            "\"v_out\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// A thread that panics while holding the span or the layer map
    /// poisons it; every later probe, span, snapshot and reset must
    /// recover the lock and keep recording.
    #[test]
    fn poisoned_maps_are_recovered() {
        let t = Telemetry::enabled();
        let sink = t.sink.as_ref().expect("enabled sink");
        std::thread::scope(|s| {
            let spans = s.spawn(|| {
                let _spans = sink.spans.lock().unwrap();
                panic!("panic while holding the span map");
            });
            assert!(spans.join().is_err());
            let layers = s.spawn(|| {
                let _layers = sink.layers.lock().unwrap();
                panic!("panic while holding the layer map");
            });
            assert!(layers.join().is_err());
        });
        assert!(sink.spans.is_poisoned() && sink.layers.is_poisoned());
        let probe = t.layer_probe(2, &ResipeConfig::paper()).unwrap();
        probe.record_encode(5);
        {
            let _g = t.span("forward");
        }
        let snap = t.snapshot();
        assert_eq!(snap.layers[0].s1_encode_nanos, 5);
        assert_eq!(snap.span("forward").expect("span recorded").count, 1);
        t.reset();
        let snap = t.snapshot();
        assert!(snap.spans.is_empty() && snap.layers.is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let t = Telemetry::enabled();
        t.add(Counter::RepairPulses, 9);
        let probe = t.layer_probe(0, &ResipeConfig::paper()).unwrap();
        probe.record_decode(0.3, 0.0, Some(50e-9));
        {
            let _g = t.span("forward");
        }
        t.reset();
        let snap = t.snapshot();
        assert_eq!(snap.counters.repair_pulses, 0);
        assert!(snap.spans.is_empty());
        assert!(snap.layers.is_empty());
        assert_eq!(snap.t_out.total(), 0);
    }
}
