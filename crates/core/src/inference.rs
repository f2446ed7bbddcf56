//! Running trained networks on the simulated ReSiPE hardware.
//!
//! [`HardwareNetwork::compile`] lowers a trained [`resipe_nn::Network`]
//! onto the engine:
//!
//! * every `Dense` layer's `[in, out]` weight matrix and every `Conv2d`
//!   layer's `[fan_in, out_ch]` kernel matrix (via the same im2col
//!   lowering the software path uses) becomes a tiled differential
//!   crossbar pair ([`crate::mapping::MappedWeights`]); both run as one
//!   crossbar layer, a dense layer being a `1 × 1` convolution;
//! * a calibration batch run through the *ideal* network fixes each
//!   weight layer's input scale, so activations can be normalized into
//!   the `\[0, 1\]` spike-encoding range;
//! * biases, ReLU, pooling and flatten run digitally, as they would in
//!   the engine's peripheral logic;
//! * an optional [`VariationModel`] perturbs every programmed cell —
//!   one Monte-Carlo instance per compile.
//!
//! This is the machinery behind the paper's Fig. 7 accuracy study.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use resipe_analog::units::Seconds;
use resipe_nn::data::Dataset;
use resipe_nn::layers::{im2col, Layer};
use resipe_nn::network::Network;
use resipe_nn::tensor::Tensor;
use resipe_reram::aging::AgingStep;
use resipe_reram::faults::RetentionDrift;
use resipe_reram::variation::VariationModel;

use crate::batch::{BatchPlan, BatchScratch};
use crate::config::ResipeConfig;
use crate::engine::ResipeEngine;
use crate::error::ResipeError;
use crate::mapping::{MappedWeights, SpikeEncoding, TileMapper};
use crate::repair::{repair_layer_with, HealthReport, RepairPolicy};
use crate::seeds;
use crate::telemetry::{Counter, LayerProbe, Telemetry, TelemetrySnapshot};

/// How activations are spike-encoded at each hardware layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncodingPolicy {
    /// The physical pipeline: raw inputs enter in the paper's linear-time
    /// format (with its concave distortion), while inter-layer spikes are
    /// pass-through — their timing already sits on the ramp curve, so the
    /// held voltage is exact (the calibration cancellation of Sec. III-D).
    #[default]
    FirstLinearThenPassThrough,
    /// Every layer re-encodes linearly in time — an ablation exaggerating
    /// the non-linearity (as if each layer re-digitized its inputs).
    AllLinearTime,
    /// Every layer uses the exact pass-through encoding — isolates the
    /// process-variation contribution (no circuit non-linearity at all).
    AllPassThrough,
}

impl EncodingPolicy {
    fn encoding_for(self, weight_layer_index: usize) -> SpikeEncoding {
        match self {
            EncodingPolicy::FirstLinearThenPassThrough => {
                if weight_layer_index == 0 {
                    SpikeEncoding::LinearTime
                } else {
                    SpikeEncoding::PassThrough
                }
            }
            EncodingPolicy::AllLinearTime => SpikeEncoding::LinearTime,
            EncodingPolicy::AllPassThrough => SpikeEncoding::PassThrough,
        }
    }
}

/// Hard-fault injection applied at compile time — the persistent damage
/// of an aged or defective part, as opposed to the statistical PV draw of
/// [`VariationModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// Target fraction of stuck cells per array.
    pub rate: f64,
    /// Maximum cells per spatially-clustered defect.
    pub cluster_size: usize,
    /// Seed for the fault-map draw (independent of the PV seed).
    pub seed: u64,
    /// Optional retention drift applied after fault injection: the drift
    /// model and the storage time elapsed since programming.
    pub drift: Option<(RetentionDrift, Seconds)>,
}

impl FaultInjection {
    /// Clustered stuck-at faults at `rate`, no retention drift.
    pub fn clustered(rate: f64, cluster_size: usize, seed: u64) -> FaultInjection {
        FaultInjection {
            rate,
            cluster_size,
            seed,
            drift: None,
        }
    }

    /// Adds retention drift on top of the stuck-at faults.
    pub fn with_drift(mut self, drift: RetentionDrift, elapsed: Seconds) -> FaultInjection {
        self.drift = Some((drift, elapsed));
        self
    }
}

/// Options controlling hardware compilation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Engine circuit configuration.
    pub config: ResipeConfig,
    /// Weight-to-conductance lowering options.
    pub mapper: TileMapper,
    /// Process variation to apply to the programmed cells.
    pub variation: VariationModel,
    /// Monte-Carlo seed for the variation draw.
    pub seed: u64,
    /// Per-layer spike-encoding policy.
    pub encoding: EncodingPolicy,
    /// Standard deviation of the static per-column COG comparator input
    /// offsets (volts); 0 disables them.
    pub comparator_sigma: f64,
    /// Optional spike-time quantization grid (pulse-width resolution
    /// limit); `None` models ideal continuous timing.
    pub time_quantization: Option<resipe_analog::units::Seconds>,
    /// Optional hard-fault injection (stuck-at maps + retention drift).
    pub faults: Option<FaultInjection>,
    /// Optional online repair: BIST every tile after programming and run
    /// the repair ladder, surfacing a [`HealthReport`].
    pub repair: Option<RepairPolicy>,
}

impl CompileOptions {
    /// The paper's setup with no variation (isolates the circuit
    /// non-linearity — Fig. 7's σ = 0 bar).
    ///
    /// The encode window is reduced to `t_max` = 20 ns (from the raw
    /// engine's 80 ns characterization range): the ramp's slope near t = 0
    /// amplifies small inputs by `t_max/τ_gd`, so wide windows distort
    /// first-layer activations heavily. At 20 ns the measured σ = 0
    /// accuracy drop lands at the paper's "< 2.5 %" claim; the
    /// `fig7 --window-sweep` ablation regenerates the full trade-off.
    pub fn paper() -> CompileOptions {
        CompileOptions {
            config: ResipeConfig::paper().with_t_max(resipe_analog::units::Seconds(20e-9)),
            mapper: TileMapper::paper(),
            variation: VariationModel::IDEAL,
            seed: 0,
            encoding: EncodingPolicy::default(),
            comparator_sigma: 0.0,
            time_quantization: None,
            faults: None,
            repair: None,
        }
    }

    /// Injects hard faults at compile time.
    pub fn with_faults(mut self, faults: FaultInjection) -> CompileOptions {
        self.faults = Some(faults);
        self
    }

    /// Enables the online repair ladder.
    pub fn with_repair(mut self, policy: RepairPolicy) -> CompileOptions {
        self.repair = Some(policy);
        self
    }

    /// Sets the static COG comparator offset sigma (volts).
    pub fn with_comparator_sigma(mut self, sigma: f64) -> CompileOptions {
        self.comparator_sigma = sigma;
        self
    }

    /// Quantizes observed spike times to the given grid.
    pub fn with_time_quantization(
        mut self,
        quantum: resipe_analog::units::Seconds,
    ) -> CompileOptions {
        self.time_quantization = Some(quantum);
        self
    }

    /// Sets the per-layer spike-encoding policy.
    pub fn with_encoding(mut self, encoding: EncodingPolicy) -> CompileOptions {
        self.encoding = encoding;
        self
    }

    /// Sets the process-variation model.
    pub fn with_variation(mut self, variation: VariationModel) -> CompileOptions {
        self.variation = variation;
        self
    }

    /// Sets the Monte-Carlo seed.
    pub fn with_seed(mut self, seed: u64) -> CompileOptions {
        self.seed = seed;
        self
    }

    /// Sets the engine configuration.
    pub fn with_config(mut self, config: ResipeConfig) -> CompileOptions {
        self.config = config;
        self
    }

    /// Sets the tile mapper.
    pub fn with_mapper(mut self, mapper: TileMapper) -> CompileOptions {
        self.mapper = mapper;
        self
    }

    /// Checks the options for invalid combinations.
    ///
    /// [`HardwareNetwork::compile`] calls this first, so a bad request
    /// fails fast with a [`ResipeError::InvalidOptions`] naming the
    /// offending field instead of panicking deep inside the mapping
    /// pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::InvalidOptions`] when any field is out of
    /// range: a zero-row tile mapper, a fault rate outside `[0, 1]` or a
    /// zero cluster size, retention drift without positive elapsed time,
    /// a negative or non-finite comparator sigma, or a non-positive
    /// time-quantization grid. Engine-configuration problems surface as
    /// [`ResipeError::InvalidConfig`] via
    /// [`crate::config::ResipeConfig::validate`].
    pub fn validate(&self) -> Result<(), ResipeError> {
        let invalid = |reason: String| Err(ResipeError::InvalidOptions { reason });
        self.config.validate()?;
        if self.mapper.max_rows() == 0 {
            return invalid("tile mapper max_rows must be nonzero".into());
        }
        if let Some(f) = self.faults {
            if !f.rate.is_finite() || !(0.0..=1.0).contains(&f.rate) {
                return invalid(format!("fault rate {} outside [0, 1]", f.rate));
            }
            if f.cluster_size == 0 {
                return invalid("fault cluster size must be nonzero".into());
            }
            if let Some((_, elapsed)) = f.drift {
                if !(elapsed.0 > 0.0) {
                    return invalid(format!(
                        "retention drift requires positive elapsed time, got {} s",
                        elapsed.0
                    ));
                }
            }
        }
        if !self.comparator_sigma.is_finite() || self.comparator_sigma < 0.0 {
            return invalid(format!(
                "comparator sigma {} must be finite and non-negative",
                self.comparator_sigma
            ));
        }
        if let Some(q) = self.time_quantization {
            if !(q.0 > 0.0) {
                return invalid(format!("time quantization {} s must be positive", q.0));
            }
        }
        Ok(())
    }

    /// Validates and returns the options — the builder-style terminal,
    /// for pipelines that want an explicit checked value:
    /// `CompileOptions::paper().with_seed(3).build()?`.
    ///
    /// # Errors
    ///
    /// See [`CompileOptions::validate`].
    pub fn build(self) -> Result<CompileOptions, ResipeError> {
        self.validate()?;
        Ok(self)
    }
}

/// Lowers one mapped weight layer through the full non-ideality chain:
/// process variation → hard faults → retention drift → repair ladder →
/// readout non-idealities. Repair outcomes are appended to `health`.
///
/// `layer_seed` is this layer's substream of the compile seed; each
/// stochastic stage draws from its own fixed substream of it, so every
/// draw is a pure function of `(compile seed, layer, stage, tile)` and
/// never of the order layers or tiles are visited in.
fn lower_mapped(
    engine: &ResipeEngine,
    mapped: MappedWeights,
    options: &CompileOptions,
    weight_layer_index: usize,
    layer_seed: u64,
    health: &mut HealthReport,
    telemetry: &Telemetry,
) -> Result<MappedWeights, ResipeError> {
    let mut mapped = {
        let _program = telemetry.span_with(|| format!("compile/layer{weight_layer_index}/program"));
        let mut mapped = mapped.perturbed(&options.variation, seeds::substream(layer_seed, 0));
        if let Some(fi) = options.faults {
            let seed = fi
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(weight_layer_index as u64 + 1));
            mapped = mapped.with_faults(fi.rate, fi.cluster_size, seed)?;
            if let Some((drift, elapsed)) = fi.drift {
                mapped = mapped.with_retention_drift(&drift, elapsed)?;
            }
        }
        mapped
    };
    if let Some(policy) = options.repair {
        let tiles = repair_layer_with(
            engine,
            &mut mapped,
            weight_layer_index,
            &policy,
            seeds::substream(layer_seed, 1),
            telemetry,
        )?;
        health.tiles.extend(tiles);
    }
    if options.comparator_sigma > 0.0 {
        mapped = mapped
            .with_comparator_offsets(options.comparator_sigma, seeds::substream(layer_seed, 2));
    }
    if let Some(q) = options.time_quantization {
        mapped = mapped.with_time_quantization(q);
    }
    Ok(mapped)
}

/// A layer lowered onto the hardware (or executed digitally).
#[derive(Debug, Clone)]
enum HwLayer {
    /// A weight layer on crossbars.
    Crossbar(Crossbar),
    /// Digital ReLU (free in the spike domain — a negative differential
    /// simply never fires).
    Relu,
    /// Digital max pooling.
    MaxPool(usize),
    /// Digital average pooling.
    AvgPool(usize),
    /// Digital flatten.
    Flatten,
}

/// A weight layer on crossbars. A convolution runs one MVM per output
/// pixel over its im2col windows; a dense layer is the `1 × 1`,
/// unpadded convolution of a `[rows, 1, 1]` image (`window: None`).
///
/// It does not own its conductance state: `weights` is a weight-layer
/// index into the currently-published [`NetworkEpoch`], so a repair or
/// aging event can swap in fresh crossbar state without touching the
/// layer graph.
#[derive(Debug, Clone)]
struct Crossbar {
    weights: usize,
    bias: Vec<f64>,
    input_scale: f64,
    /// A convolution's `(kernel, padding)`.
    window: Option<(usize, usize)>,
}

/// How a crossbar layer reads its input: `n` samples of a `(c, h, w)`
/// image, each lowered to `n_pix = h_out × w_out` windows of `k × k`
/// with padding `p`.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    dense: bool,
    n: usize,
    chw: (usize, usize, usize),
    k: usize,
    p: usize,
    out_hw: (usize, usize),
    n_pix: usize,
}

impl Geometry {
    /// Parses an input shape against a crossbar layer's window and fan-in
    /// `rows`. Dense takes `[n, rows]` as `[n, rows, 1, 1]`; conv takes
    /// `[n, c, h, w]` with at least one output pixel and `c · k² = rows`.
    /// Past this point the two kinds differ only in their output shape.
    ///
    /// # Errors
    ///
    /// [`ResipeError::DimensionMismatch`] for any other input: expected
    /// `rows` for a dense input or a conv fan-in, 4 for a conv input's
    /// rank, and the kernel for a conv image smaller than it.
    fn parse(
        window: Option<(usize, usize)>,
        shape: &[usize],
        rows: usize,
    ) -> Result<Geometry, ResipeError> {
        let mismatch = |expected, got| Err(ResipeError::DimensionMismatch { expected, got });
        let (n, chw, (k, p)) = match (window, shape) {
            (None, &[n, width]) if width == rows => (n, (rows, 1, 1), (1, 0)),
            (None, _) => return mismatch(rows, shape.last().copied().unwrap_or(0)),
            (Some(kp), &[n, c, h, w]) => (n, (c, h, w), kp),
            (Some(_), _) => return mismatch(4, shape.len()),
        };
        let out_hw = conv_output_hw(chw.1, chw.2, k, p)?;
        if chw.0 * k * k != rows {
            return mismatch(rows, chw.0 * k * k);
        }
        Ok(Geometry {
            dense: window.is_none(),
            n,
            chw,
            k,
            p,
            out_hw,
            n_pix: out_hw.0 * out_hw.1,
        })
    }

    /// The layer's output shape for `cols` crossbar outputs: `[n, cols]`
    /// for dense, NCHW for conv.
    fn out_shape(&self, cols: usize) -> Vec<usize> {
        if self.dense {
            vec![self.n, cols]
        } else {
            vec![self.n, cols, self.out_hw.0, self.out_hw.1]
        }
    }
}

/// One weight layer's crossbar state within a published [`NetworkEpoch`]:
/// the mapped conductances, the layer's spike encoding, and the lazily
/// built [`BatchPlan`] derived from them. Immutable once published —
/// repair and aging build a *new* `LayerState` and publish it inside a
/// new epoch rather than mutating this one, which is what lets in-flight
/// requests keep executing the state they loaded.
#[derive(Debug)]
pub(crate) struct LayerState {
    pub(crate) mapped: MappedWeights,
    encoding: SpikeEncoding,
    plan: OnceLock<Arc<BatchPlan>>,
}

impl LayerState {
    pub(crate) fn new(mapped: MappedWeights, encoding: SpikeEncoding) -> LayerState {
        LayerState {
            mapped,
            encoding,
            plan: OnceLock::new(),
        }
    }

    /// The spike encoding activations enter this layer with.
    pub(crate) fn encoding(&self) -> SpikeEncoding {
        self.encoding
    }

    /// The cached [`BatchPlan`], built on first planned use of this
    /// state. Plans are pure functions of `(mapped, engine, encoding)`,
    /// so lazy build-once semantics change no bits.
    fn plan(&self, engine: &ResipeEngine) -> Arc<BatchPlan> {
        Arc::clone(
            self.plan
                .get_or_init(|| Arc::new(BatchPlan::new(engine, &self.mapped, self.encoding))),
        )
    }
}

/// An immutable snapshot of every crossbar layer's state, published
/// atomically. A request loads the epoch once at entry and executes all
/// layers against that snapshot, so no request can ever observe a torn
/// mix of pre- and post-repair layers — even when one repair pass
/// touches several layers.
#[derive(Debug)]
pub(crate) struct NetworkEpoch {
    /// Monotone version number (0 at compile, +1 per publish).
    pub(crate) epoch: u64,
    /// One state per weight-bearing layer, in weight-layer order.
    pub(crate) layers: Vec<Arc<LayerState>>,
}

/// An ArcSwap-style epoch-versioned cell on `std::sync` primitives: the
/// write lock is held only for the pointer replacement (readers clone
/// the `Arc` under the read lock and drop it immediately), so swaps
/// never stall in-flight inference and readers never block each other.
/// A swap builds the next epoch before it replaces the `Arc`, so a
/// holder that panics leaves either epoch in place, never a torn one: a
/// poisoned lock is recovered rather than propagated.
#[derive(Debug)]
struct EpochCell {
    current: RwLock<Arc<NetworkEpoch>>,
    swaps: AtomicU64,
}

impl EpochCell {
    fn new(epoch: Arc<NetworkEpoch>) -> EpochCell {
        EpochCell {
            current: RwLock::new(epoch),
            swaps: AtomicU64::new(0),
        }
    }

    /// The currently-published epoch. In-flight holders of a previous
    /// epoch keep it alive through their `Arc` until they finish.
    fn load(&self) -> Arc<NetworkEpoch> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `layers` as the next epoch and returns its number.
    fn swap(&self, layers: Vec<Arc<LayerState>>) -> u64 {
        let mut guard = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let next = guard.epoch + 1;
        *guard = Arc::new(NetworkEpoch {
            epoch: next,
            layers,
        });
        self.swaps.fetch_add(1, Ordering::Relaxed);
        next
    }

    /// Publishes a next epoch that replaces only the listed weight
    /// layers, carrying every other layer over from the epoch current
    /// *at publish time*. The read-modify-write runs under the write
    /// lock, so a concurrent full swap is never silently clobbered on
    /// layers this update does not touch.
    fn swap_layers(&self, updates: Vec<(usize, Arc<LayerState>)>) -> u64 {
        let mut guard = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let mut layers = guard.layers.clone();
        for (index, state) in updates {
            layers[index] = state;
        }
        let next = guard.epoch + 1;
        *guard = Arc::new(NetworkEpoch {
            epoch: next,
            layers,
        });
        self.swaps.fetch_add(1, Ordering::Relaxed);
        next
    }

    fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

/// Output `(height, width)` of a `kernel × kernel` convolution with
/// `padding` over an `h × w` input.
///
/// # Errors
///
/// Returns [`ResipeError::DimensionMismatch`] (expected: the kernel
/// size, got: the smaller padded input side) when the padded input is
/// smaller than the kernel, so no output pixel exists.
fn conv_output_hw(
    h: usize,
    w: usize,
    kernel: usize,
    padding: usize,
) -> Result<(usize, usize), ResipeError> {
    let (padded_h, padded_w) = (h + 2 * padding, w + 2 * padding);
    if padded_h < kernel || padded_w < kernel {
        return Err(ResipeError::DimensionMismatch {
            expected: kernel,
            got: padded_h.min(padded_w),
        });
    }
    Ok((padded_h + 1 - kernel, padded_w + 1 - kernel))
}

/// Appends the receptive field of output pixel `(oi, oj)` to `dst` in
/// im2col row order `(ch, ki, kj)` — the planned path's replacement for
/// building an im2col tensor. `held` is one sample's `[C, H, W]`
/// held wordline voltages, already encoded; window positions in the
/// zero padding take the padding's voltage `pad`.
fn gather_window(
    dst: &mut Vec<f64>,
    held: &[f64],
    (c, h, w): (usize, usize, usize),
    k: usize,
    padding: usize,
    (oi, oj): (usize, usize),
    pad: f64,
) {
    // Window columns `lead..end` fall inside the input; the rest pad.
    let lead = padding.saturating_sub(oj).min(k);
    let end = (w + padding).saturating_sub(oj).min(k).max(lead);
    for ch in 0..c {
        for ki in 0..k {
            let ii = oi + ki;
            if ii < padding || ii - padding >= h {
                dst.extend(std::iter::repeat_n(pad, k));
                continue;
            }
            dst.extend(std::iter::repeat_n(pad, lead));
            if end > lead {
                let row = (ch * h + ii - padding) * w;
                dst.extend_from_slice(&held[row + oj + lead - padding..row + oj + end - padding]);
            }
            dst.extend(std::iter::repeat_n(pad, k - end));
        }
    }
}

/// Options for [`HardwareNetwork::run`]: the planned path by default,
/// with an optional pinned sample-block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RunOptions {
    /// Run the per-sample reference instead of the planned path.
    reference: bool,
    /// Window-block size of the planned path's cache-blocked kernel.
    /// `None` derives it per layer from the tile cache footprint
    /// ([`BatchPlan::preferred_block`]) and the pool width. Block size
    /// never changes output bits — only how windows are grouped per
    /// tile pass.
    block: Option<usize>,
}

impl RunOptions {
    /// The planned path: sample-independent constants are hoisted once
    /// per layer ([`BatchPlan`]), windows run through the cache-blocked
    /// kernel, and blocks of samples fan out across the rayon pool.
    pub fn planned() -> RunOptions {
        RunOptions::default()
    }

    /// The reference, for checks: every window replays the full per-MVM
    /// operation sequence through [`MappedWeights::forward`] over
    /// `im2col`'s windows. The planned path is bit-identical to it.
    pub fn per_sample() -> RunOptions {
        RunOptions {
            reference: true,
            block: None,
        }
    }

    /// Pins the planned path's window-block size (clamped to ≥ 1).
    pub fn with_block_size(mut self, block: usize) -> RunOptions {
        self.block = Some(block.max(1));
        self
    }
}

/// Outputs of one [`HardwareNetwork::run`] call, together with the
/// telemetry accumulated so far on the network's handle.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The network outputs (same value as the legacy `forward` APIs).
    pub outputs: Tensor,
    /// Snapshot of the network's [`Telemetry`] sink taken after the run
    /// (the empty default snapshot when telemetry is disabled).
    pub telemetry: TelemetrySnapshot,
}

/// A trained network compiled onto the simulated ReSiPE hardware.
#[derive(Debug)]
pub struct HardwareNetwork {
    engine: ResipeEngine,
    layers: Vec<HwLayer>,
    name: String,
    /// Physical crossbar MVMs issued since construction (or the last
    /// [`HardwareNetwork::reset_mvm_count`]) — the basis of measured
    /// energy reports. Atomic so parallel batched forwards count
    /// correctly.
    mvm_count: AtomicU64,
    /// Per-tile health collected by the repair ladder at compile time
    /// (empty when no repair policy was set).
    health: HealthReport,
    /// Recorder every compile and run reports into. Disabled (a no-op
    /// handle) unless set via [`HardwareNetwork::compile_with_telemetry`]
    /// or [`HardwareNetwork::set_telemetry`].
    telemetry: Telemetry,
    /// The epoch-versioned crossbar state every request executes
    /// against. Repair and aging publish new epochs here via an atomic
    /// swap; requests load the cell once at entry (see
    /// [`NetworkEpoch`]).
    weights: EpochCell,
    /// Recycled kernel scratch buffers — workers take one per chunk and
    /// return it, so steady-state inference allocates only its outputs.
    scratch_pool: Mutex<Vec<BatchScratch>>,
}

impl Clone for HardwareNetwork {
    fn clone(&self) -> HardwareNetwork {
        HardwareNetwork {
            engine: self.engine,
            layers: self.layers.clone(),
            name: self.name.clone(),
            // The MVM counter is a measurement artifact of *this*
            // instance, not part of the compiled network — clones start
            // counting from zero.
            mvm_count: AtomicU64::new(0),
            health: self.health.clone(),
            // The telemetry handle is a reference to an *external*
            // recorder, not per-instance state — clones keep reporting
            // into the same sink.
            telemetry: self.telemetry.clone(),
            // A clone snapshots the epoch published *now* into its own
            // cell: later swaps on the original never reach the clone
            // (and vice versa), which is exactly what a frozen reference
            // copy needs. The immutable `LayerState`s (and their built
            // plans) are shared by `Arc`.
            weights: EpochCell::new(self.weights.load()),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }
}

impl HardwareNetwork {
    /// Compiles a trained network.
    ///
    /// `calibration` is a representative input batch (e.g. a slice of the
    /// training set) used to fix per-layer activation scales via the
    /// ideal network.
    ///
    /// # Examples
    ///
    /// The full train → compile → evaluate flow on the synthetic digit
    /// task (the `quickstart` binary in miniature):
    ///
    /// ```
    /// use resipe::prelude::*;
    /// use resipe_nn::data::synth_digits;
    /// use resipe_nn::models;
    /// use resipe_nn::train::{Sgd, TrainConfig};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // Train a small MLP in software.
    /// let train = synth_digits(200, 1)?;
    /// let test = synth_digits(60, 2)?;
    /// let mut net = models::mlp1(7)?;
    /// Sgd::new(TrainConfig::new(4).with_learning_rate(0.1)).fit(&mut net, &train)?;
    ///
    /// // Compile it onto the simulated ReSiPE hardware, calibrating the
    /// // spike-encoding range on a slice of the training set.
    /// let (calibration, _) = train.batch(&(0..32).collect::<Vec<_>>())?;
    /// let hw = HardwareNetwork::compile(&net, &calibration, &CompileOptions::paper())?;
    ///
    /// // Evaluate on the engine's exact circuit physics.
    /// let accuracy = hw.accuracy(&test)?;
    /// assert!(accuracy > 0.5, "hardware accuracy {accuracy}");
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::InvalidOptions`] when
    /// [`CompileOptions::validate`] rejects the request,
    /// [`ResipeError::UnsupportedLayer`] for layer kinds the mapper
    /// cannot lower, or propagated substrate errors.
    pub fn compile(
        net: &Network,
        calibration: &Tensor,
        options: &CompileOptions,
    ) -> Result<HardwareNetwork, ResipeError> {
        HardwareNetwork::compile_with_telemetry(net, calibration, options, Telemetry::disabled())
    }

    /// [`HardwareNetwork::compile`] with a telemetry recorder: the
    /// compile records `compile → layer → tile → (program/repair)`
    /// spans and repair counters into `telemetry`, and the returned
    /// network keeps the handle, so subsequent runs report into the
    /// same sink. Telemetry never changes a compiled bit — recording is
    /// observation only (see [`crate::telemetry`]).
    ///
    /// # Errors
    ///
    /// See [`HardwareNetwork::compile`].
    pub fn compile_with_telemetry(
        net: &Network,
        calibration: &Tensor,
        options: &CompileOptions,
        telemetry: Telemetry,
    ) -> Result<HardwareNetwork, ResipeError> {
        options.validate()?;
        let _compile_span = telemetry.span("compile");
        let engine = ResipeEngine::try_new(options.config)?;
        // Every weight layer gets its own substream of the compile seed;
        // within a layer, every stage and tile substream again. No
        // stochastic draw depends on visit order.
        let base_seed = options.seed ^ 0x4e5e_11a7_0000_0001;

        // Pass the calibration batch through an ideal copy, recording the
        // max-abs input to each weight layer.
        let mut ideal = net.clone();
        let mut scales = Vec::new();
        {
            let mut x = calibration.clone();
            for layer in ideal.layers_mut() {
                if layer.has_weights() {
                    scales.push(f64::from(x.max_abs()).max(f64::MIN_POSITIVE));
                }
                x = layer.forward(&x)?;
            }
        }

        let mut layers = Vec::with_capacity(net.len());
        let mut weight_states: Vec<Arc<LayerState>> = Vec::new();
        let mut scale_iter = scales.into_iter();
        let mut weight_layer_index = 0usize;
        let mut health = HealthReport::default();
        for layer in net.layers() {
            // Every weight layer lowers as `[fan_in, out]` f64 weights:
            // a dense matrix is already `[in, out]`; a conv kernel matrix
            // is `[out_ch, fan_in]` and the crossbar wants inputs on
            // rows, so it is transposed.
            let (weights, rows, cols, bias, window) = match layer {
                Layer::Dense(d) => {
                    let w = d.weights();
                    let weights: Vec<f64> = w.data().iter().map(|&v| v as f64).collect();
                    (weights, w.shape()[0], w.shape()[1], d.bias(), None)
                }
                Layer::Conv2d(c) => {
                    let w = c.weights();
                    let (out_ch, fan_in) = (w.shape()[0], w.shape()[1]);
                    let mut weights = vec![0.0f64; fan_in * out_ch];
                    for oc in 0..out_ch {
                        for k in 0..fan_in {
                            weights[k * out_ch + oc] = w.get(&[oc, k]) as f64;
                        }
                    }
                    let window = Some((c.kernel_size(), c.padding()));
                    (weights, fan_in, out_ch, c.bias(), window)
                }
                Layer::Relu(_) => {
                    layers.push(HwLayer::Relu);
                    continue;
                }
                Layer::MaxPool2d(p) => {
                    layers.push(HwLayer::MaxPool(p.size()));
                    continue;
                }
                Layer::AvgPool2d(p) => {
                    layers.push(HwLayer::AvgPool(p.size()));
                    continue;
                }
                Layer::Flatten(_) => {
                    layers.push(HwLayer::Flatten);
                    continue;
                }
            };
            let _layer_span = telemetry.span_with(|| format!("compile/layer{weight_layer_index}"));
            let mapped = options.mapper.map(&weights, rows, cols)?;
            let mapped = lower_mapped(
                &engine,
                mapped,
                options,
                weight_layer_index,
                seeds::substream(base_seed, weight_layer_index as u64),
                &mut health,
                &telemetry,
            )?;
            let encoding = options.encoding.encoding_for(weight_layer_index);
            weight_layer_index += 1;
            weight_states.push(Arc::new(LayerState::new(mapped, encoding)));
            layers.push(HwLayer::Crossbar(Crossbar {
                weights: weight_states.len() - 1,
                bias: bias.data().iter().map(|&v| v as f64).collect(),
                input_scale: scale_iter.next().expect("one scale per weight layer"),
                window,
            }));
        }
        drop(_compile_span);
        Ok(HardwareNetwork {
            engine,
            layers,
            name: net.name().to_owned(),
            mvm_count: AtomicU64::new(0),
            health,
            telemetry,
            weights: EpochCell::new(Arc::new(NetworkEpoch {
                epoch: 0,
                layers: weight_states,
            })),
            scratch_pool: Mutex::new(Vec::new()),
        })
    }

    /// The telemetry handle this network reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Replaces the telemetry handle (e.g. to start recording on a
    /// network compiled without one). Recording never changes outputs.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The compiled network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-tile health collected by the repair ladder at compile time.
    /// Empty unless [`CompileOptions::with_repair`] was set.
    pub fn health_report(&self) -> &HealthReport {
        &self.health
    }

    /// Classification accuracy together with the tile health report —
    /// the graceful-degradation interface: a damaged part still answers,
    /// and the caller can see how damaged it is.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn accuracy_with_health(
        &self,
        data: &Dataset,
    ) -> Result<(f32, &HealthReport), ResipeError> {
        Ok((self.accuracy(data)?, &self.health))
    }

    /// Total physical crossbar MVMs issued per single-sample forward pass
    /// through the dense layers (convolutions add one per output pixel per
    /// tile pair).
    pub fn dense_mvms_per_sample(&self) -> usize {
        let epoch = self.weights.load();
        self.layers
            .iter()
            .map(|l| match l {
                HwLayer::Crossbar(c) if c.window.is_none() => {
                    epoch.layers[c.weights].mapped.mvms_per_forward()
                }
                _ => 0,
            })
            .sum()
    }

    /// Number of weight-bearing layers mapped onto crossbars.
    pub fn crossbar_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l, HwLayer::Crossbar(_)))
            .count()
    }

    /// The unified inference entry point: one forward pass of `input`
    /// under `options`, returning the outputs together with a telemetry
    /// snapshot.
    ///
    /// The planned path ([`RunOptions::planned`], the default) and the
    /// reference ([`RunOptions::per_sample`]) produce **bit-identical**
    /// outputs — the planned path replays the exact per-window
    /// floating-point operation sequence (see [`crate::batch`]) — and
    /// enabling telemetry never changes a bit either, so `run` subsumes
    /// the legacy [`HardwareNetwork::forward`] /
    /// [`HardwareNetwork::forward_batch`] pair (both delegate here).
    ///
    /// When telemetry is enabled the run records the
    /// `forward → layer → {s1_encode, crossbar, s2_decode}` span
    /// hierarchy; stage-level timing, histograms and skip/reject
    /// counters come from the planned path (the reference records layer
    /// spans and MVM counts only).
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] for an input shape a
    /// crossbar layer cannot read, and [`ResipeError::SpikeOutOfSlice`]
    /// for a NaN activation, which no spike time can encode.
    pub fn run(&self, input: &Tensor, options: &RunOptions) -> Result<RunResult, ResipeError> {
        // Load the published epoch exactly once: every layer of this
        // request executes against the same immutable snapshot, so a
        // concurrent repair swap can never hand a request a torn mix of
        // pre- and post-repair crossbars.
        let epoch = self.weights.load();
        let outputs = {
            let _forward_span = self.telemetry.span("forward");
            let mut x = input.clone();
            for (li, layer) in self.layers.iter().enumerate() {
                let _layer_span = self.telemetry.span_with(|| format!("forward/layer{li}"));
                x = match layer {
                    HwLayer::Crossbar(layer) => {
                        let state = &epoch.layers[layer.weights];
                        let g = Geometry::parse(layer.window, x.shape(), state.mapped.rows())?;
                        let probe = self.layer_probe(li);
                        let out = if options.reference {
                            self.crossbar_reference(layer, state, g, probe, &x)?
                        } else {
                            self.crossbar_planned(layer, state, g, probe, &x, options.block)?
                        };
                        self.mvm_count.fetch_add(
                            (g.n * g.n_pix * state.mapped.mvms_per_forward()) as u64,
                            Ordering::Relaxed,
                        );
                        out
                    }
                    // Digital layers run the same code in both modes.
                    HwLayer::Relu => x.map(|v| v.max(0.0)),
                    HwLayer::MaxPool(size) => resipe_nn::layers::max_pool2d(&x, *size)?,
                    HwLayer::AvgPool(size) => resipe_nn::layers::avg_pool2d(&x, *size)?,
                    HwLayer::Flatten => resipe_nn::layers::Flatten::new().forward(&x)?,
                };
            }
            x
        };
        Ok(RunResult {
            outputs,
            telemetry: self.telemetry.snapshot(),
        })
    }

    /// Forward pass of a batch through the hardware on the reference —
    /// a thin wrapper over [`HardwareNetwork::run`] with
    /// [`RunOptions::per_sample`].
    ///
    /// # Errors
    ///
    /// See [`HardwareNetwork::run`].
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, ResipeError> {
        Ok(self.run(input, &RunOptions::per_sample())?.outputs)
    }

    /// Data-parallel batched forward pass — a thin wrapper over
    /// [`HardwareNetwork::run`] with [`RunOptions::planned`].
    ///
    /// Produces **bit-identical** outputs to [`HardwareNetwork::forward`]
    /// for any thread count: the per-window floating-point operation
    /// sequence is preserved exactly; the batch only amortizes the
    /// sample-independent per-column work (crossbar column sums, charge
    /// factors and decode constants are computed once per layer instead
    /// of once per window) and fans blocks of samples out across the
    /// rayon pool. The MVM counter advances by the same total as the
    /// reference.
    ///
    /// # Errors
    ///
    /// See [`HardwareNetwork::run`].
    pub fn forward_batch(&self, input: &Tensor) -> Result<Tensor, ResipeError> {
        Ok(self.run(input, &RunOptions::planned())?.outputs)
    }

    /// The currently-published epoch number: 0 at compile, +1 for every
    /// repair or aging publish since.
    pub fn epoch(&self) -> u64 {
        self.weights.load().epoch
    }

    /// How many epoch swaps (plan republishes) this instance has
    /// performed — the hot-repair counter surfaced by serving stats.
    pub fn plan_swaps(&self) -> u64 {
        self.weights.swaps()
    }

    /// The currently-published epoch snapshot (for the scrubber, which
    /// BISTs and clones layer states off the hot path).
    pub(crate) fn current_epoch(&self) -> Arc<NetworkEpoch> {
        self.weights.load()
    }

    /// Atomically publishes `layers` as the next epoch. In-flight
    /// requests finish on the epoch they loaded; new requests see the
    /// published one. Returns the new epoch number.
    pub(crate) fn publish_epoch(&self, layers: Vec<Arc<LayerState>>) -> u64 {
        let next = self.weights.swap(layers);
        self.telemetry.add(Counter::PlanSwaps, 1);
        next
    }

    /// Atomically publishes a next epoch replacing only the listed
    /// weight layers (the scrubber's interface: untouched layers keep
    /// their `LayerState` Arcs and built plans). Returns the new epoch
    /// number.
    pub(crate) fn publish_layer_updates(&self, updates: Vec<(usize, Arc<LayerState>)>) -> u64 {
        let next = self.weights.swap_layers(updates);
        self.telemetry.add(Counter::PlanSwaps, 1);
        next
    }

    /// The engine this network was compiled for (scrubber BIST runs
    /// against the same circuit configuration the compile used).
    pub(crate) fn engine(&self) -> &ResipeEngine {
        &self.engine
    }

    /// Applies one [`AgingStep`] of live-traffic wear to every crossbar
    /// layer and publishes the aged state as a new epoch.
    ///
    /// Each weight layer ages under its own substream of the step
    /// (`step.substream(layer)`), so identically-shaped layers do not
    /// wear identical cells. The aged `LayerState`s are built off the
    /// hot path and swapped in atomically — in-flight requests are
    /// never exposed to a half-aged network.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (shape mismatches cannot occur for
    /// states cloned from the published epoch, but the drift model can
    /// reject invalid elapsed times).
    pub fn age(&self, step: &AgingStep) -> Result<(), ResipeError> {
        let epoch = self.weights.load();
        let mut aged = Vec::with_capacity(epoch.layers.len());
        for (li, state) in epoch.layers.iter().enumerate() {
            let sub = step.substream(li as u64);
            let mut mapped = state.mapped.clone();
            mapped.age(&sub)?;
            aged.push(Arc::new(LayerState::new(mapped, state.encoding())));
        }
        self.publish_epoch(aged);
        Ok(())
    }

    /// Borrows a recycled kernel scratch buffer (or a fresh one).
    fn take_scratch(&self) -> BatchScratch {
        self.scratch_pool().pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool for the next chunk.
    fn put_scratch(&self, scratch: BatchScratch) {
        let mut pool = self.scratch_pool();
        if pool.len() < 64 {
            pool.push(scratch);
        }
    }

    /// Locks the scratch pool, recovering it if a panicking holder
    /// poisoned the lock: the pool only holds reusable buffers whose
    /// contents every user overwrites, so its state is always
    /// consistent.
    fn scratch_pool(&self) -> std::sync::MutexGuard<'_, Vec<BatchScratch>> {
        self.scratch_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The planned path of one crossbar layer. A work item is one
    /// `(sample, pixel)` window. Each rayon task takes whole samples,
    /// encodes them once into pooled scratch and walks its items in
    /// blocks of `block` through [`BatchPlan::forward_held`], gathering
    /// each window from the held voltages — or, when the window is the
    /// whole sample (every dense layer), feeding them straight in.
    fn crossbar_planned(
        &self,
        layer: &Crossbar,
        state: &LayerState,
        g: Geometry,
        probe: Option<LayerProbe>,
        x: &Tensor,
        block: Option<usize>,
    ) -> Result<Tensor, ResipeError> {
        use rayon::prelude::*;
        // The reference rejects a NaN activation in `MappedWeights::forward`;
        // the clamp below would pass it through to NaN outputs. The scan
        // is branch-free so it vectorizes (an early-exit `any` is ~5×
        // slower on a 784-wide sample).
        if x.data().iter().fold(false, |nan, v| nan | v.is_nan()) {
            return Err(ResipeError::SpikeOutOfSlice {
                time: f64::NAN,
                slice: self.engine.config().slice().0,
            });
        }
        let plan = state.plan(&self.engine);
        let (rows, cols, input_scale) = (plan.rows(), plan.cols(), layer.input_scale);
        let (n, n_pix, (c, h, w)) = (g.n, g.n_pix, g.chw);
        let sample_len = c * h * w;
        // The one window is the whole sample (every dense layer): its
        // im2col column is the sample itself, in order.
        let whole = g.p == 0 && g.k == h && g.k == w;
        // The block is both the kernel's cache-residency unit and the
        // parallel grain: auto-sizing caps it at the layer's cache-derived
        // preference but never leaves workers idle on small batches. A
        // task packs as many whole samples as fit one block, so a layer
        // with fewer windows per sample than a block still streams its
        // tiles once per block, not once per sample.
        let threads = rayon::current_num_threads().max(1);
        let block = block
            .unwrap_or_else(|| plan.preferred_block().min((n * n_pix).div_ceil(threads)))
            .max(1);
        let per_task = (block / n_pix).max(1);
        // The held voltage of the activation the reference derives from
        // im2col's zero fill, so padded window positions match it bit
        // for bit.
        let mut pad = Vec::with_capacity(1);
        plan.encode_into(
            [(0.0f32 as f64 / input_scale).clamp(0.0, 1.0)],
            &mut pad,
            None,
        );
        let pad = pad[0];
        let w_out = g.out_hw.1;
        let starts: Vec<usize> = (0..n).step_by(per_task).collect();
        let chunks: Vec<Result<Vec<f64>, ResipeError>> = starts
            .par_iter()
            .map(|&first| {
                let samples = per_task.min(n - first);
                let items = samples * n_pix;
                let mut scratch = self.take_scratch();
                let mut a_block = std::mem::take(&mut scratch.a_block);
                // Normalize and encode the task's samples once; windows
                // copy held voltages from here instead of encoding each
                // of an input's k² appearances.
                let mut held = std::mem::take(&mut scratch.a_task);
                held.clear();
                plan.encode_into(
                    x.data()[first * sample_len..(first + samples) * sample_len]
                        .iter()
                        .map(|&v| (v as f64 / input_scale).clamp(0.0, 1.0)),
                    &mut held,
                    probe.as_ref(),
                );
                let mut ys = vec![0.0f64; items * cols];
                let mut result = Ok(());
                for start in (0..items).step_by(block) {
                    let bl = block.min(items - start);
                    let voltages = if whole {
                        &held[start * rows..(start + bl) * rows]
                    } else {
                        a_block.clear();
                        a_block.reserve(bl * rows);
                        let (mut s, mut pix) = (start / n_pix, start % n_pix);
                        for _ in 0..bl {
                            gather_window(
                                &mut a_block,
                                &held[s * sample_len..(s + 1) * sample_len],
                                (c, h, w),
                                g.k,
                                g.p,
                                (pix / w_out, pix % w_out),
                                pad,
                            );
                            pix += 1;
                            if pix == n_pix {
                                (s, pix) = (s + 1, 0);
                            }
                        }
                        &a_block[..]
                    };
                    result = plan.forward_held(
                        voltages,
                        bl,
                        &mut ys[start * cols..(start + bl) * cols],
                        &mut scratch,
                        probe.as_ref(),
                    );
                    if result.is_err() {
                        break;
                    }
                }
                scratch.a_block = a_block;
                scratch.a_task = held;
                self.put_scratch(scratch);
                result.map(|()| ys)
            })
            .collect();
        // NCHW: output channel `oc` of a sample's pixel `pix` sits at
        // `oc · n_pix + pix` within the sample, which at `n_pix = 1` is
        // the row-major `[n, cols]` of a dense layer.
        let mut out = Tensor::zeros(&g.out_shape(cols));
        let mut out_samples = out.data_mut().chunks_exact_mut(cols * n_pix);
        for chunk in chunks {
            // The chunk's samples lead the zip, so it stops without
            // consuming an output sample of the next chunk.
            for (ys, dst) in chunk?.chunks_exact(cols * n_pix).zip(&mut out_samples) {
                for (pix, y) in ys.chunks_exact(cols).enumerate() {
                    for (oc, (&yc, &bc)) in y.iter().zip(&layer.bias).enumerate() {
                        dst[oc * n_pix + pix] = (yc * input_scale + bc) as f32;
                    }
                }
            }
        }
        Ok(out)
    }

    /// The reference of one crossbar layer: each sample is lowered by
    /// `im2col` (a dense input viewed as `[n, rows, 1, 1]`) and every
    /// window runs through [`MappedWeights::forward`].
    fn crossbar_reference(
        &self,
        layer: &Crossbar,
        state: &LayerState,
        g: Geometry,
        probe: Option<LayerProbe>,
        x: &Tensor,
    ) -> Result<Tensor, ResipeError> {
        let mapped = &state.mapped;
        let (rows, cols, n_pix) = (mapped.rows(), mapped.cols(), g.n_pix);
        let input_scale = layer.input_scale;
        let image = if g.dense {
            Cow::Owned(x.reshape(&[g.n, rows, 1, 1])?)
        } else {
            Cow::Borrowed(x)
        };
        let mut out = Tensor::zeros(&g.out_shape(cols));
        for b in 0..g.n {
            let windows = im2col(&image, b, g.k, g.p)?;
            for pix in 0..n_pix {
                let a: Vec<f64> = (0..rows)
                    .map(|r| (windows.get(&[r, pix]) as f64 / input_scale).clamp(0.0, 1.0))
                    .collect();
                let y = mapped.forward(&self.engine, &a, state.encoding())?;
                if let Some(p) = &probe {
                    p.record_mvms(mapped.mvms_per_forward() as u64);
                }
                for (oc, (&yc, &bc)) in y.iter().zip(&layer.bias).enumerate() {
                    out.data_mut()[(b * cols + oc) * n_pix + pix] = (yc * input_scale + bc) as f32;
                }
            }
        }
        Ok(out)
    }

    /// A telemetry probe for network layer `li`, normalizing histograms
    /// by this engine's slice and supply voltage. `None` when disabled.
    fn layer_probe(&self, li: usize) -> Option<LayerProbe> {
        self.telemetry.layer_probe(li, self.engine.config())
    }

    /// Physical crossbar MVMs issued since construction or the last
    /// [`HardwareNetwork::reset_mvm_count`].
    pub fn mvm_count(&self) -> u64 {
        self.mvm_count.load(Ordering::Relaxed)
    }

    /// Resets the MVM counter (e.g. before measuring one batch).
    pub fn reset_mvm_count(&self) {
        self.mvm_count.store(0, Ordering::Relaxed);
    }

    /// Argmax predictions over a dataset, run on the planned path
    /// (bit-identical to [`HardwareNetwork::forward`], which stays the
    /// per-sample reference).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predictions(&self, data: &Dataset) -> Result<Vec<usize>, ResipeError> {
        const EVAL_BATCH: usize = 16;
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut preds = Vec::with_capacity(data.len());
        for chunk in indices.chunks(EVAL_BATCH) {
            let (x, _) = data.batch(chunk)?;
            let logits = self.run(&x, &RunOptions::planned())?.outputs;
            preds.extend(logits.argmax_rows());
        }
        Ok(preds)
    }

    /// Classification accuracy over a dataset.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn accuracy(&self, data: &Dataset) -> Result<f32, ResipeError> {
        let preds = self.predictions(data)?;
        Ok(resipe_nn::metrics::accuracy_of(&preds, data.labels())?)
    }
}

/// Convenience for the Fig. 7 experiment: ideal vs. hardware accuracy of
/// one trained network under one variation setting.
///
/// Returns `(ideal_accuracy, hardware_accuracy)`.
///
/// # Errors
///
/// Propagates compile or evaluation errors.
pub fn accuracy_under_variation(
    net: &Network,
    test: &Dataset,
    calibration: &Tensor,
    options: &CompileOptions,
) -> Result<(f32, f32), ResipeError> {
    let mut ideal = net.clone();
    let ideal_acc = resipe_nn::metrics::accuracy(&mut ideal, test)?;
    let hw = HardwareNetwork::compile(net, calibration, options)?;
    let hw_acc = hw.accuracy(test)?;
    Ok((ideal_acc, hw_acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use resipe_nn::data::synth_digits;
    use resipe_nn::models;
    use resipe_nn::train::{Sgd, TrainConfig};

    fn trained_mlp() -> (Network, Dataset, Dataset) {
        let train = synth_digits(200, 1).unwrap();
        let test = synth_digits(60, 2).unwrap();
        let mut net = models::mlp1(7).unwrap();
        Sgd::new(TrainConfig::new(4).with_learning_rate(0.1))
            .fit(&mut net, &train)
            .unwrap();
        (net, train, test)
    }

    #[test]
    fn compiled_mlp_retains_most_accuracy() {
        let (net, train, test) = trained_mlp();
        let (calib, _) = train.batch(&(0..32).collect::<Vec<_>>()).unwrap();
        let opts = CompileOptions::paper();
        let (ideal, hw) = accuracy_under_variation(&net, &test, &calib, &opts).unwrap();
        assert!(ideal > 0.5, "ideal accuracy {ideal}");
        // σ = 0: only the circuit non-linearity; the paper reports < 2.5 %
        // drop. Allow a modest margin for the small synthetic test set.
        assert!(
            hw >= ideal - 0.10,
            "hardware accuracy {hw} vs ideal {ideal}"
        );
    }

    #[test]
    fn variation_degrades_accuracy_on_average() {
        let (net, train, test) = trained_mlp();
        let (calib, _) = train.batch(&(0..32).collect::<Vec<_>>()).unwrap();
        let clean = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper())
            .unwrap()
            .accuracy(&test)
            .unwrap();
        // Average a few seeds at a heavy 30 % sigma.
        let model = VariationModel::device_to_device(0.30).unwrap();
        let mut sum = 0.0;
        for seed in 0..3 {
            let opts = CompileOptions::paper()
                .with_variation(model)
                .with_seed(seed);
            let hw = HardwareNetwork::compile(&net, &calib, &opts).unwrap();
            sum += hw.accuracy(&test).unwrap();
        }
        let noisy = sum / 3.0;
        assert!(
            noisy <= clean + 0.02,
            "noisy accuracy {noisy} vs clean {clean}"
        );
    }

    #[test]
    fn conv_network_compiles_and_runs() {
        // A small conv net end-to-end on hardware.
        let train = synth_digits(60, 3).unwrap();
        let mut net = models::lenet(11).unwrap();
        Sgd::new(TrainConfig::new(1).with_learning_rate(0.05))
            .fit(&mut net, &train)
            .unwrap();
        let (calib, _) = train.batch(&[0, 1, 2, 3]).unwrap();
        let hw = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).unwrap();
        assert_eq!(hw.crossbar_layer_count(), 5);
        let (x, _) = train.batch(&[0, 1]).unwrap();
        let y = hw.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        // Evaluation runs the planned path; its argmax must match the
        // per-sample reference across more than one evaluation chunk.
        let (head, _) = train.split_at(20).unwrap();
        let (x, _) = head.full_batch().unwrap();
        assert_eq!(
            hw.predictions(&head).unwrap(),
            hw.forward(&x).unwrap().argmax_rows()
        );
    }

    /// A dense layer and a 3×3 conv layer compiled as one-layer nets.
    fn dense_and_conv() -> (HardwareNetwork, HardwareNetwork, Tensor, Tensor) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut conv = Network::new("conv3x3");
        conv.push(resipe_nn::layers::Conv2d::new(1, 2, 3, 0, &mut rng));
        let conv_calib =
            Tensor::from_vec((0..4 * 9).map(|i| i as f32 / 36.0).collect(), &[4, 1, 3, 3]).unwrap();
        let conv = HardwareNetwork::compile(&conv, &conv_calib, &CompileOptions::paper()).unwrap();
        let mut dense = Network::new("dense6");
        dense.push(resipe_nn::layers::Dense::new(6, 3, &mut rng));
        let dense_calib =
            Tensor::from_vec((0..2 * 6).map(|i| i as f32 / 12.0).collect(), &[2, 6]).unwrap();
        let dense =
            HardwareNetwork::compile(&dense, &dense_calib, &CompileOptions::paper()).unwrap();
        (dense, conv, dense_calib, conv_calib)
    }

    /// Inputs a crossbar layer cannot read — the wrong rank for its
    /// kind, the wrong fan-in, or an image smaller than the (padded)
    /// kernel, which has no output pixel — are rejected with the same
    /// `DimensionMismatch` in both modes instead of panicking (on an
    /// empty output tensor, a `usize` underflow or a short window).
    #[test]
    fn bad_input_shapes_are_rejected() {
        let (dense, conv, _, conv_calib) = dense_and_conv();
        let cases: [(&HardwareNetwork, &[usize], usize, usize); 6] = [
            // The conv image is smaller than the kernel: 2×2 and 1×1.
            (&conv, &[1, 1, 2, 2], 3, 2),
            (&conv, &[1, 1, 1, 1], 3, 1),
            // A rank-4 image into a dense layer, a wrong width.
            (&dense, &[2, 6, 1, 1], 6, 1),
            (&dense, &[2, 5], 6, 5),
            // A rank-2 batch into a conv layer, a wrong channel count.
            (&conv, &[2, 9], 4, 2),
            (&conv, &[2, 2, 3, 3], 9, 18),
        ];
        for (hw, shape, want_expected, want_got) in cases {
            let x = Tensor::full(shape, 0.5);
            for options in [RunOptions::planned(), RunOptions::per_sample()] {
                let err = hw.run(&x, &options).unwrap_err();
                assert!(
                    matches!(
                        err,
                        ResipeError::DimensionMismatch { expected, got }
                            if (expected, got) == (want_expected, want_got)
                    ),
                    "{shape:?} input into {} under {options:?}: {err}",
                    hw.name()
                );
            }
        }
        // The smallest valid input still runs: one output pixel.
        let y = conv
            .run(&conv_calib, &RunOptions::planned())
            .unwrap()
            .outputs;
        assert_eq!(y.shape(), &[4, 2, 1, 1]);
    }

    /// A NaN activation has no spike time: both modes reject it with the
    /// reference's error, on a dense and on a conv layer, instead of the
    /// planned path returning NaN outputs.
    #[test]
    fn nan_input_is_rejected_in_both_modes() {
        let (dense, conv, dense_calib, conv_calib) = dense_and_conv();
        for (hw, mut x) in [(&dense, dense_calib), (&conv, conv_calib)] {
            let last = x.len() - 1;
            x.data_mut()[last] = f32::NAN;
            for options in [RunOptions::planned(), RunOptions::per_sample()] {
                let err = hw.run(&x, &options).unwrap_err();
                assert!(
                    matches!(
                        err,
                        ResipeError::SpikeOutOfSlice { time, slice }
                            if time.is_nan() && slice == hw.engine.config().slice().0
                    ),
                    "{} under {options:?}: {err}",
                    hw.name()
                );
            }
        }
    }

    #[test]
    fn hardware_logits_track_ideal_logits() {
        let (net, train, _) = trained_mlp();
        let (calib, _) = train.batch(&(0..16).collect::<Vec<_>>()).unwrap();
        let hw = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).unwrap();
        let (x, _) = train.batch(&[0, 5, 10]).unwrap();
        let mut ideal = net.clone();
        let y_ideal = ideal.forward(&x).unwrap();
        let y_hw = hw.forward(&x).unwrap();
        let scale = y_ideal.max_abs().max(1e-6);
        let mae = resipe_nn::metrics::mean_absolute_error(&y_ideal, &y_hw).unwrap();
        assert!(mae / scale < 0.25, "normalized logit error {}", mae / scale);
    }

    #[test]
    fn compile_is_deterministic_per_seed() {
        let (net, train, test) = trained_mlp();
        let (calib, _) = train.batch(&[0, 1, 2, 3]).unwrap();
        let model = VariationModel::device_to_device(0.10).unwrap();
        let acc = |seed| {
            let opts = CompileOptions::paper()
                .with_variation(model)
                .with_seed(seed);
            HardwareNetwork::compile(&net, &calib, &opts)
                .unwrap()
                .accuracy(&test)
                .unwrap()
        };
        assert_eq!(acc(5), acc(5));
    }

    #[test]
    fn mvm_counter_counts_and_resets() {
        let (net, train, _) = trained_mlp();
        let (calib, _) = train.batch(&[0, 1]).unwrap();
        let hw = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).unwrap();
        assert_eq!(hw.mvm_count(), 0);
        let (x, _) = train.batch(&[0, 1, 2]).unwrap();
        hw.forward(&x).unwrap();
        // MLP-1: 784 rows -> 25 tiles x 2 arrays = 50 MVMs per sample.
        assert_eq!(hw.mvm_count(), 3 * 50);
        hw.reset_mvm_count();
        assert_eq!(hw.mvm_count(), 0);
    }

    #[test]
    fn readout_nonidealities_change_outputs() {
        let (net, train, _) = trained_mlp();
        let (calib, _) = train.batch(&[0, 1, 2, 3]).unwrap();
        let (x, _) = train.batch(&[0, 1]).unwrap();
        let clean = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper())
            .unwrap()
            .forward(&x)
            .unwrap();
        let offset = HardwareNetwork::compile(
            &net,
            &calib,
            &CompileOptions::paper().with_comparator_sigma(0.02),
        )
        .unwrap()
        .forward(&x)
        .unwrap();
        assert_ne!(clean, offset, "comparator offsets must move the logits");
        let quantized = HardwareNetwork::compile(
            &net,
            &calib,
            &CompileOptions::paper().with_time_quantization(resipe_analog::units::Seconds(5e-9)),
        )
        .unwrap()
        .forward(&x)
        .unwrap();
        assert_ne!(clean, quantized, "coarse timing must move the logits");
    }

    #[test]
    fn fault_injection_reports_degradation_without_failing() {
        use crate::repair::TileStatus;
        let (net, train, test) = trained_mlp();
        let (calib, _) = train.batch(&(0..16).collect::<Vec<_>>()).unwrap();
        // 10 % stuck cells, detection only: the part must keep answering
        // and the damage must be visible in the health report.
        let opts = CompileOptions::paper()
            .with_faults(FaultInjection::clustered(0.10, 8, 42))
            .with_repair(crate::repair::RepairPolicy::detect_only());
        let hw = HardwareNetwork::compile(&net, &calib, &opts).unwrap();
        let (acc, health) = hw.accuracy_with_health(&test).unwrap();
        assert!(acc.is_finite() && (0.0..=1.0).contains(&acc));
        assert!(!health.tiles.is_empty());
        assert!(
            health
                .tiles
                .iter()
                .any(|t| t.status == TileStatus::Degraded),
            "10 % faults must leave degraded tiles"
        );
        assert_eq!(health.total_repair_pulses(), 0, "detect-only never writes");
    }

    #[test]
    fn repair_reduces_fault_damage() {
        let (net, train, test) = trained_mlp();
        let (calib, _) = train.batch(&(0..16).collect::<Vec<_>>()).unwrap();
        let mut degraded_no = 0usize;
        let mut degraded_rep = 0usize;
        let mut acc_no = 0.0f32;
        let mut acc_rep = 0.0f32;
        let mut energy = 0.0f64;
        for seed in [9, 10, 11] {
            let base = CompileOptions::paper()
                .with_mapper(TileMapper::paper().with_spare_cols(4))
                .with_faults(FaultInjection::clustered(0.01, 6, seed));
            let no_repair = HardwareNetwork::compile(
                &net,
                &calib,
                &base.with_repair(crate::repair::RepairPolicy::detect_only()),
            )
            .unwrap();
            let repaired = HardwareNetwork::compile(
                &net,
                &calib,
                &base.with_repair(crate::repair::RepairPolicy::full()),
            )
            .unwrap();
            degraded_no += no_repair.health_report().degraded_tiles();
            degraded_rep += repaired.health_report().degraded_tiles();
            energy += repaired.health_report().total_repair_energy().0;
            acc_no += no_repair.accuracy(&test).unwrap();
            acc_rep += repaired.accuracy(&test).unwrap();
        }
        assert!(degraded_no > 0, "1 % clustered faults must trip some tiles");
        assert!(
            degraded_rep < degraded_no,
            "full ladder must fix tiles: {degraded_rep} vs {degraded_no} degraded"
        );
        assert!(energy > 0.0, "repair must account its programming energy");
        // Averaged over seeds, the repaired part must not classify worse
        // (small test set → allow one sample of slack per seed).
        assert!(
            acc_rep >= acc_no - 0.05,
            "repair regressed accuracy: {acc_rep} vs {acc_no} (summed over 3 seeds)"
        );
    }

    #[test]
    fn retention_drift_is_applied_at_compile() {
        let (net, train, _) = trained_mlp();
        let (calib, _) = train.batch(&[0, 1, 2, 3]).unwrap();
        let (x, _) = train.batch(&[0, 1]).unwrap();
        let clean = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper())
            .unwrap()
            .forward(&x)
            .unwrap();
        let drift = RetentionDrift::new(Seconds(1e7)).unwrap();
        let opts = CompileOptions::paper()
            .with_faults(FaultInjection::clustered(0.0, 1, 0).with_drift(drift, Seconds(1e7)));
        let drifted = HardwareNetwork::compile(&net, &calib, &opts)
            .unwrap()
            .forward(&x)
            .unwrap();
        assert_ne!(clean, drifted, "a full τ of drift must move the logits");
    }

    /// A panic while the scratch pool is locked poisons it; later runs
    /// must recover the pool and still return the same bits.
    #[test]
    fn poisoned_scratch_pool_is_recovered() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut net = Network::new("conv-pool");
        net.push(resipe_nn::layers::Conv2d::new(1, 2, 3, 1, &mut rng));
        net.push(resipe_nn::layers::MaxPool2d::new(2));
        net.push(resipe_nn::layers::Flatten::new());
        net.push(resipe_nn::layers::Dense::new(18, 3, &mut rng));
        let x = Tensor::from_vec(
            (0..2 * 36).map(|i| (i as f32 * 0.37).sin().abs()).collect(),
            &[2, 1, 6, 6],
        )
        .unwrap();
        let hw = HardwareNetwork::compile(&net, &x, &CompileOptions::paper()).unwrap();
        let before = hw.run(&x, &RunOptions::planned()).unwrap().outputs;
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _pool = hw.scratch_pool.lock().unwrap();
                panic!("panic while holding the scratch pool");
            });
            assert!(holder.join().is_err());
        });
        assert!(hw.scratch_pool.is_poisoned());
        let after = hw.run(&x, &RunOptions::planned()).unwrap().outputs;
        assert_eq!(before.shape(), after.shape());
        for (a, b) in before.data().iter().zip(after.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(!hw.scratch_pool().is_empty(), "buffers still recycle");
    }

    /// A panic while the epoch cell's lock is held poisons it; later
    /// loads (`run`), full swaps (`age`) and per-layer swaps (the
    /// scrubber's publish) must recover the lock and keep publishing.
    #[test]
    fn poisoned_epoch_cell_is_recovered() {
        use resipe_reram::aging::{AgingClock, AgingConfig};
        let (net, train, _) = trained_mlp();
        let (x, _) = train.batch(&[0, 1]).unwrap();
        let hw = HardwareNetwork::compile(&net, &x, &CompileOptions::paper()).unwrap();
        let before = hw.run(&x, &RunOptions::planned()).unwrap().outputs;
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _epoch = hw.weights.current.write().unwrap();
                panic!("panic while holding the epoch cell");
            });
            assert!(holder.join().is_err());
        });
        assert!(hw.weights.current.is_poisoned());
        let after = hw.run(&x, &RunOptions::planned()).unwrap().outputs;
        for (a, b) in before.data().iter().zip(after.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let drift = RetentionDrift::new(Seconds(1e6)).unwrap();
        let mut clock = AgingClock::new(AgingConfig::new(Seconds(100.0), drift).unwrap());
        hw.age(&clock.advance(1000).unwrap()).unwrap();
        assert_eq!(hw.epoch(), 1);
        let layer = Arc::clone(&hw.current_epoch().layers[0]);
        assert_eq!(hw.publish_layer_updates(vec![(0, layer)]), 2);
        assert_eq!(hw.plan_swaps(), 2);
        hw.run(&x, &RunOptions::planned()).unwrap();
    }

    #[test]
    fn name_and_counters() {
        let (net, train, _) = trained_mlp();
        let (calib, _) = train.batch(&[0]).unwrap();
        let hw = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).unwrap();
        assert_eq!(hw.name(), "MLP-1");
        // 784 rows / 32 per tile = 25 tiles × 2 arrays.
        assert_eq!(hw.dense_mvms_per_sample(), 50);
    }
}
