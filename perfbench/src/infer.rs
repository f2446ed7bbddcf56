//! `infer_dense` and `infer_conv`: closed-loop offline inference on one
//! rayon thread.
//!
//! Each workload measures two phases, interleaved round by round so
//! slow drifts on the host land on both equally:
//!
//! | workload | phase `a` | phase `b` |
//! |---|---|---|
//! | `infer_dense` | MLP-2, one 256-sample `run()` | MLP-2, 128 one-sample `run()` calls |
//! | `infer_conv` | LeNet, one 64-sample `run()` | VGG16-S, one 8-sample `run()` |
//!
//! Every measured output is compared bit for bit with the reference
//! output computed before measurement; a mismatching sample is a failure.

use resipe::inference::{CompileOptions, HardwareNetwork, RunOptions};
use resipe::telemetry::{Telemetry, TelemetrySnapshot};
use resipe_nn::data::{synth_digits, synth_objects, Dataset};
use resipe_nn::layers::Layer;
use resipe_nn::models;
use resipe_nn::train::{Sgd, TrainConfig};
use resipe_nn::{Network, Tensor};

use crate::host::{process_cpu_ns, thread_cpu_ns, Mark};
use crate::report::Values;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{derive_seed, setup_repeated, Res, Run, RunOutput};

/// The networks an inference workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Mlp2,
    Lenet,
    Vgg16S,
}

/// How one network is trained, compiled and fed.
#[derive(Debug, Clone, Copy)]
struct Recipe {
    model: Model,
    /// Training samples and epochs: small enough that set-up stays a
    /// minor share of a run (VGG16-S trains at ~14 ms per sample-epoch).
    train: usize,
    epochs: usize,
    learning_rate: f32,
    /// Held-out samples for `hw_accuracy`.
    test: usize,
    /// Samples in the measured batch.
    batch: usize,
    /// Samples checked planned ≡ per-sample before measuring.
    verify: usize,
}

const MLP2: Recipe = Recipe {
    model: Model::Mlp2,
    train: 600,
    epochs: 3,
    learning_rate: 0.1,
    test: 200,
    batch: 256,
    verify: 32,
};

const LENET: Recipe = Recipe {
    model: Model::Lenet,
    train: 200,
    epochs: 1,
    learning_rate: 0.05,
    test: 100,
    batch: 64,
    verify: 8,
};

const VGG16S: Recipe = Recipe {
    model: Model::Vgg16S,
    train: 48,
    epochs: 1,
    learning_rate: 0.05,
    test: 20,
    batch: 8,
    verify: 2,
};

/// One-sample `run()` calls per round of `infer_dense` phase `b`.
const SINGLES: usize = 128;

impl Recipe {
    fn name(&self) -> &'static str {
        match self.model {
            Model::Mlp2 => "MLP-2",
            Model::Lenet => "LeNet",
            Model::Vgg16S => "VGG16-S",
        }
    }

    fn data(&self, n: usize, seed: u64) -> Res<Dataset> {
        Ok(match self.model {
            Model::Mlp2 | Model::Lenet => synth_digits(n, seed)?,
            Model::Vgg16S => synth_objects(n, seed)?,
        })
    }

    fn network(&self, seed: u64) -> Res<Network> {
        Ok(match self.model {
            Model::Mlp2 => models::mlp2(seed)?,
            Model::Lenet => models::lenet(seed)?,
            Model::Vgg16S => models::vgg16_s(seed)?,
        })
    }
}

/// A trained, compiled network with its seeded inputs.
struct Built {
    recipe: Recipe,
    net: Network,
    calibration: Tensor,
    hw: HardwareNetwork,
    batch: Tensor,
    test: Dataset,
}

/// Data, training and compile for one recipe; `salt` separates the
/// seeds of the networks in one workload.
///
/// The trained network is the same for every workload seed (it is the
/// program under test, like a shipped model); the seed generates the
/// inputs it is run on — the measured batch and the held-out set. With
/// seeded weights, LeNet's activation sparsity, and with it its CPU cost
/// per sample, moved by ±8 % from seed to seed.
fn build(
    recipe: Recipe,
    seed: u64,
    salt: u64,
    tracer: &Tracer,
    parent: Option<usize>,
) -> Res<Built> {
    let fixed = |k: u64| derive_seed(crate::MODEL_SEED, salt * 16 + k);
    let input = |k: u64| derive_seed(seed, salt * 16 + k);
    let (train, test, batch) = tracer.span("synth_*", parent, None, || -> Res<_> {
        let train = recipe.data(recipe.train, fixed(0))?;
        let test = recipe.data(recipe.test, input(1))?;
        let (batch, _) = recipe.data(recipe.batch, input(2))?.full_batch()?;
        Ok((train, test, batch))
    })?;
    let mut net = recipe.network(fixed(3))?;
    tracer.span("Sgd::fit", parent, None, || {
        Sgd::new(
            TrainConfig::new(recipe.epochs)
                .with_learning_rate(recipe.learning_rate)
                .with_shuffle_seed(fixed(4)),
        )
        .fit(&mut net, &train)
    })?;
    let (calibration, _) = train.batch(&(0..32.min(train.len())).collect::<Vec<_>>())?;
    let hw = tracer.span("HardwareNetwork::compile", parent, None, || {
        HardwareNetwork::compile(&net, &calibration, &CompileOptions::paper())
    })?;
    Ok(Built {
        recipe,
        net,
        calibration,
        hw,
        batch,
        test,
    })
}

/// Samples `start..start + n` of `batch` as one tensor.
fn rows(batch: &Tensor, start: usize, n: usize) -> Res<Tensor> {
    let per = batch.len() / batch.shape()[0];
    let mut shape = batch.shape().to_vec();
    shape[0] = n;
    Ok(Tensor::from_vec(
        batch.data()[start * per..(start + n) * per].to_vec(),
        &shape,
    )?)
}

/// Samples of `out` whose bits differ from `reference`.
fn mismatches(out: &Tensor, reference: &[f32]) -> usize {
    let n = out.shape()[0];
    let per = out.len() / n.max(1);
    if out.len() != reference.len() {
        return n;
    }
    out.data()
        .chunks(per)
        .zip(reference.chunks(per))
        .filter(|(a, b)| a.iter().zip(*b).any(|(x, y)| x.to_bits() != y.to_bits()))
        .count()
}

/// A measured phase: its per-round CPU cost per op and its checks.
#[derive(Default)]
struct PhaseTally {
    us_per_op: Vec<f64>,
    ops: u64,
    failed: u64,
    wall_s: f64,
}

impl PhaseTally {
    /// Runs `op` (which returns samples done and samples failed) once and
    /// books its process CPU time per sample.
    fn book(&mut self, op: impl FnOnce() -> Res<(usize, usize)>) -> Res<()> {
        let wall = std::time::Instant::now();
        let c0 = process_cpu_ns();
        let (done, failed) = op()?;
        let cpu = process_cpu_ns() - c0;
        self.wall_s += wall.elapsed().as_secs_f64();
        self.us_per_op.push(cpu as f64 * 1e-3 / done as f64);
        self.ops += done as u64;
        self.failed += failed as u64;
        Ok(())
    }
}

/// A built network, its reference outputs, and (for `infer_dense` phase
/// `b`) the batch split into one-sample tensors.
struct Measured {
    built: Built,
    reference: Vec<f32>,
    singles: Vec<Tensor>,
}

impl Measured {
    /// One op: the whole batch in one `run()`, or with `singles` one
    /// `run()` per sample. Returns samples done and samples whose output
    /// bits differ from the reference.
    fn op(&self, singles: bool, tracer: &Tracer) -> Res<(usize, usize)> {
        let hw = &self.built.hw;
        let run = |x: &Tensor| {
            tracer.span("HardwareNetwork::run", None, None, || {
                hw.run(x, &RunOptions::planned())
            })
        };
        if !singles {
            let out = run(&self.built.batch)?.outputs;
            return Ok((self.built.recipe.batch, mismatches(&out, &self.reference)));
        }
        let per = self.reference.len() / self.built.recipe.batch;
        let mut failed = 0;
        for (i, x) in self.singles.iter().enumerate() {
            failed += mismatches(&run(x)?.outputs, &self.reference[i * per..(i + 1) * per]);
        }
        Ok((self.singles.len(), failed))
    }
}

/// Runs an inference workload (`dense` selects `infer_dense`).
pub fn run(dense: bool, cfg: &Run) -> Res<RunOutput> {
    let recipes: &[Recipe] = if dense { &[MLP2] } else { &[LENET, VGG16S] };
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build()?;
    pool.install(|| run_on_pool(dense, recipes, cfg))
}

fn run_on_pool(dense: bool, recipes: &[Recipe], cfg: &Run) -> Res<RunOutput> {
    let mut out = RunOutput::default();
    out.lines.push(format!(
        "# closed loops run on a rayon pool of width {}",
        rayon::current_num_threads()
    ));
    let tracer = if cfg.trace {
        Tracer::enabled()
    } else {
        Tracer::default()
    };

    // ---- Set-up: data, training, compile, warmup (repeated; median).
    let mark = Mark::now();
    let setup_runs = if cfg.trace { 1 } else { crate::SETUP_REPEATS };
    let (nets_built, setup_s, setup_line) = setup_repeated(setup_runs, || -> Res<Vec<Built>> {
        let setup_span = tracer.open("setup");
        let parent = setup_span.map(|s| s.0);
        let mut nets = Vec::new();
        for (salt, &recipe) in recipes.iter().enumerate() {
            let b = build(recipe, cfg.seed, salt as u64, &tracer, parent)?;
            tracer.span("HardwareNetwork::run", parent, None, || {
                b.hw.run(&b.batch, &RunOptions::planned())
            })?;
            nets.push(b);
        }
        tracer.close(setup_span);
        Ok(nets)
    })?;
    out.phases.push(mark.phase("setup"));
    out.values.set("setup_s", setup_s);
    out.lines.push(setup_line);

    // ---- Output checks: planned ≡ per-sample, bit for bit.
    let mark = Mark::now();
    let mut nets = Vec::new();
    for built in nets_built {
        let x = rows(&built.batch, 0, built.recipe.verify)?;
        let per_sample = built.hw.run(&x, &RunOptions::per_sample())?.outputs;
        let plan = built.hw.run(&x, &RunOptions::planned())?.outputs;
        let bad = mismatches(&plan, per_sample.data());
        if bad > 0 {
            out.check_failures.push(format!(
                "{}: {bad} of {} planned samples differ from per-sample",
                built.recipe.name(),
                built.recipe.verify
            ));
        }
        let reference = built
            .hw
            .run(&built.batch, &RunOptions::planned())?
            .outputs
            .into_vec();
        let acc = built.hw.accuracy(&built.test)?;
        out.lines.push(format!(
            "report {}.hw_accuracy = {acc} frac (higher is better; {} held-out samples, deterministic)",
            built.recipe.name(),
            built.recipe.test
        ));
        let singles = if dense {
            (0..SINGLES)
                .map(|i| rows(&built.batch, i, 1))
                .collect::<Res<_>>()?
        } else {
            Vec::new()
        };
        nets.push(Measured {
            built,
            reference,
            singles,
        });
    }
    out.phases.push(mark.phase("checks"));
    if cfg.trace {
        return traced(nets, &tracer, out);
    }

    // ---- Measurement: phases `a` and `b` alternate until the time is
    // spent. `infer_dense` runs MLP-2 batched then one sample at a time;
    // `infer_conv` runs LeNet then VGG16-S.
    let (b_net, b_singles) = if dense { (0, true) } else { (1, false) };
    let mark = Mark::now();
    let untraced = Tracer::default();
    let (mut a, mut b) = (PhaseTally::default(), PhaseTally::default());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    while std::time::Instant::now() < deadline || a.us_per_op.len() < crate::MIN_ROUNDS {
        a.book(|| nets[0].op(false, &untraced))?;
        b.book(|| nets[b_net].op(b_singles, &untraced))?;
    }
    out.phases.push(mark.phase("measure"));

    let (a_name, b_name) = if dense {
        ("MLP-2 256-sample run()", "MLP-2 one-sample run()")
    } else {
        ("LeNet 64-sample run()", "VGG16-S 8-sample run()")
    };
    for (tag, name, t) in [("a", a_name, &a), ("b", b_name, &b)] {
        let s = Summary::of(&t.us_per_op);
        out.lines.push(format!(
            "report {tag}.cpu_us_per_sample = {} us ({name}, process CPU per sample per round; {})",
            s.median,
            s.describe("us")
        ));
        out.lines.push(format!(
            "report {tag}.samples_per_s = {} 1/s (wall, not gated: swings with host steal)",
            t.ops as f64 / t.wall_s
        ));
    }
    out.values.set("a.cpu_us_per_op", median(&a.us_per_op));
    out.values.set("b.cpu_us_per_op", median(&b.us_per_op));
    out.attempted += a.ops + b.ops;
    out.failed += a.failed + b.failed;
    Ok(out)
}

/// Batches per network in each half of the traced run.
const TRACED_ROUNDS: usize = 8;

/// The traced run: the networks' batches untraced, then the same
/// batches with engine telemetry and benchmark spans on, and the
/// per-layer metrics derived from the traced half.
fn traced(mut nets: Vec<Measured>, tracer: &Tracer, mut out: RunOutput) -> Res<RunOutput> {
    let mut v = Values::default();
    for (name, metric) in [
        ("synth_*", "nn.data_s"),
        ("Sgd::fit", "nn.train_s"),
        ("HardwareNetwork::compile", "compile.s"),
    ] {
        v.set(metric, tracer.cpu_total(name).0);
    }
    let mut tiles = 0usize;
    let mut first_run_ms = 0.0;
    for m in &nets {
        tiles += tile_count(&m.built.net)?;
        first_run_ms += first_run_overhead_ms(&m.built)?;
    }
    v.set("compile.tiles", tiles as f64);
    v.set("plan.first_run_ms", first_run_ms);

    // Phase `a` untraced: the baseline of the tracing overhead.
    let mut untraced = PhaseTally::default();
    for _ in 0..TRACED_ROUNDS {
        untraced.book(|| nets[0].op(false, &Tracer::default()))?;
    }
    let telemetry: Vec<Telemetry> = nets.iter().map(|_| Telemetry::enabled()).collect();
    for (m, t) in nets.iter_mut().zip(&telemetry) {
        m.built.hw.set_telemetry(t.clone());
    }
    let mark = Mark::now();
    let mut per_net: Vec<PhaseTally> = nets.iter().map(|_| PhaseTally::default()).collect();
    for _ in 0..TRACED_ROUNDS {
        for (m, tally) in nets.iter().zip(&mut per_net) {
            tally.book(|| m.op(false, tracer))?;
        }
    }
    let facts = mark.phase("traced");
    out.lines.push(facts.line());
    crate::host_values(&mut v, &facts);
    let (base, traced_us) = (median(&untraced.us_per_op), median(&per_net[0].us_per_op));
    v.set("trace.baseline_us", base);
    v.set("trace.overhead_us", traced_us - base);
    out.lines.push(format!(
        "report trace.overhead = {} us per sample ({traced_us} traced vs {base} untraced, process CPU, phase a)",
        traced_us - base
    ));

    let snaps: Vec<(TelemetrySnapshot, &Network)> = telemetry
        .iter()
        .zip(&nets)
        .map(|(t, m)| (t.snapshot(), &m.built.net))
        .collect();
    let samples: u64 = per_net.iter().map(|t| t.ops).sum();
    kernel_values(&mut v, &snaps, samples);
    out.attempted += samples;
    out.failed += per_net.iter().map(|t| t.failed).sum::<u64>();
    out.values = v;
    out.trace_json = snaps.iter().map(|(s, _)| s.to_json()).collect();
    out.spans = tracer.to_json_lines();
    Ok(out)
}

/// Crossbar tiles the compile maps `net` onto (the paper mapper, as in
/// `CompileOptions::paper()`).
pub fn tile_count(net: &Network) -> Res<usize> {
    let mapper = CompileOptions::paper().mapper;
    let mut tiles = 0;
    for layer in net.layers() {
        let (w, rows, cols) = match layer {
            Layer::Dense(d) => {
                let w = d.weights();
                (
                    w.data().iter().map(|&x| f64::from(x)).collect::<Vec<_>>(),
                    w.shape()[0],
                    w.shape()[1],
                )
            }
            Layer::Conv2d(c) => {
                // [out_ch, fan_in] transposed onto [fan_in, out_ch].
                let w = c.weights();
                let (out_ch, fan_in) = (w.shape()[0], w.shape()[1]);
                let mut t = vec![0.0; fan_in * out_ch];
                for oc in 0..out_ch {
                    for k in 0..fan_in {
                        t[k * out_ch + oc] = f64::from(w.get(&[oc, k]));
                    }
                }
                (t, fan_in, out_ch)
            }
            _ => continue,
        };
        tiles += mapper.map(&w, rows, cols)?.tiles().len();
    }
    Ok(tiles)
}

/// First `run()` on a fresh compile minus a steady `run()`, thread CPU
/// ms: the lazy per-epoch `BatchPlan` build.
fn first_run_overhead_ms(b: &Built) -> Res<f64> {
    let fresh = HardwareNetwork::compile(&b.net, &b.calibration, &CompileOptions::paper())?;
    let x = rows(&b.batch, 0, b.recipe.verify)?;
    let timed = |hw: &HardwareNetwork| -> Res<f64> {
        let c0 = thread_cpu_ns();
        hw.run(&x, &RunOptions::planned())?;
        Ok((thread_cpu_ns() - c0) as f64 * 1e-6)
    };
    let first = timed(&fresh)?;
    let steady = median(&[timed(&fresh)?, timed(&fresh)?, timed(&fresh)?]);
    Ok(first - steady)
}

/// Kernel, conv and digital per-layer metrics from telemetry snapshots
/// of runs covering `samples` samples in total.
pub fn kernel_values(v: &mut Values, snaps: &[(TelemetrySnapshot, &Network)], samples: u64) {
    let n = samples.max(1) as f64;
    let (mut s1, mut xb, mut s2) = (0u64, 0u64, 0u64);
    let (mut conv_other, mut digital) = (0.0f64, 0.0f64);
    let (mut encodes, mut skips, mut mvms, mut bytes, mut blocks, mut block_samples) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (snap, net) in snaps {
        let (a, b, c) = snap.stage_nanos();
        (s1, xb, s2) = (s1 + a, xb + b, s2 + c);
        let k = &snap.counters;
        skips += k.zero_activation_skips;
        mvms += k.mvms;
        bytes += k.kernel_bytes_streamed;
        blocks += k.kernel_blocks;
        block_samples += k.kernel_block_samples;
        for (li, layer) in net.layers().iter().enumerate() {
            let span_ns = snap
                .span(&format!("forward/layer{li}"))
                .map_or(0, |s| s.nanos) as f64;
            let stats = snap.layers.iter().find(|l| l.layer == li);
            let stage_ns = stats.map_or(0, |l| {
                l.s1_encode_nanos + l.crossbar_nanos + l.s2_decode_nanos
            });
            let calls = stats.map_or(0, |l| l.calls);
            match layer {
                Layer::Dense(d) => encodes += calls * d.weights().shape()[0] as u64,
                Layer::Conv2d(c) => {
                    encodes += calls * c.weights().shape()[1] as u64;
                    conv_other += span_ns - stage_ns as f64;
                }
                _ => digital += span_ns,
            }
        }
    }
    // ns per sample × 1e-3 = ms per thousand samples.
    v.set("kernel.samples", n);
    v.set("kernel.s1_encode_ms_per_ksample", s1 as f64 / n * 1e-3);
    v.set("kernel.crossbar_ms_per_ksample", xb as f64 / n * 1e-3);
    v.set("kernel.s2_decode_ms_per_ksample", s2 as f64 / n * 1e-3);
    v.set("kernel.mvms_per_sample", mvms as f64 / n);
    v.set("kernel.bytes_per_sample", bytes as f64 / n);
    v.set("kernel.wordline_encodes", encodes as f64);
    v.set(
        "kernel.zero_skip_frac",
        if encodes == 0 {
            0.0
        } else {
            skips as f64 / encodes as f64
        },
    );
    v.set("kernel.blocks", blocks as f64);
    v.set(
        "kernel.mean_block",
        if blocks == 0 {
            0.0
        } else {
            block_samples as f64 / blocks as f64
        },
    );
    v.set("conv.other_ms_per_ksample", conv_other / n * 1e-3);
    v.set("digital.ms_per_ksample", digital / n * 1e-3);
}
