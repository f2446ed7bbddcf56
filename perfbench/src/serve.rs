//! `serve_open`: MLP-1 served over loopback under open-loop load.
//!
//! Two replicas with a background scrubber at a fixed interval; every
//! [`AGE_EVERY`] requests a deterministic `AgingClock` step is applied
//! to both replicas through `HardwareNetwork::age`, so epoch swaps and
//! repairs happen beside request reads. One generator thread offers
//! requests over two connections at fixed rates — phase `a` light
//! ([`LIGHT_RATE`]), phase `b` heavy ([`HEAVY_RATE`]) — and one reader
//! thread per connection collects replies. Latency is timed from each
//! request's due time (see [`crate::openloop`]).
//!
//! Before any aging, [`VERIFY`] served replies (half pinned to each
//! replica) must be byte-equal to a locally compiled oracle; during the
//! phases every reply must be `Ok` with ten finite outputs.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use resipe::inference::{CompileOptions, HardwareNetwork, RunOptions};
use resipe::repair::RepairPolicy;
use resipe::scrub::{ScrubConfig, Scrubber};
use resipe::telemetry::Telemetry;
use resipe_analog::units::Seconds;
use resipe_nn::data::synth_digits;
use resipe_nn::models;
use resipe_nn::train::{Sgd, TrainConfig};
use resipe_nn::Tensor;
use resipe_reram::aging::{AgingClock, AgingConfig};
use resipe_reram::faults::RetentionDrift;
use resipe_serve::protocol::{decode_tensor, encode_request, read_response};
use resipe_serve::{Client, ModelSpec, Request, Server, ServerConfig, ServerStats, Status, Verb};

use crate::host::{process_cpu_ns, thread_cpu_ns, Mark, PhaseFacts};
use crate::infer::{kernel_values, tile_count};
use crate::openloop::{Ledger, Outcome, PhaseLoad};
use crate::report::Values;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{derive_seed, setup_repeated, Res, Run, RunOutput};

/// Offered load of phase `a`, requests per second.
pub const LIGHT_RATE: f64 = 300.0;
/// Offered load of phase `b`, requests per second (this server
/// saturates between 5k and 8k on a 2-vCPU host).
pub const HEAVY_RATE: f64 = 1500.0;
/// Requests sharing one due time in phase `b`. Bursts fill batches
/// by arrival rather than by how long the host stalls the server: with a
/// smooth stream, the heavy phase's mean batch (and its CPU per request)
/// followed the hypervisor's steal from run to run.
pub const HEAVY_BURST: usize = 8;
/// Requests between two aging steps.
pub const AGE_EVERY: u64 = 1000;
/// Background scrub interval. At 50 ms (the `ScrubConfig` default) the
/// two replicas' scrubbers burned half the process CPU and their share
/// swung by ±5 % from run to run, drowning the serving layers.
const SCRUB_INTERVAL: Duration = Duration::from_millis(200);
/// Per-model admission queue, in requests. The default (256) answered
/// `Busy` when the hypervisor stalled the server for a quarter second at
/// 1500 req/s (82 % steal); this absorbs stalls of over two seconds, so
/// the workload measures serving cost, not admission under overload.
const QUEUE_CAPACITY: usize = 4096;
/// Client connections (requests alternate between them).
const CONNECTIONS: usize = 2;
/// Replies checked byte-equal against the oracle before aging.
const VERIFY: usize = 64;
/// Distinct samples in the shared request corpus.
const CORPUS: usize = 512;
/// Model name on the wire.
const MODEL: &str = "mlp1";
/// CPU-accounting windows per phase (`cpu_us_per_op` is their median).
const WINDOWS: usize = 10;
/// A reply not seen this long after the last send counts as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound server with its corpus, oracle and aging state.
struct Served {
    server: Server,
    replicas: Vec<Arc<HardwareNetwork>>,
    corpus: Arc<Vec<Tensor>>,
    net: resipe_nn::Network,
    clock: AgingClock,
    scrub: ScrubConfig,
    sent_total: u64,
    age_cpu_ms: Vec<f64>,
}

fn bind(
    seed: u64,
    telemetry: &Telemetry,
    tracer: &Tracer,
    out_checks: &mut Vec<String>,
) -> Res<Served> {
    // The served network is fixed; the seed generates the request
    // corpus and the aging and scrub draws.
    let fixed = |k: u64| derive_seed(crate::MODEL_SEED, k);
    let s = |k: u64| derive_seed(seed, k);
    let setup_span = tracer.open("setup");
    let parent = setup_span.map(|o| o.0);
    let (train, corpus_set) = tracer.span("synth_*", parent, None, || -> Res<_> {
        Ok((synth_digits(600, fixed(0))?, synth_digits(CORPUS, s(1))?))
    })?;
    let mut net = models::mlp1(fixed(2))?;
    tracer.span("Sgd::fit", parent, None, || {
        Sgd::new(
            TrainConfig::new(3)
                .with_learning_rate(0.1)
                .with_shuffle_seed(fixed(3)),
        )
        .fit(&mut net, &train)
    })?;
    let (calibration, _) = train.batch(&(0..32).collect::<Vec<_>>())?;
    let options = CompileOptions::paper();
    let (corpus_x, _) = corpus_set.full_batch()?;
    let oracle = HardwareNetwork::compile(&net, &calibration, &options)?
        .run(&corpus_x, &RunOptions::planned())?
        .outputs;
    let shape = corpus_set.sample_shape().to_vec();
    let width: usize = shape.iter().product();
    let corpus: Vec<Tensor> = corpus_x
        .data()
        .chunks(width)
        .map(|c| Tensor::from_vec(c.to_vec(), &shape))
        .collect::<Result<_, _>>()?;

    let mut policy = RepairPolicy::full();
    // Sharp enough to see retention drift.
    policy.bist.cell_threshold = 0.05;
    let scrub = ScrubConfig::new()
        .with_policy(policy)
        .with_interval(SCRUB_INTERVAL)
        .with_seed(s(4));
    let server = Server::builder()
        .config(
            ServerConfig::default()
                .with_event_threads(2)
                .with_queue_capacity(QUEUE_CAPACITY),
        )
        .telemetry(telemetry.clone())
        .register_model(
            MODEL,
            ModelSpec::network(net.clone(), calibration, options, &shape).with_scrub(scrub),
        )
        .replicas(2)
        .bind("127.0.0.1:0")?;
    // Resolving the replicas compiles both (through the server's cache).
    let replicas = tracer.span("HardwareNetwork::compile", parent, None, || {
        (0..2)
            .map(|r| {
                server
                    .model_network(MODEL, r)
                    .ok_or("replica did not compile")
            })
            .collect::<Result<Vec<_>, _>>()
    })?;

    // Warmup and the pre-aging output check, alternating replicas.
    let mut client = Client::connect(server.local_addr())?;
    let per = oracle.len() / CORPUS;
    let mut bad = 0;
    for (i, sample) in corpus.iter().take(VERIFY).enumerate() {
        let reply = client
            .model(MODEL)
            .with_replica_hint((i % 2) as u32)
            .infer(sample)?;
        let expect = &oracle.data()[i * per..(i + 1) * per];
        if reply.data().len() != per
            || reply
                .data()
                .iter()
                .zip(expect)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            bad += 1;
        }
    }
    if bad > 0 {
        out_checks.push(format!(
            "{bad} of {VERIFY} served replies differ from the local oracle"
        ));
    }
    tracer.close(setup_span);

    let drift = RetentionDrift::new(Seconds(1e6))?;
    let clock = AgingClock::new(AgingConfig::new(Seconds(100.0), drift)?.with_seed(s(5)));
    Ok(Served {
        server,
        replicas,
        corpus: Arc::new(corpus),
        net,
        clock,
        scrub,
        sent_total: 0,
        age_cpu_ms: Vec::new(),
    })
}

/// What one open-loop phase measured.
struct PhaseResult {
    load: PhaseLoad,
    cpu_us_per_request: Vec<f64>,
    facts: PhaseFacts,
    before: ServerStats,
    after: ServerStats,
}

/// Reads replies on one connection until `expect` have arrived or the
/// socket goes quiet; returns `(index, arrival ns, outcome)` per reply.
fn read_replies(
    stream: TcpStream,
    first_id: u64,
    expect: usize,
    t0: Instant,
    tracer: &Tracer,
) -> Vec<(usize, u64, Outcome)> {
    let mut got = Vec::with_capacity(expect);
    if stream.set_read_timeout(Some(REPLY_TIMEOUT)).is_err() {
        return got;
    }
    let mut reader = BufReader::new(stream);
    while got.len() < expect {
        let mut id = None;
        let read = tracer.span("read_response", None, None, || -> Option<Outcome> {
            let resp = read_response(&mut reader).ok()??;
            id = Some(resp.id);
            let ok = resp.status == Status::Ok
                && decode_tensor(&resp.payload)
                    .is_ok_and(|t| t.len() == 10 && t.data().iter().all(|v| v.is_finite()));
            Some(if ok { Outcome::Ok } else { Outcome::Failed })
        });
        let (Some(outcome), Some(id)) = (read, id) else {
            break;
        };
        let at = (Instant::now() - t0).as_nanos() as u64;
        got.push(((id - first_id) as usize, at, outcome));
    }
    got
}

/// One open-loop phase at `rate` for `seconds`.
fn phase(
    served: &mut Served,
    name: &str,
    (rate, burst): (f64, usize),
    seconds: f64,
    tracer: &Tracer,
) -> Res<PhaseResult> {
    let n = ((rate * seconds).round() as usize).max(2 * WINDOWS);
    let addr: SocketAddr = served.server.local_addr();
    let mut writers = Vec::with_capacity(CONNECTIONS);
    let mut readers = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        readers.push(s.try_clone()?);
        writers.push(s);
    }
    let first_id = served.sent_total + 1_000_000;
    let mut ledger = Ledger::new(n, rate, burst);
    let before = tracer.span("Server::stats", None, None, || served.server.stats());
    let mark = Mark::now();
    let window = n / WINDOWS;
    let mut cpu_marks = Vec::with_capacity(WINDOWS + 1);
    // A short lead so the readers are parked before the first due time.
    let t0 = Instant::now() + Duration::from_millis(5);

    let replies = std::thread::scope(|scope| -> Res<Vec<(usize, u64, Outcome)>> {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let expect = (c..n).step_by(CONNECTIONS).count();
                scope.spawn(move || read_replies(stream, first_id, expect, t0, tracer))
            })
            .collect();
        for i in 0..n {
            if i % window == 0 && cpu_marks.len() < WINDOWS {
                cpu_marks.push(process_cpu_ns());
            }
            let due = t0 + Duration::from_nanos(ledger.due_ns(i));
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let id = first_id + i as u64;
            let req = Request::v2(
                Verb::Infer,
                id,
                0,
                MODEL,
                Some(served.corpus[i % CORPUS].clone()),
            );
            let payload = tracer.span("encode_request", None, Some(id), || encode_request(&req))?;
            let mut frame = Vec::with_capacity(4 + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            tracer.span("socket write", None, Some(id), || {
                writers[i % CONNECTIONS].write_all(&frame)
            })?;
            ledger.sent(i, (Instant::now() - t0).as_nanos() as u64);
            served.sent_total += 1;
            if served.sent_total.is_multiple_of(AGE_EVERY) {
                age(served, tracer)?;
            }
        }
        let mut all = Vec::with_capacity(n);
        for h in handles {
            all.extend(h.join().map_err(|_| "reader thread panicked")?);
        }
        Ok(all)
    })?;
    cpu_marks.push(process_cpu_ns());
    let facts = mark.phase(name);
    for (i, at, outcome) in replies {
        if i < n {
            ledger.replied(i, at, outcome);
        }
    }
    // Window w spans requests [w·window, (w+1)·window); the last one
    // also takes the remainder and the tail of the replies.
    let cpu_us_per_request = cpu_marks
        .windows(2)
        .enumerate()
        .map(|(w, c)| {
            let reqs = if w + 1 == WINDOWS {
                n - w * window
            } else {
                window
            };
            (c[1] - c[0]) as f64 * 1e-3 / reqs as f64
        })
        .collect();
    Ok(PhaseResult {
        load: ledger.summarize(),
        cpu_us_per_request,
        facts,
        before,
        after: tracer.span("Server::stats", None, None, || served.server.stats()),
    })
}

/// Applies the next aging step to every replica.
fn age(served: &mut Served, tracer: &Tracer) -> Res<()> {
    if let Some(step) = served.clock.advance(AGE_EVERY) {
        for hw in &served.replicas {
            let c0 = thread_cpu_ns();
            tracer.span("HardwareNetwork::age", None, None, || hw.age(&step))?;
            served.age_cpu_ms.push((thread_cpu_ns() - c0) as f64 * 1e-6);
        }
    }
    Ok(())
}

fn model_delta(p: &PhaseResult) -> (u64, u64, u64, u64, u64) {
    let get = |s: &ServerStats| {
        s.model(MODEL).map_or((0, 0, 0, 0, 0), |m| {
            (
                m.batches,
                m.batched_samples,
                m.rejected_busy,
                m.expired,
                m.engine_errors,
            )
        })
    };
    let (a, b) = (get(&p.before), get(&p.after));
    (
        a.0.abs_diff(b.0),
        a.1.abs_diff(b.1),
        a.2.abs_diff(b.2),
        a.3.abs_diff(b.3),
        a.4.abs_diff(b.4),
    )
}

fn describe(tag: &str, rate: f64, p: &PhaseResult) -> Vec<String> {
    let (batches, samples, busy, expired, errors) = model_delta(p);
    let (s0, s1) = (&p.before, &p.after);
    let cpu = Summary::of(&p.cpu_us_per_request);
    vec![
        format!(
            "report {tag}.latency_ms: {} (due time to reply, wall, {rate} req/s offered)",
            p.load.latency_ms.describe("ms")
        ),
        format!(
            "report {tag}.cpu_us_per_request = {} us (process CPU per reply per window; {}) windows {:.0?}",
            cpu.median,
            cpu.describe("us"),
            p.cpu_us_per_request
        ),
        format!(
            "report {tag}.generator_late_ms: {} (send minus due, validity only)",
            p.load.late_ms.describe("ms")
        ),
        format!(
            "report {tag}.server: {batches} batches, mean batch {:.2}, {busy} busy, {expired} expired, \
             {errors} engine errors; scrub {} passes / {} tiles / {} repairs; {} epoch swaps",
            samples as f64 / batches.max(1) as f64,
            s1.scrub_passes - s0.scrub_passes,
            s1.scrub_tiles - s0.scrub_tiles,
            s1.scrub_repairs - s0.scrub_repairs,
            s1.plan_swaps - s0.plan_swaps
        ),
        format!(
            "report {tag}.requests: {} offered, {} ok, {} failed, {} missing",
            p.load.offered, p.load.ok, p.load.failed, p.load.missing
        ),
    ]
}

/// Runs `serve_open`.
pub fn run(cfg: &Run) -> Res<RunOutput> {
    let mut out = RunOutput::default();
    if cfg.trace {
        return traced(cfg, out);
    }
    let mark = Mark::now();
    let mut checks = Vec::new();
    let (mut served, setup_s, setup_line) = setup_repeated(crate::SETUP_REPEATS, || {
        checks.clear();
        bind(
            cfg.seed,
            &Telemetry::disabled(),
            &Tracer::default(),
            &mut checks,
        )
    })?;
    out.check_failures = checks;
    out.phases.push(mark.phase("setup"));
    out.values.set("setup_s", setup_s);
    out.lines.push(setup_line);

    let tracer = Tracer::default();
    let light = phase(
        &mut served,
        "light",
        (LIGHT_RATE, 1),
        cfg.seconds / 2.0,
        &tracer,
    )?;
    let heavy = phase(
        &mut served,
        "heavy",
        (HEAVY_RATE, HEAVY_BURST),
        cfg.seconds / 2.0,
        &tracer,
    )?;
    for (tag, rate, p) in [("light", LIGHT_RATE, &light), ("heavy", HEAVY_RATE, &heavy)] {
        out.lines.extend(describe(tag, rate, p));
        out.phases.push(p.facts.clone());
        out.attempted += p.load.offered as u64;
        out.failed += p.load.failures() as u64;
    }
    out.values
        .set("a.cpu_us_per_op", median(&light.cpu_us_per_request));
    out.values
        .set("b.cpu_us_per_op", median(&heavy.cpu_us_per_request));
    let threads: Vec<String> = crate::host::thread_cpu_by_name()
        .iter()
        .map(|(name, s)| format!("{name} {s:.2} s"))
        .collect();
    out.lines.push(format!(
        "report thread CPU of the live threads since start, by name: {}",
        threads.join(", ")
    ));
    Ok(out)
}

/// The traced run: an untraced server for the engine probes and the
/// overhead baseline, then a traced one (engine telemetry plus
/// benchmark spans) for the per-layer metrics.
fn traced(cfg: &Run, mut out: RunOutput) -> Res<RunOutput> {
    let seconds = cfg.seconds.min(4.0);
    let mut v = Values::default();
    let tracer = Tracer::enabled();

    // Untraced baseline and engine probes.
    let mut checks = Vec::new();
    let mut plain = bind(
        cfg.seed,
        &Telemetry::disabled(),
        &Tracer::default(),
        &mut checks,
    )?;
    let base = phase(
        &mut plain,
        "light-untraced",
        (LIGHT_RATE, 1),
        seconds / 2.0,
        &Tracer::default(),
    )?;
    let untraced = median(&base.cpu_us_per_request);
    let hw = &plain.replicas[0];
    let sample = plain.corpus[0].reshape(&[1, 1, 28, 28])?;
    let mut block1 = Vec::new();
    for _ in 0..200 {
        let c0 = thread_cpu_ns();
        hw.run(&sample, &RunOptions::planned())?;
        block1.push((thread_cpu_ns() - c0) as f64 * 1e-3);
    }
    v.set("serve.engine_block1_us", median(&block1));
    // The plan rebuild after an epoch swap, on a private copy.
    let copy = HardwareNetwork::clone(hw);
    if let Some(step) = plain.clock.clone().advance(AGE_EVERY) {
        copy.age(&step)?;
    }
    let timed = |x: &Tensor| -> Res<f64> {
        let c0 = thread_cpu_ns();
        copy.run(x, &RunOptions::planned())?;
        Ok((thread_cpu_ns() - c0) as f64 * 1e-6)
    };
    let first = timed(&sample)?;
    v.set(
        "plan.first_run_ms",
        first - median(&[timed(&sample)?, timed(&sample)?, timed(&sample)?]),
    );
    let scrubber = Scrubber::new(Arc::new(copy), plain.scrub)?;
    let mut pass_ms = Vec::new();
    for _ in 0..3 {
        let c0 = thread_cpu_ns();
        tracer.span("Scrubber::scrub_pass", None, None, || scrubber.scrub_pass())?;
        pass_ms.push((thread_cpu_ns() - c0) as f64 * 1e-6);
    }
    v.set("scrub.pass_ms", median(&pass_ms));
    drop(plain);

    // The traced server.
    let telemetry = Telemetry::enabled();
    let mut served = bind(cfg.seed, &telemetry, &tracer, &mut checks)?;
    out.check_failures = checks;
    for (name, metric) in [
        ("synth_*", "nn.data_s"),
        ("Sgd::fit", "nn.train_s"),
        ("HardwareNetwork::compile", "compile.s"),
    ] {
        v.set(metric, tracer.cpu_total(name).0);
    }
    v.set("compile.tiles", (2 * tile_count(&served.net)?) as f64);
    let mark = Mark::now();
    let light = phase(
        &mut served,
        "light",
        (LIGHT_RATE, 1),
        seconds / 2.0,
        &tracer,
    )?;
    let heavy = phase(
        &mut served,
        "heavy",
        (HEAVY_RATE, HEAVY_BURST),
        seconds / 2.0,
        &tracer,
    )?;
    let facts = mark.phase("traced");
    out.lines.push(facts.line());
    crate::host_values(&mut v, &facts);
    for (tag, rate, p) in [("light", LIGHT_RATE, &light), ("heavy", HEAVY_RATE, &heavy)] {
        out.lines.extend(describe(tag, rate, p));
        out.attempted += p.load.offered as u64;
        out.failed += p.load.failures() as u64;
    }
    let traced_us = median(&light.cpu_us_per_request);
    v.set("trace.baseline_us", untraced);
    v.set("trace.overhead_us", traced_us - untraced);
    out.lines.push(format!(
        "report trace.overhead = {} us per light request ({traced_us} traced vs {untraced} untraced, process CPU)",
        traced_us - untraced
    ));

    let replies = (light.load.ok + heavy.load.ok) as f64;
    v.set("serve.replies", replies);
    let (encode_s, encodes) = tracer.cpu_total("encode_request");
    let (decode_s, decodes) = tracer.cpu_total("read_response");
    v.set("serve.encode_us", encode_s * 1e6 / encodes.max(1) as f64);
    v.set("serve.decode_us", decode_s * 1e6 / decodes.max(1) as f64);
    let server_p50_ms = light
        .after
        .model(MODEL)
        .map_or(0.0, |m| m.latency.p50_nanos as f64 * 1e-6);
    v.set("serve.server_p50_ms", server_p50_ms);
    v.set(
        "serve.outside_server_ms",
        light.load.latency_ms.median - server_p50_ms,
    );
    let (batches, samples, ..) = model_delta(&heavy);
    v.set("serve.batches", batches as f64);
    v.set("serve.mean_batch", samples as f64 / batches.max(1) as f64);
    let end = &heavy.after;
    let start = &light.before;
    let m = end.model(MODEL).ok_or("model missing from STATS")?;
    v.set("serve.rejected_busy", m.rejected_busy as f64);
    v.set("serve.expired", m.expired as f64);
    v.set("serve.engine_errors", m.engine_errors as f64);
    let done: Vec<u64> = m.replicas.iter().map(|r| r.completed).collect();
    let (lo, hi) = (
        done.iter().min().copied().unwrap_or(0),
        done.iter().max().copied().unwrap_or(0),
    );
    v.set("registry.replica_skew", hi as f64 / lo.max(1) as f64);
    v.set(
        "scrub.passes",
        (end.scrub_passes - start.scrub_passes) as f64,
    );
    v.set("scrub.tiles", (end.scrub_tiles - start.scrub_tiles) as f64);
    v.set(
        "scrub.repairs",
        (end.scrub_repairs - start.scrub_repairs) as f64,
    );
    v.set(
        "epoch.plan_swaps",
        (end.plan_swaps - start.plan_swaps) as f64,
    );
    if !served.age_cpu_ms.is_empty() {
        v.set("aging.age_ms", median(&served.age_cpu_ms));
    }
    let late = &heavy.load.late_ms;
    v.set(
        "serve.generator_late_ms_p99",
        late.tail.map_or(late.median, |t| t.1),
    );

    let snap = telemetry.snapshot();
    let served_samples = snap.counters.kernel_block_samples;
    kernel_values(&mut v, &[(snap.clone(), &served.net)], served_samples);
    out.values = v;
    out.trace_json = vec![snap.to_json()];
    out.spans = tracer.to_json_lines();
    Ok(out)
}
