//! Serving throughput: batched micro-batching server vs. a sequential
//! single-connection client (`BENCH_serve.json` at the repo root).
//!
//! The load generator runs two scenarios against the **same** compiled
//! MLP-1 served over loopback TCP:
//!
//! - **sequential** — one client, one request at a time: every request
//!   pays the full per-plan execution alone (batch size 1).
//! - **batched** — many concurrent client threads: the server's
//!   micro-batcher coalesces strangers' requests into one amortized
//!   `Planned` execution, so the per-sample cost drops while outputs
//!   stay bit-identical.
//!
//! Before measuring, every served output is checked **byte-equal** to a
//! local per-sample `forward` oracle, and the report records that no
//! request was lost or duplicated (`accepted == completed`, zero
//! rejects/expiries during measurement runs).
//!
//! A **many-connection overload** scenario then opens hundreds of
//! simultaneous connections — far more than the server's fixed budget
//! of event-loop threads — fires paced traffic over all of them at
//! once, and records p99 latency under that overload. The gate is
//! structural, not timing-based (CI hosts vary): every connection
//! served bit-identically to the oracle, zero lost or duplicated
//! replies, and the `conns_peak` counter proving the connections were
//! truly simultaneous on the small thread budget.
//!
//! A third scenario ages the served network **mid-load** and lets the
//! attached background scrubber hot-repair it: the gate is 100 %
//! availability — zero busy rejects, zero expiries, every request
//! answered — while the `STATS` verb reports the repairs and epoch
//! swaps that happened underneath the traffic.
//!
//! A fourth scenario exercises the **model registry**: two different
//! MLP-1 instances served simultaneously, two replicas each, with one
//! replica of the loaded model drained mid-traffic — the gate is again
//! zero rejects, with per-model p99 latency and per-replica load
//! recorded in the report.
//!
//! ```text
//! cargo run --release --bin serve_bench              # full measurement
//! cargo run --release --bin serve_bench -- --smoke   # CI-sized
//! cargo run --release --bin serve_bench -- --clients 8 --requests 200
//! ```

use std::thread;
use std::time::{Duration, Instant};

use resipe::inference::{CompileOptions, HardwareNetwork};
use resipe::repair::RepairPolicy;
use resipe::scrub::ScrubConfig;
use resipe_analog::units::Seconds;
use resipe_bench::Args;
use resipe_nn::data::synth_digits;
use resipe_nn::models;
use resipe_nn::tensor::Tensor;
use resipe_nn::train::{Sgd, TrainConfig};
use resipe_reram::aging::{AgingClock, AgingConfig};
use resipe_reram::faults::RetentionDrift;
use resipe_serve::{Client, ModelSpec, ReplicaHealth, Server, ServerConfig};

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_owned()
    }
}

/// One measured scenario: wall-clock for `total` requests and the
/// server-side batching shape over that window.
struct Scenario {
    elapsed_s: f64,
    requests_per_sec: f64,
    mean_batch: f64,
    largest_batch: u64,
}

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let n_train = args.usize_of("train", if smoke { 200 } else { 600 });
    let epochs = args.usize_of("epochs", if smoke { 2 } else { 6 });
    let clients = args.usize_of("clients", if smoke { 4 } else { 6 }).max(1);
    let per_client = args
        .usize_of("requests", if smoke { 24 } else { 120 })
        .max(1);
    let max_batch = args.usize_of("max-batch", 32).max(1);
    let max_wait_us = args.usize_of("max-wait-us", 300) as u64;
    let mc_conns = args.usize_of("conns", 256).max(1);
    let mc_per_conn = args.usize_of("conn-requests", 2).max(1);
    let event_threads = args.usize_of("event-threads", 2).max(1);
    let out_path = args
        .value_of("out")
        .unwrap_or("BENCH_serve.json")
        .to_owned();

    eprintln!("training MLP-1 on {n_train} synthetic digits ({epochs} epochs)...");
    let train = synth_digits(n_train, 1).expect("dataset");
    let mut net = models::mlp1(7).expect("model");
    Sgd::new(TrainConfig::new(epochs).with_learning_rate(0.1))
        .fit(&mut net, &train)
        .expect("training");
    let (calib, _) = train.batch(&(0..32).collect::<Vec<_>>()).expect("calib");
    let hw = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).expect("compile");
    let oracle = hw.clone();

    // A second, genuinely different MLP-1 (distinct init seed → distinct
    // weights) for the multi-model scenario; registered lazily so its
    // compile cost lands on first request, through the shared cache.
    let mut net2 = models::mlp1(13).expect("model 2");
    Sgd::new(TrainConfig::new(epochs.min(2)).with_learning_rate(0.1))
        .fit(&mut net2, &train)
        .expect("training 2");
    let oracle2 = HardwareNetwork::compile(&net2, &calib, &CompileOptions::paper())
        .expect("compile oracle 2");

    let sample_shape = train.sample_shape().to_vec();
    let width: usize = sample_shape.iter().product();
    let total = clients * per_client;
    let indices: Vec<usize> = (0..total).map(|i| i % train.len()).collect();
    let (corpus, _) = train.batch(&indices).expect("corpus");

    // BIST threshold sharp enough to see retention drift (0.05 swings);
    // on the healthy network of scenarios 1–2 every scrub pass is quiet,
    // so the measured scenarios and the oracle check are unaffected.
    let mut scrub_policy = RepairPolicy::full();
    scrub_policy.bist.cell_threshold = 0.05;
    let scrub = ScrubConfig::new()
        .with_policy(scrub_policy)
        .with_interval(Duration::from_millis(5))
        .with_seed(7);
    let server = Server::builder()
        .config(
            ServerConfig::default()
                .with_max_batch(max_batch)
                .with_max_wait(Duration::from_micros(max_wait_us))
                // Big enough that neither the batched scenarios nor
                // one outstanding request per overload connection can
                // hit admission control.
                .with_queue_capacity((2 * total).max(2 * mc_conns).max(64))
                .with_event_threads(event_threads)
                .with_max_connections((2 * mc_conns).max(1024)),
        )
        .register_model(
            "mlp1",
            ModelSpec::compiled(hw, &sample_shape).with_scrub(scrub),
        )
        .replicas(2)
        .register_model(
            "mlp2",
            ModelSpec::network(net2, calib.clone(), CompileOptions::paper(), &sample_shape),
        )
        .replicas(2)
        .default_model("mlp1")
        .bind("127.0.0.1:0")
        .expect("server bind");
    let addr = server.local_addr();

    // ---- Correctness gate: served outputs byte-equal the local oracle.
    eprintln!("verifying served outputs against the per-sample oracle...");
    let reference = oracle.forward(&corpus).expect("oracle forward");
    let out_width = reference.len() / total;
    let verify_n = total.min(if smoke { 32 } else { 64 });
    let mut bit_identical = true;
    {
        let mut client = Client::connect(addr).expect("verify client");
        for idx in 0..verify_n {
            let sample = Tensor::from_vec(
                corpus.data()[idx * width..(idx + 1) * width].to_vec(),
                &sample_shape,
            )
            .expect("sample");
            let served = client.infer(&sample).expect("served infer");
            let expected = &reference.data()[idx * out_width..(idx + 1) * out_width];
            bit_identical &= served
                .data()
                .iter()
                .zip(expected)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        }
    }
    assert!(bit_identical, "served outputs diverged from the oracle");

    let baseline = server.stats();

    // ---- Scenario 1: sequential single-connection client.
    eprintln!("measuring sequential single-connection client ({total} requests)...");
    let seq = {
        let mut client = Client::connect(addr).expect("sequential client");
        let start = Instant::now();
        for idx in 0..total {
            let sample = Tensor::from_vec(
                corpus.data()[idx * width..(idx + 1) * width].to_vec(),
                &sample_shape,
            )
            .expect("sample");
            let _ = client.infer(&sample).expect("sequential infer");
        }
        let elapsed = start.elapsed().as_secs_f64();
        let after = server.stats();
        let batches = after.batches - baseline.batches;
        let samples = after.batched_samples - baseline.batched_samples;
        Scenario {
            elapsed_s: elapsed,
            requests_per_sec: total as f64 / elapsed,
            mean_batch: if batches == 0 {
                0.0
            } else {
                samples as f64 / batches as f64
            },
            largest_batch: after.largest_batch,
        }
    };

    let mid = server.stats();

    // ---- Scenario 2: concurrent clients, micro-batched by the server.
    eprintln!("measuring {clients} concurrent clients x {per_client} requests...");
    let bat = {
        let start = Instant::now();
        let mut joins = Vec::new();
        for c in 0..clients {
            let corpus = corpus.clone();
            let sample_shape = sample_shape.clone();
            joins.push(thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client");
                for r in 0..per_client {
                    let idx = c * per_client + r;
                    let sample = Tensor::from_vec(
                        corpus.data()[idx * width..(idx + 1) * width].to_vec(),
                        &sample_shape,
                    )
                    .expect("sample");
                    let _ = client.infer(&sample).expect("batched infer");
                }
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
        let elapsed = start.elapsed().as_secs_f64();
        let after = server.stats();
        let batches = after.batches - mid.batches;
        let samples = after.batched_samples - mid.batched_samples;
        Scenario {
            elapsed_s: elapsed,
            requests_per_sec: total as f64 / elapsed,
            mean_batch: if batches == 0 {
                0.0
            } else {
                samples as f64 / batches as f64
            },
            largest_batch: after.largest_batch,
        }
    };

    // ---- Many-connection overload: mc_conns simultaneous connections
    // on the server's fixed event-thread budget, all firing at once
    // through a barrier. Runs on the still-pristine network (before the
    // aging scenario) so every reply checks bit-identical to the
    // oracle. Gates are structural: zero lost/duplicated replies and a
    // conns_peak proving true simultaneity.
    eprintln!(
        "measuring {mc_conns} simultaneous connections x {mc_per_conn} requests \
         on {event_threads} event threads..."
    );
    let before_mc = server.stats();
    let mc_total = mc_conns * mc_per_conn;
    let (mc_elapsed, mc_latencies, mc_replies, mc_mismatches) = {
        let start_barrier = std::sync::Arc::new(std::sync::Barrier::new(mc_conns));
        let done_barrier = std::sync::Arc::new(std::sync::Barrier::new(mc_conns));
        let mut joins = Vec::new();
        let start = Instant::now();
        for c in 0..mc_conns {
            let corpus = corpus.clone();
            let sample_shape = sample_shape.clone();
            let reference = reference.clone();
            let start_barrier = std::sync::Arc::clone(&start_barrier);
            let done_barrier = std::sync::Arc::clone(&done_barrier);
            joins.push(thread::spawn(move || {
                let mut client = Client::connect(addr).expect("overload client");
                let mut latencies = Vec::with_capacity(mc_per_conn);
                let mut replies = 0u64;
                let mut mismatches = 0u64;
                // Everyone connects first, then fires together.
                start_barrier.wait();
                for r in 0..mc_per_conn {
                    let idx = (c * mc_per_conn + r) % total;
                    let sample = Tensor::from_vec(
                        corpus.data()[idx * width..(idx + 1) * width].to_vec(),
                        &sample_shape,
                    )
                    .expect("sample");
                    let t0 = Instant::now();
                    let served = client.infer(&sample).expect("overload infer");
                    latencies.push(t0.elapsed().as_nanos() as u64);
                    replies += 1;
                    let out_width = reference.len() / total;
                    let expected = &reference.data()[idx * out_width..(idx + 1) * out_width];
                    if !(served.data().len() == expected.len()
                        && served
                            .data()
                            .iter()
                            .zip(expected)
                            .all(|(a, b)| a.to_bits() == b.to_bits()))
                    {
                        mismatches += 1;
                    }
                }
                // Hold the connection until everyone finished, so the
                // peak counter records all of them simultaneously open.
                done_barrier.wait();
                (latencies, replies, mismatches)
            }));
        }
        let mut latencies = Vec::with_capacity(mc_total);
        let mut replies = 0u64;
        let mut mismatches = 0u64;
        for j in joins {
            let (l, r, m) = j.join().expect("overload client thread");
            latencies.extend(l);
            replies += r;
            mismatches += m;
        }
        (
            start.elapsed().as_secs_f64(),
            latencies,
            replies,
            mismatches,
        )
    };
    let after_mc = server.stats();
    let mc_completed = after_mc.completed - before_mc.completed;
    let mc_lost = (mc_total as u64).saturating_sub(mc_completed.min(mc_replies));
    let mc_duplicated = mc_replies.saturating_sub(mc_total as u64);
    let mc_peak = after_mc.conns_peak;
    let (mc_p50, mc_p99) = {
        let mut sorted = mc_latencies.clone();
        sorted.sort_unstable();
        let pick = |q: f64| {
            sorted
                .get(((sorted.len() as f64 * q) as usize).min(sorted.len().saturating_sub(1)))
                .copied()
                .unwrap_or(0)
        };
        (pick(0.50), pick(0.99))
    };
    assert_eq!(
        mc_mismatches, 0,
        "overload replies diverged from the oracle"
    );
    assert_eq!(mc_lost, 0, "overload lost replies");
    assert_eq!(mc_duplicated, 0, "overload duplicated replies");
    assert!(
        mc_peak >= mc_conns as u64,
        "conns_peak {mc_peak} never saw all {mc_conns} connections simultaneously"
    );
    assert_eq!(
        after_mc.conns_evicted_slow, 0,
        "healthy overload clients must not be evicted"
    );

    // ---- Scenario 3: hot repair under load. Age the served network
    // mid-traffic; the background scrubber must detect, repair, and
    // epoch-swap without a single request being rejected or lost.
    eprintln!("measuring mid-load hot repair ({clients} clients x {per_client} requests)...");
    let before_repair = server.stats();
    {
        let mut joins = Vec::new();
        for c in 0..clients {
            let corpus = corpus.clone();
            let sample_shape = sample_shape.clone();
            joins.push(thread::spawn(move || {
                let mut client = Client::connect(addr).expect("repair client");
                for r in 0..per_client {
                    let idx = c * per_client + r;
                    let sample = Tensor::from_vec(
                        corpus.data()[idx * width..(idx + 1) * width].to_vec(),
                        &sample_shape,
                    )
                    .expect("sample");
                    let _ = client.infer(&sample).expect("infer during repair");
                    // Pace the load so it spans the aging and at least
                    // one background scrub pass.
                    thread::sleep(Duration::from_micros(500));
                }
            }));
        }
        thread::sleep(Duration::from_millis(5));
        let drift = RetentionDrift::new(Seconds(1e6)).expect("drift model");
        let aging = AgingConfig::new(Seconds(100.0), drift)
            .expect("aging config")
            .with_seed(0xa9e);
        let network = server.network().expect("served network");
        if let Some(step) = AgingClock::new(aging).advance(20_000) {
            network.age(&step).expect("age served network");
        }
        for j in joins {
            j.join().expect("repair client thread");
        }
        // Grace window: the scrubber runs on its own cadence.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().scrub_repairs == before_repair.scrub_repairs
            && Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(5));
        }
    }
    let repair_stats = server.stats();
    let repairs_under_load = repair_stats.scrub_repairs - before_repair.scrub_repairs;
    let swaps_under_load = repair_stats.plan_swaps - before_repair.plan_swaps;
    assert!(
        repairs_under_load > 0,
        "scrubber never repaired the aged network under load"
    );
    assert!(
        swaps_under_load >= 2,
        "expected the aging publish plus at least one repair swap, saw {swaps_under_load}"
    );

    // ---- Scenario 4: the model registry under load. Two models, two
    // replicas each, concurrent per-model clients, and one replica of
    // the hot model drained mid-traffic. The gate: zero rejects, every
    // request answered, both models' outputs bit-identical to their own
    // oracles (spot-checked), and per-replica load visible in STATS.
    let s4_clients = clients.max(2);
    eprintln!("measuring multi-model registry load ({s4_clients} clients across 2 models)...");
    let reference2 = oracle2.forward(&corpus).expect("oracle 2 forward");
    {
        // Warm mlp2: its first request pays the lazy compile.
        let mut warm = Client::connect(addr).expect("warm client");
        let sample =
            Tensor::from_vec(corpus.data()[..width].to_vec(), &sample_shape).expect("sample");
        let served = warm.model("mlp2").infer(&sample).expect("mlp2 warmup");
        assert!(
            served
                .data()
                .iter()
                .zip(&reference2.data()[..reference2.len() / total])
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "mlp2 served output diverged from its oracle"
        );
    }
    let before_multi = server.stats();
    let (multi_elapsed, s4_total) = {
        let start = Instant::now();
        let mut joins = Vec::new();
        for c in 0..s4_clients {
            let corpus = corpus.clone();
            let sample_shape = sample_shape.clone();
            let model = if c % 2 == 0 { "mlp1" } else { "mlp2" };
            joins.push(thread::spawn(move || {
                let mut client = Client::connect(addr).expect("registry client");
                for r in 0..per_client {
                    let idx = (c * per_client + r) % total;
                    let sample = Tensor::from_vec(
                        corpus.data()[idx * width..(idx + 1) * width].to_vec(),
                        &sample_shape,
                    )
                    .expect("sample");
                    let _ = client.model(model).infer(&sample).expect("registry infer");
                }
            }));
        }
        // Mid-load: drain replica 0 of the default model. Traffic must
        // keep flowing to replica 1 with zero rejects.
        thread::sleep(Duration::from_millis(5));
        server
            .set_replica_health("mlp1", 0, ReplicaHealth::Draining)
            .expect("drain replica");
        for j in joins {
            j.join().expect("registry client thread");
        }
        (start.elapsed().as_secs_f64(), s4_clients * per_client)
    };
    let multi_stats = server.stats();
    let multi_rejects = multi_stats.rejected_busy - before_multi.rejected_busy;
    assert_eq!(
        multi_rejects, 0,
        "draining a replica mid-load must not reject traffic"
    );
    assert!(multi_stats.models.len() >= 2, "registry lost a model");
    for block in &multi_stats.models {
        assert!(
            block.replicas.len() >= 2,
            "model '{}' should report >= 2 replicas",
            block.name
        );
        let replica_completed: u64 = block.replicas.iter().map(|r| r.completed).sum();
        assert_eq!(
            replica_completed, block.completed,
            "model '{}': per-replica completions must sum to the model total",
            block.name
        );
    }
    let drained = multi_stats
        .model("mlp1")
        .and_then(|b| b.replicas.first())
        .map(|r| r.health_name())
        .unwrap_or("unknown");
    assert_eq!(drained, "draining", "replica 0 should report its drain");
    server
        .set_replica_health("mlp1", 0, ReplicaHealth::Healthy)
        .expect("restore replica");

    let stats = server.stats();
    let expected_total = (verify_n + 3 * total + 1 + s4_total + mc_total) as u64;
    let lossless = stats.accepted == expected_total
        && stats.completed == expected_total
        && stats.rejected_busy == 0
        && stats.expired == 0
        && stats.shutdown_rejects == 0
        && stats.engine_errors == 0;
    assert!(
        lossless,
        "request accounting broke: {} accepted, {} completed of {expected_total} \
         ({} busy, {} expired)",
        stats.accepted, stats.completed, stats.rejected_busy, stats.expired
    );

    let speedup = bat.requests_per_sec / seq.requests_per_sec;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"model\": \"MLP-1\",\n");
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"requests_per_client\": {per_client},\n"));
    json.push_str(&format!("  \"total_requests\": {total},\n"));
    json.push_str(&format!("  \"max_batch\": {max_batch},\n"));
    json.push_str(&format!("  \"max_wait_us\": {max_wait_us},\n"));
    json.push_str(&format!("  \"bit_identical\": {bit_identical},\n"));
    json.push_str(&format!("  \"lossless\": {lossless},\n"));
    json.push_str(&format!(
        "  \"sequential\": {{\"elapsed_s\": {}, \"requests_per_sec\": {}, \
         \"mean_batch\": {}, \"largest_batch\": {}}},\n",
        json_num(seq.elapsed_s),
        json_num(seq.requests_per_sec),
        json_num(seq.mean_batch),
        seq.largest_batch
    ));
    json.push_str(&format!(
        "  \"batched\": {{\"elapsed_s\": {}, \"requests_per_sec\": {}, \
         \"mean_batch\": {}, \"largest_batch\": {}}},\n",
        json_num(bat.elapsed_s),
        json_num(bat.requests_per_sec),
        json_num(bat.mean_batch),
        bat.largest_batch
    ));
    json.push_str(&format!("  \"speedup\": {},\n", json_num(speedup)));
    json.push_str(&format!(
        "  \"many_connections\": {{\"connections\": {mc_conns}, \
         \"requests_per_connection\": {mc_per_conn}, \"requests\": {mc_total}, \
         \"event_threads\": {event_threads}, \"elapsed_s\": {}, \
         \"requests_per_sec\": {}, \"p50_nanos\": {mc_p50}, \"p99_nanos\": {mc_p99}, \
         \"conns_peak\": {mc_peak}, \"lost\": {mc_lost}, \"duplicated\": {mc_duplicated}, \
         \"evicted_slow\": {}}},\n",
        json_num(mc_elapsed),
        json_num(mc_total as f64 / mc_elapsed),
        after_mc.conns_evicted_slow,
    ));
    json.push_str(&format!(
        "  \"multi_model\": {{\"models\": {}, \"requests\": {s4_total}, \"elapsed_s\": {}, \
         \"requests_per_sec\": {}, \"rejected_busy\": {multi_rejects}, \
         \"drained_replica\": \"mlp1/0\"}},\n",
        stats.models.len(),
        json_num(multi_elapsed),
        json_num(s4_total as f64 / multi_elapsed),
    ));
    json.push_str("  \"models\": [\n");
    for (i, block) in stats.models.iter().enumerate() {
        let replicas: Vec<String> = block
            .replicas
            .iter()
            .map(|r| {
                format!(
                    "{{\"index\": {}, \"health\": \"{}\", \"completed\": {}, \"batches\": {}}}",
                    r.index,
                    r.health_name(),
                    r.completed,
                    r.batches
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"accepted\": {}, \"completed\": {}, \
             \"rejected_busy\": {}, \"mean_batch\": {}, \"p50_nanos\": {}, \
             \"p99_nanos\": {}, \"replicas\": [{}]}}{}\n",
            block.name,
            block.accepted,
            block.completed,
            block.rejected_busy,
            json_num(block.mean_batch_size()),
            block.latency.p50_nanos,
            block.latency.p99_nanos,
            replicas.join(", "),
            if i + 1 == stats.models.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"hot_repair\": {{\"requests\": {total}, \"scrub_repairs\": {repairs_under_load}, \
         \"plan_swaps\": {swaps_under_load}, \"rejected_busy\": {}, \"expired\": {}}},\n",
        stats.rejected_busy - before_repair.rejected_busy,
        stats.expired - before_repair.expired
    ));
    json.push_str(&format!(
        "  \"latency\": {{\"count\": {}, \"p50_nanos\": {}, \"p95_nanos\": {}, \
         \"p99_nanos\": {}, \"max_nanos\": {}}},\n",
        stats.latency.count,
        stats.latency.p50_nanos,
        stats.latency.p95_nanos,
        stats.latency.p99_nanos,
        stats.latency.max_nanos
    ));
    json.push_str(&format!(
        "  \"server\": {{\"accepted\": {}, \"completed\": {}, \"rejected_busy\": {}, \
         \"expired\": {}, \"engine_errors\": {}, \"batches\": {}, \"batched_samples\": {}, \
         \"scrub_passes\": {}, \"scrub_tiles\": {}, \"scrub_repairs\": {}, \"scrub_nanos\": {}, \
         \"plan_swaps\": {}}}\n",
        stats.accepted,
        stats.completed,
        stats.rejected_busy,
        stats.expired,
        stats.engine_errors,
        stats.batches,
        stats.batched_samples,
        stats.scrub_passes,
        stats.scrub_tiles,
        stats.scrub_repairs,
        stats.scrub_nanos,
        stats.plan_swaps
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    println!(
        "sequential: {:>8.1} req/s  (mean batch {:.2})",
        seq.requests_per_sec, seq.mean_batch
    );
    println!(
        "batched   : {:>8.1} req/s  (mean batch {:.2}, largest {})  {:.2}x",
        bat.requests_per_sec, bat.mean_batch, bat.largest_batch, speedup
    );
    println!(
        "hot repair: {total} requests answered, {repairs_under_load} repairs, \
         {swaps_under_load} epoch swaps, 0 rejects"
    );
    println!(
        "registry  : {} models x 2 replicas, {s4_total} requests, replica drained mid-load, \
         0 rejects",
        stats.models.len()
    );
    println!(
        "overload  : {mc_conns} simultaneous conns on {event_threads} event threads, \
         {mc_total} requests, p99 {:.2} ms, 0 lost, 0 duplicated",
        mc_p99 as f64 / 1e6
    );
}
