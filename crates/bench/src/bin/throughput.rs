//! Inference throughput: sequential vs. batched vs. blocked execution.
//!
//! Establishes the repo's performance trajectory (`BENCH_throughput.json`
//! at the repo root): samples/sec and crossbar MVMs/sec for the
//! per-sample `HardwareNetwork::forward` path against the amortized
//! data-parallel `forward_batch` path across thread counts, a
//! single-thread sweep of the cache-blocked kernel at pinned block
//! sizes, and the compile-cache statistics the repeated-compile pattern
//! sweeps use. `host_parallelism` records how many CPUs the host
//! actually exposes — thread counts above it cannot speed anything up,
//! so speedup rows must be read against it.
//!
//! The batched path is required to be bit-identical to the sequential
//! path; this harness re-verifies that on the measured batch before
//! reporting.
//!
//! With `--gate` the run doubles as the CI perf smoke: it exits
//! non-zero unless bit identity holds and the measured speedups clear
//! the host-appropriate floor (4-thread ≥ 2× over 1-thread on hosts
//! with ≥ 4 CPUs; otherwise 1-thread batched ≥ 2× over sequential,
//! since thread scaling is physically unobservable without cores).
//!
//! ```text
//! cargo run --release --bin throughput              # full measurement
//! cargo run --release --bin throughput -- --smoke   # CI-sized
//! cargo run --release --bin throughput -- --smoke --gate  # perf gate
//! cargo run --release --bin throughput -- --samples 512 --reps 7
//! ```

use std::time::Instant;

use resipe::cache::CompileCache;
use resipe::inference::{CompileOptions, HardwareNetwork, RunOptions};
use resipe_bench::Args;
use resipe_nn::data::synth_digits;
use resipe_nn::models;
use resipe_nn::train::{Sgd, TrainConfig};

struct Measurement {
    elapsed_s: f64,
    samples_per_sec: f64,
    mvms_per_sec: f64,
}

/// Times `op` over `reps` repetitions (after one warmup) and reports the
/// best repetition — the least-noisy estimator on a shared machine.
fn measure<F: FnMut()>(hw: &HardwareNetwork, n: usize, reps: usize, mut op: F) -> Measurement {
    op(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        op();
        best = best.min(start.elapsed().as_secs_f64());
    }
    hw.reset_mvm_count();
    op();
    let mvms = hw.mvm_count();
    hw.reset_mvm_count();
    Measurement {
        elapsed_s: best,
        samples_per_sec: n as f64 / best,
        mvms_per_sec: mvms as f64 / best,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let n_train = args.usize_of("train", if smoke { 200 } else { 600 });
    let epochs = args.usize_of("epochs", if smoke { 2 } else { 6 });
    let n_samples = args.usize_of("samples", if smoke { 64 } else { 256 });
    let reps = args.usize_of("reps", if smoke { 2 } else { 9 }).max(1);
    let out_path = args
        .value_of("out")
        .unwrap_or("BENCH_throughput.json")
        .to_owned();
    let thread_counts: Vec<usize> = args
        .value_of("threads")
        .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);

    eprintln!("training MLP-1 on {n_train} synthetic digits ({epochs} epochs)...");
    let train = synth_digits(n_train, 1).expect("dataset");
    let mut net = models::mlp1(7).expect("model");
    Sgd::new(TrainConfig::new(epochs).with_learning_rate(0.1))
        .fit(&mut net, &train)
        .expect("training");
    let (calib, _) = train.batch(&(0..32).collect::<Vec<_>>()).expect("calib");

    // Compile through the LRU cache: the second request for the same
    // (model, calibration, options) fingerprint must be a hit — the
    // amortization sweeps rely on.
    let opts = CompileOptions::paper();
    let mut cache = CompileCache::new(4);
    let hw = cache.get_or_compile(&net, &calib, &opts).expect("compile");
    let hw = {
        let again = cache.get_or_compile(&net, &calib, &opts).expect("cached");
        assert_eq!(cache.hits(), 1, "repeat compile must hit the cache");
        again.reset_mvm_count();
        drop(hw);
        again
    };

    // One measured batch, recycled from the training set.
    let indices: Vec<usize> = (0..n_samples).map(|i| i % train.len()).collect();
    let (x, _) = train.batch(&indices).expect("batch");

    // The determinism contract, verified on the measured batch.
    let reference = hw.forward(&x).expect("sequential forward");
    let batched = hw.forward_batch(&x).expect("batched forward");
    let bit_identical = reference
        .data()
        .iter()
        .zip(batched.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(bit_identical, "batched path diverged from sequential");

    eprintln!("measuring sequential path ({n_samples} samples, {reps} reps)...");
    let seq = measure(&hw, n_samples, reps, || {
        let _ = hw.forward(&x).expect("forward");
    });

    let mut rows = Vec::new();
    for &threads in &thread_counts {
        eprintln!("measuring batched path with {threads} thread(s)...");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let m = pool.install(|| {
            measure(&hw, n_samples, reps, || {
                let _ = hw.forward_batch(&x).expect("forward_batch");
            })
        });
        rows.push((threads, m));
    }
    let one_thread_sps = rows
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, m)| m.samples_per_sec)
        .unwrap_or(seq.samples_per_sec);

    // Single-thread block-size sweep: isolates the cache-blocked
    // kernel's gains from thread scaling (block size never changes
    // bits, only how many samples share one pass over the tile data).
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");
    let mut blocked_rows = Vec::new();
    for block in [1usize, 8, 32] {
        eprintln!("measuring blocked kernel at block={block} (1 thread)...");
        let ropts = RunOptions::planned().with_block_size(block);
        let m = single.install(|| {
            measure(&hw, n_samples, reps, || {
                let _ = hw.run(&x, &ropts).expect("blocked run");
            })
        });
        blocked_rows.push((block, m));
    }

    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"model\": \"{}\",\n", hw.name()));
    json.push_str(&format!("  \"samples\": {n_samples},\n"));
    json.push_str(&format!(
        "  \"mvms_per_sample\": {},\n",
        hw.dense_mvms_per_sample()
    ));
    json.push_str(&format!("  \"bit_identical\": {bit_identical},\n"));
    json.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    json.push_str(&format!(
        "  \"compile_cache\": {{\"hits\": {}, \"misses\": {}}},\n",
        cache.hits(),
        cache.misses()
    ));
    json.push_str(&format!(
        "  \"sequential\": {{\"elapsed_s\": {}, \"samples_per_sec\": {}, \"mvms_per_sec\": {}}},\n",
        json_num(seq.elapsed_s),
        json_num(seq.samples_per_sec),
        json_num(seq.mvms_per_sec)
    ));
    json.push_str("  \"blocked\": [\n");
    for (i, (block, m)) in blocked_rows.iter().enumerate() {
        let comma = if i + 1 < blocked_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"block\": {block}, \"threads\": 1, \"elapsed_s\": {}, \
             \"samples_per_sec\": {}, \"speedup_vs_sequential\": {}}}{comma}\n",
            json_num(m.elapsed_s),
            json_num(m.samples_per_sec),
            json_num(m.samples_per_sec / seq.samples_per_sec)
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"batched\": [\n");
    for (i, (threads, m)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"elapsed_s\": {}, \"samples_per_sec\": {}, \
             \"mvms_per_sec\": {}, \"speedup_vs_sequential\": {}, \
             \"speedup_vs_one_thread\": {}}}{comma}\n",
            json_num(m.elapsed_s),
            json_num(m.samples_per_sec),
            json_num(m.mvms_per_sec),
            json_num(m.samples_per_sec / seq.samples_per_sec),
            json_num(m.samples_per_sec / one_thread_sps)
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_throughput.json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    println!(
        "sequential: {:>8.1} samples/s  {:>12.0} MVMs/s",
        seq.samples_per_sec, seq.mvms_per_sec
    );
    for (block, m) in &blocked_rows {
        println!(
            "blocked B={block:<3} x1: {:>7.1} samples/s  ({:.2}x vs sequential)",
            m.samples_per_sec,
            m.samples_per_sec / seq.samples_per_sec
        );
    }
    for (threads, m) in &rows {
        println!(
            "batched x{threads}: {:>7.1} samples/s  {:>12.0} MVMs/s  ({:.2}x seq, {:.2}x one-thread)",
            m.samples_per_sec,
            m.mvms_per_sec,
            m.samples_per_sec / seq.samples_per_sec,
            m.samples_per_sec / one_thread_sps
        );
    }

    if args.has("gate") {
        let fail = |why: &str| -> ! {
            eprintln!("perf gate FAILED: {why}");
            std::process::exit(1);
        };
        if !bit_identical {
            fail("batched path lost bit identity");
        }
        if host_parallelism >= 4 {
            let four = rows
                .iter()
                .find(|(t, _)| *t == 4)
                .map(|(_, m)| m.samples_per_sec)
                .unwrap_or_else(|| fail("no 4-thread measurement"));
            let scaling = four / one_thread_sps;
            if scaling < 2.0 {
                fail(&format!(
                    "4-thread speedup vs 1 thread is {scaling:.2}x (< 2x) \
                     on a {host_parallelism}-CPU host"
                ));
            }
            eprintln!("perf gate passed: 4-thread scaling {scaling:.2}x, bit_identical");
        } else {
            // Thread scaling is unobservable without cores to scale
            // onto; gate the single-thread kernel speedup instead.
            let amortized = one_thread_sps / seq.samples_per_sec;
            if amortized < 2.0 {
                fail(&format!(
                    "1-thread batched speedup vs sequential is {amortized:.2}x (< 2x) \
                     on a {host_parallelism}-CPU host"
                ));
            }
            eprintln!(
                "perf gate passed: {host_parallelism}-CPU host, \
                 1-thread batched {amortized:.2}x vs sequential, bit_identical"
            );
        }
    }
}
