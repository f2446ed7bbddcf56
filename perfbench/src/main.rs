//! The ReSiPE reproduction's benchmark: one command runs one seeded
//! workload, checks its outputs, and prints every metric by name with
//! its unit, ending with one JSON object on the last line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer_dense --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (`setup_s`, `peak_rss_mb`
//! and the CPU cost of the workload's two phases); `--trace 1` is the
//! separate traced run that prints the per-layer metrics. The process
//! exits non-zero when an output check fails. See `README.md` for every
//! metric's meaning, and which end-to-end metric each per-layer one
//! should move.

mod circuit;
mod host;
mod infer;
mod openloop;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use host::PhaseFacts;
use report::{Values, END_TO_END, PER_LAYER};

/// Result type of the workloads.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Fewest measured rounds a closed-loop phase takes, however short
/// `--seconds` is.
pub const MIN_ROUNDS: usize = 3;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["infer_dense", "infer_conv", "serve_open", "circuit_oracle"];

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a workload hands back to be reported.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Metric values (end-to-end untraced, per-layer traced).
    pub values: Values,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed (bad status, missing reply, wrong output).
    pub failed: u64,
    /// Output checks that missed, described.
    pub check_failures: Vec<String>,
    /// Report lines printed before the metric lines.
    pub lines: Vec<String>,
    /// Wall/CPU/steal per phase.
    pub phases: Vec<PhaseFacts>,
    /// Engine telemetry snapshots (traced runs), written with the spans.
    pub trace_json: Vec<String>,
    /// Benchmark-side spans (traced runs).
    pub spans: String,
}

/// Seed of the trained networks, fixed across workload seeds: the seed
/// argument varies the inputs a network runs on, not the network.
pub const MODEL_SEED: u64 = 7;

/// The `k`-th seed derived from `seed`.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    resipe::seeds::substream(seed, k)
}

/// Runs `setup` `times` times and keeps the last result. Returns it with
/// the median set-up cost in process CPU seconds (`setup_s`) and a
/// report line that gives the wall time beside it.
///
/// `setup_s` is CPU time, not wall time: on a host where the hypervisor
/// steals 10–60 % of the vCPUs, wall-clock set-up time of the same code
/// swings by 2× between runs, CPU time by a few percent.
pub fn setup_repeated<T>(times: usize, mut setup: impl FnMut() -> Res<T>) -> Res<(T, f64, String)> {
    let (mut cpus, mut walls) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        let cpu0 = host::process_cpu_ns();
        last = Some(setup()?);
        cpus.push((host::process_cpu_ns() - cpu0) as f64 * 1e-9);
        walls.push(start.elapsed().as_secs_f64());
    }
    let (cpu, wall) = (stats::median(&cpus), stats::median(&walls));
    let line = format!(
        "report setup: median of {} set-ups {cpu} s process CPU (setup_s), {wall} s wall",
        cpus.len()
    );
    Ok((last.expect("at least one set-up"), cpu, line))
}

/// Host validity metrics of one measured phase.
pub fn host_values(v: &mut Values, facts: &PhaseFacts) {
    v.set("host.busy_s", facts.host_busy_s);
    v.set("host.steal_frac", facts.steal_frac);
    v.set("host.cpu_s", facts.cpu_s);
    v.set("host.wall_over_cpu", facts.wall_s / facts.cpu_s.max(1e-12));
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn write_trace(cfg: &Run, out: &RunOutput) -> std::io::Result<String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload, cfg.seed));
    let mut body = out.spans.clone();
    for snap in &out.trace_json {
        body.push_str(&format!("{{\"telemetry\": {}}}\n", snap.replace('\n', " ")));
    }
    std::fs::write(&path, body)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let result = match cfg.workload.as_str() {
        "infer_dense" => infer::run(true, &cfg),
        "infer_conv" => infer::run(false, &cfg),
        "serve_open" => serve::run(&cfg),
        _ => circuit::run(&cfg),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "# perfbench {} seed {} seconds {} trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!(
        "# host: nproc {}, default rayon width {}, commit {}",
        host::nproc(),
        rayon::current_num_threads(),
        host::commit_hash()
    );
    for p in &out.phases {
        println!("{}", p.line());
    }
    for l in &out.lines {
        println!("{l}");
    }
    let specs = if cfg.trace { PER_LAYER } else { END_TO_END };
    if !cfg.trace {
        out.values.set("peak_rss_mb", host::peak_rss_mib());
    }
    for l in report::lines(specs, &out.values) {
        println!("{l}");
    }
    if cfg.trace {
        match write_trace(&cfg, &out) {
            Ok(path) => println!("# spans and telemetry written to {path}"),
            Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
        }
    }
    for miss in &out.check_failures {
        println!("# CHECK FAILED: {miss}");
    }
    println!(
        "# {} ops attempted, {} failed; {:.1} s wall in total, process cpu {:.3} s by clock, {:.2} s by ticks",
        out.attempted,
        out.failed,
        started.elapsed().as_secs_f64(),
        host::process_cpu_ns() as f64 * 1e-9,
        host::proc_stat_cpu_s().unwrap_or(f64::NAN)
    );
    let correct = out.check_failures.is_empty() && out.failed == 0;
    match report::json_line(
        correct,
        out.attempted,
        out.failed,
        specs,
        &out.values,
        !cfg.trace,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let run = parse_args(&argv(
            "--workload serve_open --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds, run.trace),
            ("serve_open", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload infer_dense --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload infer_dense --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload infer_dense --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn setup_median_keeps_the_last_result() {
        let mut n = 0;
        let (last, s, _) = setup_repeated(3, || {
            n += 1;
            Ok(n)
        })
        .unwrap();
        assert_eq!(last, 3);
        assert!(s >= 0.0);
    }
}
