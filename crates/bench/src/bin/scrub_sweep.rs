//! Live-traffic resilience campaign: accuracy and availability under
//! online aging, with and without background scrubbing
//! (`BENCH_scrub.json` at the repo root).
//!
//! ```text
//! cargo run --release -p resipe-bench --bin scrub_sweep             # full
//! cargo run --release -p resipe-bench --bin scrub_sweep -- --smoke  # CI gate
//! ```
//!
//! The campaign and its checks live in
//! [`resipe_bench::scrub_campaign`]. The report is written to `--out`
//! (default `BENCH_scrub.json`) and printed; the process then exits
//! non-zero if any resilience check fails, so `--smoke` doubles as the
//! CI acceptance gate. The crate's tests run the same checks.

use resipe_bench::scrub_campaign::{self, CampaignConfig};
use resipe_bench::Args;

fn main() {
    let args = Args::from_env();
    let out_path = args
        .value_of("out")
        .unwrap_or("BENCH_scrub.json")
        .to_owned();
    let report = scrub_campaign::run(&CampaignConfig::from_args(&args));

    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write BENCH_scrub.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
    println!("{}", report.summary());

    let failures = report.failures();
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
