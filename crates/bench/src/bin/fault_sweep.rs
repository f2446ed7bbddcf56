//! Fault-injection campaign: accuracy, repair energy, and spare
//! utilization across stuck-at fault rate × retention-drift horizon ×
//! repair policy.
//!
//! ```text
//! cargo run --release -p resipe-bench --bin fault_sweep -- \
//!     [--smoke] [--quick] [--json] \
//!     [--rates 0.005,0.01,0.02,0.05,0.10] [--cluster N] [--spares N] \
//!     [--drift-horizons 0,3e6,1e7] [--drift-tau 1e7] \
//!     [--seeds N] [--train N] [--test N] [--epochs N]
//! ```
//!
//! The campaign itself lives in [`resipe_bench::fault_campaign`].
//!
//! `--smoke` runs the acceptance check
//! ([`resipe_bench::fault_campaign::smoke_check`]): at a 1 % fault rate
//! the full ladder must recover at least half of the accuracy lost to
//! faults, and at 10 % the part must report degraded tiles while still
//! answering. The process exits non-zero if either check fails. The
//! crate's tests run the same check.

use resipe_bench::fault_campaign::{self, ArmResult, CampaignConfig};
use resipe_bench::Args;

fn json_escape_free(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

fn emit_json(baseline: f64, arms: &[ArmResult]) {
    println!("{{");
    println!("  \"baseline_accuracy\": {},", json_escape_free(baseline));
    println!("  \"arms\": [");
    for (i, a) in arms.iter().enumerate() {
        let comma = if i + 1 < arms.len() { "," } else { "" };
        println!(
            "    {{\"rate\": {}, \"drift_elapsed_s\": {}, \"policy\": \"{}\", \
             \"seeds\": {}, \"accuracy_mean\": {}, \"accuracy_min\": {}, \
             \"degraded_tiles_mean\": {}, \"repaired_tiles_mean\": {}, \
             \"repair_energy_j_mean\": {:e}, \"repair_pulses_mean\": {}, \
             \"spare_utilization\": {}}}{comma}",
            json_escape_free(a.rate),
            json_escape_free(a.drift_elapsed_s),
            a.policy,
            a.seeds,
            json_escape_free(a.accuracy_mean),
            json_escape_free(a.accuracy_min),
            json_escape_free(a.degraded_tiles_mean),
            json_escape_free(a.repaired_tiles_mean),
            a.repair_energy_j_mean,
            json_escape_free(a.repair_pulses_mean),
            json_escape_free(a.spare_utilization),
        );
    }
    println!("  ]");
    println!("}}");
}

fn emit_table(baseline: f64, arms: &[ArmResult]) {
    println!("baseline (no faults): {:.1}%\n", baseline * 100.0);
    println!(
        "{:>7} {:>10} {:>12} {:>8} {:>9} {:>9} {:>12} {:>8}",
        "rate", "drift (s)", "policy", "acc", "degraded", "repaired", "energy (J)", "spares"
    );
    for a in arms {
        println!(
            "{:>6.1}% {:>10.0} {:>12} {:>7.1}% {:>9.2} {:>9.2} {:>12.3e} {:>7.1}%",
            a.rate * 100.0,
            a.drift_elapsed_s,
            a.policy,
            a.accuracy_mean * 100.0,
            a.degraded_tiles_mean,
            a.repaired_tiles_mean,
            a.repair_energy_j_mean,
            a.spare_utilization * 100.0,
        );
    }
}

fn main() {
    let args = Args::from_env();
    let config = CampaignConfig::from_args(&args);
    eprintln!(
        "fault_sweep: rates {:?}, drift horizons {:?} (tau {:.0} s), \
         {} seed(s), cluster {}, {} spare col(s)/tile",
        config.rates,
        config.drift_horizons,
        config.drift_tau,
        config.seeds,
        config.cluster,
        config.spares
    );

    let report = fault_campaign::run(&config);
    if args.has("json") {
        emit_json(report.baseline, &report.arms);
    } else {
        emit_table(report.baseline, &report.arms);
    }
    eprintln!(
        "compile cache: {} hit(s), {} miss(es)",
        report.cache_hits, report.cache_misses
    );

    if config.smoke {
        let check = fault_campaign::smoke_check(&report);
        // Smoke chatter goes to stderr so `--smoke --json` still leaves a
        // clean JSON document on stdout.
        eprintln!();
        for line in &check.summary {
            eprintln!("{line}");
        }
        for failure in &check.failures {
            eprintln!("FAIL: {failure}");
        }
        if check.failures.is_empty() {
            eprintln!("smoke: PASS");
        } else {
            std::process::exit(1);
        }
    }
}
