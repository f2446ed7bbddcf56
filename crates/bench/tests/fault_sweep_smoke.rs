//! The repair-ladder acceptance gate of `fault_sweep --smoke`, run as a
//! test: the same campaign and the same checks.

use resipe_bench::fault_campaign::{self, CampaignConfig};
use resipe_bench::Args;

#[test]
fn repair_ladder_recovers_and_degrades_gracefully() {
    let config = CampaignConfig::from_args(&Args::from_iter(["fault_sweep", "--smoke"]));
    let check = fault_campaign::smoke_check(&fault_campaign::run(&config));
    for line in &check.summary {
        eprintln!("{line}");
    }
    assert!(check.failures.is_empty(), "{:#?}", check.failures);
}
