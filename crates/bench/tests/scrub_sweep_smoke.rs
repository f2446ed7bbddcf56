//! The resilience gate of `scrub_sweep --smoke`, run as a test: the same
//! campaign and the same checks (`degraded_monotone`, `recovered`,
//! `lossless`, scrub repairs on the curve and under live serving).

use resipe_bench::scrub_campaign::{self, CampaignConfig};
use resipe_bench::Args;

#[test]
fn scrubbing_recovers_aged_accuracy_without_losing_requests() {
    let config = CampaignConfig::from_args(&Args::from_iter(["scrub_sweep", "--smoke"]));
    let report = scrub_campaign::run(&config);
    eprintln!("{}", report.summary());
    let failures = report.failures();
    assert!(failures.is_empty(), "{failures:#?}");
}
