//! The fault-injection campaign behind `fault_sweep`: accuracy, repair
//! energy and spare utilization across stuck-at fault rate ×
//! retention-drift horizon × repair policy.
//!
//! Each arm compiles a trained MLP-1 with clustered stuck-at faults (and
//! optional retention drift), once under `RepairPolicy::detect_only` (the
//! no-repair baseline: BIST runs, nothing is rewritten) and once under
//! `RepairPolicy::full` (reprogram → spare remap → row permutation →
//! graceful degradation), averaging over fault seeds.
//!
//! [`smoke_check`] is the repair-ladder acceptance gate that
//! `fault_sweep --smoke` exits on and the crate's tests run.

use std::cell::RefCell;

use resipe::cache::CompileCache;
use resipe::inference::{CompileOptions, FaultInjection};
use resipe::mapping::TileMapper;
use resipe::repair::RepairPolicy;
use resipe_analog::units::Seconds;
use resipe_nn::data::{synth_digits, Dataset};
use resipe_nn::models::ModelKind;
use resipe_nn::network::Network;
use resipe_nn::tensor::Tensor;
use resipe_nn::train::{Sgd, TrainConfig};
use resipe_reram::faults::RetentionDrift;

use crate::Args;

/// The campaign's shape, from `fault_sweep`'s command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// `--smoke`: the two acceptance arms only.
    pub smoke: bool,
    /// Training-set size.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Fault seeds averaged per arm (at least one).
    pub seeds: usize,
    /// Stuck-at fault cluster size.
    pub cluster: usize,
    /// Spare columns per tile.
    pub spares: usize,
    /// Stuck-at fault rates swept.
    pub rates: Vec<f64>,
    /// Retention-drift time constant in seconds.
    pub drift_tau: f64,
    /// Drift horizons swept, in seconds (0 is no drift).
    pub drift_horizons: Vec<f64>,
}

impl CampaignConfig {
    /// Reads `--smoke`, `--quick`, `--train`, `--test`, `--epochs`,
    /// `--seeds`, `--cluster`, `--spares`, `--rates`, `--drift-tau` and
    /// `--drift-horizons`. `--smoke` implies `--quick` and fixes the
    /// rates at 1 % and 10 % with no drift.
    pub fn from_args(args: &Args) -> CampaignConfig {
        let smoke = args.has("smoke");
        let quick = args.has("quick") || smoke;
        let n_test_default = if quick && !smoke { 80 } else { 120 };
        CampaignConfig {
            smoke,
            n_train: args.usize_of("train", if quick { 300 } else { 800 }),
            n_test: args.usize_of("test", n_test_default),
            epochs: args.usize_of("epochs", if quick { 4 } else { 10 }),
            // At least one seed — `--seeds 0` would make every mean NaN.
            seeds: args
                .usize_of("seeds", if quick && !smoke { 3 } else { 5 })
                .max(1),
            cluster: args.usize_of("cluster", 6),
            spares: args.usize_of("spares", 4),
            rates: if smoke {
                vec![0.01, 0.10]
            } else {
                parse_list(args, "rates", &[0.005, 0.01, 0.02, 0.05, 0.10])
            },
            drift_tau: args.f64_of("drift-tau", 1e7),
            drift_horizons: if smoke {
                vec![0.0]
            } else {
                parse_list(args, "drift-horizons", &[0.0, 3e6, 1e7])
            },
        }
    }
}

fn parse_list(args: &Args, name: &str, default: &[f64]) -> Vec<f64> {
    match args.value_of(name) {
        Some(list) => {
            let parsed: Vec<f64> = list
                .split(',')
                .filter_map(|v| v.trim().parse::<f64>().ok())
                .collect();
            if parsed.is_empty() {
                eprintln!("--{name} {list:?} parsed to nothing; using defaults {default:?}");
                default.to_vec()
            } else {
                parsed
            }
        }
        None => default.to_vec(),
    }
}

/// Aggregated outcome of one (rate, drift, policy) arm.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// Stuck-at fault rate.
    pub rate: f64,
    /// Drift horizon in seconds.
    pub drift_elapsed_s: f64,
    /// `"detect_only"` or `"full"`.
    pub policy: &'static str,
    /// Fault seeds averaged.
    pub seeds: usize,
    /// Mean test accuracy.
    pub accuracy_mean: f64,
    /// Worst test accuracy.
    pub accuracy_min: f64,
    /// Mean degraded tiles per run.
    pub degraded_tiles_mean: f64,
    /// Mean repaired tiles per run.
    pub repaired_tiles_mean: f64,
    /// Mean repair energy per run, joules.
    pub repair_energy_j_mean: f64,
    /// Mean repair pulses per run.
    pub repair_pulses_mean: f64,
    /// Spares used over spares available.
    pub spare_utilization: f64,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Fault-free test accuracy.
    pub baseline: f64,
    /// Every arm, rate-major, then drift horizon, then policy.
    pub arms: Vec<ArmResult>,
    /// Compile-cache hits across the campaign.
    pub cache_hits: u64,
    /// Compile-cache misses across the campaign.
    pub cache_misses: u64,
}

/// The fixed context one campaign shares across its (rate, drift,
/// policy) arms.
struct Campaign<'a> {
    net: &'a Network,
    test: &'a Dataset,
    calib: &'a Tensor,
    base: &'a CompileOptions,
    /// Shared compile cache: arms with identical fingerprints (e.g.
    /// duplicated entries in `--rates`) compile once.
    cache: RefCell<CompileCache>,
    cluster: usize,
    seeds: usize,
    spare_capacity: usize,
}

impl Campaign<'_> {
    fn run_arm(
        &self,
        rate: f64,
        drift: Option<(RetentionDrift, Seconds)>,
        policy: RepairPolicy,
        policy_name: &'static str,
    ) -> ArmResult {
        let mut acc_sum = 0.0;
        let mut acc_min = f64::INFINITY;
        let mut degraded = 0.0;
        let mut repaired = 0.0;
        let mut energy = 0.0;
        let mut pulses = 0.0;
        let mut spares = 0usize;
        for seed in 0..self.seeds {
            let mut faults =
                FaultInjection::clustered(rate, self.cluster, 0xfau64 + seed as u64 * 131);
            if let Some((model, elapsed)) = drift {
                faults = faults.with_drift(model, elapsed);
            }
            let opts = self.base.with_faults(faults).with_repair(policy);
            let hw = self
                .cache
                .borrow_mut()
                .get_or_compile(self.net, self.calib, &opts)
                .expect("compiles under faults");
            let (acc, health) = hw
                .accuracy_with_health(self.test)
                .expect("faulty part answers");
            let acc = acc as f64;
            acc_sum += acc;
            acc_min = acc_min.min(acc);
            degraded += health.degraded_tiles() as f64;
            repaired += health.repaired_tiles() as f64;
            energy += health.total_repair_energy().0;
            pulses += health.total_repair_pulses() as f64;
            spares += health.total_spares_used();
        }
        let n = self.seeds as f64;
        ArmResult {
            rate,
            drift_elapsed_s: drift.map_or(0.0, |(_, e)| e.0),
            policy: policy_name,
            seeds: self.seeds,
            accuracy_mean: acc_sum / n,
            accuracy_min: acc_min,
            degraded_tiles_mean: degraded / n,
            repaired_tiles_mean: repaired / n,
            repair_energy_j_mean: energy / n,
            repair_pulses_mean: pulses / n,
            spare_utilization: if self.spare_capacity == 0 {
                0.0
            } else {
                spares as f64 / (self.spare_capacity * self.seeds) as f64
            },
        }
    }
}

/// Trains MLP-1 and runs every arm of the campaign.
///
/// # Panics
///
/// Panics if training, a compile or an evaluation fails.
pub fn run(config: &CampaignConfig) -> CampaignReport {
    let train = synth_digits(config.n_train, 1).expect("dataset");
    let test = synth_digits(config.n_test, 2).expect("dataset");
    let mut net = ModelKind::Mlp1.build(0xf167).expect("model builds");
    Sgd::new(
        TrainConfig::new(config.epochs)
            .with_learning_rate(0.08)
            .with_batch_size(32),
    )
    .fit(&mut net, &train)
    .expect("training converges");
    let (calib, _) = train
        .batch(&(0..64.min(train.len())).collect::<Vec<_>>())
        .expect("calibration batch");

    let base =
        CompileOptions::paper().with_mapper(TileMapper::paper().with_spare_cols(config.spares));
    let mut cache = CompileCache::new(16);
    let baseline_hw = cache
        .get_or_compile(&net, &calib, &base)
        .expect("baseline compiles");
    let baseline = baseline_hw.accuracy(&test).expect("baseline eval") as f64;
    // Spare capacity = spares × tiles; tiles = dense MVMs / 2.
    let spare_capacity = config.spares * baseline_hw.dense_mvms_per_sample() / 2;

    let campaign = Campaign {
        net: &net,
        test: &test,
        calib: &calib,
        base: &base,
        cache: RefCell::new(cache),
        cluster: config.cluster,
        seeds: config.seeds,
        spare_capacity,
    };

    let mut arms = Vec::new();
    for &rate in &config.rates {
        for &horizon in &config.drift_horizons {
            let drift = (horizon > 0.0).then(|| {
                (
                    RetentionDrift::new(Seconds(config.drift_tau)).expect("valid tau"),
                    Seconds(horizon),
                )
            });
            for (policy, name) in [
                (RepairPolicy::detect_only(), "detect_only"),
                (RepairPolicy::full(), "full"),
            ] {
                arms.push(campaign.run_arm(rate, drift, policy, name));
            }
        }
    }
    let cache = campaign.cache.borrow();
    CampaignReport {
        baseline,
        arms,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
    }
}

/// What the smoke acceptance check measured, and what it found wrong.
#[derive(Debug, Clone, Default)]
pub struct SmokeCheck {
    /// One human-readable line per checked fault rate.
    pub summary: Vec<String>,
    /// One line per failed check; empty when the check passes.
    pub failures: Vec<String>,
}

/// The repair-ladder acceptance check on a `--smoke` campaign: at a 1 %
/// fault rate the full ladder must recover at least half of the accuracy
/// lost to faults (trivially satisfied if the loss is under one point),
/// and at 10 % the part must report degraded tiles while still answering
/// with a finite accuracy.
///
/// # Panics
///
/// Panics if the report lacks the 1 % or 10 % arms.
pub fn smoke_check(report: &CampaignReport) -> SmokeCheck {
    let find = |rate: f64, policy: &str| {
        report
            .arms
            .iter()
            .find(|a| (a.rate - rate).abs() < 1e-12 && a.policy == policy)
            .expect("arm present")
    };
    let mut check = SmokeCheck::default();

    let no_rep = find(0.01, "detect_only");
    let full = find(0.01, "full");
    let lost = report.baseline - no_rep.accuracy_mean;
    let recovered = full.accuracy_mean - no_rep.accuracy_mean;
    let frac = if lost.abs() > 1e-12 {
        recovered / lost
    } else {
        1.0
    };
    check.summary.push(format!(
        "smoke @ 1%: baseline {:.3}, no-repair {:.3}, full {:.3} \
         -> lost {:.3}, recovered {:.3} ({:.0}% of loss)",
        report.baseline,
        no_rep.accuracy_mean,
        full.accuracy_mean,
        lost,
        recovered,
        frac * 100.0
    ));
    if lost > 0.01 && frac < 0.5 {
        check.failures.push(format!(
            "repair ladder recovered {frac:.2} < 0.5 of the accuracy loss"
        ));
    }

    let heavy = find(0.10, "full");
    check.summary.push(format!(
        "smoke @ 10%: accuracy {:.3} (min {:.3}), {:.1} degraded tiles/run, \
         spare utilization {:.0}%",
        heavy.accuracy_mean,
        heavy.accuracy_min,
        heavy.degraded_tiles_mean,
        heavy.spare_utilization * 100.0
    ));
    if heavy.degraded_tiles_mean <= 0.0 {
        check
            .failures
            .push("10 % faults must leave degraded tiles in the health report".to_owned());
    }
    if !heavy.accuracy_mean.is_finite() {
        check
            .failures
            .push("degraded part must still produce finite accuracy".to_owned());
    }
    check
}
