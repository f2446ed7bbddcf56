//! The live-traffic resilience campaign behind `scrub_sweep`: accuracy
//! and availability under online aging, with and without background
//! scrubbing.
//!
//! Two phases run against the **same** trained and compiled MLP-1:
//!
//! - **Accuracy curves** — two bit-identical clones of the compiled
//!   network age on the same deterministic [`AgingClock`] schedule
//!   (retention drift driven by served-request count). One clone is left
//!   alone (scrub OFF); the other gets a [`Scrubber`] pass after every
//!   aging checkpoint (scrub ON). The OFF curve must degrade
//!   monotonically; the ON curve must finish within one accuracy point
//!   of the fresh compile.
//! - **Availability under live repair** — a real [`Server`] with an
//!   attached background scrubber serves concurrent clients over
//!   loopback TCP while the main thread ages the served network
//!   mid-load. Every request must be answered: zero busy rejects, zero
//!   expiries, zero shutdown rejects, `accepted == completed`, while
//!   the scrubber detects the regression and hot-swaps repaired state.
//!
//! [`CampaignReport::failures`] lists every resilience check that does
//! not hold; `scrub_sweep` exits non-zero on any, and the crate's tests
//! run the `--smoke` campaign and require none.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use resipe::inference::{CompileOptions, HardwareNetwork};
use resipe::repair::RepairPolicy;
use resipe::scrub::{ScrubConfig, Scrubber};
use resipe_analog::units::Seconds;
use resipe_nn::data::synth_digits;
use resipe_nn::models;
use resipe_nn::tensor::Tensor;
use resipe_nn::train::{Sgd, TrainConfig};
use resipe_reram::aging::{AgingClock, AgingConfig};
use resipe_reram::faults::RetentionDrift;
use resipe_serve::{Client, ModelSpec, Server, ServerConfig, ServerStats};

use crate::Args;

/// The campaign's shape, from `scrub_sweep`'s command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Training-set size.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Aging checkpoints on each accuracy curve (at least one).
    pub checkpoints: usize,
    /// Served requests between checkpoints (at least one).
    pub step_requests: u64,
    /// Wall-clock seconds each served request ages the part by.
    pub seconds_per_request: f64,
    /// Retention-drift time constant in seconds.
    pub drift_tau_s: f64,
    /// Concurrent clients in the availability phase (at least one).
    pub clients: usize,
    /// Requests per client (at least one).
    pub per_client: usize,
}

impl CampaignConfig {
    /// Reads `--smoke`, `--train`, `--test`, `--epochs`, `--checkpoints`,
    /// `--step-requests`, `--seconds-per-request`, `--drift-tau`,
    /// `--clients` and `--requests`. `--smoke` shrinks the defaults.
    pub fn from_args(args: &Args) -> CampaignConfig {
        let smoke = args.has("smoke");
        CampaignConfig {
            n_train: args.usize_of("train", if smoke { 200 } else { 600 }),
            n_test: args.usize_of("test", if smoke { 120 } else { 300 }),
            epochs: args.usize_of("epochs", if smoke { 2 } else { 6 }),
            checkpoints: args
                .usize_of("checkpoints", if smoke { 4 } else { 8 })
                .max(1),
            step_requests: args.usize_of("step-requests", 5_000).max(1) as u64,
            seconds_per_request: args.f64_of("seconds-per-request", 100.0),
            drift_tau_s: args.f64_of("drift-tau", 1e6),
            clients: args.usize_of("clients", 4).max(1),
            per_client: args
                .usize_of("requests", if smoke { 40 } else { 120 })
                .max(1),
        }
    }
}

/// Detection policy sharp enough to see smooth retention drift: the
/// default 0.4-swing threshold only trips on hard faults, while drift
/// relaxes every cell a little — probe at 0.05 swings instead.
fn drift_sensitive_policy() -> RepairPolicy {
    let mut policy = RepairPolicy::full();
    policy.bist.cell_threshold = 0.05;
    policy
}

/// One accuracy checkpoint on an aging curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Requests served when the checkpoint was taken.
    pub served_requests: u64,
    /// Test accuracy at the checkpoint.
    pub accuracy: f64,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The configuration it ran.
    pub config: CampaignConfig,
    /// Accuracy of the fresh compile.
    pub fresh_accuracy: f64,
    /// The unscrubbed clone's curve, fresh point first.
    pub scrub_off: Vec<Point>,
    /// The scrubbed clone's curve, fresh point first.
    pub scrub_on: Vec<Point>,
    /// Repairs the scrub-on curve's passes made.
    pub curve_repairs: u64,
    /// Requests the availability phase sent.
    pub total_requests: u64,
    /// Wall time of the availability phase, seconds.
    pub elapsed_s: f64,
    /// Server counters after the availability phase.
    pub stats: ServerStats,
}

impl CampaignReport {
    fn final_accuracy(curve: &[Point]) -> f64 {
        curve.last().map_or(0.0, |p| p.accuracy)
    }

    /// Scrub OFF degrades monotonically, within a 0.02 tolerance for the
    /// nonlinear readout jiggling a point or two.
    pub fn degraded_monotone(&self) -> bool {
        self.scrub_off
            .windows(2)
            .all(|w| w[1].accuracy <= w[0].accuracy + 0.02)
    }

    /// Fresh accuracy minus the scrub-on curve's final accuracy.
    pub fn final_gap(&self) -> f64 {
        self.fresh_accuracy - Self::final_accuracy(&self.scrub_on)
    }

    /// Scrub ON ends within one accuracy point of fresh.
    pub fn recovered(&self) -> bool {
        self.final_gap() <= 0.01
    }

    /// Every served request was accepted and completed, and none was
    /// rejected, expired or failed.
    pub fn lossless(&self) -> bool {
        let total = self.total_requests;
        let s = &self.stats;
        s.accepted == total
            && s.completed == total
            && s.rejected_busy == 0
            && s.expired == 0
            && s.shutdown_rejects == 0
            && s.engine_errors == 0
    }

    /// One line per resilience check that does not hold; empty when the
    /// campaign passes.
    pub fn failures(&self) -> Vec<String> {
        let curve = |points: &[Point]| points.iter().map(|p| p.accuracy).collect::<Vec<_>>();
        let off_final = Self::final_accuracy(&self.scrub_off);
        let on_final = Self::final_accuracy(&self.scrub_on);
        let s = &self.stats;
        let checks = [
            (
                self.degraded_monotone(),
                format!(
                    "scrub-off curve failed to degrade monotonically: {:?}",
                    curve(&self.scrub_off)
                ),
            ),
            (
                off_final < self.fresh_accuracy - 0.02,
                format!(
                    "aging too gentle to measure: scrub-off accuracy {off_final:.4} \
                     vs fresh {:.4}",
                    self.fresh_accuracy
                ),
            ),
            (
                self.recovered(),
                format!(
                    "scrubber failed to recover accuracy: {on_final:.4} vs fresh \
                     {:.4} (gap {:.4} > 0.01)",
                    self.fresh_accuracy,
                    self.final_gap()
                ),
            ),
            (
                self.curve_repairs > 0,
                "scrub-on curve saw no repairs".to_owned(),
            ),
            (
                self.lossless(),
                format!(
                    "availability broke under hot repair: accepted {}, completed {}, \
                     busy {}, expired {}, shutdown {}, engine errors {} (of {})",
                    s.accepted,
                    s.completed,
                    s.rejected_busy,
                    s.expired,
                    s.shutdown_rejects,
                    s.engine_errors,
                    self.total_requests
                ),
            ),
            (
                s.scrub_passes > 0,
                "background scrubber never ran a pass".to_owned(),
            ),
            (
                s.scrub_repairs > 0,
                "background scrubber never repaired the aged network".to_owned(),
            ),
            (
                s.plan_swaps >= 2,
                format!(
                    "expected at least the aging publish and one repair swap, saw {}",
                    s.plan_swaps
                ),
            ),
        ];
        checks
            .into_iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, failure)| failure)
            .collect()
    }

    /// The `BENCH_scrub.json` document.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let s = &self.stats;
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"model\": \"MLP-1\",\n");
        json.push_str(&format!(
            "  \"fresh_accuracy\": {},\n",
            json_num(self.fresh_accuracy)
        ));
        json.push_str(&format!("  \"checkpoints\": {},\n", c.checkpoints));
        json.push_str(&format!(
            "  \"requests_per_checkpoint\": {},\n",
            c.step_requests
        ));
        json.push_str(&format!(
            "  \"seconds_per_request\": {},\n",
            json_num(c.seconds_per_request)
        ));
        json.push_str(&format!(
            "  \"drift_tau_s\": {},\n",
            json_num(c.drift_tau_s)
        ));
        json.push_str(&format!(
            "  \"scrub_off\": {},\n",
            curve_json(&self.scrub_off)
        ));
        json.push_str(&format!(
            "  \"scrub_on\": {},\n",
            curve_json(&self.scrub_on)
        ));
        json.push_str(&format!(
            "  \"degraded_monotone\": {},\n",
            self.degraded_monotone()
        ));
        json.push_str(&format!(
            "  \"final_gap\": {},\n",
            json_num(self.final_gap())
        ));
        json.push_str(&format!("  \"recovered\": {},\n", self.recovered()));
        json.push_str(&format!(
            "  \"scrub_repairs_curve\": {},\n",
            self.curve_repairs
        ));
        json.push_str(&format!(
            "  \"availability\": {{\"total_requests\": {}, \"elapsed_s\": {}, \
             \"accepted\": {}, \"completed\": {}, \"rejected_busy\": {}, \
             \"expired\": {}, \"shutdown_rejects\": {}, \"engine_errors\": {}, \
             \"scrub_passes\": {}, \"scrub_tiles\": {}, \"scrub_repairs\": {}, \
             \"plan_swaps\": {}, \"lossless\": {}}}\n",
            self.total_requests,
            json_num(self.elapsed_s),
            s.accepted,
            s.completed,
            s.rejected_busy,
            s.expired,
            s.shutdown_rejects,
            s.engine_errors,
            s.scrub_passes,
            s.scrub_tiles,
            s.scrub_repairs,
            s.plan_swaps,
            self.lossless()
        ));
        json.push_str("}\n");
        json
    }

    /// A one-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "scrub OFF: {:.4} -> {:.4} | scrub ON: {:.4} -> {:.4} (gap {:.4}) | \
             availability: {}/{} answered, {} repairs, {} swaps",
            self.fresh_accuracy,
            Self::final_accuracy(&self.scrub_off),
            self.fresh_accuracy,
            Self::final_accuracy(&self.scrub_on),
            self.final_gap(),
            self.stats.completed,
            self.total_requests,
            self.stats.scrub_repairs,
            self.stats.plan_swaps
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_owned()
    }
}

fn curve_json(points: &[Point]) -> String {
    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"served_requests\": {}, \"accuracy\": {}}}",
                p.served_requests,
                json_num(p.accuracy)
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

/// Trains MLP-1 and runs both phases, logging progress to stderr.
///
/// # Panics
///
/// Panics if training, compiling, aging, scrubbing, serving or a client
/// request fails outright; resilience checks that merely do not hold are
/// reported by [`CampaignReport::failures`] instead.
pub fn run(config: &CampaignConfig) -> CampaignReport {
    let c = config;
    eprintln!(
        "training MLP-1 on {} synthetic digits ({} epochs)...",
        c.n_train, c.epochs
    );
    let train = synth_digits(c.n_train, 1).expect("train set");
    let test = synth_digits(c.n_test, 2).expect("test set");
    let mut net = models::mlp1(7).expect("model");
    Sgd::new(TrainConfig::new(c.epochs).with_learning_rate(0.1))
        .fit(&mut net, &train)
        .expect("training");
    let (calib, _) = train.batch(&(0..32).collect::<Vec<_>>()).expect("calib");
    let hw = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).expect("compile");
    let fresh_accuracy = f64::from(hw.accuracy(&test).expect("fresh accuracy"));
    eprintln!("fresh accuracy: {fresh_accuracy:.4}");

    let drift = RetentionDrift::new(Seconds(c.drift_tau_s)).expect("drift model");
    let aging = AgingConfig::new(Seconds(c.seconds_per_request), drift)
        .expect("aging config")
        .with_seed(0xa9e);

    // ---- Phase 1: accuracy vs served requests, scrub OFF vs scrub ON.
    // Both clones start bit-identical and age on the same deterministic
    // schedule, so any divergence is the scrubber's doing.
    let hw_off = hw.clone();
    let mut clock_off = AgingClock::new(aging);
    let hw_on = Arc::new(hw.clone());
    let mut clock_on = AgingClock::new(aging);
    let scrub_config = ScrubConfig::new()
        .with_policy(drift_sensitive_policy())
        .with_seed(7);
    // Attached while fresh: the per-tile health baseline is recorded on
    // an undamaged part, so later drift registers as a regression.
    let scrubber = Scrubber::new(Arc::clone(&hw_on), scrub_config).expect("scrubber");

    let fresh = Point {
        served_requests: 0,
        accuracy: fresh_accuracy,
    };
    let mut scrub_off = vec![fresh];
    let mut scrub_on = vec![fresh];
    let mut curve_repairs = 0u64;
    for checkpoint in 1..=c.checkpoints {
        if let Some(step) = clock_off.advance(c.step_requests) {
            hw_off.age(&step).expect("age scrub-off clone");
        }
        let off_acc = f64::from(hw_off.accuracy(&test).expect("scrub-off accuracy"));
        scrub_off.push(Point {
            served_requests: clock_off.served(),
            accuracy: off_acc,
        });

        if let Some(step) = clock_on.advance(c.step_requests) {
            hw_on.age(&step).expect("age scrub-on clone");
        }
        let report = scrubber.scrub_pass().expect("scrub pass");
        curve_repairs += report.repairs;
        let on_acc = f64::from(hw_on.accuracy(&test).expect("scrub-on accuracy"));
        scrub_on.push(Point {
            served_requests: clock_on.served(),
            accuracy: on_acc,
        });
        eprintln!(
            "checkpoint {checkpoint}/{} ({} requests): scrub-off {off_acc:.4}, \
             scrub-on {on_acc:.4} ({} repairs this pass)",
            c.checkpoints,
            clock_off.served(),
            report.repairs
        );
    }

    // ---- Phase 2: availability while the served network is repaired
    // under live concurrent load.
    eprintln!(
        "availability: {} clients x {} requests with mid-load aging and \
         background scrubbing...",
        c.clients, c.per_client
    );
    let served_hw =
        HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).expect("compile");
    let total = c.clients * c.per_client;
    let sample_shape = train.sample_shape().to_vec();
    let width: usize = sample_shape.iter().product();
    let indices: Vec<usize> = (0..total).map(|i| i % train.len()).collect();
    let (corpus, _) = train.batch(&indices).expect("corpus");

    let mut server = Server::builder()
        .config(
            ServerConfig::default()
                .with_queue_capacity((2 * total).max(64))
                .with_scrub(
                    ScrubConfig::new()
                        .with_policy(drift_sensitive_policy())
                        .with_interval(Duration::from_millis(2))
                        .with_seed(7),
                ),
        )
        .register_model("mlp1", ModelSpec::compiled(served_hw, &sample_shape))
        .bind("127.0.0.1:0")
        .expect("server bind");
    let addr = server.local_addr();

    let load_start = Instant::now();
    let mut joins = Vec::new();
    for client_index in 0..c.clients {
        let corpus = corpus.clone();
        let sample_shape = sample_shape.clone();
        let per_client = c.per_client;
        joins.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("client");
            for r in 0..per_client {
                let idx = client_index * per_client + r;
                let sample = Tensor::from_vec(
                    corpus.data()[idx * width..(idx + 1) * width].to_vec(),
                    &sample_shape,
                )
                .expect("sample");
                let _ = client.infer(&sample).expect("infer under repair");
                // Pace the load so the window spans the mid-load aging
                // and at least a few background scrub passes.
                thread::sleep(Duration::from_micros(500));
            }
        }));
    }

    // Mid-load: age the served part. The background scrubber must catch
    // the regression and hot-swap repaired state with no request lost.
    thread::sleep(Duration::from_millis(10));
    let mut serve_clock = AgingClock::new(aging);
    let network = server.network().expect("served network handle");
    if let Some(step) = serve_clock.advance(c.step_requests * c.checkpoints as u64) {
        network.age(&step).expect("age served network");
    }

    for j in joins {
        j.join().expect("client thread");
    }
    // The scrubber runs on its own cadence; give it a bounded grace
    // window to catch the regression if the load finished too fast.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().scrub_repairs == 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    let elapsed_s = load_start.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();

    CampaignReport {
        config: *config,
        fresh_accuracy,
        scrub_off,
        scrub_on,
        curve_repairs,
        total_requests: total as u64,
        elapsed_s,
        stats,
    }
}
