//! Hot repair under live serving: a served MLP-1 is aged mid-traffic,
//! its background scrubber detects the regression, repairs it and
//! publishes the repaired epoch — while clients keep sending — and no
//! admitted request is rejected, expired, failed or lost.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use resipe::inference::{CompileOptions, HardwareNetwork};
use resipe::repair::RepairPolicy;
use resipe::scrub::ScrubConfig;
use resipe_analog::units::Seconds;
use resipe_nn::data::synth_digits;
use resipe_nn::models;
use resipe_nn::tensor::Tensor;
use resipe_nn::train::{Sgd, TrainConfig};
use resipe_reram::aging::{AgingClock, AgingConfig};
use resipe_reram::faults::RetentionDrift;
use resipe_serve::{Client, ModelSpec, Server, ServerConfig};

/// Scrub policy sharp enough to see smooth drift (the 0.4 default only
/// trips on hard faults), on a short cadence.
fn sensitive_scrub() -> ScrubConfig {
    let mut policy = RepairPolicy::full();
    policy.bist.cell_threshold = 0.05;
    ScrubConfig::new()
        .with_policy(policy)
        .with_interval(Duration::from_millis(5))
        .with_seed(7)
}

#[test]
fn scrubber_repairs_an_aged_served_network_without_losing_a_request() {
    const CLIENTS: usize = 3;
    let train = synth_digits(48, 1).unwrap();
    let mut net = models::mlp1(7).unwrap();
    Sgd::new(TrainConfig::new(1).with_learning_rate(0.1))
        .fit(&mut net, &train)
        .unwrap();
    let (calib, _) = train.batch(&(0..16).collect::<Vec<_>>()).unwrap();
    let hw = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).unwrap();
    let shape = train.sample_shape().to_vec();

    let server = Server::builder()
        .config(ServerConfig::default().with_max_wait(Duration::from_micros(300)))
        .register_model(
            "mlp1",
            ModelSpec::compiled(hw, &shape).with_scrub(sensitive_scrub()),
        )
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Clients send until told to stop, so traffic spans the aging
    // publish and the repair swap.
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let stop = Arc::clone(&stop);
        let (sample, _) = train.batch(&[c]).unwrap();
        let sample = Tensor::from_vec(sample.data().to_vec(), &shape).unwrap();
        clients.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut replies = 0u64;
            while !stop.load(Ordering::Relaxed) || replies == 0 {
                client.infer(&sample).unwrap();
                replies += 1;
            }
            replies
        }));
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(2));
        }
    };
    wait_for("traffic before aging", &|| {
        server.stats().completed >= CLIENTS as u64
    });

    // Two retention time constants of drift: every tile regresses past
    // the 0.05-swing threshold.
    let drift = RetentionDrift::new(Seconds(1e6)).unwrap();
    let aging = AgingConfig::new(Seconds(100.0), drift)
        .unwrap()
        .with_seed(0xa9e);
    let step = AgingClock::new(aging).advance(20_000).unwrap();
    server
        .network()
        .expect("served network")
        .age(&step)
        .unwrap();

    // The scrubber runs on its own cadence; its repair counter moves
    // only after the repaired epoch is published. Traffic then keeps
    // flowing on the repaired epoch before the clients stop.
    wait_for("a scrub repair under load", &|| {
        server.stats().scrub_repairs > 0
    });
    let at_repair = server.stats().completed;
    wait_for("traffic after the repair", &|| {
        server.stats().completed >= at_repair + CLIENTS as u64
    });
    stop.store(true, Ordering::Relaxed);
    let replies: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();

    let stats = server.stats();
    assert!(
        stats.plan_swaps >= 2,
        "expected the aging publish plus a repair swap, saw {}",
        stats.plan_swaps
    );
    assert_eq!(
        stats.accepted, stats.completed,
        "an admitted request went unanswered"
    );
    assert_eq!(stats.completed, replies, "every reply reached its client");
    assert_eq!(stats.rejected_busy, 0);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.shutdown_rejects, 0);
    assert_eq!(stats.engine_errors, 0);
}
