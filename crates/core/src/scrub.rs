//! Background scrubbing: BIST-walk idle tiles, repair degradation, and
//! hot-swap the repaired state under live traffic.
//!
//! A deployed part accumulates damage while serving (see
//! [`resipe_reram::aging`]): retention drift relaxes conductances and
//! endurance wear strikes cells stuck. The [`Scrubber`] is the defensive
//! counterpart — a background loop that
//!
//! 1. walks every tile of the currently-published
//!    [`NetworkEpoch`](crate::inference::HardwareNetwork) and runs the
//!    same [`run_bist`] probe the compile-time repair ladder uses;
//! 2. compares each tile's failing-column count against a **per-tile
//!    health baseline** recorded when the scrubber attached (so tiles
//!    that were already degraded at compile time are not futilely
//!    re-repaired every pass);
//! 3. on regression, clones the layer's crossbar state *off the hot
//!    path*, runs the [`repair_tile`](crate::repair::repair_tile) ladder
//!    on the clone, opening from the detection probe's report (the tile
//!    is not probed twice), and
//! 4. publishes every repaired layer in **one atomic epoch swap**:
//!    in-flight requests finish on the epoch they loaded, new requests
//!    see the repaired network, and no request ever observes a torn mix
//!    of pre- and post-repair layers.
//!
//! # Determinism
//!
//! Repair programming noise is drawn from a substream chain of the
//! scrubber's seed: pass → layer → tile. A scrub pass is therefore a
//! pure function of `(seed, pass index, published state)` — two
//! scrubbers attached to bit-identical networks repair them into
//! bit-identical states, which is what lets concurrency tests pin
//! hot-swapped outputs against a precomputed reference.
//!
//! # Wall clock
//!
//! The only wall-clock reads are observational: the pass interval of the
//! background thread, the time spent inside each pass, and the
//! degraded-serving span (detection → publish) reported to telemetry.
//! None of them influences a repaired bit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::ResipeError;
use crate::inference::{HardwareNetwork, LayerState};
use crate::repair::{repair_tile_from, run_bist, RepairPolicy};
use crate::seeds;
use crate::telemetry::Counter;

/// Configures the background scrubber.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubConfig {
    /// Sleep between background scrub passes.
    pub interval: Duration,
    /// Detection threshold and repair ladder applied to regressed tiles.
    pub policy: RepairPolicy,
    /// Base seed of the repair programming-noise substream chain.
    pub seed: u64,
}

impl ScrubConfig {
    /// The default scrub loop: a 50 ms pass interval, the full repair
    /// ladder, seed 0.
    pub fn new() -> ScrubConfig {
        ScrubConfig {
            interval: Duration::from_millis(50),
            policy: RepairPolicy::full(),
            seed: 0,
        }
    }

    /// Sets the background pass interval.
    pub fn with_interval(mut self, interval: Duration) -> ScrubConfig {
        self.interval = interval;
        self
    }

    /// Sets the detection/repair policy.
    pub fn with_policy(mut self, policy: RepairPolicy) -> ScrubConfig {
        self.policy = policy;
        self
    }

    /// Sets the base seed of the repair noise substreams.
    pub fn with_seed(mut self, seed: u64) -> ScrubConfig {
        self.seed = seed;
        self
    }
}

impl Default for ScrubConfig {
    fn default() -> ScrubConfig {
        ScrubConfig::new()
    }
}

/// Lock-free scrub counters, shared between the scrubber and whoever
/// reports its activity (e.g. the serving stats).
#[derive(Debug, Default)]
pub struct ScrubCounters {
    passes: AtomicU64,
    tiles_scrubbed: AtomicU64,
    repairs: AtomicU64,
    swaps: AtomicU64,
    degraded_nanos: AtomicU64,
    pass_nanos: AtomicU64,
}

impl ScrubCounters {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ScrubStats {
        ScrubStats {
            passes: self.passes.load(Ordering::Relaxed),
            tiles_scrubbed: self.tiles_scrubbed.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            degraded_nanos: self.degraded_nanos.load(Ordering::Relaxed),
            pass_nanos: self.pass_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ScrubCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubStats {
    /// Scrub passes completed.
    pub passes: u64,
    /// Tiles BIST-checked across all passes.
    pub tiles_scrubbed: u64,
    /// Tile repairs triggered (tiles whose failing-column count exceeded
    /// their baseline).
    pub repairs: u64,
    /// Epoch swaps published by the scrubber.
    pub swaps: u64,
    /// Wall-clock nanoseconds between detecting degradation and
    /// publishing the repaired epoch, summed over passes.
    pub degraded_nanos: u64,
    /// Wall-clock nanoseconds spent inside [`Scrubber::scrub_pass`]
    /// (BIST walk, repairs and publish), summed over passes — the
    /// scrubber's own cost, next to the serving work it shares the host
    /// with.
    pub pass_nanos: u64,
}

/// Outcome of one synchronous [`Scrubber::scrub_pass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubPassReport {
    /// Zero-based index of this pass on this scrubber.
    pub pass: u64,
    /// Tiles BIST-checked this pass.
    pub tiles_scrubbed: u64,
    /// Tile repairs triggered this pass.
    pub repairs: u64,
    /// `true` if a repaired epoch was published.
    pub swapped: bool,
    /// The epoch current after this pass (unchanged when `!swapped` and
    /// nothing else published concurrently).
    pub epoch: u64,
}

/// Shared state between the owning [`Scrubber`] handle and its
/// background thread.
#[derive(Debug)]
struct ScrubInner {
    hw: Arc<HardwareNetwork>,
    config: ScrubConfig,
    counters: Arc<ScrubCounters>,
    /// Per-`[layer][tile]` failing-column counts the scrubber considers
    /// "as healthy as this tile gets": recorded at attach, lowered (or
    /// raised, for permanently degraded tiles) to the post-repair count
    /// after each repair. A tile is only repaired when it regresses
    /// *past* its baseline.
    ///
    /// The lock is held for a whole pass, so passes run one at a time. A
    /// pass stages its new entries and commits them only after the epoch
    /// carrying those repairs is published, so the baseline always
    /// describes a published epoch. A pass that panics or fails midway
    /// therefore leaves the baseline exactly as the previous pass left
    /// it: a poisoned lock guards consistent data and is recovered, not
    /// propagated.
    baseline: Mutex<Vec<Vec<usize>>>,
    stop: AtomicBool,
}

impl ScrubInner {
    /// One synchronous scrub pass over the currently-published epoch,
    /// with its wall-clock time added to the pass counters.
    fn scrub_pass(&self) -> Result<ScrubPassReport, ResipeError> {
        let t0 = Instant::now();
        let report = self.walk_and_repair();
        let nanos = t0.elapsed().as_nanos() as u64;
        self.counters.pass_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.hw.telemetry().add(Counter::ScrubNanos, nanos);
        report
    }

    /// The pass itself: BIST every tile, repair regressions, publish.
    fn walk_and_repair(&self) -> Result<ScrubPassReport, ResipeError> {
        let pass = self.counters.passes.fetch_add(1, Ordering::Relaxed);
        let pass_seed = seeds::substream(self.config.seed, pass);
        let epoch = self.hw.current_epoch();
        let engine = self.hw.engine();
        let telemetry = self.hw.telemetry().clone();
        let mut baseline = self.baseline.lock().unwrap_or_else(PoisonError::into_inner);

        // `(layer, tile, failing after repair)`, committed to `baseline`
        // once the repairs are published. Each tile reads only its own
        // entry, once per pass, so staging changes no decision.
        let mut staged: Vec<(usize, usize, usize)> = Vec::new();
        let mut updates: Vec<(usize, Arc<LayerState>)> = Vec::new();
        let mut tiles_scrubbed = 0u64;
        let mut repairs = 0u64;
        let mut degraded_at: Option<Instant> = None;
        for (li, state) in epoch.layers.iter().enumerate() {
            let layer_seed = seeds::substream(pass_seed, li as u64);
            let window = state.mapped.window();
            // The repair clone is built lazily: a layer whose tiles all
            // pass is never copied and its `LayerState` Arc (with its
            // built `BatchPlan`) carries over into the next epoch as-is.
            let mut repaired = None;
            for ti in 0..state.mapped.tiles().len() {
                tiles_scrubbed += 1;
                let report = run_bist(
                    engine,
                    &state.mapped.tiles()[ti],
                    window,
                    &self.config.policy.bist,
                )?;
                if report.failing_count() <= baseline[li][ti] {
                    continue;
                }
                if degraded_at.is_none() {
                    degraded_at = Some(Instant::now());
                }
                let mapped = repaired.get_or_insert_with(|| state.mapped.clone());
                let mut rng = StdRng::seed_from_u64(seeds::substream(layer_seed, ti as u64));
                let health = repair_tile_from(
                    engine,
                    mapped,
                    ti,
                    li,
                    &self.config.policy,
                    &report,
                    &mut rng,
                )?;
                // Whatever the ladder could not fix is this tile's new
                // normal — do not burn pulses on it again every pass.
                staged.push((li, ti, health.failing_after));
                repairs += 1;
            }
            if let Some(mapped) = repaired {
                updates.push((li, Arc::new(LayerState::new(mapped, state.encoding()))));
            }
        }

        let swapped = !updates.is_empty();
        let current = if swapped {
            let next = self.hw.publish_layer_updates(updates);
            self.counters.swaps.fetch_add(1, Ordering::Relaxed);
            next
        } else {
            self.hw.epoch()
        };
        for (li, ti, failing_after) in staged {
            baseline[li][ti] = failing_after;
        }
        drop(baseline);
        if let Some(t0) = degraded_at {
            let nanos = t0.elapsed().as_nanos() as u64;
            self.counters
                .degraded_nanos
                .fetch_add(nanos, Ordering::Relaxed);
            telemetry.add(Counter::DegradedServingNanos, nanos);
        }
        self.counters
            .tiles_scrubbed
            .fetch_add(tiles_scrubbed, Ordering::Relaxed);
        self.counters.repairs.fetch_add(repairs, Ordering::Relaxed);
        telemetry.add(Counter::ScrubPasses, 1);
        telemetry.add(Counter::TilesScrubbed, tiles_scrubbed);
        telemetry.add(Counter::ScrubRepairs, repairs);
        Ok(ScrubPassReport {
            pass,
            tiles_scrubbed,
            repairs,
            swapped,
            epoch: current,
        })
    }
}

/// A background scrubber attached to one [`HardwareNetwork`].
///
/// Use [`Scrubber::scrub_pass`] to scrub synchronously (campaigns,
/// tests) or [`Scrubber::start`]/[`Scrubber::stop`] to run passes on a
/// background thread every [`ScrubConfig::interval`]. Dropping the
/// scrubber stops the thread.
#[derive(Debug)]
pub struct Scrubber {
    inner: Arc<ScrubInner>,
    /// The background thread, if running. Every holder replaces the
    /// `Option` in one step, so a poisoned lock still guards a valid
    /// handle (or none) and is recovered.
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Scrubber {
    /// Attaches a scrubber to `hw`, recording the per-tile health
    /// baseline from the currently-published epoch.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from the baseline BIST pass.
    pub fn new(hw: Arc<HardwareNetwork>, config: ScrubConfig) -> Result<Scrubber, ResipeError> {
        let epoch = hw.current_epoch();
        let mut baseline = Vec::with_capacity(epoch.layers.len());
        for state in &epoch.layers {
            let window = state.mapped.window();
            let mut layer_baseline = Vec::with_capacity(state.mapped.tiles().len());
            for tile in state.mapped.tiles() {
                let report = run_bist(hw.engine(), tile, window, &config.policy.bist)?;
                layer_baseline.push(report.failing_count());
            }
            baseline.push(layer_baseline);
        }
        drop(epoch);
        Ok(Scrubber {
            inner: Arc::new(ScrubInner {
                hw,
                config,
                counters: Arc::new(ScrubCounters::default()),
                baseline: Mutex::new(baseline),
                stop: AtomicBool::new(false),
            }),
            handle: Mutex::new(None),
        })
    }

    /// The network this scrubber is attached to.
    pub fn network(&self) -> &Arc<HardwareNetwork> {
        &self.inner.hw
    }

    /// The shared counter handle (clone it into serving stats).
    pub fn counters(&self) -> Arc<ScrubCounters> {
        Arc::clone(&self.inner.counters)
    }

    /// A point-in-time copy of the scrub counters.
    pub fn stats(&self) -> ScrubStats {
        self.inner.counters.snapshot()
    }

    /// Runs one synchronous scrub pass on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from the BIST probes.
    pub fn scrub_pass(&self) -> Result<ScrubPassReport, ResipeError> {
        self.inner.scrub_pass()
    }

    /// Starts the background scrub thread (idempotent).
    pub fn start(&self) {
        let mut handle = self.handle.lock().unwrap_or_else(PoisonError::into_inner);
        if handle.is_some() {
            return;
        }
        self.inner.stop.store(false, Ordering::Release);
        let inner = Arc::clone(&self.inner);
        *handle = Some(
            std::thread::Builder::new()
                .name("resipe-scrub".into())
                .spawn(move || {
                    while !inner.stop.load(Ordering::Acquire) {
                        // BIST errors are engine-configuration problems
                        // that compile already validated; a background
                        // failure must not kill serving, so the pass is
                        // simply retried next interval.
                        let _ = inner.scrub_pass();
                        std::thread::park_timeout(inner.config.interval);
                    }
                })
                .expect("spawn scrub thread"),
        );
    }

    /// Stops the background scrub thread and waits for it to exit.
    /// Synchronous [`Scrubber::scrub_pass`] calls remain available.
    pub fn stop(&self) {
        let handle = {
            let mut guard = self.handle.lock().unwrap_or_else(PoisonError::into_inner);
            guard.take()
        };
        if let Some(handle) = handle {
            self.inner.stop.store(true, Ordering::Release);
            handle.thread().unpark();
            // A pass that panicked has already ended the thread, and the
            // state it shared stays consistent (see `ScrubInner::baseline`),
            // so stopping succeeds either way.
            let _ = handle.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::{CompileOptions, HardwareNetwork};
    use resipe_analog::units::Seconds;
    use resipe_nn::data::synth_digits;
    use resipe_nn::models;
    use resipe_nn::train::{Sgd, TrainConfig};
    use resipe_reram::aging::{AgingClock, AgingConfig};
    use resipe_reram::faults::RetentionDrift;

    fn compiled_mlp() -> (Arc<HardwareNetwork>, resipe_nn::tensor::Tensor) {
        let train = synth_digits(120, 1).unwrap();
        let mut net = models::mlp1(7).unwrap();
        Sgd::new(TrainConfig::new(3).with_learning_rate(0.1))
            .fit(&mut net, &train)
            .unwrap();
        let (calib, _) = train.batch(&(0..16).collect::<Vec<_>>()).unwrap();
        let hw = HardwareNetwork::compile(&net, &calib, &CompileOptions::paper()).unwrap();
        let (x, _) = train.batch(&[0, 1, 2, 3]).unwrap();
        (Arc::new(hw), x)
    }

    /// Drift deep enough to trip the scrub BIST on most columns.
    fn heavy_aging_step() -> resipe_reram::aging::AgingStep {
        let drift = RetentionDrift::new(Seconds(1e6)).unwrap();
        let cfg = AgingConfig::new(Seconds(100.0), drift).unwrap();
        let mut clock = AgingClock::new(cfg);
        clock.advance(20_000).unwrap()
    }

    /// A scrub policy with a BIST threshold low enough that heavy drift
    /// trips it (drift is a smooth relaxation, not a full-window flip).
    fn sensitive_config() -> ScrubConfig {
        let mut policy = RepairPolicy::full();
        policy.bist.cell_threshold = 0.05;
        ScrubConfig::new().with_policy(policy).with_seed(7)
    }

    #[test]
    fn healthy_network_scrubs_clean_without_swapping() {
        let (hw, _) = compiled_mlp();
        let scrubber = Scrubber::new(Arc::clone(&hw), sensitive_config()).unwrap();
        let report = scrubber.scrub_pass().unwrap();
        assert_eq!(report.repairs, 0);
        assert!(!report.swapped);
        assert!(report.tiles_scrubbed > 0);
        assert_eq!(hw.epoch(), 0, "no repair must publish no epoch");
        let stats = scrubber.stats();
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.repairs, 0);
        assert_eq!(stats.swaps, 0);
        assert_eq!(stats.degraded_nanos, 0);
    }

    #[test]
    fn scrub_repairs_aged_network_and_recovers_outputs() {
        let (hw, x) = compiled_mlp();
        let fresh = hw.forward(&x).unwrap();
        // The baseline is recorded on the fresh network, so a pass right
        // after attach finds nothing to do...
        let scrubber = Scrubber::new(Arc::clone(&hw), sensitive_config()).unwrap();
        let quiet = scrubber.scrub_pass().unwrap();
        assert_eq!(quiet.repairs, 0);

        // ...but aging past the baseline triggers repair.
        hw.age(&heavy_aging_step()).unwrap();
        let aged = hw.forward(&x).unwrap();
        assert_ne!(fresh, aged, "heavy drift must move the logits");
        let aged_err = resipe_nn::metrics::mean_absolute_error(&fresh, &aged).unwrap();

        let report = scrubber.scrub_pass().unwrap();
        assert!(report.repairs > 0, "regression past baseline must repair");
        assert!(report.swapped);
        assert_eq!(hw.epoch(), 2, "one aging + one scrub publish");
        assert_eq!(hw.plan_swaps(), 2);

        let scrubbed = hw.forward(&x).unwrap();
        let scrubbed_err = resipe_nn::metrics::mean_absolute_error(&fresh, &scrubbed).unwrap();
        assert!(
            scrubbed_err < aged_err,
            "scrub must pull outputs back toward fresh: {scrubbed_err} vs {aged_err}"
        );
        let stats = scrubber.stats();
        assert_eq!(stats.passes, 2);
        assert_eq!(stats.swaps, 1);
        assert!(stats.degraded_nanos > 0);
    }

    #[test]
    fn scrub_repair_is_deterministic_per_seed() {
        let run = || {
            let (hw, x) = compiled_mlp();
            let scrubber =
                Scrubber::new(Arc::clone(&hw), sensitive_config().with_seed(99)).unwrap();
            hw.age(&heavy_aging_step()).unwrap();
            let report = scrubber.scrub_pass().unwrap();
            assert!(report.repairs > 0, "aging past baseline must repair");
            hw.forward(&x).unwrap()
        };
        assert_eq!(run(), run(), "same seed chain must repair bit-identically");
    }

    #[test]
    fn poisoned_locks_are_recovered() {
        let (hw, x) = compiled_mlp();
        let config = sensitive_config().with_interval(Duration::from_millis(1));
        let scrubber = Scrubber::new(Arc::clone(&hw), config).unwrap();
        let reference = Scrubber::new(Arc::new(hw.as_ref().clone()), config).unwrap();
        // Holders that panic poison the baseline lock and the handle lock.
        std::thread::scope(|s| {
            let baseline = s.spawn(|| {
                let _guard = scrubber.inner.baseline.lock();
                panic!("poison the baseline lock");
            });
            assert!(baseline.join().is_err());
            let handle = s.spawn(|| {
                let _guard = scrubber.handle.lock();
                panic!("poison the handle lock");
            });
            assert!(handle.join().is_err());
        });
        assert!(scrubber.inner.baseline.is_poisoned());
        assert!(scrubber.handle.is_poisoned());

        // A synchronous pass still repairs, exactly as an unpoisoned
        // scrubber with the same seed does.
        let step = heavy_aging_step();
        hw.age(&step).unwrap();
        reference.network().age(&step).unwrap();
        let report = scrubber.scrub_pass().unwrap();
        assert!(report.repairs > 0 && report.swapped);
        assert_eq!(report, reference.scrub_pass().unwrap());
        assert_eq!(
            hw.forward(&x).unwrap(),
            reference.network().forward(&x).unwrap()
        );

        // The background thread still starts, scrubs and stops.
        scrubber.start();
        let t0 = Instant::now();
        while scrubber.stats().passes < 3 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
        }
        scrubber.stop();
        assert!(scrubber.stats().passes >= 3, "background passes must run");
        assert!(scrubber.stats().pass_nanos > 0);
    }

    #[test]
    fn background_thread_starts_scrubs_and_stops() {
        let (hw, _) = compiled_mlp();
        let config = sensitive_config().with_interval(Duration::from_millis(1));
        let scrubber = Scrubber::new(Arc::clone(&hw), config).unwrap();
        scrubber.start();
        scrubber.start(); // idempotent
        let t0 = Instant::now();
        while scrubber.stats().passes == 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
        }
        scrubber.stop();
        let passes = scrubber.stats().passes;
        assert!(passes > 0, "background thread must complete passes");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(scrubber.stats().passes, passes, "stop must halt passes");
        scrubber.stop(); // idempotent
    }
}
