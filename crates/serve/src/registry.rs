//! The model registry and replicated-shard execution layer.
//!
//! A server no longer fronts *one* compiled network: it fronts a
//! `ModelRegistry` of named models, each backed by a set of
//! `Replica`s — independent engine instances compiled with **distinct
//! variation/fault seeds** (distinct simulated "chips") — behind a
//! deterministic least-outstanding-requests balancer.
//!
//! Key properties:
//!
//! - **Lazy compilation through [`CompileCache`]** — a model registered
//!   from an uncompiled [`Network`] is not compiled at `bind` time; the
//!   first request (or the first `ModelEntry::replicas`
//!   resolution) compiles every replica through the shared cache, so a
//!   model nobody addresses costs nothing, and two replicas with
//!   identical options (e.g. [`CompileOptions::paper`], whose seed feeds
//!   no randomness) hit the cache after the first compile.
//! - **Replica health** — each replica carries a [`ReplicaHealth`]
//!   state. The balancer prefers `Healthy` replicas; a `Draining`
//!   replica receives no new traffic but keeps executing what it
//!   already owns (so a BIST-failing chip is rotated out without
//!   dropping a request); a `Sick` replica receives nothing. When *no*
//!   replica is `Healthy` the balancer falls back to `Draining` ones
//!   rather than failing traffic — drain is a preference, not a wall.
//! - **Deterministic balancing** — ties in outstanding-request counts
//!   break toward the lowest replica index, so a quiescent server
//!   always routes a given request sequence the same way.
//! - **Per-replica scrubbing** — when the model's spec attaches a
//!   [`ScrubConfig`], every replica with a real network gets its own
//!   background [`Scrubber`] (one BIST walker per chip, as the hardware
//!   would).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use resipe::cache::CompileCache;
use resipe::inference::{CompileOptions, HardwareNetwork};
use resipe::scrub::{ScrubConfig, Scrubber};
use resipe_nn::network::Network;
use resipe_nn::tensor::Tensor;

use crate::batcher::{BatchExecutor, NetworkExecutor, PendingRequest};
use crate::error::ServeError;
use crate::metrics::{LatencyHistogram, ModelStatsBlock, ReplicaStats, ServerCounters};
use crate::protocol::{ModelInfo, MAX_MODEL_NAME};
use crate::queue::BoundedQueue;

/// Health state of one engine replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplicaHealth {
    /// In rotation: the balancer routes new traffic here.
    Healthy = 0,
    /// Being rotated out: no new balanced traffic, but still executing —
    /// used while a BIST-failing chip finishes its outstanding work.
    /// Also the balancer's fallback when no replica is `Healthy`.
    Draining = 1,
    /// Out of rotation entirely.
    Sick = 2,
}

impl ReplicaHealth {
    /// Wire byte of this state (what [`ReplicaStats::health`] carries).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte; unknown values read as `Sick` (fail closed).
    pub fn from_u8(v: u8) -> ReplicaHealth {
        match v {
            0 => ReplicaHealth::Healthy,
            1 => ReplicaHealth::Draining,
            _ => ReplicaHealth::Sick,
        }
    }
}

/// How a model's replicas come to exist.
pub(crate) enum ModelSource {
    /// Compile `net` on first use through the shared [`CompileCache`];
    /// replica `r` compiles with `options.with_seed(options.seed + r)` —
    /// a distinct simulated chip per replica.
    Network {
        net: Network,
        calibration: Tensor,
        options: CompileOptions,
    },
    /// An already-compiled network; replica 0 serves it as-is and
    /// replicas 1.. serve independent clones (same programmed state,
    /// separate aging/repair trajectories).
    Compiled(HardwareNetwork),
    /// Arbitrary executors (the test seam). Replica `r` runs
    /// `executors[r % len]`.
    Executors(Vec<Arc<dyn BatchExecutor>>),
}

/// Everything needed to serve one model: where its engines come from,
/// what shape its samples have, and its per-model serving limits.
///
/// Build one with [`ModelSpec::network`], [`ModelSpec::compiled`], or
/// [`ModelSpec::executor`], then layer `with_*` overrides; unset knobs
/// inherit the server-wide [`ServerConfig`](crate::server::ServerConfig).
pub struct ModelSpec {
    pub(crate) source: ModelSource,
    pub(crate) sample_shape: Vec<usize>,
    pub(crate) replicas: usize,
    pub(crate) queue_capacity: Option<usize>,
    pub(crate) max_batch: Option<usize>,
    pub(crate) max_wait: Option<Duration>,
    pub(crate) workers: Option<usize>,
    pub(crate) scrub: Option<ScrubConfig>,
}

impl ModelSpec {
    fn new(source: ModelSource, sample_shape: &[usize]) -> ModelSpec {
        ModelSpec {
            source,
            sample_shape: sample_shape.to_vec(),
            replicas: 1,
            queue_capacity: None,
            max_batch: None,
            max_wait: None,
            workers: None,
            scrub: None,
        }
    }

    /// A model compiled lazily from `net` on first use, through the
    /// server's shared [`CompileCache`]. Replica `r` compiles with seed
    /// `options.seed + r`, so replicas model distinct chips whenever the
    /// options draw any randomness (variation, faults).
    ///
    /// `sample_shape` is the per-sample input shape *without* the batch
    /// dimension (e.g. `[1, 28, 28]` for MLP-1).
    pub fn network(
        net: Network,
        calibration: Tensor,
        options: CompileOptions,
        sample_shape: &[usize],
    ) -> ModelSpec {
        ModelSpec::new(
            ModelSource::Network {
                net,
                calibration,
                options,
            },
            sample_shape,
        )
    }

    /// A model served from an already-compiled network (no lazy
    /// compile). With more than one replica, replicas 1.. serve
    /// independent clones of `hw`.
    pub fn compiled(hw: HardwareNetwork, sample_shape: &[usize]) -> ModelSpec {
        ModelSpec::new(ModelSource::Compiled(hw), sample_shape)
    }

    /// A model served by an arbitrary [`BatchExecutor`] — the seam tests
    /// use to substitute deterministic mock engines. Every replica runs
    /// the same executor.
    pub fn executor(executor: Arc<dyn BatchExecutor>, sample_shape: &[usize]) -> ModelSpec {
        ModelSpec::new(ModelSource::Executors(vec![executor]), sample_shape)
    }

    /// Sets the replica count (default 1).
    pub fn with_replicas(mut self, replicas: usize) -> ModelSpec {
        self.replicas = replicas;
        self
    }

    /// Overrides the server-wide queue capacity for this model.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ModelSpec {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Overrides the server-wide max coalesced batch for this model.
    pub fn with_max_batch(mut self, max_batch: usize) -> ModelSpec {
        self.max_batch = Some(max_batch);
        self
    }

    /// Overrides the server-wide micro-batching linger window.
    pub fn with_max_wait(mut self, max_wait: Duration) -> ModelSpec {
        self.max_wait = Some(max_wait);
        self
    }

    /// Overrides the server-wide batch worker count for this model.
    pub fn with_workers(mut self, workers: usize) -> ModelSpec {
        self.workers = Some(workers);
        self
    }

    /// Attaches a background scrubber to every replica of this model.
    pub fn with_scrub(mut self, scrub: ScrubConfig) -> ModelSpec {
        self.scrub = Some(scrub);
        self
    }
}

/// One engine replica: an executor, its (optional) underlying network,
/// and its routing state.
pub(crate) struct Replica {
    pub index: u32,
    pub executor: Arc<dyn BatchExecutor>,
    /// The replica's own network, when serving real hardware (drives
    /// per-replica scrub attach and `plan_swaps` reporting).
    pub network: Option<Arc<HardwareNetwork>>,
    health: AtomicU8,
    /// Requests dispatched to this replica and not yet answered.
    pub outstanding: AtomicU64,
    /// Requests answered successfully, lifetime.
    pub completed: AtomicU64,
    /// Coalesced batches executed, lifetime.
    pub batches: AtomicU64,
}

impl Replica {
    fn new(
        index: u32,
        executor: Arc<dyn BatchExecutor>,
        network: Option<Arc<HardwareNetwork>>,
    ) -> Replica {
        Replica {
            index,
            executor,
            network,
            health: AtomicU8::new(ReplicaHealth::Healthy.as_u8()),
            outstanding: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    pub fn health(&self) -> ReplicaHealth {
        ReplicaHealth::from_u8(self.health.load(Ordering::Relaxed))
    }

    pub fn set_health(&self, health: ReplicaHealth) {
        self.health.store(health.as_u8(), Ordering::Relaxed);
    }

    fn stats(&self) -> ReplicaStats {
        ReplicaStats {
            index: self.index,
            health: self.health.load(Ordering::Relaxed),
            outstanding: self.outstanding.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// Deterministic replica selection: a valid `hint` naming a `Healthy`
/// replica wins; otherwise the `Healthy` replica with the fewest
/// outstanding requests (ties toward the lowest index); when none is
/// `Healthy`, the same rule over `Draining` replicas; `None` when every
/// replica is `Sick` (the caller answers `EngineError`).
pub(crate) fn pick_replica(replicas: &[Arc<Replica>], hint: Option<u32>) -> Option<Arc<Replica>> {
    if let Some(h) = hint {
        if let Some(r) = replicas.get(h as usize) {
            if r.health() == ReplicaHealth::Healthy {
                return Some(Arc::clone(r));
            }
        }
    }
    let least = |state: ReplicaHealth| {
        replicas
            .iter()
            .filter(|r| r.health() == state)
            .min_by_key(|r| (r.outstanding.load(Ordering::Relaxed), r.index))
            .map(Arc::clone)
    };
    least(ReplicaHealth::Healthy).or_else(|| least(ReplicaHealth::Draining))
}

/// What the first replica resolution consumes.
struct PendingInit {
    source: ModelSource,
    replicas: usize,
    scrub: Option<ScrubConfig>,
    cache: Arc<Mutex<CompileCache>>,
}

/// One registered model's runtime state: its queue, counters, serving
/// limits, and (lazily resolved) replica set.
pub(crate) struct ModelEntry {
    pub name: String,
    pub sample_shape: Vec<usize>,
    pub queue: Arc<BoundedQueue<PendingRequest>>,
    pub counters: Arc<ServerCounters>,
    pub latency: Arc<LatencyHistogram>,
    pub in_flight: Arc<AtomicU64>,
    pub max_batch: usize,
    pub max_wait: Duration,
    pub workers: usize,
    /// CPU nanoseconds the batch workers have run, summed over them;
    /// each worker charges its share after every batch.
    pub worker_cpu_nanos: AtomicU64,
    /// Lazily resolved replicas; a compile failure is cached (compiles
    /// are deterministic — retrying cannot succeed).
    replicas: OnceLock<Result<Vec<Arc<Replica>>, String>>,
    init: Mutex<Option<PendingInit>>,
    /// Background scrubbers started by replica resolution; stopped at
    /// server shutdown.
    scrubbers: Mutex<Vec<Scrubber>>,
}

impl ModelEntry {
    pub(crate) fn new(
        name: String,
        spec: ModelSpec,
        default_queue_capacity: usize,
        default_max_batch: usize,
        default_max_wait: Duration,
        default_workers: usize,
        cache: Arc<Mutex<CompileCache>>,
    ) -> ModelEntry {
        ModelEntry {
            name,
            sample_shape: spec.sample_shape,
            queue: Arc::new(BoundedQueue::new(
                spec.queue_capacity.unwrap_or(default_queue_capacity),
            )),
            counters: Arc::new(ServerCounters::default()),
            latency: Arc::new(LatencyHistogram::new()),
            in_flight: Arc::new(AtomicU64::new(0)),
            max_batch: spec.max_batch.unwrap_or(default_max_batch),
            max_wait: spec.max_wait.unwrap_or(default_max_wait),
            workers: spec.workers.unwrap_or(default_workers),
            worker_cpu_nanos: AtomicU64::new(0),
            replicas: OnceLock::new(),
            init: Mutex::new(Some(PendingInit {
                source: spec.source,
                replicas: spec.replicas.max(1),
                scrub: spec.scrub,
                cache,
            })),
            scrubbers: Mutex::new(Vec::new()),
        }
    }

    /// Resolves (compiling on first call) and returns the replica set.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Engine`] when replica compilation failed —
    /// now or on the first resolution (failures are cached).
    pub(crate) fn replicas(&self) -> Result<&[Arc<Replica>], ServeError> {
        let resolved = self.replicas.get_or_init(|| {
            let init = self
                .init
                .lock()
                .expect("init mutex poisoned")
                .take()
                .expect("first resolution consumes init exactly once");
            self.build_replicas(init)
        });
        match resolved {
            Ok(replicas) => Ok(replicas),
            Err(msg) => Err(ServeError::Engine(msg.clone())),
        }
    }

    fn build_replicas(&self, init: PendingInit) -> Result<Vec<Arc<Replica>>, String> {
        let networks: Vec<Option<Arc<HardwareNetwork>>> = match init.source {
            ModelSource::Network {
                net,
                calibration,
                options,
            } => {
                let mut cache = init.cache.lock().expect("compile cache poisoned");
                let mut nets = Vec::with_capacity(init.replicas);
                for r in 0..init.replicas {
                    let opts = options.with_seed(options.seed + r as u64);
                    let hw = cache
                        .get_or_compile(&net, &calibration, &opts)
                        .map_err(|e| format!("compiling model '{}' replica {r}: {e}", self.name))?;
                    nets.push(Some(Arc::new(hw)));
                }
                nets
            }
            ModelSource::Compiled(hw) => {
                let mut nets: Vec<Option<Arc<HardwareNetwork>>> = (1..init.replicas)
                    .map(|_| Some(Arc::new(hw.clone())))
                    .collect();
                nets.insert(0, Some(Arc::new(hw)));
                nets
            }
            ModelSource::Executors(executors) => {
                let replicas: Vec<Arc<Replica>> = (0..init.replicas)
                    .map(|r| {
                        Arc::new(Replica::new(
                            r as u32,
                            Arc::clone(&executors[r % executors.len()]),
                            None,
                        ))
                    })
                    .collect();
                return Ok(replicas);
            }
        };
        let mut replicas = Vec::with_capacity(networks.len());
        let mut scrubbers = Vec::new();
        for (r, network) in networks.into_iter().enumerate() {
            let hw = network.expect("hardware sources always carry a network");
            if let Some(scrub_config) = &init.scrub {
                let scrubber = Scrubber::new(Arc::clone(&hw), *scrub_config)
                    .map_err(|e| format!("scrubber for model '{}' replica {r}: {e}", self.name))?;
                scrubber.start();
                scrubbers.push(scrubber);
            }
            let executor: Arc<dyn BatchExecutor> =
                Arc::new(NetworkExecutor::new_shared(Arc::clone(&hw)));
            replicas.push(Arc::new(Replica::new(r as u32, executor, Some(hw))));
        }
        self.scrubbers
            .lock()
            .expect("scrubbers mutex poisoned")
            .extend(scrubbers);
        Ok(replicas)
    }

    /// The replica set if it has already been resolved successfully.
    pub(crate) fn replicas_if_resolved(&self) -> Option<&[Arc<Replica>]> {
        match self.replicas.get() {
            Some(Ok(replicas)) => Some(replicas),
            _ => None,
        }
    }

    /// Configured replica count (known before resolution).
    pub(crate) fn configured_replicas(&self) -> usize {
        if let Some(replicas) = self.replicas_if_resolved() {
            return replicas.len();
        }
        self.init
            .lock()
            .expect("init mutex poisoned")
            .as_ref()
            .map_or(0, |init| init.replicas)
    }

    /// Stops every scrubber this model's replicas started.
    pub(crate) fn stop_scrubbers(&self) {
        for scrubber in self
            .scrubbers
            .lock()
            .expect("scrubbers mutex poisoned")
            .iter()
        {
            scrubber.stop();
        }
    }

    /// Sum of scrub counters across this model's replicas' scrubbers:
    /// `(passes, tiles, repairs, pass wall-clock nanoseconds)`.
    pub(crate) fn scrub_totals(&self) -> (u64, u64, u64, u64) {
        let guard = self.scrubbers.lock().expect("scrubbers mutex poisoned");
        let mut totals = (0u64, 0u64, 0u64, 0u64);
        for scrubber in guard.iter() {
            let s = scrubber.stats();
            totals.0 += s.passes;
            totals.1 += s.tiles_scrubbed;
            totals.2 += s.repairs;
            totals.3 += s.pass_nanos;
        }
        totals
    }

    /// Sum of epoch swaps across resolved replica networks.
    pub(crate) fn plan_swap_total(&self) -> u64 {
        self.replicas_if_resolved().map_or(0, |replicas| {
            replicas
                .iter()
                .filter_map(|r| r.network.as_ref())
                .map(|hw| hw.plan_swaps())
                .sum()
        })
    }

    /// This model's stats block.
    pub(crate) fn stats_block(&self) -> ModelStatsBlock {
        ModelStatsBlock {
            name: self.name.clone(),
            queue_depth: self.queue.len() as u64,
            queue_capacity: self.queue.capacity() as u64,
            in_flight: self.in_flight.load(Ordering::Relaxed),
            accepted: ServerCounters::get(&self.counters.accepted),
            completed: ServerCounters::get(&self.counters.completed),
            rejected_busy: ServerCounters::get(&self.counters.rejected_busy),
            expired: ServerCounters::get(&self.counters.expired),
            bad_requests: ServerCounters::get(&self.counters.bad_requests),
            shutdown_rejects: ServerCounters::get(&self.counters.shutdown_rejects),
            engine_errors: ServerCounters::get(&self.counters.engine_errors),
            batches: ServerCounters::get(&self.counters.batches),
            batched_samples: ServerCounters::get(&self.counters.batched_samples),
            largest_batch: ServerCounters::get(&self.counters.largest_batch),
            latency: self.latency.snapshot(),
            replicas: self
                .replicas_if_resolved()
                .map(|replicas| replicas.iter().map(|r| r.stats()).collect())
                .unwrap_or_default(),
            worker_cpu_nanos: self.worker_cpu_nanos.load(Ordering::Relaxed),
        }
    }

    /// This model's [`ModelInfo`] row.
    pub(crate) fn info(&self) -> ModelInfo {
        let (replicas, healthy) = match self.replicas_if_resolved() {
            Some(set) => (
                set.len() as u32,
                set.iter()
                    .filter(|r| r.health() == ReplicaHealth::Healthy)
                    .count() as u32,
            ),
            // Unresolved replicas are healthy-by-construction: nothing
            // has run, so nothing can have failed BIST yet.
            None => {
                let n = self.configured_replicas() as u32;
                (n, n)
            }
        };
        ModelInfo {
            name: self.name.clone(),
            sample_shape: self.sample_shape.clone(),
            replicas,
            healthy,
        }
    }
}

/// The name → model map, plus the shared compile cache behind every
/// lazy model.
pub(crate) struct ModelRegistry {
    entries: Vec<Arc<ModelEntry>>,
    default_model: String,
}

impl ModelRegistry {
    pub(crate) fn new(entries: Vec<Arc<ModelEntry>>, default_model: String) -> ModelRegistry {
        debug_assert!(entries.iter().any(|e| e.name == default_model));
        debug_assert!(entries.iter().all(|e| e.name.len() <= MAX_MODEL_NAME));
        ModelRegistry {
            entries,
            default_model,
        }
    }

    /// Resolves a wire model name (empty = the default model).
    pub(crate) fn get(&self, name: &str) -> Option<&Arc<ModelEntry>> {
        let name = if name.is_empty() {
            &self.default_model
        } else {
            name
        };
        self.entries.iter().find(|e| e.name == name)
    }

    pub(crate) fn default_entry(&self) -> &Arc<ModelEntry> {
        self.get("").expect("default model always registered")
    }

    pub(crate) fn entries(&self) -> &[Arc<ModelEntry>] {
        &self.entries
    }

    pub(crate) fn infos(&self) -> Vec<ModelInfo> {
        self.entries.iter().map(|e| e.info()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resipe::ResipeError;

    struct NopExecutor;

    impl BatchExecutor for NopExecutor {
        fn execute(&self, batch: &Tensor) -> Result<Tensor, ResipeError> {
            Ok(batch.clone())
        }
    }

    fn executor_entry(replicas: usize) -> ModelEntry {
        ModelEntry::new(
            "m".into(),
            ModelSpec::executor(Arc::new(NopExecutor), &[2]).with_replicas(replicas),
            16,
            8,
            Duration::from_millis(1),
            1,
            Arc::new(Mutex::new(CompileCache::new(4))),
        )
    }

    #[test]
    fn balancer_prefers_least_outstanding_then_lowest_index() {
        let entry = executor_entry(3);
        let replicas = entry.replicas().unwrap();
        replicas[0].outstanding.store(5, Ordering::Relaxed);
        replicas[1].outstanding.store(2, Ordering::Relaxed);
        replicas[2].outstanding.store(2, Ordering::Relaxed);
        // Least outstanding wins; the tie between 1 and 2 breaks low.
        assert_eq!(pick_replica(replicas, None).unwrap().index, 1);
        replicas[1].outstanding.store(9, Ordering::Relaxed);
        assert_eq!(pick_replica(replicas, None).unwrap().index, 2);
    }

    #[test]
    fn hint_wins_only_while_healthy() {
        let entry = executor_entry(3);
        let replicas = entry.replicas().unwrap();
        assert_eq!(pick_replica(replicas, Some(2)).unwrap().index, 2);
        replicas[2].set_health(ReplicaHealth::Draining);
        // Hinted replica is draining: fall back to the balancer.
        assert_eq!(pick_replica(replicas, Some(2)).unwrap().index, 0);
        // Out-of-range hints fall back too.
        assert_eq!(pick_replica(replicas, Some(99)).unwrap().index, 0);
    }

    #[test]
    fn drain_is_a_fallback_sick_is_a_wall() {
        let entry = executor_entry(2);
        let replicas = entry.replicas().unwrap();
        replicas[0].set_health(ReplicaHealth::Draining);
        replicas[1].set_health(ReplicaHealth::Draining);
        // All draining: traffic still flows (lowest index).
        assert_eq!(pick_replica(replicas, None).unwrap().index, 0);
        replicas[0].set_health(ReplicaHealth::Sick);
        assert_eq!(pick_replica(replicas, None).unwrap().index, 1);
        replicas[1].set_health(ReplicaHealth::Sick);
        assert!(pick_replica(replicas, None).is_none());
    }

    #[test]
    fn entry_resolves_once_and_reports_info() {
        let entry = executor_entry(2);
        assert_eq!(entry.configured_replicas(), 2);
        assert!(entry.replicas_if_resolved().is_none());
        let info = entry.info();
        assert_eq!((info.replicas, info.healthy), (2, 2));
        let first = entry.replicas().unwrap().as_ptr();
        let second = entry.replicas().unwrap().as_ptr();
        assert_eq!(first, second, "resolution must be memoized");
        entry.replicas().unwrap()[1].set_health(ReplicaHealth::Sick);
        assert_eq!(entry.info().healthy, 1);
        let block = entry.stats_block();
        assert_eq!(block.replicas.len(), 2);
        assert_eq!(block.replicas[1].health_name(), "sick");
    }

    #[test]
    fn health_round_trips_and_fails_closed() {
        for h in [
            ReplicaHealth::Healthy,
            ReplicaHealth::Draining,
            ReplicaHealth::Sick,
        ] {
            assert_eq!(ReplicaHealth::from_u8(h.as_u8()), h);
        }
        assert_eq!(ReplicaHealth::from_u8(77), ReplicaHealth::Sick);
    }
}
