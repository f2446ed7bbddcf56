//! The model registry and replicated-shard execution layer.
//!
//! A server no longer fronts *one* compiled network: it fronts a
//! `ModelRegistry` of named models, each backed by a set of
//! `Replica`s — independent engine instances compiled with **distinct
//! variation/fault seeds** (distinct simulated "chips") — served by one
//! batch worker in a fixed failover order.
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
//!   state. A `Healthy` replica is in rotation; a `Draining` replica
//!   receives no new traffic but keeps executing what it already owns
//!   (so a BIST-failing chip is rotated out without dropping a
//!   request); a `Sick` replica receives nothing. When *no* replica is
//!   `Healthy`, traffic falls back to `Draining` ones rather than
//!   failing — drain is a preference, not a wall.
//! - **Failover order, not load balancing** — a request goes to its
//!   hinted replica while that one is `Healthy`, otherwise to the
//!   lowest-index `Healthy` replica, otherwise to the lowest-index
//!   `Draining` one. The model's single worker executes one batch at a
//!   time, so there is no concurrent load to balance: replicas past the
//!   first are failover and hint targets.
//! - **Per-replica scrubbing** — when the model's spec attaches a
//!   [`ScrubConfig`], every replica with a real network owns its own
//!   background [`Scrubber`] (one BIST walker per chip, as the hardware
//!   would).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
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
use crate::server::ServerConfig;

/// Health state of one engine replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplicaHealth {
    /// In rotation: new traffic routes here.
    Healthy = 0,
    /// Being rotated out: no new traffic, but still executing — used
    /// while a BIST-failing chip finishes its outstanding work. Also the
    /// fallback when no replica is `Healthy`.
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
        /// Boxed so the enum stays about as small as its other variants.
        options: Box<CompileOptions>,
    },
    /// An already-compiled network; replica 0 shares it and replicas 1..
    /// serve independent clones (same programmed state, separate
    /// aging/repair trajectories).
    Compiled(Arc<HardwareNetwork>),
    /// Arbitrary executors (the test seam). Replica `r` runs
    /// `executors[r % len]`.
    Executors(Vec<Arc<dyn BatchExecutor>>),
}

/// Everything needed to serve one model: where its engines come from,
/// what shape its samples have, how many replicas it runs, and whether
/// they are scrubbed.
///
/// Build one with [`ModelSpec::network`], [`ModelSpec::compiled`], or
/// [`ModelSpec::executor`]. Serving limits (queue capacity, batch size,
/// linger window) are server-wide: see [`ServerConfig`].
pub struct ModelSpec {
    pub(crate) source: ModelSource,
    pub(crate) sample_shape: Vec<usize>,
    pub(crate) replicas: usize,
    pub(crate) scrub: Option<ScrubConfig>,
}

impl ModelSpec {
    fn new(source: ModelSource, sample_shape: &[usize]) -> ModelSpec {
        ModelSpec {
            source,
            sample_shape: sample_shape.to_vec(),
            replicas: 1,
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
                options: Box::new(options),
            },
            sample_shape,
        )
    }

    /// A model served from an already-compiled network (no lazy
    /// compile). With more than one replica, replicas 1.. serve
    /// independent clones of `hw`.
    pub fn compiled(hw: HardwareNetwork, sample_shape: &[usize]) -> ModelSpec {
        ModelSpec::new(ModelSource::Compiled(Arc::new(hw)), sample_shape)
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

    /// Attaches a background scrubber to every replica of this model.
    pub fn with_scrub(mut self, scrub: ScrubConfig) -> ModelSpec {
        self.scrub = Some(scrub);
        self
    }
}

/// One engine replica: an executor, its (optional) underlying network
/// and scrubber, and its health and counters.
pub(crate) struct Replica {
    pub index: u32,
    pub executor: Arc<dyn BatchExecutor>,
    /// The replica's own network, when serving real hardware (drives
    /// `plan_swaps` reporting and `Server::model_network`).
    pub network: Option<Arc<HardwareNetwork>>,
    /// The background BIST walker on this replica's tiles, when the
    /// model is scrubbed.
    scrubber: Option<Scrubber>,
    health: AtomicU8,
    /// Requests executing on this replica right now. Reported in
    /// `STATS`; routing never reads it.
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
        scrubber: Option<Scrubber>,
    ) -> Replica {
        Replica {
            index,
            executor,
            network,
            scrubber,
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

/// Replica selection in a fixed failover order: the hinted replica while
/// it is `Healthy`; otherwise the lowest-index `Healthy` replica;
/// otherwise the lowest-index `Draining` one; `None` when every replica
/// is `Sick` (the caller answers `EngineError`).
///
/// Load plays no part: the model's one worker picks a replica for every
/// request of a batch before it executes any of them, so there is no
/// concurrent load to weigh.
pub(crate) fn pick_replica(replicas: &[Replica], hint: Option<u32>) -> Option<&Replica> {
    let first = |state: ReplicaHealth| replicas.iter().find(|r| r.health() == state);
    hint.and_then(|h| replicas.get(h as usize))
        .filter(|r| r.health() == ReplicaHealth::Healthy)
        .or_else(|| first(ReplicaHealth::Healthy))
        .or_else(|| first(ReplicaHealth::Draining))
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
    /// CPU nanoseconds the model's batch worker has run; charged after
    /// every batch.
    pub worker_cpu_nanos: AtomicU64,
    /// Where the replicas come from; read by the first resolution.
    source: ModelSource,
    replica_count: usize,
    scrub: Option<ScrubConfig>,
    cache: Arc<Mutex<CompileCache>>,
    /// Lazily resolved replicas; a compile failure is cached (compiles
    /// are deterministic — retrying cannot succeed).
    replicas: OnceLock<Result<Vec<Replica>, String>>,
}

impl ModelEntry {
    /// Takes the serving limits from `config`; the spec's own scrub
    /// configuration wins over `config.scrub`.
    pub(crate) fn new(
        name: String,
        spec: ModelSpec,
        config: &ServerConfig,
        cache: Arc<Mutex<CompileCache>>,
    ) -> ModelEntry {
        ModelEntry {
            name,
            sample_shape: spec.sample_shape,
            queue: Arc::new(BoundedQueue::new(config.queue_capacity)),
            counters: Arc::new(ServerCounters::default()),
            latency: Arc::new(LatencyHistogram::new()),
            in_flight: Arc::new(AtomicU64::new(0)),
            max_batch: config.max_batch,
            max_wait: config.max_wait,
            worker_cpu_nanos: AtomicU64::new(0),
            source: spec.source,
            replica_count: spec.replicas.max(1),
            scrub: spec.scrub.or(config.scrub),
            cache,
            replicas: OnceLock::new(),
        }
    }

    /// Resolves (compiling on first call) and returns the replica set.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Engine`] when replica compilation failed —
    /// now or on the first resolution (failures are cached).
    pub(crate) fn replicas(&self) -> Result<&[Replica], ServeError> {
        match self.replicas.get_or_init(|| self.build_replicas()) {
            Ok(replicas) => Ok(replicas),
            Err(msg) => Err(ServeError::Engine(msg.clone())),
        }
    }

    fn build_replicas(&self) -> Result<Vec<Replica>, String> {
        let networks: Vec<Arc<HardwareNetwork>> = match &self.source {
            ModelSource::Network {
                net,
                calibration,
                options,
            } => {
                // A poisoned lock still guards a consistent cache:
                // `get_or_compile` changes its entries only through whole
                // `Vec` calls made after `compile_with_telemetry` has
                // returned, so a panic inside a compile leaves them as
                // they were.
                let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
                (0..self.replica_count)
                    .map(|r| {
                        let opts = options.with_seed(options.seed + r as u64);
                        cache
                            .get_or_compile(net, calibration, &opts)
                            .map(Arc::new)
                            .map_err(|e| {
                                format!("compiling model '{}' replica {r}: {e}", self.name)
                            })
                    })
                    .collect::<Result<_, _>>()?
            }
            ModelSource::Compiled(hw) => (0..self.replica_count)
                .map(|r| match r {
                    0 => Arc::clone(hw),
                    _ => Arc::new(HardwareNetwork::clone(hw)),
                })
                .collect(),
            ModelSource::Executors(executors) => {
                return Ok((0..self.replica_count)
                    .map(|r| {
                        let executor = Arc::clone(&executors[r % executors.len()]);
                        Replica::new(r as u32, executor, None, None)
                    })
                    .collect());
            }
        };
        networks
            .into_iter()
            .enumerate()
            .map(|(r, hw)| {
                let scrubber = match &self.scrub {
                    Some(scrub_config) => {
                        let scrubber =
                            Scrubber::new(Arc::clone(&hw), *scrub_config).map_err(|e| {
                                format!("scrubber for model '{}' replica {r}: {e}", self.name)
                            })?;
                        scrubber.start();
                        Some(scrubber)
                    }
                    None => None,
                };
                let executor: Arc<dyn BatchExecutor> =
                    Arc::new(NetworkExecutor::new_shared(Arc::clone(&hw)));
                Ok(Replica::new(r as u32, executor, Some(hw), scrubber))
            })
            .collect()
    }

    /// The replica set if it has already been resolved successfully.
    pub(crate) fn replicas_if_resolved(&self) -> Option<&[Replica]> {
        match self.replicas.get() {
            Some(Ok(replicas)) => Some(replicas),
            _ => None,
        }
    }

    /// Configured replica count (known before resolution).
    pub(crate) fn configured_replicas(&self) -> usize {
        self.replica_count
    }

    /// The resolved replicas' scrubbers.
    fn scrubbers(&self) -> impl Iterator<Item = &Scrubber> {
        self.replicas_if_resolved()
            .unwrap_or_default()
            .iter()
            .filter_map(|r| r.scrubber.as_ref())
    }

    /// Stops every scrubber this model's replicas started.
    pub(crate) fn stop_scrubbers(&self) {
        for scrubber in self.scrubbers() {
            scrubber.stop();
        }
    }

    /// Sum of scrub counters across this model's replicas' scrubbers:
    /// `(passes, tiles, repairs, pass wall-clock nanoseconds)`.
    pub(crate) fn scrub_totals(&self) -> (u64, u64, u64, u64) {
        let mut totals = (0u64, 0u64, 0u64, 0u64);
        for scrubber in self.scrubbers() {
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
        self.replicas_if_resolved()
            .unwrap_or_default()
            .iter()
            .filter_map(|r| r.network.as_ref())
            .map(|hw| hw.plan_swaps())
            .sum()
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
        let healthy = match self.replicas_if_resolved() {
            Some(set) => set
                .iter()
                .filter(|r| r.health() == ReplicaHealth::Healthy)
                .count(),
            // Unresolved replicas are healthy-by-construction: nothing
            // has run, so nothing can have failed BIST yet.
            None => self.configured_replicas(),
        };
        ModelInfo {
            name: self.name.clone(),
            sample_shape: self.sample_shape.clone(),
            replicas: self.configured_replicas() as u32,
            healthy: healthy as u32,
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
            &ServerConfig::default(),
            Arc::new(Mutex::new(CompileCache::new(4))),
        )
    }

    #[test]
    fn failover_order_ignores_outstanding() {
        let entry = executor_entry(3);
        let replicas = entry.replicas().unwrap();
        replicas[0].outstanding.store(5, Ordering::Relaxed);
        replicas[1].outstanding.store(2, Ordering::Relaxed);
        replicas[2].outstanding.store(9, Ordering::Relaxed);
        // The lowest-index Healthy replica wins however busy it reads.
        assert_eq!(pick_replica(replicas, None).unwrap().index, 0);
        replicas[0].set_health(ReplicaHealth::Draining);
        assert_eq!(pick_replica(replicas, None).unwrap().index, 1);
        // Any Healthy replica beats every Draining one, loaded or not.
        replicas[1].set_health(ReplicaHealth::Draining);
        assert_eq!(pick_replica(replicas, None).unwrap().index, 2);
        // With none Healthy, the lowest-index Draining replica wins.
        replicas[2].set_health(ReplicaHealth::Draining);
        assert_eq!(pick_replica(replicas, None).unwrap().index, 0);
    }

    #[test]
    fn poisoned_compile_cache_still_resolves() {
        let cache = Arc::new(Mutex::new(CompileCache::new(4)));
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("a compile panicked while holding the cache");
        })
        .join();
        assert!(cache.is_poisoned());
        let net = resipe_nn::models::mlp1(7).unwrap();
        let calibration = Tensor::from_vec(vec![0.5; 4 * 784], &[4, 1, 28, 28]).unwrap();
        let spec = ModelSpec::network(net, calibration, CompileOptions::paper(), &[1, 28, 28])
            .with_replicas(2);
        let entry = ModelEntry::new("m".into(), spec, &ServerConfig::default(), cache);
        assert_eq!(entry.replicas().unwrap().len(), 2);
    }

    #[test]
    fn hint_wins_only_while_healthy() {
        let entry = executor_entry(3);
        let replicas = entry.replicas().unwrap();
        assert_eq!(pick_replica(replicas, Some(2)).unwrap().index, 2);
        replicas[2].set_health(ReplicaHealth::Draining);
        // Hinted replica is draining: fall back to the failover order.
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
