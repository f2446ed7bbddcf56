//! The TCP inference server: a model registry behind a
//! model-addressed wire protocol, served by a fixed-thread readiness
//! event loop.
//!
//! Thread anatomy (all plain `std::thread`, no async runtime):
//!
//! ```text
//! listener ──accept──▶ event loops (N threads, poll-multiplexed conns)
//!                        │ parse + admission          ▲ reply mailbox
//!                        ▼                            │  + wakeup pipe
//!                      per-model BoundedQueue ──pop_batch──▶ one batch
//!                                                            worker per model
//!                                                             │ pick_replica
//!                                                             │ (failover order)
//!                                                             ▼
//!                                                      replica set
//! ```
//!
//! Connection count is decoupled from thread count: a small, fixed
//! budget of event-loop threads ([`ServerConfig::event_threads`]) puts
//! every accepted socket into non-blocking mode and multiplexes them
//! over `poll(2)` (see the private `event_loop` module). Each loop incrementally
//! decodes frames, resolves the addressed
//! model, performs admission control, answers
//! `PING`/`STATS`/`LIST_MODELS`/`MODEL_STATS` inline, and drains each
//! connection's reply mailbox into a **bounded** outbound buffer
//! flushed on `POLLOUT`. A slow client fills its buffer and is evicted
//! with the `conns_evicted_slow` counter bumped — it can never wedge a
//! thread or stall other connections. Every model owns its own bounded
//! queue and one batch worker; the worker executes each coalesced batch
//! on a replica chosen by the fixed failover order in
//! [`crate::registry`] and wakes the owning loop through its pipe.
//!
//! Graceful shutdown ([`Server::shutdown`]) proceeds in strict order:
//! stop accepting, close every model queue (new pushes fail
//! `ShuttingDown`), join the batch workers — which first **drain** every
//! admitted request and answer it into its connection's mailbox — stop
//! the scrubbers, then flag the event loops to drain: each walks its
//! connection table, flushes every answered reply the peer will
//! accept, and closes. No admitted request is ever dropped with no
//! reply.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use resipe::cache::CompileCache;
use resipe::inference::HardwareNetwork;
use resipe::scrub::ScrubConfig;
use resipe::telemetry::Telemetry;

use crate::batcher::{worker_loop, PendingRequest, Reply, ReplySink, WorkerContext};
use crate::error::ServeError;
use crate::event_loop::{run_event_loop, EventLoopHandle};
use crate::metrics::{ConnCounters, LatencyHistogram, ServerCounters, ServerStats};
use crate::protocol::{encode_model_list, ModelInfo, Request, Status, Verb, MAX_MODEL_NAME};
use crate::queue::PushError;
use crate::registry::{ModelEntry, ModelRegistry, ModelSpec, ReplicaHealth};

/// Server-wide serving limits, the same for every registered model
/// (each model gets its own queue of this capacity and one batch worker
/// with these batching limits). Defaults suit the paper's MLP-1
/// workload on a small host: coalesce up to 32 samples per plan
/// execution, linger at most 300 µs for stragglers.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest sample count coalesced into one batch execution.
    pub max_batch: usize,
    /// Micro-batching linger window: how long an open batch waits for
    /// more requests after its first one arrived.
    pub max_wait: Duration,
    /// Per-model bounded queue capacity in *requests*; pushes beyond it
    /// answer [`Status::Busy`].
    pub queue_capacity: usize,
    /// When set, every model's replicas get a background
    /// [`Scrubber`](resipe::scrub::Scrubber) with this configuration
    /// (overridable per model via [`ModelSpec::with_scrub`]): tiles are
    /// BIST-walked between batches, regressions repaired off the hot
    /// path, and the repaired state hot-swapped without dropping a
    /// single request. Ignored for executor-backed models (mock
    /// executors have no crossbars to scrub).
    pub scrub: Option<ScrubConfig>,
    /// Event-loop threads multiplexing the client connections (default
    /// 2). Connection count is independent of this: each loop polls
    /// its whole share of the sockets, so thousands of connections run
    /// on this fixed budget.
    pub event_threads: usize,
    /// Most connections held open at once (default 1024); further
    /// accepts are closed immediately with the `conns_rejected`
    /// counter bumped.
    pub max_connections: usize,
    /// Per-connection outbound buffer bound in bytes (default 4 MiB).
    /// A connection whose unflushed replies exceed it is evicted as a
    /// slow client. Must comfortably exceed the largest single reply
    /// the served models can produce — one reply bigger than the cap
    /// is itself an eviction.
    pub write_buffer_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(300),
            queue_capacity: 256,
            scrub: None,
            event_threads: 2,
            max_connections: 1024,
            write_buffer_cap: 4 * 1024 * 1024,
        }
    }
}

impl ServerConfig {
    /// Sets the largest coalesced batch (samples).
    pub fn with_max_batch(mut self, max_batch: usize) -> ServerConfig {
        self.max_batch = max_batch;
        self
    }

    /// Sets the micro-batching linger window.
    pub fn with_max_wait(mut self, max_wait: Duration) -> ServerConfig {
        self.max_wait = max_wait;
        self
    }

    /// Sets the per-model bounded queue capacity (requests).
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServerConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Attaches a background scrubber to every model's replicas.
    pub fn with_scrub(mut self, scrub: ScrubConfig) -> ServerConfig {
        self.scrub = Some(scrub);
        self
    }

    /// Sets the event-loop thread count.
    pub fn with_event_threads(mut self, event_threads: usize) -> ServerConfig {
        self.event_threads = event_threads;
        self
    }

    /// Sets the open-connection limit.
    pub fn with_max_connections(mut self, max_connections: usize) -> ServerConfig {
        self.max_connections = max_connections;
        self
    }

    /// Sets the per-connection outbound buffer bound (bytes).
    pub fn with_write_buffer_cap(mut self, write_buffer_cap: usize) -> ServerConfig {
        self.write_buffer_cap = write_buffer_cap;
        self
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::BadRequest("max_batch must be nonzero".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::BadRequest(
                "queue_capacity must be nonzero".into(),
            ));
        }
        if self.event_threads == 0 {
            return Err(ServeError::BadRequest(
                "event_threads must be nonzero".into(),
            ));
        }
        if self.max_connections == 0 {
            return Err(ServeError::BadRequest(
                "max_connections must be nonzero".into(),
            ));
        }
        if self.write_buffer_cap == 0 {
            return Err(ServeError::BadRequest(
                "write_buffer_cap must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// Compile-cache slots the registry keeps; generous relative to the
/// paper's six architectures times a handful of replica seeds.
const COMPILE_CACHE_CAPACITY: usize = 32;

/// Configures and binds a [`Server`]: register models, set the default,
/// bind. Obtained from [`Server::builder`].
///
/// ```no_run
/// # use resipe_serve::{Server, ServerConfig, ModelSpec};
/// # use resipe::inference::CompileOptions;
/// # fn demo(net: resipe_nn::Network, calib: resipe_nn::tensor::Tensor) {
/// let server = Server::builder()
///     .config(ServerConfig::default())
///     .register_model(
///         "mlp1",
///         ModelSpec::network(net, calib, CompileOptions::paper(), &[1, 28, 28]),
///     )
///     .replicas(2)
///     .bind("127.0.0.1:0")
///     .unwrap();
/// # let _ = server;
/// # }
/// ```
pub struct ServerBuilder {
    config: ServerConfig,
    models: Vec<(String, ModelSpec)>,
    default_model: Option<String>,
    telemetry: Telemetry,
}

impl ServerBuilder {
    /// Sets the server-wide serving limits.
    pub fn config(mut self, config: ServerConfig) -> ServerBuilder {
        self.config = config;
        self
    }

    /// Registers a model under `name`. The first registered model is
    /// the default (what empty model names route to)
    /// unless [`ServerBuilder::default_model`] overrides it.
    pub fn register_model(mut self, name: &str, spec: ModelSpec) -> ServerBuilder {
        self.models.push((name.to_owned(), spec));
        self
    }

    /// Sets the replica count of the **most recently registered**
    /// model (sugar for [`ModelSpec::with_replicas`]).
    ///
    /// # Panics
    ///
    /// Panics when no model has been registered yet.
    pub fn replicas(mut self, n: usize) -> ServerBuilder {
        let (_, spec) = self
            .models
            .last_mut()
            .expect("replicas(n) must follow register_model");
        spec.replicas = n;
        self
    }

    /// Names the model empty model names route to
    /// (default: the first registered model).
    pub fn default_model(mut self, name: &str) -> ServerBuilder {
        self.default_model = Some(name.to_owned());
        self
    }

    /// Sets the telemetry sink lazy compiles and the `STATS` snapshot
    /// report into (default: disabled).
    pub fn telemetry(mut self, telemetry: Telemetry) -> ServerBuilder {
        self.telemetry = telemetry;
        self
    }

    /// Validates the registration set, binds `addr`, and starts
    /// serving (use port 0 for an ephemeral port; read it back with
    /// [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Fails when no model is registered, a name is empty / duplicated
    /// / over [`MAX_MODEL_NAME`] bytes, a sample shape is invalid, a
    /// replica count or serving limit is zero, the default model is
    /// unknown, or the listener cannot bind.
    pub fn bind<A: ToSocketAddrs>(self, addr: A) -> Result<Server, ServeError> {
        self.config.validate()?;
        if self.models.is_empty() {
            return Err(ServeError::BadRequest(
                "a server needs at least one registered model".into(),
            ));
        }
        for (name, spec) in &self.models {
            if name.is_empty() || name.len() > MAX_MODEL_NAME {
                return Err(ServeError::BadRequest(format!(
                    "model name '{name}' must be 1..={MAX_MODEL_NAME} bytes"
                )));
            }
            if self.models.iter().filter(|(n, _)| n == name).count() > 1 {
                return Err(ServeError::BadRequest(format!(
                    "model '{name}' registered twice"
                )));
            }
            if spec.sample_shape.is_empty() || spec.sample_shape.contains(&0) {
                return Err(ServeError::BadRequest(format!(
                    "model '{name}': sample shape must be nonempty with nonzero dims"
                )));
            }
            if spec.replicas == 0 {
                return Err(ServeError::BadRequest(format!(
                    "model '{name}': replica count must be nonzero"
                )));
            }
        }
        let default_model = self
            .default_model
            .unwrap_or_else(|| self.models[0].0.clone());
        if !self.models.iter().any(|(n, _)| *n == default_model) {
            return Err(ServeError::BadRequest(format!(
                "default model '{default_model}' is not registered"
            )));
        }

        let cache = Arc::new(Mutex::new(
            CompileCache::new(COMPILE_CACHE_CAPACITY).with_telemetry(self.telemetry.clone()),
        ));
        let entries: Vec<Arc<ModelEntry>> = self
            .models
            .into_iter()
            .map(|(name, spec)| {
                Arc::new(ModelEntry::new(
                    name,
                    spec,
                    &self.config,
                    Arc::clone(&cache),
                ))
            })
            .collect();
        let registry = ModelRegistry::new(entries, default_model);

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut event_loops = Vec::with_capacity(self.config.event_threads);
        for _ in 0..self.config.event_threads {
            event_loops.push(Arc::new(EventLoopHandle::new().map_err(ServeError::Io)?));
        }
        let shared = Arc::new(Shared {
            registry,
            global_counters: Arc::new(ServerCounters::default()),
            global_latency: Arc::new(LatencyHistogram::new()),
            shutting_down: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            telemetry: self.telemetry,
            conn_counters: ConnCounters::default(),
            write_buffer_cap: self.config.write_buffer_cap,
            max_connections: self.config.max_connections,
            event_loops,
        });

        let mut worker_handles = Vec::with_capacity(shared.registry.entries().len());
        for entry in shared.registry.entries() {
            let ctx = WorkerContext {
                entry: Arc::clone(entry),
                global_counters: Arc::clone(&shared.global_counters),
                global_latency: Arc::clone(&shared.global_latency),
            };
            // The `-0` suffix is kept so profilers and per-thread CPU
            // readers keep matching the worker by name.
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("resipe-serve-{}-worker-0", entry.name))
                    .spawn(move || worker_loop(ctx))
                    .map_err(ServeError::Io)?,
            );
        }

        let mut event_handles = Vec::with_capacity(shared.event_loops.len());
        for (i, handle) in shared.event_loops.iter().enumerate() {
            let loop_handle = Arc::clone(handle);
            let loop_shared = Arc::clone(&shared);
            event_handles.push(
                thread::Builder::new()
                    .name(format!("resipe-serve-event-{i}"))
                    .spawn(move || run_event_loop(loop_handle, loop_shared))
                    .map_err(ServeError::Io)?,
            );
        }

        let accept_shared = Arc::clone(&shared);
        let listener_handle = thread::Builder::new()
            .name("resipe-serve-listener".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(ServeError::Io)?;

        Ok(Server {
            shared,
            local_addr,
            listener_handle: Some(listener_handle),
            worker_handles,
            event_handles,
        })
    }
}

/// State shared by the listener, event loops, and workers.
pub(crate) struct Shared {
    registry: ModelRegistry,
    pub(crate) global_counters: Arc<ServerCounters>,
    global_latency: Arc<LatencyHistogram>,
    shutting_down: AtomicBool,
    /// Set (after workers drain) to make every event loop flush its
    /// answered replies, close its connections, and exit.
    pub(crate) draining: AtomicBool,
    telemetry: Telemetry,
    /// Connection-lifecycle counters (accept/open/peak/evict/reject).
    pub(crate) conn_counters: ConnCounters,
    /// Per-connection outbound buffer bound; beyond it, eviction.
    pub(crate) write_buffer_cap: usize,
    /// Open-connection limit enforced at accept.
    max_connections: usize,
    /// The event loops accepted sockets round-robin onto.
    event_loops: Vec<Arc<EventLoopHandle>>,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let mut queue_depth = 0u64;
        let mut queue_capacity = 0u64;
        let mut in_flight = 0u64;
        let mut scrub = (0u64, 0u64, 0u64, 0u64);
        let mut plan_swaps = 0u64;
        let mut models = Vec::with_capacity(self.registry.entries().len());
        for entry in self.registry.entries() {
            let block = entry.stats_block();
            queue_depth += block.queue_depth;
            queue_capacity += block.queue_capacity;
            in_flight += block.in_flight;
            let (passes, tiles, repairs, nanos) = entry.scrub_totals();
            scrub.0 += passes;
            scrub.1 += tiles;
            scrub.2 += repairs;
            scrub.3 += nanos;
            plan_swaps += entry.plan_swap_total();
            models.push(block);
        }
        ServerStats {
            accepted: ServerCounters::get(&self.global_counters.accepted),
            completed: ServerCounters::get(&self.global_counters.completed),
            rejected_busy: ServerCounters::get(&self.global_counters.rejected_busy),
            expired: ServerCounters::get(&self.global_counters.expired),
            bad_requests: ServerCounters::get(&self.global_counters.bad_requests),
            shutdown_rejects: ServerCounters::get(&self.global_counters.shutdown_rejects),
            engine_errors: ServerCounters::get(&self.global_counters.engine_errors),
            batches: ServerCounters::get(&self.global_counters.batches),
            batched_samples: ServerCounters::get(&self.global_counters.batched_samples),
            largest_batch: ServerCounters::get(&self.global_counters.largest_batch),
            scrub_passes: scrub.0,
            scrub_tiles: scrub.1,
            scrub_repairs: scrub.2,
            scrub_nanos: scrub.3,
            plan_swaps,
            queue_depth,
            queue_capacity,
            in_flight,
            kernel_backend: "scalar".to_owned(),
            latency: self.global_latency.snapshot(),
            telemetry_json: self.telemetry.snapshot().to_json(),
            conns_accepted: ServerCounters::get(&self.conn_counters.accepted),
            conns_open: ServerCounters::get(&self.conn_counters.open),
            conns_peak: ServerCounters::get(&self.conn_counters.peak),
            conns_evicted_slow: ServerCounters::get(&self.conn_counters.evicted_slow),
            conns_rejected: ServerCounters::get(&self.conn_counters.rejected),
            event_loop_cpu_nanos: self
                .event_loops
                .iter()
                .map(|l| ServerCounters::get(&l.cpu_nanos))
                .sum(),
            models,
        }
    }
}

/// A running inference server; dropping it shuts it down gracefully.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    listener_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    event_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts configuring a server: register models, then
    /// [`bind`](ServerBuilder::bind).
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            config: ServerConfig::default(),
            models: Vec::new(),
            default_model: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The default model's replica-0 [`HardwareNetwork`], when that
    /// model serves real hardware; resolves (compiles) the replicas on
    /// first call. `None` for executor-backed models or when
    /// compilation fails.
    ///
    /// The handle is live: aging it ([`HardwareNetwork::age`]) while
    /// the server runs models in-field degradation of the served part,
    /// which an attached scrubber then detects and hot-repairs.
    pub fn network(&self) -> Option<Arc<HardwareNetwork>> {
        self.model_network(&self.shared.registry.default_entry().name.clone(), 0)
    }

    /// The named model's replica-`replica` network, resolving (lazily
    /// compiling) the replica set on first call.
    pub fn model_network(&self, model: &str, replica: u32) -> Option<Arc<HardwareNetwork>> {
        let entry = self.shared.registry.get(model)?;
        let replicas = entry.replicas().ok()?;
        replicas
            .get(replica as usize)
            .and_then(|r| r.network.as_ref().map(Arc::clone))
    }

    /// The registered models, with replica counts and health.
    pub fn models(&self) -> Vec<ModelInfo> {
        self.shared.registry.infos()
    }

    /// Sets one replica's health state — the hook BIST monitoring (or
    /// an operator) uses to drain a suspect chip without dropping
    /// traffic. Resolves the model's replicas if not yet resolved.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchModel`] for an unknown model,
    /// [`ServeError::BadRequest`] for an out-of-range replica index,
    /// [`ServeError::Engine`] when the replica set failed to compile.
    pub fn set_replica_health(
        &self,
        model: &str,
        replica: u32,
        health: ReplicaHealth,
    ) -> Result<(), ServeError> {
        let entry = self
            .shared
            .registry
            .get(model)
            .ok_or_else(|| ServeError::NoSuchModel(model.to_owned()))?;
        let replicas = entry.replicas()?;
        let r = replicas.get(replica as usize).ok_or_else(|| {
            ServeError::BadRequest(format!(
                "model '{}' has {} replicas, no index {replica}",
                entry.name,
                replicas.len()
            ))
        })?;
        r.set_health(health);
        Ok(())
    }

    /// A point-in-time snapshot of the server's counters, queue state,
    /// latency histograms, per-model blocks, and engine telemetry.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Gracefully shuts down: refuse new connections and admissions,
    /// drain and answer every already-admitted request, then close all
    /// connections. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.listener_handle.take() {
            let _ = h.join();
        }
        // Fail new admissions, then let workers drain what was admitted;
        // every queued request is answered into its connection channel.
        for entry in self.shared.registry.entries() {
            entry.queue.close();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // The scrubbers keep running through the drain above (a repair
        // landing mid-drain is still served atomically); stop them only
        // once every admitted request has been answered.
        for entry in self.shared.registry.entries() {
            entry.stop_scrubbers();
        }
        // Every admitted request now has its reply sitting in a
        // connection mailbox. Flag the event loops to drain: each
        // flushes what its peers will accept, closes its connections,
        // and exits.
        self.shared.draining.store(true, Ordering::SeqCst);
        for handle in &self.shared.event_loops {
            handle.wake();
        }
        for h in self.event_handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut next_loop = 0usize;
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break; // wake-up connection or racing client — drop it
        }
        let Ok(stream) = stream else { continue };
        if ServerCounters::get(&shared.conn_counters.open) >= shared.max_connections as u64 {
            // At capacity: close immediately. The peer sees EOF on its
            // first read rather than a wedged, never-answered socket.
            ServerCounters::add(&shared.conn_counters.rejected, 1);
            continue;
        }
        // The event loop's reads and writes assume a non-blocking
        // socket; a connection we cannot deblock is unusable.
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        shared.conn_counters.on_open();
        // Round-robin across loops: connection counts stay balanced
        // and no loop needs cross-loop coordination afterwards.
        let target = &shared.event_loops[next_loop % shared.event_loops.len()];
        next_loop = next_loop.wrapping_add(1);
        target.adopt(stream);
    }
}

/// Bumps a counter on both the model's and the global set.
fn bump(
    entry: &ModelEntry,
    global: &ServerCounters,
    pick: impl Fn(&ServerCounters) -> &std::sync::atomic::AtomicU64,
) {
    ServerCounters::add(pick(&entry.counters), 1);
    ServerCounters::add(pick(global), 1);
}

/// Admission control for one parsed request. Inline verbs
/// (`PING`/`STATS`/`LIST_MODELS`/`MODEL_STATS`) and every rejection are
/// answered straight into `sink`; accepted inference requests carry the
/// sink with them so the batch worker answers it later.
pub(crate) fn handle_request(req: Request, shared: &Arc<Shared>, sink: &ReplySink) {
    let reply = |status: Status, payload: Vec<u8>| Reply {
        status,
        id: req.id,
        payload,
    };
    match req.verb {
        Verb::Ping => sink.send(reply(Status::Ok, Vec::new())),
        Verb::Stats => sink.send(reply(Status::Ok, shared.stats().encode())),
        Verb::ListModels => sink.send(reply(
            Status::Ok,
            encode_model_list(&shared.registry.infos()),
        )),
        Verb::ModelStats => match shared.registry.get(&req.model) {
            Some(entry) => sink.send(reply(Status::Ok, entry.stats_block().encode())),
            None => sink.send(reply(Status::NoSuchModel, req.model.clone().into_bytes())),
        },
        Verb::Infer | Verb::InferBatch => {
            let Some(entry) = shared.registry.get(&req.model) else {
                ServerCounters::add(&shared.global_counters.bad_requests, 1);
                return sink.send(reply(Status::NoSuchModel, req.model.clone().into_bytes()));
            };
            let Some(tensor) = req.tensor else {
                bump(entry, &shared.global_counters, |c| &c.bad_requests);
                return sink.send(reply(
                    Status::BadRequest,
                    b"inference request carries no tensor".to_vec(),
                ));
            };
            let (n, shape_ok) = match req.verb {
                Verb::Infer => (1usize, tensor.shape() == &entry.sample_shape[..]),
                _ => (
                    tensor.shape().first().copied().unwrap_or(0),
                    tensor.shape().len() == entry.sample_shape.len() + 1
                        && tensor.shape()[1..] == entry.sample_shape[..]
                        && !tensor.shape().is_empty()
                        && tensor.shape()[0] > 0,
                ),
            };
            if !shape_ok {
                bump(entry, &shared.global_counters, |c| &c.bad_requests);
                return sink.send(reply(
                    Status::BadRequest,
                    format!(
                        "sample shape mismatch: served shape is {:?}, got {:?}",
                        entry.sample_shape,
                        tensor.shape()
                    )
                    .into_bytes(),
                ));
            }
            // No spike time encodes a NaN, so the engine would fail the
            // whole coalesced batch: refuse it here, alone (a branch-free
            // scan, which vectorizes).
            if tensor.data().iter().fold(false, |nan, v| nan | v.is_nan()) {
                bump(entry, &shared.global_counters, |c| &c.bad_requests);
                return sink.send(reply(
                    Status::BadRequest,
                    b"sample holds a NaN, which no spike time encodes".to_vec(),
                ));
            }
            if shared.shutting_down.load(Ordering::SeqCst) {
                bump(entry, &shared.global_counters, |c| &c.shutdown_rejects);
                return sink.send(reply(Status::ShuttingDown, Vec::new()));
            }
            let now = Instant::now();
            let deadline = if req.deadline_us == 0 {
                None
            } else {
                Some(now + Duration::from_micros(u64::from(req.deadline_us)))
            };
            let pending = PendingRequest {
                id: req.id,
                samples: tensor.data().to_vec(),
                n,
                replica_hint: req.replica_hint,
                deadline,
                enqueued: now,
                reply: sink.clone(),
            };
            // Count in-flight *before* the push so a concurrent stats
            // reader never observes a queued request as unaccounted.
            entry.in_flight.fetch_add(1, Ordering::Relaxed);
            match entry.queue.try_push(pending) {
                Ok(()) => {
                    bump(entry, &shared.global_counters, |c| &c.accepted);
                }
                Err(PushError::Full(_)) => {
                    entry.in_flight.fetch_sub(1, Ordering::Relaxed);
                    bump(entry, &shared.global_counters, |c| &c.rejected_busy);
                    sink.send(reply(Status::Busy, Vec::new()));
                }
                Err(PushError::Closed(_)) => {
                    entry.in_flight.fetch_sub(1, Ordering::Relaxed);
                    bump(entry, &shared.global_counters, |c| &c.shutdown_rejects);
                    sink.send(reply(Status::ShuttingDown, Vec::new()));
                }
            }
        }
    }
}
