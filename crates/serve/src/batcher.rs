//! The dynamic micro-batcher: coalesces queued requests into one
//! [`planned`](resipe::inference::RunOptions::planned) forward pass
//! on one engine replica.
//!
//! Each model has one worker thread. It loops: pop a weighted batch from
//! the model's [`BoundedQueue`](crate::queue::BoundedQueue) (blocking for the first request, lingering
//! up to `max_wait` for more, never exceeding `max_batch` samples), drop
//! requests whose deadline already passed, pick a target replica per
//! request (the hinted replica when healthy, otherwise the first replica
//! in failover order — the same one for every un-hinted request, so the
//! coalesced batch stays whole), stack each replica's group into one
//! `[n, sample…]` tensor **in FIFO order**, execute it through the
//! replica's [`BatchExecutor`], and route each request's output rows
//! back to the issuing connection's reply channel.
//!
//! Because the planned batch path is bit-identical to the per-sample
//! path (the PR 2 contract, re-asserted by this crate's integration
//! tests), coalescing requests from *different* clients into one batch
//! changes no output bit — only latency and throughput.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use resipe::inference::{HardwareNetwork, RunOptions};
use resipe::ResipeError;
use resipe_nn::tensor::Tensor;

use crate::metrics::{CpuMeter, LatencyHistogram, ServerCounters};
use crate::protocol::{encode_tensor, Status};
use crate::registry::{pick_replica, ModelEntry, Replica};

/// Executes one coalesced batch. Implemented by [`NetworkExecutor`] for
/// real hardware networks; tests substitute cheap mock executors.
pub trait BatchExecutor: Send + Sync + 'static {
    /// Runs `batch` (shape `[n, sample…]`) and returns outputs whose
    /// first dimension is again `n`, row `i` belonging to input row `i`.
    ///
    /// # Errors
    ///
    /// Propagates engine failures; the worker answers every request in
    /// the batch with [`Status::EngineError`], as it does when the
    /// outputs do not have one row per input row or `execute` panics.
    fn execute(&self, batch: &Tensor) -> Result<Tensor, ResipeError>;
}

/// The production executor: a compiled [`HardwareNetwork`] run on the
/// [`planned`](resipe::inference::RunOptions::planned) path (the
/// amortized batch plan, bit-identical to the per-sample reference).
///
/// The network caches its per-layer [`BatchPlan`](resipe::batch::BatchPlan)s
/// and recycles kernel scratch buffers internally, so a worker serving a
/// stream of coalesced batches pays no per-batch plan rebuild and no
/// per-sample allocations — each batch goes straight into the
/// cache-blocked kernel.
#[derive(Debug)]
pub struct NetworkExecutor {
    hw: Arc<HardwareNetwork>,
}

impl NetworkExecutor {
    /// Wraps a compiled network.
    pub fn new(hw: HardwareNetwork) -> NetworkExecutor {
        NetworkExecutor::new_shared(Arc::new(hw))
    }

    /// Wraps an already-shared compiled network — the constructor to use
    /// when something else (a background [`resipe::scrub::Scrubber`], an
    /// aging driver) holds the same network and mutates its published
    /// epoch while this executor serves it.
    pub fn new_shared(hw: Arc<HardwareNetwork>) -> NetworkExecutor {
        NetworkExecutor { hw }
    }

    /// The served network.
    pub fn network(&self) -> &HardwareNetwork {
        &self.hw
    }

    /// A cloneable handle to the served network.
    pub fn network_arc(&self) -> Arc<HardwareNetwork> {
        Arc::clone(&self.hw)
    }
}

impl BatchExecutor for NetworkExecutor {
    fn execute(&self, batch: &Tensor) -> Result<Tensor, ResipeError> {
        Ok(self.hw.run(batch, &RunOptions::planned())?.outputs)
    }
}

/// One admitted inference request, queued for a worker.
#[derive(Debug)]
pub(crate) struct PendingRequest {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// Row-major sample data, `n × width` values.
    pub samples: Vec<f32>,
    /// Samples in this request (the request's queue weight).
    pub n: usize,
    /// Preferred replica, honored while that replica is healthy.
    pub replica_hint: Option<u32>,
    /// Absolute expiry instant, if the client set a deadline.
    pub deadline: Option<Instant>,
    /// Admission time, for the latency histogram.
    pub enqueued: Instant,
    /// Where the finished reply routes back to.
    pub reply: ReplySink,
}

/// A response routed back to the issuing connection.
#[derive(Debug)]
pub(crate) struct Reply {
    pub status: Status,
    pub id: u64,
    pub payload: Vec<u8>,
}

/// Where a worker routes a finished request's reply: in production, the
/// issuing connection's event-loop mailbox (the push wakes the owning
/// loop, which frames the reply into that connection's outbound buffer
/// and drains it on `POLLOUT`); in unit tests, a plain channel.
#[derive(Debug, Clone)]
pub(crate) enum ReplySink {
    /// An event-loop connection mailbox.
    Conn(Arc<crate::event_loop::ConnMailbox>),
    /// A bare channel, for tests that inspect replies directly.
    #[allow(dead_code)] // constructed only by the unit tests below
    Channel(mpsc::Sender<Reply>),
}

impl ReplySink {
    /// Routes `reply`. Failures are benign — the client went away and
    /// its connection (or test receiver) is gone.
    pub fn send(&self, reply: Reply) {
        match self {
            ReplySink::Conn(mailbox) => mailbox.push(reply),
            ReplySink::Channel(tx) => {
                let _ = tx.send(reply);
            }
        }
    }
}

/// Everything a model's batch worker needs. The per-model state lives
/// in the entry; the global counters aggregate across models for the
/// server-wide stats.
#[derive(Clone)]
pub(crate) struct WorkerContext {
    pub entry: Arc<ModelEntry>,
    pub global_counters: Arc<ServerCounters>,
    pub global_latency: Arc<LatencyHistogram>,
}

impl WorkerContext {
    /// Bumps the same counter on the model and the global set.
    fn bump(&self, pick: impl Fn(&ServerCounters) -> &AtomicU64, n: u64) {
        ServerCounters::add(pick(&self.entry.counters), n);
        ServerCounters::add(pick(&self.global_counters), n);
    }

    fn max(&self, pick: impl Fn(&ServerCounters) -> &AtomicU64, n: u64) {
        pick(&self.entry.counters).fetch_max(n, Ordering::Relaxed);
        pick(&self.global_counters).fetch_max(n, Ordering::Relaxed);
    }

    fn finish(&self, req: &PendingRequest, status: Status, payload: Vec<u8>) {
        // The client may have disconnected; routing failures are benign.
        req.reply.send(Reply {
            status,
            id: req.id,
            payload,
        });
        self.entry.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The worker loop: runs until the model's queue is closed **and**
/// drained, so graceful shutdown answers every admitted request. After
/// each batch the worker charges its CPU time to the model's
/// `worker_cpu_nanos`.
pub(crate) fn worker_loop(ctx: WorkerContext) {
    let width: usize = ctx.entry.sample_shape.iter().product();
    let mut cpu = CpuMeter::default();
    while let Some(batch) = ctx.entry.queue.pop_batch(
        ctx.entry.max_batch,
        ctx.entry.max_wait,
        |r: &PendingRequest| r.n,
    ) {
        serve_batch(&ctx, batch, width);
        cpu.charge(&ctx.entry.worker_cpu_nanos);
    }
}

/// Answers one popped batch: expires late requests, resolves the
/// replicas, and executes each replica's group.
fn serve_batch(ctx: &WorkerContext, batch: Vec<PendingRequest>, width: usize) {
    let now = Instant::now();
    let (live, dead): (Vec<_>, Vec<_>) = batch
        .into_iter()
        .partition(|r| r.deadline.is_none_or(|d| d > now));
    for req in dead {
        ctx.bump(|c| &c.expired, 1);
        ctx.finish(
            &req,
            Status::Expired,
            b"deadline exceeded before execution".to_vec(),
        );
    }
    if live.is_empty() {
        return;
    }
    // Resolve the replica set (compiling lazily on the very first
    // batch); an unresolvable model answers EngineError.
    let replicas = match ctx.entry.replicas() {
        Ok(replicas) => replicas,
        Err(e) => {
            let msg = e.to_string().into_bytes();
            for req in &live {
                ctx.bump(|c| &c.engine_errors, 1);
                ctx.finish(req, Status::EngineError, msg.clone());
            }
            return;
        }
    };
    // Route each request: a healthy hinted replica wins, everything
    // else goes to the first replica in failover order, so the
    // coalesced batch stays whole. Group by replica, preserving FIFO
    // order within groups.
    let mut groups: Vec<(&Replica, Vec<PendingRequest>)> = Vec::new();
    for req in live {
        match pick_replica(replicas, req.replica_hint) {
            Some(replica) => match groups.iter_mut().find(|(r, _)| r.index == replica.index) {
                Some((_, group)) => group.push(req),
                None => groups.push((replica, vec![req])),
            },
            None => {
                ctx.bump(|c| &c.engine_errors, 1);
                ctx.finish(
                    &req,
                    Status::EngineError,
                    b"no healthy replica available".to_vec(),
                );
            }
        }
    }
    for (replica, group) in groups {
        execute_group(ctx, replica, group, width);
    }
}

/// Stacks one replica's request group into a single tensor, executes it,
/// and routes each request's rows back.
fn execute_group(ctx: &WorkerContext, replica: &Replica, group: Vec<PendingRequest>, width: usize) {
    let total: usize = group.iter().map(|r| r.n).sum();
    replica
        .outstanding
        .fetch_add(group.len() as u64, Ordering::Relaxed);
    let mut data = Vec::with_capacity(total * width);
    for req in &group {
        data.extend_from_slice(&req.samples);
    }
    let mut shape = Vec::with_capacity(1 + ctx.entry.sample_shape.len());
    shape.push(total);
    shape.extend_from_slice(&ctx.entry.sample_shape);
    let input = Tensor::from_vec(data, &shape).expect("admission validated sample shapes");
    // An executor that panics (a kernel bug, or the OS refusing a thread
    // to a batch's fan-out) or breaks its one-row-per-input contract is
    // answered like one that failed: the group still gets its replies,
    // and the model's one worker lives on to serve the next batch.
    let result = match catch_unwind(AssertUnwindSafe(|| replica.executor.execute(&input))) {
        Ok(executed) => executed
            .and_then(|outputs| {
                let rows = outputs.shape().first().copied().unwrap_or(0);
                if rows == total {
                    Ok(outputs)
                } else {
                    Err(ResipeError::DimensionMismatch {
                        expected: total,
                        got: rows,
                    })
                }
            })
            .map_err(|e| e.to_string()),
        Err(_) => Err("executor panicked".to_owned()),
    };
    match result {
        Ok(outputs) => {
            let out_shape = outputs.shape().to_vec();
            let row_len = outputs.len() / total;
            ctx.bump(|c| &c.batches, 1);
            ctx.bump(|c| &c.batched_samples, total as u64);
            ctx.max(|c| &c.largest_batch, total as u64);
            replica.batches.fetch_add(1, Ordering::Relaxed);
            replica
                .completed
                .fetch_add(group.len() as u64, Ordering::Relaxed);
            let done = Instant::now();
            let mut row = 0usize;
            for req in &group {
                let start = row * row_len;
                let end = start + req.n * row_len;
                row += req.n;
                let mut req_shape = out_shape.clone();
                req_shape[0] = req.n;
                let sub = Tensor::from_vec(outputs.data()[start..end].to_vec(), &req_shape)
                    .expect("row slice matches shape");
                let latency = done.duration_since(req.enqueued);
                ctx.entry.latency.record(latency);
                ctx.global_latency.record(latency);
                ctx.bump(|c| &c.completed, 1);
                ctx.finish(req, Status::Ok, encode_tensor(&sub));
            }
        }
        Err(msg) => {
            let msg = msg.into_bytes();
            for req in &group {
                ctx.bump(|c| &c.engine_errors, 1);
                ctx.finish(req, Status::EngineError, msg.clone());
            }
        }
    }
    replica
        .outstanding
        .fetch_sub(group.len() as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread;
    use std::time::Duration;

    use resipe::cache::CompileCache;

    use crate::registry::{ModelSpec, ReplicaHealth};
    use crate::server::ServerConfig;

    /// Echoes its input: output row `i` = input row `i`.
    struct EchoExecutor;

    impl BatchExecutor for EchoExecutor {
        fn execute(&self, batch: &Tensor) -> Result<Tensor, ResipeError> {
            Ok(batch.clone())
        }
    }

    /// Returns one output row fewer than it was given.
    struct ShortExecutor;

    impl BatchExecutor for ShortExecutor {
        fn execute(&self, batch: &Tensor) -> Result<Tensor, ResipeError> {
            let (n, width) = (batch.shape()[0], batch.shape()[1]);
            Ok(Tensor::from_vec(batch.data()[width..].to_vec(), &[n - 1, width]).unwrap())
        }
    }

    /// Always fails.
    struct FailExecutor;

    impl BatchExecutor for FailExecutor {
        fn execute(&self, _batch: &Tensor) -> Result<Tensor, ResipeError> {
            Err(ResipeError::InvalidOptions {
                reason: "synthetic failure".into(),
            })
        }
    }

    /// Panics on its first batch, then echoes.
    #[derive(Default)]
    struct PanicOnceExecutor {
        panicked: std::sync::atomic::AtomicBool,
    }

    impl BatchExecutor for PanicOnceExecutor {
        fn execute(&self, batch: &Tensor) -> Result<Tensor, ResipeError> {
            if !self.panicked.swap(true, Ordering::Relaxed) {
                panic!("synthetic executor panic");
            }
            Ok(batch.clone())
        }
    }

    fn context(
        executor: Arc<dyn BatchExecutor>,
        max_batch: usize,
        replicas: usize,
    ) -> WorkerContext {
        let config = ServerConfig::default()
            .with_queue_capacity(64)
            .with_max_batch(max_batch)
            .with_max_wait(Duration::from_millis(1));
        let entry = ModelEntry::new(
            "test".into(),
            ModelSpec::executor(executor, &[2]).with_replicas(replicas),
            &config,
            Arc::new(Mutex::new(CompileCache::new(2))),
        );
        WorkerContext {
            entry: Arc::new(entry),
            global_counters: Arc::new(ServerCounters::default()),
            global_latency: Arc::new(LatencyHistogram::new()),
        }
    }

    fn request(
        id: u64,
        samples: Vec<f32>,
        deadline: Option<Instant>,
        reply: &mpsc::Sender<Reply>,
    ) -> PendingRequest {
        let n = samples.len() / 2;
        PendingRequest {
            id,
            samples,
            n,
            replica_hint: None,
            deadline,
            enqueued: Instant::now(),
            reply: ReplySink::Channel(reply.clone()),
        }
    }

    #[test]
    fn echo_batch_routes_rows_back_per_request() {
        let ctx = context(Arc::new(EchoExecutor), 8, 1);
        let (tx, rx) = mpsc::channel();
        ctx.entry.in_flight.store(2, Ordering::Relaxed);
        ctx.entry
            .queue
            .try_push(request(1, vec![1.0, 2.0], None, &tx))
            .unwrap();
        ctx.entry
            .queue
            .try_push(request(2, vec![3.0, 4.0, 5.0, 6.0], None, &tx))
            .unwrap();
        ctx.entry.queue.close();
        worker_loop(ctx.clone());
        let a = rx.recv().unwrap();
        let b = rx.recv().unwrap();
        assert_eq!((a.status, a.id), (Status::Ok, 1));
        assert_eq!((b.status, b.id), (Status::Ok, 2));
        let ta = crate::protocol::decode_tensor(&a.payload).unwrap();
        assert_eq!(ta.shape(), &[1, 2]);
        assert_eq!(ta.data(), &[1.0, 2.0]);
        let tb = crate::protocol::decode_tensor(&b.payload).unwrap();
        assert_eq!(tb.shape(), &[2, 2]);
        assert_eq!(tb.data(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(ServerCounters::get(&ctx.entry.counters.completed), 2);
        assert_eq!(ServerCounters::get(&ctx.global_counters.completed), 2);
        assert_eq!(ServerCounters::get(&ctx.entry.counters.batches), 1);
        assert_eq!(ServerCounters::get(&ctx.entry.counters.batched_samples), 3);
        assert_eq!(ctx.entry.in_flight.load(Ordering::Relaxed), 0);
        let replicas = ctx.entry.replicas().unwrap();
        assert_eq!(replicas[0].completed.load(Ordering::Relaxed), 2);
        assert_eq!(replicas[0].batches.load(Ordering::Relaxed), 1);
        assert_eq!(replicas[0].outstanding.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn expired_requests_dropped_before_execution() {
        let ctx = context(Arc::new(EchoExecutor), 8, 1);
        let (tx, rx) = mpsc::channel();
        ctx.entry.in_flight.store(2, Ordering::Relaxed);
        let past = Instant::now() - Duration::from_millis(1);
        ctx.entry
            .queue
            .try_push(request(1, vec![1.0, 2.0], Some(past), &tx))
            .unwrap();
        ctx.entry
            .queue
            .try_push(request(2, vec![3.0, 4.0], None, &tx))
            .unwrap();
        ctx.entry.queue.close();
        worker_loop(ctx.clone());
        let replies: Vec<Reply> = rx.try_iter().collect();
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].status, Status::Expired);
        assert_eq!(replies[0].id, 1);
        assert_eq!(replies[1].status, Status::Ok);
        assert_eq!(ServerCounters::get(&ctx.entry.counters.expired), 1);
        assert_eq!(ServerCounters::get(&ctx.entry.counters.completed), 1);
    }

    #[test]
    fn executor_failure_answers_every_request() {
        let ctx = context(Arc::new(FailExecutor), 8, 1);
        let (tx, rx) = mpsc::channel();
        ctx.entry.in_flight.store(2, Ordering::Relaxed);
        for id in [1, 2] {
            ctx.entry
                .queue
                .try_push(request(id, vec![0.0, 0.0], None, &tx))
                .unwrap();
        }
        ctx.entry.queue.close();
        worker_loop(ctx.clone());
        let replies: Vec<Reply> = rx.try_iter().collect();
        assert_eq!(replies.len(), 2);
        assert!(replies.iter().all(|r| r.status == Status::EngineError));
        assert_eq!(ServerCounters::get(&ctx.entry.counters.engine_errors), 2);
        assert_eq!(ctx.entry.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn short_executor_output_answers_every_request_once() {
        let ctx = context(Arc::new(ShortExecutor), 8, 1);
        let (tx, rx) = mpsc::channel();
        ctx.entry.in_flight.store(3, Ordering::Relaxed);
        for (id, samples) in [(1, vec![0.0; 2]), (2, vec![0.0; 4]), (3, vec![0.0; 2])] {
            ctx.entry
                .queue
                .try_push(request(id, samples, None, &tx))
                .unwrap();
        }
        ctx.entry.queue.close();
        worker_loop(ctx.clone());
        drop(tx);
        let mut replies: Vec<Reply> = rx.iter().collect();
        replies.sort_by_key(|r| r.id);
        assert_eq!(
            replies.iter().map(|r| r.id).collect::<Vec<_>>(),
            [1, 2, 3],
            "exactly one reply per request"
        );
        assert!(replies.iter().all(|r| r.status == Status::EngineError));
        assert_eq!(ServerCounters::get(&ctx.entry.counters.engine_errors), 3);
        assert_eq!(ServerCounters::get(&ctx.entry.counters.completed), 0);
        assert_eq!(ctx.entry.in_flight.load(Ordering::Relaxed), 0);
        let replicas = ctx.entry.replicas().unwrap();
        assert_eq!(replicas[0].outstanding.load(Ordering::Relaxed), 0);
        assert_eq!(replicas[0].completed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panicking_batch_is_answered_and_the_worker_serves_on() {
        // max_batch 2 splits four one-sample requests into two batches.
        let ctx = context(Arc::new(PanicOnceExecutor::default()), 2, 1);
        let (tx, rx) = mpsc::channel();
        ctx.entry.in_flight.store(4, Ordering::Relaxed);
        for id in 1..=4 {
            ctx.entry
                .queue
                .try_push(request(id, vec![id as f32, 0.0], None, &tx))
                .unwrap();
        }
        ctx.entry.queue.close();
        worker_loop(ctx.clone());
        drop(tx);
        let mut replies: Vec<Reply> = rx.iter().collect();
        replies.sort_by_key(|r| r.id);
        assert_eq!(
            replies.iter().map(|r| r.id).collect::<Vec<_>>(),
            [1, 2, 3, 4],
            "exactly one reply per request"
        );
        for reply in &replies[..2] {
            assert_eq!(reply.status, Status::EngineError);
            assert_eq!(reply.payload, b"executor panicked");
        }
        for reply in &replies[2..] {
            assert_eq!(reply.status, Status::Ok);
            let t = crate::protocol::decode_tensor(&reply.payload).unwrap();
            assert_eq!(t.data(), &[reply.id as f32, 0.0]);
        }
        assert_eq!(ServerCounters::get(&ctx.entry.counters.engine_errors), 2);
        assert_eq!(ServerCounters::get(&ctx.entry.counters.completed), 2);
        assert_eq!(ctx.entry.in_flight.load(Ordering::Relaxed), 0);
        let replicas = ctx.entry.replicas().unwrap();
        assert_eq!(replicas[0].outstanding.load(Ordering::Relaxed), 0);
        assert_eq!(replicas[0].completed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn hinted_requests_split_to_their_replica() {
        let ctx = context(Arc::new(EchoExecutor), 8, 2);
        let (tx, rx) = mpsc::channel();
        ctx.entry.in_flight.store(2, Ordering::Relaxed);
        let mut hinted = request(1, vec![1.0, 2.0], None, &tx);
        hinted.replica_hint = Some(1);
        ctx.entry.queue.try_push(hinted).unwrap();
        ctx.entry
            .queue
            .try_push(request(2, vec![3.0, 4.0], None, &tx))
            .unwrap();
        ctx.entry.queue.close();
        worker_loop(ctx.clone());
        let replies: Vec<Reply> = rx.try_iter().collect();
        assert!(replies.iter().all(|r| r.status == Status::Ok));
        let replicas = ctx.entry.replicas().unwrap();
        assert_eq!(replicas[1].completed.load(Ordering::Relaxed), 1);
        assert_eq!(replicas[0].completed.load(Ordering::Relaxed), 1);
        // Two groups → two batch executions.
        assert_eq!(ServerCounters::get(&ctx.entry.counters.batches), 2);
    }

    #[test]
    fn all_sick_replicas_answer_engine_error() {
        let ctx = context(Arc::new(EchoExecutor), 8, 1);
        ctx.entry.replicas().unwrap()[0].set_health(ReplicaHealth::Sick);
        let (tx, rx) = mpsc::channel();
        ctx.entry.in_flight.store(1, Ordering::Relaxed);
        ctx.entry
            .queue
            .try_push(request(1, vec![1.0, 2.0], None, &tx))
            .unwrap();
        ctx.entry.queue.close();
        worker_loop(ctx.clone());
        let reply = rx.recv().unwrap();
        assert_eq!(reply.status, Status::EngineError);
        assert!(String::from_utf8_lossy(&reply.payload).contains("no healthy replica"));
    }

    #[test]
    fn disconnected_client_does_not_stall_the_batch() {
        let ctx = context(Arc::new(EchoExecutor), 8, 1);
        let (dead_tx, dead_rx) = mpsc::channel();
        drop(dead_rx); // client went away
        let (tx, rx) = mpsc::channel();
        ctx.entry.in_flight.store(2, Ordering::Relaxed);
        ctx.entry
            .queue
            .try_push(request(1, vec![1.0, 2.0], None, &dead_tx))
            .unwrap();
        ctx.entry
            .queue
            .try_push(request(2, vec![3.0, 4.0], None, &tx))
            .unwrap();
        ctx.entry.queue.close();
        let worker = thread::spawn(move || worker_loop(ctx));
        let ok = rx.recv().unwrap();
        assert_eq!((ok.status, ok.id), (Status::Ok, 2));
        worker.join().unwrap();
    }
}
