//! Server-side counters, latency histograms, and the `STATS` snapshot.
//!
//! Everything on the hot path is lock-free: counters and histogram bins
//! are relaxed atomics, mirroring the overhead contract of
//! [`resipe::telemetry`]. The [`ServerStats`] snapshot is what the
//! `Stats` protocol verb serializes — queue depth, in-flight count,
//! admission-control counters, request-latency percentiles, per-model
//! blocks with per-replica health, the serving threads' summed CPU time
//! (each model's batch worker, event loops globally; each thread charges
//! its own CPU clock into a shared counter once per batch or poll
//! wake), and the engine's own
//! [`resipe::telemetry::TelemetrySnapshot`] (as its stable JSON form,
//! which carries the compile-cache hit/miss/eviction pressure counters
//! among others).
//!
//! The snapshot travels in one **count-prefixed** layout
//! ([`ServerStats::encode`]): every counter block opens with a `u32`
//! count of the `u64`s that follow, so adding a counter is not
//! wire-breaking — an older decoder skips the extras, a newer decoder
//! zero-fills the missing tail.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::error::ServeError;
use crate::protocol::{put_u32, put_u64, take_u32, take_u64};
use crate::sys;

/// Sub-buckets per octave of the log-linear latency histogram.
const SUB_BUCKETS: usize = 8;
/// `log2(SUB_BUCKETS)`: the mantissa bits kept below a duration's top bit.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Log-linear latency buckets: durations below 8 ns get a bucket each,
/// and every octave `[2^e, 2^(e+1))` above is split into 8 equal-width
/// buckets (the top four bits of the nanosecond count pick the bucket).
/// A bucket midpoint is within 1/16 = 6.25 % of every duration in the
/// bucket.
pub const LATENCY_BUCKETS: usize = SUB_BUCKETS * (u64::BITS - SUB_BITS + 1) as usize;

/// A lock-free histogram of request latencies with percentile queries.
#[derive(Debug)]
pub struct LatencyHistogram {
    bins: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    fn bucket(nanos: u64) -> usize {
        if nanos < SUB_BUCKETS as u64 {
            return nanos as usize;
        }
        let shift = u64::BITS - 1 - nanos.leading_zeros() - SUB_BITS;
        // `nanos >> shift` is in [SUB_BUCKETS, 2 · SUB_BUCKETS).
        SUB_BUCKETS * shift as usize + (nanos >> shift) as usize
    }

    /// The midpoint of `bucket`'s nanosecond range (the inverse of
    /// [`LatencyHistogram::bucket`]).
    fn midpoint(bucket: usize) -> u64 {
        if bucket < SUB_BUCKETS {
            return bucket as u64;
        }
        let shift = (bucket / SUB_BUCKETS - 1) as u32;
        let low = ((SUB_BUCKETS + bucket % SUB_BUCKETS) as u64) << shift;
        low + ((1u64 << shift) >> 1)
    }

    /// Records one request latency.
    pub fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.bins[Self::bucket(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Copies the totals out as percentile estimates.
    pub fn snapshot(&self) -> LatencySnapshot {
        let bins: Vec<u64> = self
            .bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = bins.iter().sum();
        let max_nanos = self.max_nanos.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in bins.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Report the bucket midpoint, clamped to the observed
                    // maximum.
                    return Self::midpoint(i).min(max_nanos);
                }
            }
            max_nanos
        };
        LatencySnapshot {
            count,
            p50_nanos: quantile(0.50),
            p95_nanos: quantile(0.95),
            p99_nanos: quantile(0.99),
            max_nanos,
        }
    }
}

/// Percentile estimates of the recorded request latencies. Bucket
/// midpoints of the log-linear histogram, so each is within 6.25 % of the
/// exact sample quantile (well inside ±12.5 %).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Latencies recorded.
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_nanos: u64,
    /// 95th percentile, nanoseconds.
    pub p95_nanos: u64,
    /// 99th percentile, nanoseconds.
    pub p99_nanos: u64,
    /// Largest observed latency, nanoseconds.
    pub max_nanos: u64,
}

impl LatencySnapshot {
    fn to_json(self) -> String {
        format!(
            "{{\"count\": {}, \"p50_nanos\": {}, \"p95_nanos\": {}, \
             \"p99_nanos\": {}, \"max_nanos\": {}}}",
            self.count, self.p50_nanos, self.p95_nanos, self.p99_nanos, self.max_nanos
        )
    }
}

/// Lock-free lifetime counters of one server (or one model's share).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Requests admitted into the queue.
    pub accepted: AtomicU64,
    /// Requests answered successfully.
    pub completed: AtomicU64,
    /// Requests refused because the queue was full.
    pub rejected_busy: AtomicU64,
    /// Requests dropped because their deadline passed before execution.
    pub expired: AtomicU64,
    /// Requests refused as malformed or mis-shaped.
    pub bad_requests: AtomicU64,
    /// Requests refused because the server was draining.
    pub shutdown_rejects: AtomicU64,
    /// Requests answered with an engine error.
    pub engine_errors: AtomicU64,
    /// Coalesced batches executed.
    pub batches: AtomicU64,
    /// Samples executed across all batches.
    pub batched_samples: AtomicU64,
    /// Largest single coalesced batch, in samples.
    pub largest_batch: AtomicU64,
}

impl ServerCounters {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Charges the calling thread's CPU time to a shared counter in deltas,
/// so several threads can sum into one counter. Each charge is one
/// thread-CPU clock read; an exited thread's share stays as last charged.
#[derive(Debug, Default)]
pub(crate) struct CpuMeter {
    charged: u64,
}

impl CpuMeter {
    /// Adds the CPU time this thread has run since its last charge.
    pub(crate) fn charge(&mut self, into: &AtomicU64) {
        let now = sys::thread_cpu_nanos().max(self.charged);
        into.fetch_add(now - self.charged, Ordering::Relaxed);
        self.charged = now;
    }
}

/// Lock-free connection-lifecycle counters. Kept separate from
/// [`ServerCounters`] because connections are a server-global resource —
/// the event loop owns sockets before any request routes to a model, so
/// these never appear in per-model blocks.
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Connections accepted, lifetime.
    pub accepted: AtomicU64,
    /// Connections currently registered with an event loop.
    pub open: AtomicU64,
    /// High-water mark of simultaneously open connections.
    pub peak: AtomicU64,
    /// Connections evicted because their outbound buffer overflowed —
    /// the peer stopped reading while replies kept arriving.
    pub evicted_slow: AtomicU64,
    /// Connections refused at accept because `max_connections` was
    /// already open.
    pub rejected: AtomicU64,
}

impl ConnCounters {
    /// Records an accepted connection entering an event loop.
    pub(crate) fn on_open(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let now_open = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now_open, Ordering::Relaxed);
    }

    /// Records a connection leaving its event loop for any reason.
    pub(crate) fn on_close(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Reads `n_u64`-prefixed counters into `out`, zero-filling when the
/// wire carries fewer than `out.len()` and skipping any extras — the
/// mechanism that makes counter additions non-wire-breaking.
fn take_counter_block(bytes: &[u8], at: &mut usize, out: &mut [u64]) -> Result<(), ServeError> {
    let n = take_u32(bytes, at)? as usize;
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = if i < n { take_u64(bytes, at)? } else { 0 };
    }
    for _ in out.len()..n {
        take_u64(bytes, at)?;
    }
    Ok(())
}

fn put_counter_block(buf: &mut Vec<u8>, counters: &[u64]) {
    put_u32(buf, counters.len() as u32);
    for &v in counters {
        put_u64(buf, v);
    }
}

fn take_short_str(bytes: &[u8], at: &mut usize, what: &str) -> Result<String, ServeError> {
    let len = *bytes
        .get(*at)
        .ok_or_else(|| ServeError::Protocol(format!("truncated {what} length")))?
        as usize;
    *at += 1;
    let end = at
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| ServeError::Protocol(format!("truncated {what}")))?;
    let s = String::from_utf8(bytes[*at..end].to_vec())
        .map_err(|e| ServeError::Protocol(format!("{what} not UTF-8: {e}")))?;
    *at = end;
    Ok(s)
}

/// One engine replica's slice of a model's stats.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replica index within the model (stable across the server's life).
    pub index: u32,
    /// Health state: 0 = healthy, 1 = draining, 2 = sick.
    pub health: u8,
    /// Requests currently dispatched to this replica and not yet done.
    pub outstanding: u64,
    /// Requests this replica answered successfully, lifetime.
    pub completed: u64,
    /// Coalesced batches this replica executed, lifetime.
    pub batches: u64,
}

impl ReplicaStats {
    /// Human name of the health state.
    pub fn health_name(&self) -> &'static str {
        match self.health {
            0 => "healthy",
            1 => "draining",
            2 => "sick",
            _ => "unknown",
        }
    }
}

/// One registered model's slice of the server stats: its own admission
/// counters, latency percentiles, and per-replica blocks.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ModelStatsBlock {
    /// The model's registry name.
    pub name: String,
    /// Requests queued for this model and not yet picked up.
    pub queue_depth: u64,
    /// This model's bounded-queue admission capacity.
    pub queue_capacity: u64,
    /// Requests admitted for this model and not yet answered.
    pub in_flight: u64,
    /// Requests admitted into this model's queue, lifetime.
    pub accepted: u64,
    /// Requests answered successfully, lifetime.
    pub completed: u64,
    /// `Busy` rejections, lifetime.
    pub rejected_busy: u64,
    /// Deadline expiries, lifetime.
    pub expired: u64,
    /// Malformed/mis-shaped rejections, lifetime.
    pub bad_requests: u64,
    /// Rejections while draining, lifetime.
    pub shutdown_rejects: u64,
    /// Engine-error responses, lifetime.
    pub engine_errors: u64,
    /// Coalesced batches executed, lifetime.
    pub batches: u64,
    /// Samples executed across all batches, lifetime.
    pub batched_samples: u64,
    /// Largest single coalesced batch, in samples.
    pub largest_batch: u64,
    /// This model's request-latency percentiles.
    pub latency: LatencySnapshot,
    /// Per-replica health and throughput, indexed by replica.
    pub replicas: Vec<ReplicaStats>,
    /// CPU nanoseconds this model's batch worker thread has run
    /// (thread CPU time, not wall clock), lifetime.
    pub worker_cpu_nanos: u64,
}

impl ModelStatsBlock {
    /// Mean coalesced batch size in samples (0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_samples as f64 / self.batches as f64
        }
    }

    // New counters append strictly at the end, as in the global block.
    fn counters(&self) -> [u64; MODEL_COUNTERS] {
        [
            self.queue_depth,
            self.queue_capacity,
            self.in_flight,
            self.accepted,
            self.completed,
            self.rejected_busy,
            self.expired,
            self.bad_requests,
            self.shutdown_rejects,
            self.engine_errors,
            self.batches,
            self.batched_samples,
            self.largest_batch,
            self.latency.count,
            self.latency.p50_nanos,
            self.latency.p95_nanos,
            self.latency.p99_nanos,
            self.latency.max_nanos,
            self.worker_cpu_nanos,
        ]
    }

    /// Serializes one model block (the `ModelStats` verb's body):
    /// `[u8 name_len][name][u32 n_u64][u64×n][u32 n_replicas]` then per
    /// replica `[u32 index][u8 health][u32 n_u64][u64×n]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + self.name.len() + MODEL_COUNTERS * 8);
        self.encode_into(&mut buf);
        buf
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.name.len() <= 255);
        buf.push(self.name.len() as u8);
        buf.extend_from_slice(self.name.as_bytes());
        put_counter_block(buf, &self.counters());
        put_u32(buf, self.replicas.len() as u32);
        for r in &self.replicas {
            put_u32(buf, r.index);
            buf.push(r.health);
            put_counter_block(buf, &[r.outstanding, r.completed, r.batches]);
        }
    }

    /// Deserializes one model block that fills `bytes` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] for truncation, invalid UTF-8,
    /// or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<ModelStatsBlock, ServeError> {
        let mut at = 0usize;
        let block = Self::decode_from(bytes, &mut at)?;
        if at != bytes.len() {
            return Err(ServeError::Protocol(
                "trailing bytes after model stats".into(),
            ));
        }
        Ok(block)
    }

    fn decode_from(bytes: &[u8], at: &mut usize) -> Result<ModelStatsBlock, ServeError> {
        let name = take_short_str(bytes, at, "model name")?;
        let mut c = [0u64; MODEL_COUNTERS];
        take_counter_block(bytes, at, &mut c)?;
        let n_replicas = take_u32(bytes, at)? as usize;
        let mut replicas = Vec::with_capacity(n_replicas.min(1024));
        for _ in 0..n_replicas {
            let index = take_u32(bytes, at)?;
            let health = *bytes
                .get(*at)
                .ok_or_else(|| ServeError::Protocol("truncated replica health".into()))?;
            *at += 1;
            let mut rc = [0u64; 3];
            take_counter_block(bytes, at, &mut rc)?;
            replicas.push(ReplicaStats {
                index,
                health,
                outstanding: rc[0],
                completed: rc[1],
                batches: rc[2],
            });
        }
        Ok(ModelStatsBlock {
            name,
            queue_depth: c[0],
            queue_capacity: c[1],
            in_flight: c[2],
            accepted: c[3],
            completed: c[4],
            rejected_busy: c[5],
            expired: c[6],
            bad_requests: c[7],
            shutdown_rejects: c[8],
            engine_errors: c[9],
            batches: c[10],
            batched_samples: c[11],
            largest_batch: c[12],
            latency: LatencySnapshot {
                count: c[13],
                p50_nanos: c[14],
                p95_nanos: c[15],
                p99_nanos: c[16],
                max_nanos: c[17],
            },
            replicas,
            worker_cpu_nanos: c[18],
        })
    }

    /// Stable-key JSON rendering of one model block.
    pub fn to_json(&self) -> String {
        let replicas: Vec<String> = self
            .replicas
            .iter()
            .map(|r| {
                format!(
                    "{{\"index\": {}, \"health\": \"{}\", \"outstanding\": {}, \
                     \"completed\": {}, \"batches\": {}}}",
                    r.index,
                    r.health_name(),
                    r.outstanding,
                    r.completed,
                    r.batches
                )
            })
            .collect();
        format!(
            "{{\"name\": \"{}\", \"queue_depth\": {}, \"queue_capacity\": {}, \
             \"in_flight\": {}, \"accepted\": {}, \"completed\": {}, \
             \"rejected_busy\": {}, \"expired\": {}, \"bad_requests\": {}, \
             \"shutdown_rejects\": {}, \"engine_errors\": {}, \"batches\": {}, \
             \"batched_samples\": {}, \"largest_batch\": {}, \
             \"worker_cpu_nanos\": {}, \"latency\": {}, \"replicas\": [{}]}}",
            self.name,
            self.queue_depth,
            self.queue_capacity,
            self.in_flight,
            self.accepted,
            self.completed,
            self.rejected_busy,
            self.expired,
            self.bad_requests,
            self.shutdown_rejects,
            self.engine_errors,
            self.batches,
            self.batched_samples,
            self.largest_batch,
            self.worker_cpu_nanos,
            self.latency.to_json(),
            replicas.join(", ")
        )
    }
}

/// Per-model `STATS` counters on the wire (see [`ModelStatsBlock::encode`]).
const MODEL_COUNTERS: usize = 19;

/// Global `STATS` counters on the wire (see [`ServerStats::encode`]).
const GLOBAL_COUNTERS: usize = 29;

/// The `STATS` verb's payload: a point-in-time health/metrics snapshot.
/// Global counters aggregate over every registered model; the `models`
/// vector carries the per-model breakdown.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests queued but not yet picked up by a worker (all models).
    pub queue_depth: u64,
    /// Total admission capacity across the per-model bounded queues.
    pub queue_capacity: u64,
    /// Requests admitted and not yet answered (queued or executing).
    pub in_flight: u64,
    /// Requests admitted into a queue, lifetime.
    pub accepted: u64,
    /// Requests answered successfully, lifetime.
    pub completed: u64,
    /// `Busy` rejections (queue full), lifetime.
    pub rejected_busy: u64,
    /// Deadline expiries, lifetime.
    pub expired: u64,
    /// Malformed/mis-shaped request rejections, lifetime.
    pub bad_requests: u64,
    /// Rejections while draining, lifetime.
    pub shutdown_rejects: u64,
    /// Engine-error responses, lifetime.
    pub engine_errors: u64,
    /// Coalesced batches executed, lifetime.
    pub batches: u64,
    /// Samples executed across all batches, lifetime.
    pub batched_samples: u64,
    /// Largest single coalesced batch, in samples.
    pub largest_batch: u64,
    /// Background scrub passes completed (0 when scrubbing is off).
    pub scrub_passes: u64,
    /// Tiles BIST-checked by the background scrubber, lifetime.
    pub scrub_tiles: u64,
    /// Tile repairs triggered by the background scrubber, lifetime.
    pub scrub_repairs: u64,
    /// Epoch swaps on the served networks (scrub repairs + aging
    /// publishes), lifetime.
    pub plan_swaps: u64,
    /// Name of the MVM kernel the server executes batches with. The
    /// engine has one kernel, so a server always reports `"scalar"`;
    /// the string slot stays on the wire so existing decoders keep
    /// working.
    pub kernel_backend: String,
    /// Request-latency percentiles (admission → response enqueued),
    /// across all models.
    pub latency: LatencySnapshot,
    /// The engine's [`resipe::telemetry::TelemetrySnapshot`] in its
    /// stable JSON form (`TelemetrySnapshot::to_json`): span hierarchy,
    /// MVM/skip counters, compile-cache hit/miss/eviction pressure, and
    /// the spike-time saturation histograms.
    pub telemetry_json: String,
    /// Connections accepted, lifetime.
    pub conns_accepted: u64,
    /// Connections currently registered with an event loop.
    pub conns_open: u64,
    /// High-water mark of simultaneously open connections.
    pub conns_peak: u64,
    /// Slow-client evictions (outbound buffer overflow), lifetime.
    pub conns_evicted_slow: u64,
    /// Connections refused at accept (`max_connections` reached).
    pub conns_rejected: u64,
    /// Wall-clock nanoseconds the background scrubbers spent inside
    /// scrub passes, summed over passes and replicas, lifetime.
    pub scrub_nanos: u64,
    /// CPU nanoseconds the event-loop threads have run, summed over the
    /// loops (thread CPU time, not wall clock), lifetime.
    pub event_loop_cpu_nanos: u64,
    /// Per-model breakdown.
    pub models: Vec<ModelStatsBlock>,
}

impl ServerStats {
    /// Mean coalesced batch size in samples (0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_samples as f64 / self.batches as f64
        }
    }

    /// The named model's block, if present.
    pub fn model(&self, name: &str) -> Option<&ModelStatsBlock> {
        self.models.iter().find(|m| m.name == name)
    }

    // New counters append strictly at the end so the count prefix keeps
    // old and new decoders interoperable.
    fn global_counters(&self) -> [u64; GLOBAL_COUNTERS] {
        [
            self.queue_depth,
            self.queue_capacity,
            self.in_flight,
            self.accepted,
            self.completed,
            self.rejected_busy,
            self.expired,
            self.bad_requests,
            self.shutdown_rejects,
            self.engine_errors,
            self.batches,
            self.batched_samples,
            self.largest_batch,
            self.scrub_passes,
            self.scrub_tiles,
            self.scrub_repairs,
            self.plan_swaps,
            self.latency.count,
            self.latency.p50_nanos,
            self.latency.p95_nanos,
            self.latency.p99_nanos,
            self.latency.max_nanos,
            self.conns_accepted,
            self.conns_open,
            self.conns_peak,
            self.conns_evicted_slow,
            self.conns_rejected,
            self.scrub_nanos,
            self.event_loop_cpu_nanos,
        ]
    }

    /// Serializes the snapshot in the count-prefixed layout:
    /// `[u32 n_u64][u64×n]` global counters, the two length-prefixed
    /// strings, then `[u32 n_models]` × model block.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + GLOBAL_COUNTERS * 8 + self.telemetry_json.len());
        put_counter_block(&mut buf, &self.global_counters());
        put_u32(&mut buf, self.kernel_backend.len() as u32);
        buf.extend_from_slice(self.kernel_backend.as_bytes());
        put_u32(&mut buf, self.telemetry_json.len() as u32);
        buf.extend_from_slice(self.telemetry_json.as_bytes());
        put_u32(&mut buf, self.models.len() as u32);
        for m in &self.models {
            m.encode_into(&mut buf);
        }
        buf
    }

    /// Deserializes a count-prefixed snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] for truncation or invalid UTF-8.
    pub fn decode(bytes: &[u8]) -> Result<ServerStats, ServeError> {
        let mut at = 0usize;
        let mut c = [0u64; GLOBAL_COUNTERS];
        take_counter_block(bytes, &mut at, &mut c)?;
        let mut stats = Self::from_globals(&c);
        let mut take_str = |what: &str| -> Result<String, ServeError> {
            let len = take_u32(bytes, &mut at)? as usize;
            let end = at
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| ServeError::Protocol(format!("truncated stats {what}")))?;
            let s = String::from_utf8(bytes[at..end].to_vec())
                .map_err(|e| ServeError::Protocol(format!("stats {what} not UTF-8: {e}")))?;
            at = end;
            Ok(s)
        };
        stats.kernel_backend = take_str("backend name")?;
        stats.telemetry_json = take_str("telemetry")?;
        let n_models = take_u32(bytes, &mut at)? as usize;
        stats.models.reserve(n_models.min(1024));
        for _ in 0..n_models {
            stats
                .models
                .push(ModelStatsBlock::decode_from(bytes, &mut at)?);
        }
        if at != bytes.len() {
            return Err(ServeError::Protocol("trailing bytes after stats".into()));
        }
        Ok(stats)
    }

    fn from_globals(c: &[u64; GLOBAL_COUNTERS]) -> ServerStats {
        ServerStats {
            queue_depth: c[0],
            queue_capacity: c[1],
            in_flight: c[2],
            accepted: c[3],
            completed: c[4],
            rejected_busy: c[5],
            expired: c[6],
            bad_requests: c[7],
            shutdown_rejects: c[8],
            engine_errors: c[9],
            batches: c[10],
            batched_samples: c[11],
            largest_batch: c[12],
            scrub_passes: c[13],
            scrub_tiles: c[14],
            scrub_repairs: c[15],
            plan_swaps: c[16],
            kernel_backend: String::new(),
            latency: LatencySnapshot {
                count: c[17],
                p50_nanos: c[18],
                p95_nanos: c[19],
                p99_nanos: c[20],
                max_nanos: c[21],
            },
            telemetry_json: String::new(),
            conns_accepted: c[22],
            conns_open: c[23],
            conns_peak: c[24],
            conns_evicted_slow: c[25],
            conns_rejected: c[26],
            scrub_nanos: c[27],
            event_loop_cpu_nanos: c[28],
            models: Vec::new(),
        }
    }

    /// Stable-key JSON rendering of the snapshot; the telemetry snapshot
    /// is embedded verbatim.
    pub fn to_json(&self) -> String {
        let models: Vec<String> = self.models.iter().map(|m| m.to_json()).collect();
        format!(
            "{{\"queue_depth\": {}, \"queue_capacity\": {}, \"in_flight\": {}, \"accepted\": {}, \
             \"completed\": {}, \"rejected_busy\": {}, \"expired\": {}, \
             \"bad_requests\": {}, \"shutdown_rejects\": {}, \"engine_errors\": {}, \
             \"batches\": {}, \"batched_samples\": {}, \"largest_batch\": {}, \
             \"scrub_passes\": {}, \"scrub_tiles\": {}, \"scrub_repairs\": {}, \
             \"scrub_nanos\": {}, \"event_loop_cpu_nanos\": {}, \
             \"plan_swaps\": {}, \"conns_accepted\": {}, \"conns_open\": {}, \
             \"conns_peak\": {}, \"conns_evicted_slow\": {}, \
             \"conns_rejected\": {}, \"kernel_backend\": \"{}\", \
             \"latency\": {}, \"models\": [{}], \"telemetry\": {}}}",
            self.queue_depth,
            self.queue_capacity,
            self.in_flight,
            self.accepted,
            self.completed,
            self.rejected_busy,
            self.expired,
            self.bad_requests,
            self.shutdown_rejects,
            self.engine_errors,
            self.batches,
            self.batched_samples,
            self.largest_batch,
            self.scrub_passes,
            self.scrub_tiles,
            self.scrub_repairs,
            self.scrub_nanos,
            self.event_loop_cpu_nanos,
            self.plan_swaps,
            self.conns_accepted,
            self.conns_open,
            self.conns_peak,
            self.conns_evicted_slow,
            self.conns_rejected,
            self.kernel_backend,
            self.latency.to_json(),
            models.join(", "),
            if self.telemetry_json.is_empty() {
                "null"
            } else {
                &self.telemetry_json
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_ordered_and_bounded() {
        let h = LatencyHistogram::new();
        for us in [50u64, 80, 100, 120, 150, 400, 900, 5000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert!(s.p50_nanos <= s.p95_nanos);
        assert!(s.p95_nanos <= s.p99_nanos);
        assert!(s.p99_nanos <= s.max_nanos);
        assert_eq!(s.max_nanos, 5_000_000);
        // The median of this set is the 4th sample, 120 µs; buckets are
        // an eighth of an octave wide, so the estimate is within 12.5 %.
        assert!(
            (105_000..135_000).contains(&s.p50_nanos),
            "p50 {} ns",
            s.p50_nanos
        );
    }

    #[test]
    fn buckets_cover_every_duration_in_order() {
        let mut last = 0;
        for nanos in (0..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let b = LatencyHistogram::bucket(nanos);
            assert!(b < LATENCY_BUCKETS && b >= last, "{nanos} ns -> bucket {b}");
            last = b;
            let mid = LatencyHistogram::midpoint(b);
            assert!(
                mid.abs_diff(nanos) as f64 <= 0.0625 * nanos as f64,
                "{nanos} ns -> midpoint {mid}"
            );
        }
        assert_eq!(LatencyHistogram::bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    /// p50 and p99 land within 12.5 % of the exact sample quantiles
    /// (same rank rule: the `ceil(q · n)`-th smallest sample) on a seeded
    /// spread of latencies from 10 µs to ~41 ms.
    #[test]
    fn quantiles_within_an_eighth_of_exact() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            // xorshift64*: deterministic, no dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for n in [10usize, 137, 5000] {
            let h = LatencyHistogram::new();
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    // Log-uniform over ~12 octaves above 10 µs.
                    let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                    (10_000.0 * (12.0 * u).exp2()) as u64
                })
                .collect();
            for &ns in &samples {
                h.record(Duration::from_nanos(ns));
            }
            samples.sort_unstable();
            let s = h.snapshot();
            for (q, got) in [(0.50, s.p50_nanos), (0.99, s.p99_nanos)] {
                let rank = ((n as f64) * q).ceil() as usize;
                let exact = samples[rank - 1] as f64;
                let err = (got as f64 - exact).abs() / exact;
                assert!(err <= 0.125, "n={n} q={q}: {got} ns vs exact {exact} ns");
            }
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(
            (s.count, s.p50_nanos, s.p99_nanos, s.max_nanos),
            (0, 0, 0, 0)
        );
    }

    fn sample_stats() -> ServerStats {
        ServerStats {
            queue_depth: 3,
            queue_capacity: 256,
            in_flight: 5,
            accepted: 100,
            completed: 90,
            rejected_busy: 7,
            expired: 2,
            bad_requests: 1,
            shutdown_rejects: 0,
            engine_errors: 0,
            batches: 12,
            batched_samples: 90,
            largest_batch: 16,
            scrub_passes: 4,
            scrub_tiles: 50,
            scrub_repairs: 3,
            plan_swaps: 5,
            kernel_backend: "vector_f32".to_owned(),
            latency: LatencySnapshot {
                count: 90,
                p50_nanos: 1_000,
                p95_nanos: 5_000,
                p99_nanos: 9_000,
                max_nanos: 12_345,
            },
            telemetry_json: "{\"enabled\": false}".to_owned(),
            conns_accepted: 17,
            conns_open: 4,
            conns_peak: 9,
            conns_evicted_slow: 2,
            conns_rejected: 1,
            scrub_nanos: 3_650_000,
            event_loop_cpu_nanos: 71_000_000,
            models: vec![ModelStatsBlock {
                name: "mlp1".to_owned(),
                queue_depth: 3,
                queue_capacity: 256,
                in_flight: 5,
                accepted: 100,
                completed: 90,
                rejected_busy: 7,
                expired: 2,
                bad_requests: 1,
                shutdown_rejects: 0,
                engine_errors: 0,
                batches: 12,
                batched_samples: 90,
                largest_batch: 16,
                latency: LatencySnapshot {
                    count: 90,
                    p50_nanos: 1_000,
                    p95_nanos: 5_000,
                    p99_nanos: 9_000,
                    max_nanos: 12_345,
                },
                replicas: vec![
                    ReplicaStats {
                        index: 0,
                        health: 0,
                        outstanding: 2,
                        completed: 60,
                        batches: 8,
                    },
                    ReplicaStats {
                        index: 1,
                        health: 1,
                        outstanding: 0,
                        completed: 30,
                        batches: 4,
                    },
                ],
                worker_cpu_nanos: 152_000_000,
            }],
        }
    }

    #[test]
    fn conn_counters_track_peak() {
        let c = ConnCounters::default();
        c.on_open();
        c.on_open();
        c.on_close();
        c.on_open();
        assert_eq!(ServerCounters::get(&c.accepted), 3);
        assert_eq!(ServerCounters::get(&c.open), 2);
        assert_eq!(ServerCounters::get(&c.peak), 2);
    }

    #[test]
    fn stats_wire_round_trip() {
        let stats = sample_stats();
        let back = ServerStats::decode(&stats.encode()).unwrap();
        assert_eq!(back, stats);
        assert!((back.mean_batch_size() - 7.5).abs() < 1e-12);
        assert_eq!(back.model("mlp1").unwrap().replicas.len(), 2);
        assert_eq!(back.models[0].replicas[1].health_name(), "draining");
        // `scrub_nanos` then `event_loop_cpu_nanos` close the global
        // block, so a decoder that knows only the counters before them
        // still reads the rest.
        let wire = stats.encode();
        assert_eq!(wire[..4], (GLOBAL_COUNTERS as u32).to_le_bytes());
        let last = 4 + (GLOBAL_COUNTERS - 1) * 8;
        assert_eq!(wire[last - 8..last], 3_650_000u64.to_le_bytes());
        assert_eq!(wire[last..last + 8], 71_000_000u64.to_le_bytes());
        assert_eq!(back.scrub_nanos, 3_650_000);
        assert_eq!(back.event_loop_cpu_nanos, 71_000_000);
        assert_eq!(back.models[0].worker_cpu_nanos, 152_000_000);
    }

    #[test]
    fn count_prefix_tolerates_counter_evolution() {
        // An "older" sender with fewer counters: the tail zero-fills.
        let mut wire = Vec::new();
        put_counter_block(&mut wire, &[9, 256, 1]); // only 3 of 29
        put_u32(&mut wire, 0); // empty backend name
        put_u32(&mut wire, 0); // empty telemetry
        put_u32(&mut wire, 0); // no models
        let stats = ServerStats::decode(&wire).unwrap();
        assert_eq!(stats.queue_depth, 9);
        assert_eq!(stats.queue_capacity, 256);
        assert_eq!(stats.accepted, 0);
        // A "newer" sender with extra counters: the extras are skipped.
        let mut wire = Vec::new();
        let mut counters = sample_stats().global_counters().to_vec();
        counters.push(4242); // future counter
        put_counter_block(&mut wire, &counters);
        put_u32(&mut wire, 0);
        put_u32(&mut wire, 0);
        put_u32(&mut wire, 0);
        let stats = ServerStats::decode(&wire).unwrap();
        assert_eq!(stats.queue_depth, 3);
        assert_eq!(stats.latency.max_nanos, 12_345);
    }

    #[test]
    fn stats_decode_rejects_truncation() {
        let wire = sample_stats().encode();
        assert!(ServerStats::decode(&wire[..wire.len() - 1]).is_err());
        let mut extra = wire.clone();
        extra.push(0);
        assert!(ServerStats::decode(&extra).is_err());
    }

    #[test]
    fn model_block_round_trip() {
        let block = sample_stats().models[0].clone();
        let back = ModelStatsBlock::decode(&block.encode()).unwrap();
        assert_eq!(back, block);
        assert!(ModelStatsBlock::decode(&block.encode()[..4]).is_err());
        // `worker_cpu_nanos` closes the model's counter block: an older
        // block without it decodes with the field zero-filled.
        let wire = block.encode();
        let counters_at = 1 + block.name.len();
        assert_eq!(
            wire[counters_at..counters_at + 4],
            (MODEL_COUNTERS as u32).to_le_bytes()
        );
        let last = counters_at + 4 + (MODEL_COUNTERS - 1) * 8;
        assert_eq!(wire[last..last + 8], 152_000_000u64.to_le_bytes());
        let mut older = Vec::new();
        older.push(block.name.len() as u8);
        older.extend_from_slice(block.name.as_bytes());
        put_counter_block(&mut older, &block.counters()[..MODEL_COUNTERS - 1]);
        older.extend_from_slice(&wire[last + 8..]);
        let back = ModelStatsBlock::decode(&older).unwrap();
        assert_eq!(back.worker_cpu_nanos, 0);
        assert_eq!(back.replicas, block.replicas);
    }

    #[test]
    fn stats_json_has_stable_keys() {
        let json = sample_stats().to_json();
        for key in [
            "\"queue_depth\"",
            "\"queue_capacity\"",
            "\"in_flight\"",
            "\"rejected_busy\"",
            "\"expired\"",
            "\"batches\"",
            "\"largest_batch\"",
            "\"scrub_passes\"",
            "\"scrub_tiles\"",
            "\"scrub_repairs\"",
            "\"scrub_nanos\"",
            "\"event_loop_cpu_nanos\"",
            "\"worker_cpu_nanos\"",
            "\"plan_swaps\"",
            "\"conns_accepted\"",
            "\"conns_open\"",
            "\"conns_peak\"",
            "\"conns_evicted_slow\"",
            "\"conns_rejected\"",
            "\"kernel_backend\"",
            "\"p50_nanos\"",
            "\"p99_nanos\"",
            "\"models\"",
            "\"replicas\"",
            "\"health\"",
            "\"telemetry\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"health\": \"draining\""));
    }
}
