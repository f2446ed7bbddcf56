//! `resipe-serve` — a multi-model TCP inference server for compiled
//! ReSiPE networks.
//!
//! The crate turns a set of [`HardwareNetwork`](resipe::inference::HardwareNetwork)s
//! into a network service without any external dependencies: plain
//! `std::net` sockets, `std::thread` workers, and a length-prefixed
//! binary protocol ([`protocol`]).
//!
//! # Architecture
//!
//! - **Model registry** — [`Server::builder`] registers named models
//!   ([`ModelSpec`]); each gets its own bounded queue, one batch
//!   worker, counters, and latency histogram. Serving limits are
//!   server-wide ([`ServerConfig`]). Network-sourced models compile
//!   lazily through a shared
//!   [`CompileCache`](resipe::cache::CompileCache) on first request.
//! - **Replicated engine shards** — every model runs
//!   [`with_replicas(n)`](ModelSpec::with_replicas) engine instances
//!   with distinct variation/fault seeds, taken in a fixed failover
//!   order: a request's hinted replica while it is
//!   [`Healthy`](ReplicaHealth::Healthy), else the first `Healthy`
//!   replica, else the first [`Draining`](ReplicaHealth::Draining) one.
//!   A replica whose BIST starts failing can be set `Draining` or
//!   [`Sick`](ReplicaHealth::Sick) via [`Server::set_replica_health`]
//!   without dropping traffic.
//! - **One wire version** — every frame carries a magic+version
//!   preamble, a model name (empty = the default model), and an
//!   optional replica hint. A payload without that preamble — garbage,
//!   or a frame of the retired single-model v1 layout — is rejected
//!   with [`Status::Malformed`] before any tensor decode.
//! - **Admission control** — per-model bounded queues answer
//!   [`Status::Busy`] when full instead of
//!   queueing unboundedly; requests whose deadline passes while queued
//!   are dropped with [`Status::Expired`]. A sample of the wrong shape
//!   or holding a NaN (which no spike time encodes) is answered
//!   [`Status::BadRequest`] and never joins a batch.
//! - **Dynamic micro-batching** — the [`batcher`] worker coalesces queued
//!   requests (up to [`ServerConfig::max_batch`] samples, lingering at
//!   most [`ServerConfig::max_wait`]) into one
//!   [`planned`](resipe::inference::RunOptions::planned) execution.
//!   Because the planned batch path is bit-identical to per-sample
//!   execution, coalescing strangers' requests changes no output bit —
//!   the integration tests assert byte equality under the full
//!   non-ideality chain.
//! - **Observability** — the `Stats` verb returns a [`ServerStats`]
//!   snapshot with per-model [`ModelStatsBlock`]s (queue depth,
//!   reject/expiry counters, p50/p95/p99 latency, per-replica health
//!   and load) plus the engine's full
//!   [`TelemetrySnapshot`](resipe::telemetry::TelemetrySnapshot) as
//!   JSON.
//! - **Readiness event loop** — a fixed budget of event-loop threads
//!   ([`ServerConfig::event_threads`]) multiplexes every accepted
//!   connection over `poll(2)` with non-blocking sockets, so thousands
//!   of connections never cost thousands of threads. Frames decode
//!   incrementally ([`protocol::FrameAccum`]), replies route through
//!   per-connection **bounded** outbound buffers drained on `POLLOUT`,
//!   and a slow client that stops reading is evicted
//!   (`conns_evicted_slow`) instead of wedging a thread.
//! - **Graceful shutdown** — [`Server::shutdown`] refuses new work,
//!   drains and answers everything already admitted, flushes every
//!   answered reply the peers will accept, then closes connections.
//!
//! # Quickstart
//!
//! ```no_run
//! use resipe::inference::CompileOptions;
//! use resipe_nn::data::synth_digits;
//! use resipe_nn::models;
//! use resipe_nn::tensor::Tensor;
//! use resipe_serve::{Client, ModelSpec, Server, ServerConfig};
//!
//! let data = synth_digits(16, 1).unwrap();
//! let (calib, _) = data.batch(&(0..16).collect::<Vec<_>>()).unwrap();
//! let net = models::mlp1(7).unwrap();
//! let server = Server::builder()
//!     .config(ServerConfig::default())
//!     .register_model(
//!         "mlp1",
//!         ModelSpec::network(net, calib, CompileOptions::paper(), &[1, 28, 28]),
//!     )
//!     .replicas(2)
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let sample = Tensor::from_vec(vec![0.5; 784], &[1, 28, 28]).unwrap();
//! let output = client.model("mlp1").infer(&sample).unwrap();
//! assert_eq!(output.shape(), &[10]);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the one FFI module ([`sys`], the `poll(2)`
// binding) scope-allows unsafe with documented safety arguments;
// everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]

pub mod batcher;
pub mod client;
pub mod error;
mod event_loop;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
mod sys;

pub use batcher::{BatchExecutor, NetworkExecutor};
pub use client::{Client, ModelHandle};
pub use error::ServeError;
pub use metrics::{LatencyHistogram, LatencySnapshot, ModelStatsBlock, ReplicaStats, ServerStats};
pub use protocol::{ModelInfo, Request, Response, Status, Verb};
pub use registry::{ModelSpec, ReplicaHealth};
pub use server::{Server, ServerBuilder, ServerConfig};
