//! Event-loop behavior: slow-client eviction with backpressure, the
//! open-connection limit, and many connections multiplexed on the fixed
//! thread budget — all against mock executors on loopback.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use resipe::ResipeError;
use resipe_nn::tensor::Tensor;
use resipe_serve::batcher::BatchExecutor;
use resipe_serve::protocol::{write_request, Request, Verb};
use resipe_serve::{Client, ModelSpec, ServeError, Server, ServerConfig};

/// Echoes its input batch unchanged.
struct Echo;

impl BatchExecutor for Echo {
    fn execute(&self, batch: &Tensor) -> Result<Tensor, ResipeError> {
        Ok(batch.clone())
    }
}

fn bind_echo(shape: &[usize], config: ServerConfig) -> Server {
    Server::builder()
        .config(config)
        .register_model("echo", ModelSpec::executor(Arc::new(Echo), shape))
        .bind("127.0.0.1:0")
        .unwrap()
}

/// Polls `cond` until it holds or ~5s elapse.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// A client that pipelines requests and never reads replies fills its
/// bounded outbound buffer and is evicted — while a healthy client on
/// the same event loops keeps getting bit-identical echoes throughout.
#[test]
fn slow_client_is_evicted_without_stalling_others() {
    // 16384-element replies (64 KiB each) against a 64 KiB outbound
    // cap: up to 32 MiB of unread replies overwhelm the cap no matter
    // how much the kernel's loopback socket buffers absorb.
    let server = bind_echo(
        &[16384],
        ServerConfig::default()
            .with_write_buffer_cap(64 * 1024)
            .with_queue_capacity(1024),
    );
    let addr = server.local_addr();

    // The slow client: pipeline valid inference requests and never
    // read a byte back. Once evicted mid-stream, its socket closes and
    // the pipelining write fails — which is the expected end state.
    let mut slow = TcpStream::connect(addr).unwrap();
    let sample = Tensor::from_vec(vec![0.25f32; 16384], &[16384]).unwrap();
    for id in 0..512u64 {
        let req = Request::v2(Verb::Infer, id + 1, 0, "", Some(sample.clone()));
        if write_request(&mut slow, &req).is_err() {
            break; // already evicted — even better
        }
    }
    let _ = slow.flush();

    // A healthy client keeps round-tripping while the slow one drowns.
    let healthy = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let sample = Tensor::from_vec(vec![1.5f32; 16384], &[16384]).unwrap();
        for _ in 0..10 {
            let out = client.infer(&sample).unwrap();
            assert_eq!(out.data(), sample.data(), "healthy echo must be exact");
        }
    });

    wait_for(
        || server.stats().conns_evicted_slow >= 1,
        "the slow client's eviction",
    );
    healthy.join().unwrap();

    let stats = server.stats();
    assert_eq!(stats.conns_evicted_slow, 1, "only the slow client evicts");
    // Backpressure, not collapse: the healthy client's work completed.
    assert!(stats.completed >= 10);
}

/// Accepts beyond `max_connections` are closed immediately and counted;
/// capacity frees once an open connection goes away.
#[test]
fn max_connections_is_enforced_at_accept() {
    let server = bind_echo(&[3], ServerConfig::default().with_max_connections(2));
    let addr = server.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();
    assert_eq!(server.stats().conns_open, 2);

    // The third connection completes the TCP handshake (kernel backlog)
    // but the server closes it before adoption: its first request dies.
    let mut c = Client::connect(addr).unwrap();
    assert!(
        matches!(c.ping(), Err(ServeError::Io(_))),
        "over-limit connection must be closed unanswered"
    );
    wait_for(
        || server.stats().conns_rejected >= 1,
        "the rejected-connection counter",
    );

    // Dropping an open connection frees a slot.
    drop(a);
    wait_for(|| server.stats().conns_open < 2, "slot release");
    let mut d = Client::connect(addr).unwrap();
    d.ping().unwrap();
    b.ping().unwrap();

    let stats = server.stats();
    assert_eq!(stats.conns_peak, 2, "the cap was never exceeded");
    assert!(stats.conns_accepted >= 3);
}

/// 256 concurrent connections multiplexed on 2 event-loop threads:
/// every reply is bit-identical, nothing is lost, and the
/// peak-connection counter proves they were truly simultaneous. With
/// one request in flight per connection, the default 256-deep queue
/// admits them all.
#[test]
fn many_connections_share_two_event_threads() {
    const CONNS: usize = 256;
    const REQS: usize = 4;
    let server = bind_echo(&[8], ServerConfig::default().with_event_threads(2));
    let addr = server.local_addr();

    let start = Arc::new(Barrier::new(CONNS));
    let done = Arc::new(Barrier::new(CONNS));
    let mut handles = Vec::new();
    for i in 0..CONNS {
        let start = Arc::clone(&start);
        let done = Arc::clone(&done);
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let sample = Tensor::from_vec(vec![i as f32; 8], &[8]).unwrap();
            start.wait();
            for _ in 0..REQS {
                let out = client.infer(&sample).unwrap();
                assert_eq!(out.data(), sample.data(), "conn {i} echo must be exact");
            }
            // Hold the connection until everyone finished, so the peak
            // counter records all of them simultaneously open.
            done.wait();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = server.stats();
    assert!(
        stats.conns_peak >= CONNS as u64,
        "peak {} must reach {CONNS} simultaneous connections",
        stats.conns_peak
    );
    assert_eq!(stats.accepted, (CONNS * REQS) as u64);
    assert_eq!(stats.completed, stats.accepted, "no reply lost");
    assert_eq!(stats.conns_evicted_slow, 0);
}
