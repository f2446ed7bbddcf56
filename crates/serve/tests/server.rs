//! Server behavior under normal operation, overload, deadlines, bad
//! input, and graceful shutdown — all against mock executors on
//! loopback, so the tests are fast and deterministic.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use resipe::ResipeError;
use resipe_nn::tensor::Tensor;
use resipe_serve::batcher::BatchExecutor;
use resipe_serve::protocol::{encode_tensor, read_response, write_request};
use resipe_serve::{Client, ModelSpec, Request, ServeError, Server, ServerConfig, Status, Verb};

/// Binds a single executor-backed model `"echo"` behind the builder.
fn bind_executor(
    executor: Arc<dyn BatchExecutor>,
    shape: &[usize],
    config: ServerConfig,
) -> Result<Server, ServeError> {
    Server::builder()
        .config(config)
        .register_model("echo", ModelSpec::executor(executor, shape))
        .bind("127.0.0.1:0")
}

/// Echoes input after an optional artificial delay.
struct SlowEcho {
    delay: Duration,
    executed: AtomicU64,
}

impl SlowEcho {
    fn instant() -> SlowEcho {
        SlowEcho {
            delay: Duration::ZERO,
            executed: AtomicU64::new(0),
        }
    }

    fn with_delay(delay: Duration) -> SlowEcho {
        SlowEcho {
            delay,
            executed: AtomicU64::new(0),
        }
    }
}

impl BatchExecutor for SlowEcho {
    fn execute(&self, batch: &Tensor) -> Result<Tensor, ResipeError> {
        if !self.delay.is_zero() {
            thread::sleep(self.delay);
        }
        self.executed
            .fetch_add(batch.shape()[0] as u64, Ordering::Relaxed);
        Ok(batch.clone())
    }
}

fn spawn_echo(config: ServerConfig) -> Server {
    bind_executor(Arc::new(SlowEcho::instant()), &[3], config).unwrap()
}

#[test]
fn ping_and_stats_round_trip() {
    let server = spawn_echo(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let rtt = client.ping().unwrap();
    assert!(rtt < Duration::from_secs(5));
    let sample = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
    client.infer(&sample).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.queue_capacity, 256);
    assert_eq!(stats.latency.count, 1);
    assert!(stats.latency.p50_nanos > 0);
    // The telemetry JSON rides along even for a disabled handle.
    assert!(stats.telemetry_json.contains("\"enabled\""));
    assert!(stats.to_json().contains("\"queue_depth\""));
    // The serving threads' CPU time: the event loop charged its wake
    // for this very request; the worker charges after its batch, which
    // may land just after the reply, so it gets a moment.
    if cfg!(target_os = "linux") {
        assert!(stats.event_loop_cpu_nanos > 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = client.stats().unwrap();
            if stats.model("echo").unwrap().worker_cpu_nanos > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "the worker never charged");
            thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Echoes input, but only after the test opens the gate (drops the
/// sender) — so the worker can be held deterministically mid-batch.
struct GatedEcho {
    gate: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    entered: AtomicU64,
}

impl BatchExecutor for GatedEcho {
    fn execute(&self, batch: &Tensor) -> Result<Tensor, ResipeError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        // Blocks until the test sends a token or drops the sender.
        let _ = self.gate.lock().unwrap().recv();
        Ok(batch.clone())
    }
}

#[test]
fn overload_answers_busy_without_panic() {
    // One worker deterministically stuck mid-batch, a queue of 2, and
    // saturating fillers: the next request must come back `Busy`.
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let executor = Arc::new(GatedEcho {
        gate: std::sync::Mutex::new(gate_rx),
        entered: AtomicU64::new(0),
    });
    let server = bind_executor(
        Arc::clone(&executor) as Arc<dyn BatchExecutor>,
        &[3],
        ServerConfig::default()
            .with_queue_capacity(2)
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO),
    )
    .unwrap();
    let addr = server.local_addr();
    let sample = Tensor::from_vec(vec![0.0, 0.0, 0.0], &[3]).unwrap();

    // Saturate: one request holds the worker at the gate, two fill the
    // queue. Fillers retry on a transient Busy until admitted.
    let mut fillers = Vec::new();
    for _ in 0..3 {
        let sample = sample.clone();
        fillers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            loop {
                match client.infer(&sample) {
                    Err(ServeError::Busy) => thread::sleep(Duration::from_millis(2)),
                    other => return other,
                }
            }
        }));
    }
    // Wait for the stable saturated state: the worker is provably
    // blocked at the gate holding one request, and the queue is full.
    let mut waited = 0;
    while !(executor.entered.load(Ordering::SeqCst) == 1 && server.stats().queue_depth == 2) {
        thread::sleep(Duration::from_millis(5));
        waited += 1;
        assert!(waited < 1000, "saturation never reached");
    }

    // The queue is now provably full; one more request must be Busy.
    let mut probe = Client::connect(addr).unwrap();
    match probe.infer(&sample) {
        Err(ServeError::Busy) => {}
        other => panic!("expected Busy from the saturated server, got {other:?}"),
    }

    // Open the gate; every admitted request completes.
    drop(gate_tx);
    for j in fillers {
        let out = j.join().unwrap().unwrap();
        assert_eq!(out.data(), sample.data());
    }
    let stats = server.stats();
    assert!(stats.rejected_busy >= 1);
    // Accounting stays consistent: everything admitted was answered.
    assert_eq!(stats.accepted, stats.completed);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn deadline_expiry_is_reported() {
    let server = bind_executor(
        Arc::new(SlowEcho::with_delay(Duration::from_millis(120))),
        &[3],
        ServerConfig::default()
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO),
    )
    .unwrap();
    let addr = server.local_addr();
    let sample = Tensor::from_vec(vec![0.0, 0.0, 0.0], &[3]).unwrap();

    // Occupy the single worker so the deadline request has to queue.
    let blocker = {
        let sample = sample.clone();
        thread::spawn(move || Client::connect(addr).unwrap().infer(&sample))
    };
    thread::sleep(Duration::from_millis(30));
    let mut hurried = Client::connect(addr)
        .unwrap()
        .with_deadline(Duration::from_millis(10));
    match hurried.infer(&sample) {
        Err(ServeError::Expired) => {}
        other => panic!("expected Expired, got {other:?}"),
    }
    blocker.join().unwrap().unwrap();
    assert!(server.stats().expired >= 1);
}

#[test]
fn bad_shape_is_rejected_not_executed() {
    let server = spawn_echo(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let wrong = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
    match client.infer(&wrong) {
        Err(ServeError::BadRequest(msg)) => {
            assert!(
                msg.contains("shape"),
                "diagnostic should name the shape: {msg}"
            );
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The connection survives a bad request.
    let right = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
    client.infer(&right).unwrap();
    let stats = server.stats();
    assert_eq!(stats.bad_requests, 1);
    assert_eq!(stats.completed, 1);
}

/// A NaN sample is refused at admission, so it never joins a coalesced
/// batch where the engine's error would fail its neighbours' requests.
#[test]
fn nan_sample_is_rejected_at_admission() {
    let echo = Arc::new(SlowEcho::instant());
    let server = bind_executor(echo.clone(), &[3], ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let nan = Tensor::from_vec(vec![1.0, f32::NAN, 3.0], &[3]).unwrap();
    match client.infer(&nan) {
        Err(ServeError::BadRequest(msg)) => {
            assert!(msg.contains("NaN"), "diagnostic should name the NaN: {msg}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let right = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
    assert_eq!(client.infer(&right).unwrap(), right);
    let stats = server.stats();
    assert_eq!(stats.bad_requests, 1);
    assert_eq!((stats.accepted, stats.completed), (1, 1));
    assert_eq!(
        echo.executed.load(Ordering::Relaxed),
        1,
        "the NaN never ran"
    );
}

/// The retired single-model v1 frame — `[u32 len][verb=1][u64 id]
/// [u32 deadline][tensor]`, no preamble — earns a `Malformed` reply in
/// the one wire framing, under id 0, with nothing executed; the
/// connection stays usable.
#[test]
fn v1_frames_are_malformed_and_the_connection_survives() {
    let server = spawn_echo(ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let sample = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
    let mut payload = vec![1u8];
    payload.extend_from_slice(&42u64.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&encode_tensor(&sample));
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();

    let reply = read_response(&mut stream).unwrap().unwrap();
    assert_eq!(reply.status, Status::Malformed);
    assert_eq!(reply.id, 0, "the id of a malformed frame is never parsed");

    write_request(&mut stream, &Request::v2(Verb::Ping, 7, 0, "", None)).unwrap();
    let pong = read_response(&mut stream).unwrap().unwrap();
    assert_eq!((pong.status, pong.id), (Status::Ok, 7));
    let stats = server.stats();
    assert_eq!(stats.bad_requests, 1);
    assert_eq!(stats.accepted, 0, "a v1 frame is never admitted");
}

#[test]
fn shutdown_drains_admitted_work_and_refuses_new() {
    let executor = Arc::new(SlowEcho::with_delay(Duration::from_millis(40)));
    let mut server = bind_executor(
        Arc::clone(&executor) as Arc<dyn BatchExecutor>,
        &[3],
        ServerConfig::default()
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO),
    )
    .unwrap();
    let addr = server.local_addr();
    let sample = Tensor::from_vec(vec![7.0, 8.0, 9.0], &[3]).unwrap();

    // Admit work that will still be queued when shutdown begins.
    let mut inflight = Vec::new();
    for _ in 0..4 {
        let sample = sample.clone();
        inflight.push(thread::spawn(move || {
            Client::connect(addr).unwrap().infer(&sample)
        }));
    }
    thread::sleep(Duration::from_millis(20));
    server.shutdown();

    // Every admitted request was answered (drained, not dropped) —
    // admission may have rejected late arrivals, but whatever got in
    // must complete with the right data.
    let mut answered = 0;
    for j in inflight {
        match j.join().unwrap() {
            Ok(out) => {
                assert_eq!(out.data(), sample.data());
                answered += 1;
            }
            Err(ServeError::ShuttingDown) => {}
            Err(e) => panic!("unexpected error at shutdown: {e}"),
        }
    }
    assert!(answered >= 1, "at least the in-progress request completes");
    let stats = server.stats();
    assert_eq!(stats.accepted, stats.completed, "drain answered everything");
    assert_eq!(executor.executed.load(Ordering::Relaxed), stats.completed);

    // New connections are refused (or reset) after shutdown.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(c.infer(&sample).is_err(), "post-shutdown infer must fail");
        }
    }
    // Idempotent.
    server.shutdown();
}

#[test]
fn invalid_configs_are_rejected() {
    let mk = || Arc::new(SlowEcho::instant()) as Arc<dyn BatchExecutor>;
    for config in [
        ServerConfig::default().with_max_batch(0),
        ServerConfig::default().with_queue_capacity(0),
    ] {
        assert!(bind_executor(mk(), &[3], config).is_err());
    }
    // Degenerate sample shapes are rejected too.
    assert!(bind_executor(mk(), &[], ServerConfig::default()).is_err());
    assert!(bind_executor(mk(), &[3, 0], ServerConfig::default()).is_err());

    // Registry-level validation: no models, duplicate names, bad
    // default, zero replicas, oversized name.
    assert!(Server::builder().bind("127.0.0.1:0").is_err());
    assert!(Server::builder()
        .register_model("a", ModelSpec::executor(mk(), &[3]))
        .register_model("a", ModelSpec::executor(mk(), &[3]))
        .bind("127.0.0.1:0")
        .is_err());
    assert!(Server::builder()
        .register_model("a", ModelSpec::executor(mk(), &[3]))
        .default_model("missing")
        .bind("127.0.0.1:0")
        .is_err());
    assert!(Server::builder()
        .register_model("a", ModelSpec::executor(mk(), &[3]).with_replicas(0))
        .bind("127.0.0.1:0")
        .is_err());
    assert!(Server::builder()
        .register_model(&"x".repeat(300), ModelSpec::executor(mk(), &[3]))
        .bind("127.0.0.1:0")
        .is_err());
}
