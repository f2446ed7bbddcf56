//! The readiness event loop: a fixed budget of threads multiplexing
//! every client connection over [`poll`](crate::sys::poll).
//!
//! Each loop owns a set of non-blocking sockets. One cycle:
//!
//! 1. `poll` the wakeup pipe plus every connection (`POLLIN` while the
//!    peer may still send, `POLLOUT` while outbound bytes are pending),
//!    with a housekeeping timeout so closability is re-checked even
//!    without kernel events.
//! 2. Clear the waker (flag first, then the pipe — so a wake that races
//!    the drain is never lost), adopt newly accepted sockets.
//! 3. For each readable connection, read until `WouldBlock`, feeding a
//!    [`FrameAccum`]; complete frames parse and go through admission
//!    ([`handle_request`]) exactly as the blocking reader threads did.
//! 4. Drain each connection's [`ConnMailbox`] (where batcher workers
//!    and inline answers land replies), frame the replies into the
//!    connection's bounded outbound buffer, and flush until
//!    `WouldBlock`.
//! 5. Evict any connection whose unflushed outbound bytes exceed
//!    `write_buffer_cap` — the peer stopped reading while replies kept
//!    arriving, and a bounded buffer is the backpressure contract:
//!    a slow client costs one eviction, never a wedged thread.
//!
//! A connection closes once its peer stopped sending, its buffers are
//! empty, and no in-flight request still holds its mailbox (tracked by
//! the mailbox's `Arc` strong count — each queued [`PendingRequest`]
//! clone keeps it alive). The race where a worker drops the last sink
//! just after the loop's check is covered by the housekeeping timeout.
//!
//! [`PendingRequest`]: crate::batcher::PendingRequest

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::batcher::{Reply, ReplySink};
use crate::error::ServeError;
use crate::metrics::{CpuMeter, ServerCounters};
use crate::protocol::{encode_response_frame, parse_request, FrameAccum, Status};
use crate::server::{handle_request, Shared};
use crate::sys::{self, PollFd, RawFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

/// Poll timeout: bounds how long a lost-wake race or a closability
/// re-check can linger.
const HOUSEKEEPING_MS: i32 = 100;

/// Read buffer size, and (×4) the per-connection read budget per cycle
/// so one firehosing client cannot starve its loop's other connections.
const READ_CHUNK: usize = 64 * 1024;
const MAX_READ_PER_CYCLE: usize = 4 * READ_CHUNK;

/// How long the final drain flushes already-answered replies to
/// still-connected clients before closing everything.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Compact the outbound buffer once this many flushed bytes accumulate
/// at its front.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// De-duplicated wakeup: many `wake()` calls between two polls cost one
/// pipe write, so a burst of worker replies is not a syscall storm.
#[derive(Debug)]
pub(crate) struct Waker {
    pipe: sys::WakePipe,
    signalled: AtomicBool,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        Ok(Waker {
            pipe: sys::WakePipe::new()?,
            signalled: AtomicBool::new(false),
        })
    }

    /// Makes the owning loop's current (or next) `poll` return.
    pub fn wake(&self) {
        if !self.signalled.swap(true, Ordering::AcqRel) {
            self.pipe.notify();
        }
    }

    /// Re-arms the waker. Order matters: the flag clears *before* the
    /// pipe drains, so a `wake()` racing this sees `false`, writes the
    /// pipe, and the next `poll` returns immediately — the wakeup is
    /// delayed one cycle at worst, never lost.
    fn clear(&self) {
        self.signalled.store(false, Ordering::SeqCst);
        self.pipe.drain();
    }

    fn raw_fd(&self) -> RawFd {
        self.pipe.raw_fd()
    }
}

/// One connection's reply queue. Batcher workers (and the loop itself,
/// for inline answers) push; the owning loop drains into the
/// connection's outbound buffer. Pushing wakes the loop.
///
/// A panic while the lock is held cannot leave the queue half-updated
/// (every critical section is one `VecDeque` call), so a poisoned lock
/// is recovered rather than propagated to every later reply.
#[derive(Debug)]
pub(crate) struct ConnMailbox {
    replies: Mutex<VecDeque<Reply>>,
    waker: Arc<Waker>,
}

impl ConnMailbox {
    fn new(waker: Arc<Waker>) -> ConnMailbox {
        ConnMailbox {
            replies: Mutex::new(VecDeque::new()),
            waker,
        }
    }

    /// Queues a reply and wakes the owning loop.
    pub fn push(&self, reply: Reply) {
        self.replies().push_back(reply);
        self.waker.wake();
    }

    fn take_all(&self, into: &mut Vec<Reply>) {
        into.extend(self.replies().drain(..));
    }

    fn is_empty(&self) -> bool {
        self.replies().is_empty()
    }

    fn replies(&self) -> MutexGuard<'_, VecDeque<Reply>> {
        self.replies.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The accept loop's handle to one event loop: hand over accepted
/// sockets, wake it for drain.
#[derive(Debug)]
pub(crate) struct EventLoopHandle {
    waker: Arc<Waker>,
    incoming: Mutex<Vec<TcpStream>>,
    /// CPU nanoseconds the loop thread has run, charged after every
    /// poll wake; read by `STATS`.
    pub(crate) cpu_nanos: AtomicU64,
}

impl EventLoopHandle {
    /// A handle whose loop has not started yet.
    pub fn new() -> io::Result<EventLoopHandle> {
        Ok(EventLoopHandle {
            waker: Arc::new(Waker::new()?),
            incoming: Mutex::new(Vec::new()),
            cpu_nanos: AtomicU64::new(0),
        })
    }

    /// Hands an accepted (already non-blocking) socket to the loop.
    pub fn adopt(&self, stream: TcpStream) {
        self.incoming().push(stream);
        self.waker.wake();
    }

    /// Wakes the loop without queueing anything (drain notification).
    pub fn wake(&self) {
        self.waker.wake();
    }

    fn take_incoming(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.incoming())
    }

    /// Recovered from poisoning like the mailbox: each critical section
    /// is one `Vec` call.
    fn incoming(&self) -> MutexGuard<'_, Vec<TcpStream>> {
        self.incoming.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    mailbox: Arc<ConnMailbox>,
    accum: FrameAccum,
    /// Framed response bytes not yet accepted by the kernel;
    /// `out[out_start..]` is the unwritten tail.
    out: Vec<u8>,
    out_start: usize,
    /// Peer finished sending (EOF) — no more reads.
    read_closed: bool,
    /// Unrecoverable (socket error, torn frame, eviction): remove now.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, waker: Arc<Waker>) -> Conn {
        let fd = sys::raw_fd(&stream);
        Conn {
            stream,
            fd,
            mailbox: Arc::new(ConnMailbox::new(waker)),
            accum: FrameAccum::new(),
            out: Vec::new(),
            out_start: 0,
            read_closed: false,
            dead: false,
        }
    }

    fn unwritten(&self) -> usize {
        self.out.len() - self.out_start
    }

    /// Reads until `WouldBlock`, EOF, or the per-cycle budget, feeding
    /// complete frames through parsing and admission.
    fn read_ready(&mut self, shared: &Arc<Shared>, buf: &mut [u8]) {
        let mut budget = MAX_READ_PER_CYCLE;
        while budget > 0 && !self.read_closed && !self.dead {
            match self.stream.read(buf) {
                // EOF. A frame torn mid-stream leaves nothing to
                // answer (same as the blocking reader); either way the
                // peer sends no more.
                Ok(0) => self.read_closed = true,
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    self.ingest(&buf[..n], shared);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
    }

    fn ingest(&mut self, mut input: &[u8], shared: &Arc<Shared>) {
        while !input.is_empty() && !self.dead {
            match self.accum.feed(input) {
                Ok((used, maybe_frame)) => {
                    input = &input[used..];
                    if let Some(frame) = maybe_frame {
                        self.dispatch(&frame, shared);
                    }
                }
                // Oversized frame: the blocking reader tore the
                // connection down with nothing to answer; same here.
                Err(_) => self.dead = true,
            }
        }
    }

    fn dispatch(&mut self, frame: &[u8], shared: &Arc<Shared>) {
        match parse_request(frame) {
            Ok(req) => {
                handle_request(req, shared, &ReplySink::Conn(Arc::clone(&self.mailbox)));
            }
            Err(e) => {
                // A garbage preamble earns Malformed, recognizable-but-
                // invalid content BadRequest; both answer under id 0
                // (the request's id may not have parsed) and the
                // connection keeps reading.
                let status = match &e {
                    ServeError::Malformed(_) => Status::Malformed,
                    _ => Status::BadRequest,
                };
                ServerCounters::add(&shared.global_counters.bad_requests, 1);
                self.mailbox.push(Reply {
                    status,
                    id: 0,
                    payload: e.to_string().into_bytes(),
                });
            }
        }
    }

    /// Moves mailbox replies into the outbound buffer, flushes what the
    /// kernel will take, and evicts on buffer overflow.
    fn pump_out(&mut self, shared: &Arc<Shared>, scratch: &mut Vec<Reply>) {
        if self.dead {
            return;
        }
        self.mailbox.take_all(scratch);
        for reply in scratch.drain(..) {
            self.out.extend_from_slice(&encode_response_frame(
                reply.status,
                reply.id,
                &reply.payload,
            ));
        }
        if self.flush().is_err() {
            self.dead = true;
            return;
        }
        if self.unwritten() > shared.write_buffer_cap {
            ServerCounters::add(&shared.conn_counters.evicted_slow, 1);
            self.dead = true;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.out_start < self.out.len() {
            match self.stream.write(&self.out[self.out_start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_start == self.out.len() {
            self.out.clear();
            self.out_start = 0;
        } else if self.out_start >= COMPACT_THRESHOLD {
            self.out.drain(..self.out_start);
            self.out_start = 0;
        }
        Ok(())
    }

    /// Whether the connection can be removed: dead, or fully quiesced
    /// with no in-flight request still holding the mailbox (the loop's
    /// own `Arc` is the only one left).
    fn finished(&self) -> bool {
        self.dead
            || (self.read_closed
                && self.unwritten() == 0
                && self.mailbox.is_empty()
                && Arc::strong_count(&self.mailbox) == 1)
    }
}

/// Runs one event loop until the server drains. `handle` is how the
/// accept loop feeds it sockets and how shutdown wakes it.
pub(crate) fn run_event_loop(handle: Arc<EventLoopHandle>, shared: Arc<Shared>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; READ_CHUNK];
    let mut scratch: Vec<Reply> = Vec::new();
    let mut cpu = CpuMeter::default();
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            drain_and_close(&handle, &shared, &mut conns, &mut scratch);
            return;
        }
        let mut fds = Vec::with_capacity(1 + conns.len());
        fds.push(PollFd::new(handle.waker.raw_fd(), POLLIN));
        for c in &conns {
            let mut events = 0i16;
            if !c.read_closed {
                events |= POLLIN;
            }
            if c.unwritten() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(c.fd, events));
        }
        if sys::poll(&mut fds, HOUSEKEEPING_MS).is_err() {
            // A wholesale poll failure would otherwise spin; back off
            // and treat the cycle as a housekeeping tick.
            std::thread::sleep(Duration::from_millis(5));
        }
        cpu.charge(&handle.cpu_nanos);
        handle.waker.clear();
        for stream in handle.take_incoming() {
            conns.push(Conn::new(stream, Arc::clone(&handle.waker)));
        }
        let n_polled = fds.len() - 1;
        for (i, c) in conns.iter_mut().enumerate() {
            // Connections adopted this cycle were not polled; give them
            // an immediate read attempt (they may carry buffered data).
            let revents = if i < n_polled {
                fds[i + 1].revents
            } else {
                POLLIN
            };
            if revents & POLLNVAL != 0 {
                c.dead = true;
                continue;
            }
            // POLLHUP/POLLERR resolve through the read itself: buffered
            // data still drains, then EOF or the error surfaces.
            if !c.read_closed && revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                c.read_ready(&shared, &mut buf);
            }
        }
        for c in conns.iter_mut() {
            c.pump_out(&shared, &mut scratch);
        }
        conns.retain(|c| {
            if c.finished() {
                shared.conn_counters.on_close();
                false
            } else {
                true
            }
        });
    }
}

/// The final cycle: every admitted request has already been answered
/// into its mailbox (workers are joined before `draining` is set), so
/// flush what the peers will accept within [`DRAIN_GRACE`], then close
/// everything.
fn drain_and_close(
    handle: &EventLoopHandle,
    shared: &Arc<Shared>,
    conns: &mut Vec<Conn>,
    scratch: &mut Vec<Reply>,
) {
    for stream in handle.take_incoming() {
        conns.push(Conn::new(stream, Arc::clone(&handle.waker)));
    }
    let deadline = Instant::now() + DRAIN_GRACE;
    loop {
        let mut pending = false;
        for c in conns.iter_mut() {
            c.pump_out(shared, scratch);
            if !c.dead && (c.unwritten() > 0 || !c.mailbox.is_empty()) {
                pending = true;
            }
        }
        if !pending || Instant::now() >= deadline {
            break;
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .filter(|c| !c.dead && c.unwritten() > 0)
            .map(|c| PollFd::new(c.fd, POLLOUT))
            .collect();
        if fds.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        } else {
            let _ = sys::poll(&mut fds, 50);
        }
    }
    for c in conns.drain(..) {
        shared.conn_counters.on_close();
        let _ = c.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_deduplicates_until_cleared() {
        let waker = Waker::new().unwrap();
        waker.wake();
        waker.wake();
        waker.wake();
        // One pending wake regardless of call count.
        let mut fds = [PollFd::new(waker.raw_fd(), POLLIN)];
        assert!(sys::poll(&mut fds, 1000).unwrap() >= 1);
        waker.clear();
        if cfg!(unix) {
            let mut fds = [PollFd::new(waker.raw_fd(), POLLIN)];
            assert_eq!(sys::poll(&mut fds, 0).unwrap(), 0);
        }
        // Re-armed: the next wake signals again.
        waker.wake();
        let mut fds = [PollFd::new(waker.raw_fd(), POLLIN)];
        assert!(sys::poll(&mut fds, 1000).unwrap() >= 1);
    }

    #[test]
    fn mailbox_push_wakes_and_drains_in_order() {
        let waker = Arc::new(Waker::new().unwrap());
        let mailbox = ConnMailbox::new(Arc::clone(&waker));
        for id in [4u64, 7, 9] {
            mailbox.push(Reply {
                status: Status::Ok,
                id,
                payload: Vec::new(),
            });
        }
        let mut fds = [PollFd::new(waker.raw_fd(), POLLIN)];
        assert!(sys::poll(&mut fds, 1000).unwrap() >= 1, "push must wake");
        let mut out = Vec::new();
        mailbox.take_all(&mut out);
        assert_eq!(out.iter().map(|r| r.id).collect::<Vec<_>>(), vec![4, 7, 9]);
        assert!(mailbox.is_empty());
    }

    #[test]
    fn poisoned_mailbox_and_incoming_are_recovered() {
        let handle = Arc::new(EventLoopHandle::new().unwrap());
        let mailbox = Arc::new(ConnMailbox::new(Arc::clone(&handle.waker)));
        let (m, h) = (Arc::clone(&mailbox), Arc::clone(&handle));
        let poisoner = std::thread::spawn(move || {
            let _replies = m.replies.lock().unwrap();
            let _incoming = h.incoming.lock().unwrap();
            panic!("poison both locks");
        });
        assert!(poisoner.join().is_err());
        assert!(mailbox.replies.is_poisoned() && handle.incoming.is_poisoned());

        for id in [1u64, 2] {
            mailbox.push(Reply {
                status: Status::Ok,
                id,
                payload: Vec::new(),
            });
        }
        assert!(!mailbox.is_empty());
        let mut out = Vec::new();
        mailbox.take_all(&mut out);
        assert_eq!(out.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2]);
        assert!(mailbox.is_empty());

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        handle.adopt(client);
        assert_eq!(handle.take_incoming().len(), 1);
        assert!(handle.take_incoming().is_empty());
    }
}
