//! Minimal, self-contained OS primitives: a `poll(2)` binding and a
//! wakeup pipe for the event loop, and the calling thread's CPU clock
//! for the `STATS` snapshot.
//!
//! This is the **only** module in the crate (and the workspace) that
//! contains `unsafe` code, and the only foreign functions it declares
//! are `poll` and, on Linux, `clock_gettime` — no `libc` crate, no new
//! dependency: on Unix targets the standard library already links the
//! platform C library, so a plain `extern "C"` declaration resolves
//! against it.
//!
//! Portability:
//!
//! - **Unix** (the supported production target): real `poll(2)` over
//!   the raw fds of non-blocking sockets, plus a
//!   [`WakePipe`](self::WakePipe) built from
//!   `std::os::unix::net::UnixStream::pair()` (the classic self-pipe
//!   trick, std-only) so batcher workers can make a sleeping event
//!   loop return immediately.
//! - **Everything else**: a documented degraded fallback — `poll`
//!   sleeps for a bounded slice of the requested timeout and then
//!   reports every registered fd as ready. Readiness is *advisory*
//!   under level-triggered semantics: the event loop's reads and
//!   writes are non-blocking and tolerate spurious wakeups
//!   (`WouldBlock` simply re-arms the interest), so the fallback is
//!   slower but correct. The wake pipe degrades to a flag-only waker;
//!   wakeups are then bounded by the fallback poll slice.

// The crate-level `#![deny(unsafe_code)]` is lifted for exactly this
// module; every unsafe block below documents its safety argument.
#![allow(unsafe_code)]

use std::io;

/// Raw descriptor type registered with [`poll`]. Mirrors
/// `std::os::fd::RawFd` on Unix; a placeholder on other targets.
#[cfg(unix)]
pub(crate) type RawFd = std::os::fd::RawFd;
#[cfg(not(unix))]
pub(crate) type RawFd = i32;

/// Readable now (or EOF pending).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable now without blocking.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition on the descriptor (always reported, never requested).
pub(crate) const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, never requested).
pub(crate) const POLLHUP: i16 = 0x010;
/// The descriptor is not open (always reported, never requested).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One descriptor's poll registration, layout-compatible with the C
/// `struct pollfd` (`int fd; short events; short revents;`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    /// Descriptor to watch.
    pub fd: RawFd,
    /// Requested readiness ([`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Kernel-reported readiness, filled by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// A registration watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[cfg(unix)]
mod imp {
    use super::PollFd;
    use std::io;

    // `nfds_t` is `unsigned long` on Linux/Android and `unsigned int`
    // on the BSD family (including macOS).
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = core::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = core::ffi::c_uint;

    extern "C" {
        // POSIX poll(2); std links the platform libc on every Unix
        // target, so this resolves without adding a dependency.
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: core::ffi::c_int) -> core::ffi::c_int;
    }

    /// Blocks until a registered fd is ready or `timeout_ms` elapses.
    /// Returns the number of descriptors with nonzero `revents`
    /// (0 on timeout). `EINTR` is reported as a timeout: the caller's
    /// loop re-polls, which is the behavior we want from a signal.
    pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` PollFd (layout-compatible with struct pollfd);
        // the kernel writes only within `fds.len()` entries, and the
        // slice outlives the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(not(unix))]
mod imp {
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    /// Longest slice the fallback sleeps before reporting readiness,
    /// bounding wakeup latency on targets without `poll(2)`.
    const FALLBACK_SLICE_MS: u64 = 5;

    /// Degraded portable fallback: sleep a bounded slice of the
    /// timeout, then report every registered fd ready for what it
    /// asked. Spurious readiness is safe — all event-loop I/O is
    /// non-blocking and treats `WouldBlock` as "not actually ready".
    pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        if timeout_ms != 0 {
            let ms = if timeout_ms < 0 {
                FALLBACK_SLICE_MS
            } else {
                (timeout_ms as u64).min(FALLBACK_SLICE_MS)
            };
            std::thread::sleep(Duration::from_millis(ms));
        }
        let mut ready = 0usize;
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
            if fd.revents != 0 {
                ready += 1;
            }
        }
        Ok(ready)
    }
}

/// Waits for readiness on `fds`. `timeout_ms < 0` blocks indefinitely,
/// `0` polls, positive values bound the wait. Returns how many entries
/// have nonzero `revents`; `EINTR` reads as a timeout (`Ok(0)`).
pub(crate) fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    imp::poll_fds(fds, timeout_ms)
}

/// The raw descriptor of a TCP stream, for [`poll`] registration. On
/// non-Unix targets returns `-1`, which the fallback `poll` ignores.
pub(crate) fn raw_fd(stream: &std::net::TcpStream) -> RawFd {
    #[cfg(unix)]
    {
        use std::os::fd::AsRawFd;
        stream.as_raw_fd()
    }
    #[cfg(not(unix))]
    {
        let _ = stream;
        -1
    }
}

/// The event loop's wakeup channel: writing one byte makes a `poll`
/// sleeping on the read end return immediately. Built from a
/// `UnixStream` socketpair on Unix (std-only, no extra fds to manage
/// beyond the pair); a no-op stub elsewhere, where the fallback
/// `poll`'s bounded sleep provides the wakeup latency instead.
#[derive(Debug)]
pub(crate) struct WakePipe {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
}

impl WakePipe {
    /// Opens the pipe; both ends are non-blocking.
    pub fn new() -> io::Result<WakePipe> {
        #[cfg(unix)]
        {
            let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(WakePipe { rx, tx })
        }
        #[cfg(not(unix))]
        Ok(WakePipe {})
    }

    /// The fd to register with [`poll`] for [`POLLIN`]. On non-Unix
    /// targets returns `-1`; the fallback `poll` ignores it.
    pub fn raw_fd(&self) -> RawFd {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            self.rx.as_raw_fd()
        }
        #[cfg(not(unix))]
        {
            -1
        }
    }

    /// Queues a wakeup. A full pipe means a wakeup is already pending,
    /// which is exactly as good — every failure mode here is benign.
    pub fn notify(&self) {
        #[cfg(unix)]
        {
            use std::io::Write;
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// Drains every pending wakeup byte so the next `poll` sleeps.
    pub fn drain(&self) {
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// CPU nanoseconds the calling thread has run so far (user + system
/// time, not wall clock), read from its `CLOCK_THREAD_CPUTIME_ID`; 0
/// where the clock cannot be read (every target but Linux).
pub(crate) fn thread_cpu_nanos() -> u64 {
    imp_clock::thread_cpu_nanos()
}

#[cfg(target_os = "linux")]
mod imp_clock {
    use core::ffi::{c_int, c_long};

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    /// `struct timespec` on Linux (`time_t` and `long` are both `long`).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    }

    pub(super) fn thread_cpu_nanos() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, exclusively borrowed `struct
        // timespec` for the call's duration, and the clock id names the
        // calling thread's own clock, which always exists.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
            return 0;
        }
        (ts.tv_sec.max(0) as u64)
            .saturating_mul(1_000_000_000)
            .saturating_add(ts.tv_nsec.max(0) as u64)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp_clock {
    pub(super) fn thread_cpu_nanos() -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_makes_poll_return() {
        let pipe = WakePipe::new().unwrap();
        // Nothing pending: a short poll times out with zero ready.
        let mut fds = [PollFd::new(pipe.raw_fd(), POLLIN)];
        if cfg!(unix) {
            assert_eq!(poll(&mut fds, 0).unwrap(), 0);
        }
        pipe.notify();
        let mut fds = [PollFd::new(pipe.raw_fd(), POLLIN)];
        let ready = poll(&mut fds, 1000).unwrap();
        assert!(ready >= 1, "notify must make the read end ready");
        assert_ne!(fds[0].revents & POLLIN, 0);
        pipe.drain();
        if cfg!(unix) {
            let mut fds = [PollFd::new(pipe.raw_fd(), POLLIN)];
            assert_eq!(poll(&mut fds, 0).unwrap(), 0, "drain clears readiness");
        }
    }

    #[test]
    fn thread_cpu_clock_counts_this_threads_work() {
        let before = thread_cpu_nanos();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let after = thread_cpu_nanos();
        if cfg!(target_os = "linux") {
            let spun = after - before;
            assert!(spun > 1_000_000, "20 ms of spinning read {spun} ns");
        } else {
            assert_eq!((before, after), (0, 0));
        }
    }

    #[test]
    fn poll_reports_writable_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        #[cfg(unix)]
        let fd = {
            use std::os::fd::AsRawFd;
            stream.as_raw_fd()
        };
        #[cfg(not(unix))]
        let fd = -1;
        let mut fds = [PollFd::new(fd, POLLOUT)];
        let ready = poll(&mut fds, 1000).unwrap();
        assert!(ready >= 1);
        assert_ne!(fds[0].revents & POLLOUT, 0, "fresh socket is writable");
    }
}
