//! Portable readiness polling for the nonblocking TCP front-end.
//!
//! The event loop ([`super::event_loop`]) needs one primitive: "block until
//! any of these sockets can make progress". The portable floor for that is
//! POSIX `poll(2)` — present on every unix since the 90s, no kernel object
//! to manage, and O(n) scans are irrelevant at the few thousand descriptors
//! per loop thread this server multiplexes. The syscall is declared here
//! directly (`extern "C"`) because the workspace builds offline against
//! vendored crates only; process-wide libc is linked by std anyway, so this
//! adds zero dependencies. `epoll`/`kqueue` backends can slot in behind the
//! same [`ReadinessPoller`] trait later without touching the event loop.
//!
//! On non-unix targets a degraded poller is provided that reports every
//! registered source ready after a short sleep; the event loop's sockets
//! are nonblocking, so correctness is preserved (reads/writes simply return
//! `WouldBlock`) at the cost of busy-polling.

use std::io;
use std::time::Duration;

/// What a registered descriptor wants to be woken for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes to read (or EOF/error pending).
    pub read: bool,
    /// Wake when the descriptor can accept writes.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// What one descriptor reported after a poll.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Bytes (or EOF) are readable without blocking.
    pub readable: bool,
    /// Writes can make progress without blocking.
    pub writable: bool,
    /// The peer hung up or the descriptor is in an error state; the owner
    /// should read to drain remaining bytes and then close.
    pub hangup: bool,
}

impl Readiness {
    /// Whether anything at all was reported.
    pub fn any(&self) -> bool {
        self.readable || self.writable || self.hangup
    }
}

/// Raw descriptor handed to a poller. On unix this is the real fd; the
/// degraded non-unix poller never inspects it.
#[cfg(unix)]
pub type PollFd = std::os::unix::io::RawFd;
/// Raw descriptor handed to a poller (opaque off-unix).
#[cfg(not(unix))]
pub type PollFd = u64;

/// The descriptor of a pollable socket.
#[cfg(unix)]
pub fn poll_fd<T: std::os::unix::io::AsRawFd>(source: &T) -> PollFd {
    source.as_raw_fd()
}

/// The descriptor of a pollable socket (opaque off-unix).
#[cfg(not(unix))]
pub fn poll_fd<T>(_source: &T) -> PollFd {
    0
}

/// Blocks until registered descriptors are ready. Implementations must be
/// level-triggered: a descriptor that stays readable keeps reporting
/// readable on every call.
pub trait ReadinessPoller: Send {
    /// Wait up to `timeout` for readiness on `sources`. `out` is resized to
    /// `sources.len()` and filled positionally; returns how many sources
    /// reported anything. A return of `0` means the timeout elapsed.
    fn wait(
        &mut self,
        sources: &[(PollFd, Interest)],
        out: &mut Vec<Readiness>,
        timeout: Duration,
    ) -> io::Result<usize>;
}

#[cfg(unix)]
mod sys {
    //! Hand-declared `poll(2)` ABI. Constant values are identical across
    //! Linux and the BSDs (macOS included); the one genuine divergence is
    //! the width of `nfds_t`.
    #![allow(non_camel_case_types)]

    #[repr(C)]
    pub struct pollfd {
        pub fd: std::os::unix::io::RawFd,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "linux")]
    pub type nfds_t = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type nfds_t = u32;

    pub(crate) const POLLIN: i16 = 0x001;
    pub(crate) const POLLOUT: i16 = 0x004;
    pub(crate) const POLLERR: i16 = 0x008;
    pub(crate) const POLLHUP: i16 = 0x010;
    pub(crate) const POLLNVAL: i16 = 0x020;

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: std::ffi::c_int) -> std::ffi::c_int;
    }
}

/// `poll(2)`-backed poller. One per event-loop thread; the `pollfd` scratch
/// buffer is reused across calls so steady-state polling allocates nothing.
#[derive(Default)]
pub struct PollPoller {
    #[cfg(unix)]
    buf: Vec<sys::pollfd>,
}

impl PollPoller {
    /// A fresh poller with an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(unix)]
impl ReadinessPoller for PollPoller {
    fn wait(
        &mut self,
        sources: &[(PollFd, Interest)],
        out: &mut Vec<Readiness>,
        timeout: Duration,
    ) -> io::Result<usize> {
        self.buf.clear();
        for (fd, interest) in sources {
            let mut events = 0i16;
            if interest.read {
                events |= sys::POLLIN;
            }
            if interest.write {
                events |= sys::POLLOUT;
            }
            self.buf.push(sys::pollfd {
                fd: *fd,
                events,
                revents: 0,
            });
        }
        // Saturate instead of truncating: a u64 millisecond count does not
        // fit c_int, and "very long" and "forever minus epsilon" are the
        // same thing to an event loop that re-polls anyway.
        let millis = timeout.as_millis().min(i32::MAX as u128) as std::ffi::c_int;
        let rc = loop {
            let rc =
                unsafe { sys::poll(self.buf.as_mut_ptr(), self.buf.len() as sys::nfds_t, millis) };
            if rc >= 0 {
                break rc;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            // EINTR: retry. Slightly overshooting the timeout is fine.
        };
        out.clear();
        out.extend(self.buf.iter().map(|p| Readiness {
            readable: p.revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0,
            writable: p.revents & (sys::POLLOUT | sys::POLLERR) != 0,
            hangup: p.revents & (sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0,
        }));
        Ok(rc as usize)
    }
}

#[cfg(not(unix))]
impl ReadinessPoller for PollPoller {
    fn wait(
        &mut self,
        sources: &[(PollFd, Interest)],
        out: &mut Vec<Readiness>,
        timeout: Duration,
    ) -> io::Result<usize> {
        // Degraded portable fallback: claim everything ready and let the
        // nonblocking sockets sort truth from fiction via WouldBlock. The
        // short sleep keeps the busy-poll civil.
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        out.clear();
        out.extend(sources.iter().map(|(_, interest)| Readiness {
            readable: interest.read,
            writable: interest.write,
            hangup: false,
        }));
        Ok(out.iter().filter(|r| r.any()).count())
    }
}

#[cfg(unix)]
type WakePipe = std::os::unix::net::UnixStream;
#[cfg(not(unix))]
type WakePipe = std::net::TcpStream;

/// Cross-thread wakeup for a blocked poller: a stop, the accept turn, or a
/// `/fleet` document calls [`Waker::wake`], which makes the paired
/// [`WakeReceiver`] readable and pops the owning loop out of `poll`. Cheap
/// self-pipe, no signals.
pub struct Waker {
    tx: WakePipe,
}

impl Clone for Waker {
    fn clone(&self) -> Self {
        Waker {
            tx: self.tx.try_clone().expect("clone waker pipe"),
        }
    }
}

impl Waker {
    /// Make the paired receiver readable. Idempotent while un-drained: once
    /// the pipe's buffer is full the kernel reports `WouldBlock`, which
    /// means a wakeup is already pending — exactly the desired semantics.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// The readable end of a [`Waker`] pair; register [`fd`](Self::fd) with
/// read interest in the owning loop's poll set.
pub struct WakeReceiver {
    rx: WakePipe,
}

impl WakeReceiver {
    /// Descriptor to register in the poll set.
    pub fn fd(&self) -> PollFd {
        poll_fd(&self.rx)
    }

    /// Consume all pending wakeups (call once per loop iteration).
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Build a connected waker pair, both ends nonblocking.
pub(crate) fn waker_pair() -> io::Result<(Waker, WakeReceiver)> {
    #[cfg(unix)]
    let (tx, rx) = WakePipe::pair()?;
    #[cfg(not(unix))]
    let (tx, rx) = {
        // No socketpair off-unix: a loopback TCP pair behaves identically.
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let tx = std::net::TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        (tx, rx)
    };
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_times_out_with_nothing_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut poller = PollPoller::new();
        let mut out = Vec::new();
        let t0 = std::time::Instant::now();
        let n = poller
            .wait(
                &[(poll_fd(&server), Interest::READ)],
                &mut out,
                Duration::from_millis(30),
            )
            .unwrap();
        // Degraded non-unix poller legitimately reports ready; on unix an
        // idle socket must time out.
        if cfg!(unix) {
            assert_eq!(n, 0);
            assert!(t0.elapsed() >= Duration::from_millis(25));
            assert!(!out[0].any(), "{:?}", out[0]);
        }
        drop(client);
    }

    #[test]
    fn poller_reports_readable_after_a_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let mut poller = PollPoller::new();
        let mut out = Vec::new();
        let n = poller
            .wait(
                &[(poll_fd(&server), Interest::READ)],
                &mut out,
                Duration::from_secs(2),
            )
            .unwrap();
        assert!(n >= 1);
        assert!(out[0].readable);
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);
    }

    /// The event loop polls a connection it may not read from and has
    /// nothing to write to with no interest at all (`interest_of`).
    #[test]
    fn no_interest_never_wakes_for_data() {
        if !cfg!(unix) {
            return; // degraded poller deliberately over-reports
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.write_all(b"ping").unwrap();
        let mut poller = PollPoller::new();
        let mut out = Vec::new();
        let n = poller
            .wait(
                &[(poll_fd(&server), Interest::default())],
                &mut out,
                Duration::from_millis(20),
            )
            .unwrap();
        assert_eq!(n, 0, "parked descriptor must not report plain readability");
    }

    #[test]
    fn waker_pops_a_blocked_poll_and_drains() {
        let (waker, receiver) = waker_pair().unwrap();
        let remote = waker.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // coalesces with the first
        });
        let mut poller = PollPoller::new();
        let mut out = Vec::new();
        let n = poller
            .wait(
                &[(receiver.fd(), Interest::READ)],
                &mut out,
                Duration::from_secs(5),
            )
            .unwrap();
        assert!(n >= 1);
        assert!(out[0].readable);
        // Both wakes must be in the pipe before the drain, or the second
        // lands after it and the re-poll below sees it.
        h.join().unwrap();
        receiver.drain();
        // Drained: an immediate re-poll finds nothing (unix only; the
        // degraded poller always reports).
        if cfg!(unix) {
            let n = poller
                .wait(
                    &[(receiver.fd(), Interest::READ)],
                    &mut out,
                    Duration::from_millis(10),
                )
                .unwrap();
            assert_eq!(n, 0);
        }
    }

    #[test]
    fn hangup_is_reported_when_the_peer_closes() {
        if !cfg!(unix) {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        drop(client);
        let mut poller = PollPoller::new();
        let mut out = Vec::new();
        let n = poller
            .wait(
                &[(poll_fd(&server), Interest::READ)],
                &mut out,
                Duration::from_secs(2),
            )
            .unwrap();
        assert!(n >= 1);
        // A closed peer shows up as readable (EOF) and/or hangup; either
        // way the loop's read path discovers the close.
        assert!(out[0].readable || out[0].hangup, "{:?}", out[0]);
    }
}
