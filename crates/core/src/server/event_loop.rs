//! Nonblocking readiness event loop: every inbound socket of a server.
//!
//! A thread per connection burns one OS thread (stack, wakeup churn,
//! scheduler pressure) per tuning client, which caps a server at a few
//! dozen clients — nowhere near the paper's premise of one Harmony server
//! steering thousands of concurrently reporting workers. This module
//! multiplexes instead: a small pool of loop threads, each owning
//! thousands of nonblocking connections and a [`ReadinessPoller`]
//! (`poll(2)` on unix; see [`super::poll`] for why that is the portable
//! floor and how `epoll` slots in behind the same trait). The loops also
//! take turns at the listener, so no thread waits in `accept` and new
//! connections are dealt round-robin among the loops.
//! What a loop does with a connection's bytes is its `Service`: the
//! tuning protocol on a TCP server, HTTP on the observe plane.
//!
//! # Per-connection state machine
//!
//! Every connection carries an incremental [`FrameDecoder`] (partial reads
//! are buffered until a full newline-terminated frame is present; a frame
//! that outgrows the cap is a clean protocol error, not a hang) and a
//! bounded write buffer. A connection's requests are served strictly one
//! after another — the serialization a blocking in-process client gets for
//! free — which is what keeps event-loop tuning trajectories bit-identical
//! to serial in-process runs.
//!
//! # Who serves a request
//!
//! The loop thread hands each decoded tuning request to
//! `ServerBus::dispatch`, which serves it on the loop thread and returns the
//! reply: it is serialized onto the connection's write buffer and written in
//! the same pass, with no other thread involved. When the request's session is busy
//! (another loop thread, or an in-process client, is serving one of its
//! members) the loop thread waits in `dispatch` for the session's lock; a
//! request of another session never makes it wait. The [`Waker`] pipe is
//! only for stopping, passing the accept turn and `/fleet` results: a
//! request never writes it.
//!
//! A loop pass serves at most one request per connection. A peer that
//! pipelines (writes many requests without waiting) has the rest left in
//! its decoder; the loop comes back to the connection with a zero poll
//! timeout, after every other ready connection has had its turn, and
//! reads no more from the socket until the buffered frames are used up.
//!
//! # Backpressure and eviction
//!
//! A connection whose unsent reply bytes have reached its cap is neither
//! polled for read nor has further buffered requests decoded — a peer that
//! will not drain its replies cannot force the server to buffer more than
//! the cap plus one reply, and the kernel's socket buffers push back on
//! the peer's sends. Connections silent past the configured idle timeout are
//! reaped exactly like a dead socket: the client departs its session as a
//! `Leave` would, requeueing its outstanding trials through the existing
//! eviction path, but the session stays open to the client's rejoin.
//! Over-capacity connections get the service's refusal (`ServerBusy`, or
//! HTTP's `503`) after their first request, written from this same
//! nonblocking write path — no thread is ever spawned per refusal.

use super::poll::{
    poll_fd, waker_pair, Interest, PollFd, PollPoller, Readiness, ReadinessPoller, WakeReceiver,
    Waker,
};
use super::protocol::{FrameDecoder, FrameTooLong, Reply, Request, MAX_FRAME_LEN};
use super::ServerBus;
use crate::telemetry::{Counter, Latency, Telemetry};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an over-capacity connection may take to send the first request
/// its refusal answers (the blocking transport used the same bound as a
/// socket read timeout).
const REFUSE_DEADLINE: Duration = Duration::from_secs(5);

/// Poll timeout when no deadline is nearer: long enough to stay off the
/// CPU, short enough that a missed wakeup (there are none known) would
/// only ever stall progress briefly.
const IDLE_TICK: Duration = Duration::from_millis(500);

/// Knobs of the readiness event loop.
#[derive(Debug, Clone)]
pub struct EventLoopConfig {
    /// Loop threads, dealt new connections round-robin. `0`
    /// (default) sizes to the host: half the available cores, clamped to
    /// `1..=4` — each loop is I/O-bound bookkeeping, so a few go a long way
    /// even at thousands of connections.
    pub loop_threads: usize,
    /// Reap connections with no inbound traffic for longer than this,
    /// departing their clients (outstanding trials requeue through the
    /// session's existing eviction path). `None` (default) disables
    /// reaping, matching the blocking transport's behaviour.
    pub idle_timeout: Option<Duration>,
    /// Per-frame byte ceiling for inbound requests (see
    /// [`MAX_FRAME_LEN`]).
    pub max_frame_len: usize,
    /// Pause reading from a connection while more than this many reply
    /// bytes are queued for it unsent.
    pub write_buffer_cap: usize,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            loop_threads: 0,
            idle_timeout: None,
            max_frame_len: MAX_FRAME_LEN,
            write_buffer_cap: 256 * 1024,
        }
    }
}

impl EventLoopConfig {
    fn resolved_threads(&self) -> usize {
        if self.loop_threads > 0 {
            return self.loop_threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get() / 2)
            .unwrap_or(1)
            .clamp(1, 4)
    }
}

/// What a loop does with its connections' bytes.
pub(crate) trait Service: Send + 'static {
    /// What the service keeps per connection.
    type State: Default + Send;

    /// Answer `conn`'s buffered input up to the first request served (or
    /// parked) onto its write buffer, while [`Conn::may_decode`] holds.
    /// Returns whether one was; an `Err` closes the connection.
    fn serve(&mut self, conn: &mut Conn<Self::State>) -> Result<bool, Close>;

    /// `conn` is being torn down.
    fn closed(&mut self, _conn: &Conn<Self::State>) {}

    /// The loop's waker fired (a helper may have posted for parked
    /// connections).
    fn woken(&mut self, _conns: &mut HashMap<u64, Conn<Self::State>>) {}
}

/// A running pool of event-loop threads. Dropping it stops every loop
/// thread and waits for it; established connections are dropped (the
/// server behind them is shutting down with us).
pub(crate) struct EventLoopPool {
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    threads: Vec<JoinHandle<()>>,
    /// Connections holding a slot of the ceiling.
    pub(crate) active: Arc<AtomicUsize>,
}

impl EventLoopPool {
    /// Spawn the loop threads `name-0`, `name-1`, …, which take turns at
    /// `listener` and serve what they accept with the service `service`
    /// builds for each from its loop's waker.
    pub(crate) fn start<S: Service>(
        name: &str,
        listener: TcpListener,
        cfg: EventLoopConfig,
        max_connections: usize,
        telemetry: Telemetry,
        service: impl Fn(&Arc<Waker>) -> S,
    ) -> std::io::Result<EventLoopPool> {
        listener.set_nonblocking(true)?;
        let (wakers, receivers): (Vec<_>, Vec<_>) = (0..cfg.resolved_threads())
            .map(|_| waker_pair().map(|(waker, rx)| (Arc::new(waker), rx)))
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let mut pool = EventLoopPool {
            stop: Arc::default(),
            wakers,
            threads: Vec::new(),
            active: Arc::default(),
        };
        let turn = Arc::default();
        for (index, wake_rx) in receivers.into_iter().enumerate() {
            let next = (index + 1) % pool.wakers.len();
            let worker = LoopWorker {
                service: service(&pool.wakers[index]),
                listener: Some(Listener {
                    socket: listener.try_clone()?,
                    turn: Arc::clone(&turn),
                    index,
                    next: (next != index).then(|| (next, Arc::clone(&pool.wakers[next]))),
                }),
                cfg: cfg.clone(),
                max_connections,
                telemetry: telemetry.clone(),
                active: Arc::clone(&pool.active),
                wake_rx,
                stop: Arc::clone(&pool.stop),
            };
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{index}"))
                .spawn(move || worker.run())?;
            pool.threads.push(handle);
        }
        Ok(pool)
    }
}

impl Drop for EventLoopPool {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Why a connection is being torn down (drives churn counters and the
/// client's departure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    /// Peer closed (EOF, reset, write failure) or said a clean goodbye.
    Peer,
    /// Reaped by the idle timeout.
    Idle,
    /// Refusal completed (busy frame flushed, or the peer never asked).
    Refused,
    /// Internal failure (the server is shut down).
    Server,
}

/// Lifecycle of one multiplexed connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Serving the protocol.
    Active,
    /// Over capacity: wait (bounded) for the first request, answer it with
    /// the service's refusal, then flush and close.
    Refusing,
    /// Answer queued for a goodbye/refusal/frame-error; close once the
    /// write buffer drains.
    Closing,
}

/// One registered connection.
pub(crate) struct Conn<S> {
    stream: TcpStream,
    pub(crate) decoder: FrameDecoder,
    /// Serialized replies not yet written (consumed prefix tracked by
    /// `out_pos`, compacted lazily).
    pub(crate) out: Vec<u8>,
    out_pos: usize,
    /// Unsent bytes at which decoding pauses.
    cap: usize,
    /// The last pass served a request and left input buffered: service the
    /// connection again next pass without waiting for its socket.
    resume: bool,
    /// Read side saw EOF; drain buffered frames, then close.
    pub(crate) eof: bool,
    /// The EOF remainder (a final frame with no newline) was processed.
    finished_tail: bool,
    last_activity: Instant,
    pub(crate) phase: Phase,
    /// Holds one slot of the connection ceiling.
    counted: bool,
    /// Waiting on a service's helper: not read or reaped until unparked.
    pub(crate) parked: bool,
    /// What the service keeps for this connection.
    pub(crate) state: S,
}

impl<S> Conn<S> {
    /// The next buffered frame. At EOF the unterminated remainder comes
    /// once, as the blocking reader yields a final line with no newline.
    pub(crate) fn next_frame(&mut self) -> Result<Option<String>, FrameTooLong> {
        match self.decoder.next_frame()? {
            None if self.eof && !self.finished_tail => {
                self.finished_tail = true;
                Ok(self.decoder.finish())
            }
            frame => Ok(frame),
        }
    }

    /// Whether the next buffered frame may be decoded now: the connection
    /// is not closing or parked, and its unsent replies are under the cap.
    pub(crate) fn may_decode(&self) -> bool {
        self.phase != Phase::Closing && !self.parked && self.out.len() - self.out_pos < self.cap
    }

    /// End a park: the next pass flushes and goes on with buffered input.
    pub(crate) fn unpark(&mut self) {
        self.parked = false;
        self.resume = true;
    }
}

/// The pool's listener as one loop sees it: only the loop whose `index` is
/// in `turn` polls it, and each accept hands the turn to the `next` loop
/// (`None` when it is the only one) and wakes it.
struct Listener {
    socket: TcpListener,
    turn: Arc<AtomicUsize>,
    index: usize,
    next: Option<(usize, Arc<Waker>)>,
}

/// One event-loop thread: owns its connections outright; nothing here is
/// shared except the listener and the atomic connection count.
struct LoopWorker<S: Service> {
    service: S,
    /// `None` in tests that adopt by hand.
    listener: Option<Listener>,
    cfg: EventLoopConfig,
    max_connections: usize,
    telemetry: Telemetry,
    active: Arc<AtomicUsize>,
    wake_rx: WakeReceiver,
    stop: Arc<AtomicBool>,
}

impl<S: Service> LoopWorker<S> {
    fn run(mut self) {
        let mut poller = PollPoller::new();
        let mut conns: HashMap<u64, Conn<S::State>> = HashMap::new();
        let mut next_token: u64 = 1;
        let mut sources: Vec<(PollFd, Interest)> = Vec::new();
        let mut tokens: Vec<u64> = Vec::new();
        let mut ready: Vec<Readiness> = Vec::new();
        let mut closed: Vec<(u64, Close)> = Vec::new();
        let mut read_buf = vec![0u8; 16 * 1024];
        // Iteration latency measures the work between polls, not the wait.
        let mut work_started = Instant::now();

        loop {
            if self.stop.load(Ordering::SeqCst) {
                for (_, conn) in conns.drain() {
                    if conn.counted {
                        self.active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                return;
            }

            // Deadlines (idle reaping, the refusal wait bound) close what is
            // past them and bound the poll; a connection with buffered
            // requests to resume makes it not wait at all.
            let now = Instant::now();
            let mut timeout = IDLE_TICK;
            for (&token, conn) in conns.iter() {
                if conn.resume {
                    timeout = Duration::ZERO;
                }
                let deadline = match conn.phase {
                    _ if conn.parked => None,
                    Phase::Refusing => Some((REFUSE_DEADLINE, Close::Refused)),
                    _ => self.cfg.idle_timeout.map(|idle| (idle, Close::Idle)),
                };
                if let Some((limit, cause)) = deadline {
                    match limit.checked_sub(now.duration_since(conn.last_activity)) {
                        Some(left) => timeout = timeout.min(left.max(Duration::from_millis(1))),
                        None => closed.push((token, cause)),
                    }
                }
            }
            self.reap(&mut conns, &mut closed);

            // Build the poll set: the waker, every connection, then the
            // listener on this loop's turn. Last, because `poll` stops
            // registering to wait on descriptors once one is ready: a ready
            // connection spares the listener's wait-queue entry: the
            // listener then adds 13 ns to a `poll` with a timeout, not 92 ns
            // (2-vCPU x86-64 host).
            sources.clear();
            tokens.clear();
            sources.push((self.wake_rx.fd(), Interest::READ));
            for (&token, conn) in conns.iter() {
                sources.push((poll_fd(&conn.stream), self.interest_of(conn)));
                tokens.push(token);
            }
            let listener =
                (self.listener.as_ref()).filter(|l| l.turn.load(Ordering::SeqCst) == l.index);
            if let Some(listener) = listener {
                sources.push((poll_fd(&listener.socket), Interest::READ));
            }
            let listening = listener.is_some();

            self.telemetry
                .observe(Latency::EventLoopIteration, work_started.elapsed());
            let polled = poller.wait(&sources, &mut ready, timeout);
            work_started = Instant::now();
            let n = match polled {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("harmony-evloop: poll failed: {e}");
                    continue;
                }
            };
            if ready[0].readable {
                self.wake_rx.drain();
                self.service.woken(&mut conns);
            }
            if n == 0 && !timeout.is_zero() {
                continue; // timeout tick: deadlines re-checked above
            }

            for (idx, &token) in tokens.iter().enumerate() {
                let readiness = ready[1 + idx];
                let conn = conns.get_mut(&token).expect("token registered");
                if !readiness.any() && !conn.resume {
                    continue;
                }
                if let Err(cause) = self.service(conn, readiness, &mut read_buf) {
                    closed.push((token, cause));
                }
            }
            self.reap(&mut conns, &mut closed);
            let accepted = (self.listener.as_ref())
                .filter(|_| listening && ready[1 + tokens.len()].readable)
                .and_then(|l| Some((l, l.socket.accept().ok()?.0)));
            if let Some((listener, stream)) = accepted {
                if let Some((next, waker)) = &listener.next {
                    listener.turn.store(*next, Ordering::SeqCst);
                    waker.wake();
                }
                if let Some(conn) = self.adopt(stream) {
                    conns.insert(next_token, conn);
                    next_token += 1;
                }
            }
        }
    }

    /// Take ownership of a fresh socket: claim a ceiling slot or put the
    /// connection on the nonblocking refusal path.
    fn adopt(&self, stream: TcpStream) -> Option<Conn<S::State>> {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return None;
        }
        let over_cap = self.active.fetch_add(1, Ordering::SeqCst) >= self.max_connections;
        let phase = if over_cap {
            self.active.fetch_sub(1, Ordering::SeqCst);
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".into());
            eprintln!(
                "harmony-evloop: refusing {peer}: at connection capacity ({})",
                self.max_connections
            );
            Phase::Refusing
        } else {
            self.telemetry.inc(Counter::ConnectionsAccepted);
            Phase::Active
        };
        Some(Conn {
            stream,
            decoder: FrameDecoder::new(self.cfg.max_frame_len),
            out: Vec::new(),
            out_pos: 0,
            cap: self.cfg.write_buffer_cap,
            resume: false,
            eof: false,
            finished_tail: false,
            last_activity: Instant::now(),
            phase,
            counted: !over_cap,
            parked: false,
            state: S::State::default(),
        })
    }

    /// What this connection should be polled for right now.
    fn interest_of(&self, conn: &Conn<S::State>) -> Interest {
        Interest {
            // Read only what could be decoded: not while the peer is not
            // draining its replies (backpressure), nor while requests are
            // already buffered (the protocol is request-reply serial), nor
            // after EOF.
            read: conn.may_decode() && !conn.resume && !conn.eof,
            write: conn.out.len() > conn.out_pos,
        }
    }

    /// React to readiness on one connection.
    fn service(
        &mut self,
        conn: &mut Conn<S::State>,
        readiness: Readiness,
        read_buf: &mut [u8],
    ) -> Result<(), Close> {
        if readiness.readable && !conn.resume {
            self.read_some(conn, read_buf)?;
        }
        self.advance(conn)
    }

    /// Drain the kernel's receive buffer into the frame decoder, through
    /// the loop thread's one read buffer, until it holds more than a frame.
    fn read_some(&self, conn: &mut Conn<S::State>, buf: &mut [u8]) -> Result<(), Close> {
        loop {
            match conn.stream.read(buf) {
                Ok(0) => {
                    conn.eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.extend(&buf[..n]);
                    // One request is served at a time; bytes beyond it
                    // stay buffered in the decoder, so stop pulling more
                    // once a frame boundary is plausible and let advance()
                    // decide. Keep reading only while the socket has data,
                    // and never past a frame's worth.
                    if n < buf.len() || conn.decoder.buffered() > self.cfg.max_frame_len {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Close::Peer),
            }
        }
    }

    /// Push the state machine one step: flush queued reply bytes, let the
    /// service answer buffered input up to and including the first request
    /// served, flush again. Stopping at one served request keeps a
    /// pipelining peer from monopolising the pass; stopping at the cap
    /// keeps a non-draining one from growing `out`.
    fn advance(&mut self, conn: &mut Conn<S::State>) -> Result<(), Close> {
        flush_out(conn)?;
        let served = self.service.serve(conn)?;
        flush_out(conn)?;
        conn.resume = served
            && conn.may_decode()
            && (conn.decoder.buffered() > 0 || (conn.eof && !conn.finished_tail));
        if conn.out_pos < conn.out.len() {
            return Ok(());
        }
        if conn.phase == Phase::Closing {
            // Goodbye/refusal fully flushed. The write side is shut before
            // the stream drops, so the answer is followed by an orderly end
            // before the reset that closing on unread input causes.
            let _ = conn.stream.shutdown(Shutdown::Write);
            return Err(if conn.counted {
                Close::Peer
            } else {
                Close::Refused
            });
        }
        if conn.eof && conn.finished_tail && conn.decoder.buffered() == 0 {
            return Err(Close::Peer);
        }
        Ok(())
    }

    /// Tear down every connection queued for closing.
    fn reap(&mut self, conns: &mut HashMap<u64, Conn<S::State>>, closed: &mut Vec<(u64, Close)>) {
        for (token, cause) in closed.drain(..) {
            let Some(conn) = conns.remove(&token) else {
                continue;
            };
            if conn.counted {
                self.active.fetch_sub(1, Ordering::SeqCst);
                match cause {
                    Close::Peer => self.telemetry.inc(Counter::ConnectionsClosedByPeer),
                    Close::Idle => self.telemetry.inc(Counter::ConnectionsEvictedIdle),
                    _ => {}
                }
            }
            self.service.closed(&conn);
        }
    }
}

/// The tuning protocol: JSON request frames served by `ServerBus::dispatch`.
pub(crate) struct TuningService {
    pub(crate) bus: ServerBus,
    pub(crate) telemetry: Telemetry,
    /// The connection ceiling, named in the busy refusal.
    pub(crate) max_connections: usize,
}

/// The member a tuning connection speaks for: the id its `Register` or
/// `Attach` granted (0 before), and whether it sent `Leave`.
#[derive(Default)]
pub(crate) struct Member {
    client_id: u64,
    departed: bool,
}

impl Service for TuningService {
    type State = Member;

    fn serve(&mut self, conn: &mut Conn<Member>) -> Result<bool, Close> {
        while conn.may_decode() {
            let frame = match conn.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    // Unframeable stream: tell the peer why, then close.
                    queue_reply(&mut conn.out, &Reply::err(format!("protocol error: {e}")));
                    conn.phase = Phase::Closing;
                    continue;
                }
            };
            if conn.phase == Phase::Refusing {
                // The refusal answers the peer's *first* request — writing
                // before reading would race the peer's in-flight send: its
                // data would hit a closed socket, the kernel would answer
                // with RST and discard the buffered error frame, and the
                // peer would see a bare EOF instead of the reason (pinned by
                // `refused_connect_surfaces_server_busy_not_eof`).
                self.telemetry.inc(Counter::ConnectionsRefused);
                queue_reply(
                    &mut conn.out,
                    &Reply::busy(format!(
                        "server at connection capacity ({})",
                        self.max_connections
                    )),
                );
                conn.phase = Phase::Closing;
                continue;
            }
            if frame.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<Request>(&frame) {
                Ok(Request::Shutdown) => {
                    // Connection-level goodbye; never forwarded (a remote
                    // client must not be able to kill the shared server).
                    queue_reply(&mut conn.out, &Reply::Ok);
                    conn.phase = Phase::Closing;
                }
                Ok(req) => {
                    let is_leave = matches!(req, Request::Leave);
                    let Ok(reply) = self.bus.dispatch(conn.state.client_id, req) else {
                        return Err(Close::Server);
                    };
                    complete(conn, is_leave, &reply);
                    return Ok(true);
                }
                Err(e) => {
                    queue_reply(
                        &mut conn.out,
                        &Reply::err(format!("malformed request: {e}")),
                    );
                }
            }
        }
        Ok(false)
    }

    fn closed(&mut self, conn: &Conn<Member>) {
        if conn.state.client_id != 0 && !conn.state.departed {
            // The connection died with its client still a member: requeue
            // outstanding trials for the survivors, and keep the session
            // for the client to rejoin. Nobody reads this reply.
            let _ = self.bus.depart(conn.state.client_id);
        }
    }
}

/// Apply a request's reply to its connection: note a completed `Leave` or
/// a granted client id, and queue the reply frame for writing.
fn complete(conn: &mut Conn<Member>, is_leave: bool, reply: &Reply) {
    conn.last_activity = Instant::now();
    if is_leave && matches!(reply, Reply::Ok) {
        conn.state.departed = true;
    }
    if let Reply::Registered { client_id, .. } = reply {
        conn.state.client_id = *client_id;
        conn.state.departed = false;
    }
    queue_reply(&mut conn.out, reply);
}

/// Serialize one reply frame straight onto a connection's write buffer.
fn queue_reply(out: &mut Vec<u8>, reply: &Reply) {
    serde_json::to_writer(out, reply).expect("replies serialize");
    out.push(b'\n');
}

/// Write as much buffered output as the socket accepts right now. A write
/// that leaves bytes behind counts as activity: a large answer to a slow
/// reader is not idle.
fn flush_out<S>(conn: &mut Conn<S>) -> Result<(), Close> {
    let started = conn.out_pos;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(Close::Peer),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(Close::Peer),
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
        return Ok(());
    }
    if conn.out_pos > started {
        conn.last_activity = Instant::now();
    }
    if conn.out_pos > 64 * 1024 {
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HarmonyServer;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A loop worker driven by hand, one connection and one pass at a
    /// time, so a test can look at the connection between passes.
    struct Rig {
        // Held, not read: dropping the server closes it, and
        // dropping the waker makes the wake pipe read as closed.
        _server: HarmonyServer,
        _waker: Waker,
        worker: LoopWorker<TuningService>,
        poller: PollPoller,
        read_buf: Vec<u8>,
    }

    impl Rig {
        fn new(cfg: EventLoopConfig) -> Rig {
            let server = HarmonyServer::start();
            let (waker, wake_rx) = waker_pair().unwrap();
            let worker = LoopWorker {
                service: TuningService {
                    bus: server.bus(),
                    telemetry: Telemetry::disabled(),
                    max_connections: 8,
                },
                listener: None,
                cfg,
                max_connections: 8,
                telemetry: Telemetry::disabled(),
                active: Arc::new(AtomicUsize::new(0)),
                wake_rx,
                stop: Arc::new(AtomicBool::new(false)),
            };
            Rig {
                _server: server,
                _waker: waker,
                worker,
                poller: PollPoller::new(),
                read_buf: vec![0u8; 16 * 1024],
            }
        }

        /// A server-side connection and the peer's end of it.
        fn connect(&self) -> (Conn<Member>, TcpStream) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (stream, _) = listener.accept().unwrap();
            (self.worker.adopt(stream).unwrap(), peer)
        }

        /// What `run` does for one connection in one pass: poll it for
        /// what it wants (not at all when it has requests to resume), then
        /// service it. Returns whether it was serviced.
        fn pass(&mut self, conn: &mut Conn<Member>, wait: Duration) -> bool {
            let wait = if conn.resume { Duration::ZERO } else { wait };
            let source = (poll_fd(&conn.stream), self.worker.interest_of(conn));
            let mut ready = Vec::new();
            self.poller.wait(&[source], &mut ready, wait).unwrap();
            let due = ready[0].any() || conn.resume;
            if due {
                self.worker
                    .service(conn, ready[0], &mut self.read_buf)
                    .unwrap();
            }
            due
        }

        /// Whether the loop's wake pipe has been written, waiting up to
        /// `wait` for it.
        fn woken(&mut self, wait: Duration) -> bool {
            let source = (self.worker.wake_rx.fd(), Interest::READ);
            let mut ready = Vec::new();
            self.poller.wait(&[source], &mut ready, wait).unwrap();
            ready[0].readable
        }
    }

    fn frame(req: &Request) -> Vec<u8> {
        let mut blob = serde_json::to_string(req).unwrap();
        blob.push('\n');
        blob.into_bytes()
    }

    /// Answers every line with the name of the loop thread serving it.
    struct WhoServes;

    impl Service for WhoServes {
        type State = ();

        fn serve(&mut self, conn: &mut Conn<()>) -> Result<bool, Close> {
            match conn.next_frame() {
                Ok(Some(_)) => {
                    let name = std::thread::current().name().unwrap_or("").to_owned();
                    conn.out.extend_from_slice(name.as_bytes());
                    conn.out.push(b'\n');
                    Ok(true)
                }
                Ok(None) => Ok(false),
                Err(_) => Err(Close::Peer),
            }
        }
    }

    #[test]
    fn a_burst_of_connections_is_dealt_round_robin() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The whole burst waits in the accept queue before any loop runs.
        let peers: Vec<TcpStream> = (0..12).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let cfg = EventLoopConfig {
            loop_threads: 3,
            ..Default::default()
        };
        let _pool = EventLoopPool::start("deal", listener, cfg, 64, Telemetry::disabled(), |_| {
            WhoServes
        })
        .unwrap();
        for (i, mut peer) in peers.iter().enumerate() {
            peer.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            peer.write_all(b"who\n").unwrap();
            let mut line = String::new();
            BufReader::new(peer).read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), format!("deal-{}", i % 3), "connection {i}");
        }
    }

    #[test]
    fn serial_client_on_an_idle_server_never_touches_the_wake_pipe() {
        let mut rig = Rig::new(EventLoopConfig::default());
        let (mut conn, mut peer) = rig.connect();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut replies = BufReader::new(peer.try_clone().unwrap());
        // Closed loop: the next request is written only after the reply.
        let mut requests = vec![Request::Register {
            app: "serial".into(),
            tenant: String::new(),
        }];
        requests.extend((0..200).map(|_| Request::Heartbeat));
        for req in &requests {
            peer.write_all(&frame(req)).unwrap();
            // A small frame arrives whole, and the pass that reads it
            // serves it and writes the reply.
            assert!(rig.pass(&mut conn, Duration::from_secs(10)));
            assert!(!conn.resume);
            let mut line = String::new();
            replies.read_line(&mut line).unwrap();
            assert!(line.ends_with('\n'), "{line:?}");
        }
        assert_ne!(conn.state.client_id, 0, "the Register reply was applied");
        assert!(!rig.woken(Duration::ZERO), "a request never wakes the loop");
    }

    /// Shrink a socket buffer to 8 KiB, so that a peer that does not read
    /// stalls the writer after kilobytes instead of megabytes (and, unlike
    /// the kernel's minimum, reopens its window promptly once it does).
    #[cfg(target_os = "linux")]
    fn shrink(stream: &TcpStream, option: std::ffi::c_int) {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(
                fd: std::ffi::c_int,
                level: std::ffi::c_int,
                name: std::ffi::c_int,
                value: *const std::ffi::c_void,
                len: u32,
            ) -> std::ffi::c_int;
        }
        const SOL_SOCKET: std::ffi::c_int = 1;
        let size: std::ffi::c_int = 8 * 1024;
        // SAFETY: `fd` is an open socket owned by `stream` for the whole
        // call, and `value`/`len` describe one live `c_int`, which is what
        // SO_SNDBUF and SO_RCVBUF take.
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                option,
                (&size as *const std::ffi::c_int).cast(),
                std::mem::size_of::<std::ffi::c_int>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt({option})");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pipelined_burst_is_served_one_request_a_pass_within_the_write_cap() {
        const SO_SNDBUF: std::ffi::c_int = 7;
        const SO_RCVBUF: std::ffi::c_int = 8;
        const FRAMES: usize = 10_000;
        let cap = 512;
        let mut rig = Rig::new(EventLoopConfig {
            write_buffer_cap: cap,
            ..Default::default()
        });
        let (mut conn, peer) = rig.connect();
        shrink(&conn.stream, SO_SNDBUF);
        shrink(&peer, SO_RCVBUF);

        // The peer writes the whole burst without reading a byte.
        let request = frame(&Request::Heartbeat);
        let burst = request.repeat(FRAMES);
        let mut writing = peer.try_clone().unwrap();
        let writer = std::thread::spawn(move || writing.write_all(&burst).unwrap());

        // The connection never registered, so every heartbeat is answered
        // with the same "unknown client" error frame.
        let reply = {
            let mut out = Vec::new();
            let unknown = crate::error::HarmonyError::UnknownClient(0);
            queue_reply(&mut out, &Reply::err(unknown.to_string()));
            out
        };
        let backlog = |conn: &Conn<Member>| conn.out.len() - conn.out_pos;
        let check = |rig: &mut Rig, conn: &mut Conn<Member>, wait: Duration| -> bool {
            let (resumed, buffered) = (conn.resume, conn.decoder.buffered());
            let serviced = rig.pass(conn, wait);
            if resumed {
                // A resumed pass reads nothing and decodes one request.
                assert!(buffered - conn.decoder.buffered() <= request.len());
            }
            assert!(
                backlog(conn) < cap + reply.len(),
                "unsent replies {} past cap {cap} plus one reply",
                backlog(conn)
            );
            serviced
        };

        // Drive passes until the connection stalls: replies at the cap,
        // the kernel taking no more, requests still waiting.
        let mut reached_cap = false;
        while check(&mut rig, &mut conn, Duration::from_millis(200)) {
            reached_cap |= backlog(&conn) >= cap;
        }
        assert!(reached_cap, "the peer never pushed back; the test is void");
        assert!(backlog(&conn) >= cap && conn.decoder.buffered() > 0);

        // Once the peer reads, every request is answered.
        let reading = peer.try_clone().unwrap();
        let expected = String::from_utf8(reply.clone()).unwrap();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(reading).lines();
            for i in 0..FRAMES {
                let line = lines.next().expect("a reply per request").unwrap();
                assert_eq!(line, expected.trim_end(), "reply {i}");
            }
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !reader.is_finished() {
            assert!(Instant::now() < deadline, "replies stopped coming");
            check(&mut rig, &mut conn, Duration::from_millis(50));
        }
        reader.join().unwrap();
        writer.join().unwrap();
        assert_eq!(backlog(&conn), 0);
        assert_eq!(conn.decoder.buffered(), 0);
    }
}
