//! Nonblocking readiness event loop: the TCP front-end.
//!
//! A thread per connection burns one OS thread (stack, wakeup churn,
//! scheduler pressure) per tuning client, which caps a server at a few
//! dozen clients — nowhere near the paper's premise of one Harmony server
//! steering thousands of concurrently reporting workers. This module
//! multiplexes instead: a small pool of loop threads, each owning
//! thousands of nonblocking connections and a [`ReadinessPoller`]
//! (`poll(2)` on unix; see [`super::poll`] for why that is the portable
//! floor and how `epoll` slots in behind the same trait).
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
//! The loop thread hands each decoded request to `ServerBus::dispatch`,
//! which serves it on the loop thread and returns the reply: it is
//! serialized onto the connection's write buffer and written in the same
//! pass, with no other thread involved. When the request's session is busy
//! (another loop thread, or an in-process client, is serving one of its
//! members) the loop thread waits in `dispatch` for the session's lock; a
//! request of another session never makes it wait. The [`Waker`] pipe is
//! only for adopting sockets and for stopping: a request never writes it.
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
//! Over-capacity connections get the protocol's retryable
//! `ServerBusy` refusal written from this same nonblocking write path —
//! no thread is ever spawned per refusal.

use super::poll::{
    poll_fd, waker_pair, Interest, PollFd, PollPoller, Readiness, ReadinessPoller, WakeReceiver,
    Waker,
};
use super::protocol::{FrameDecoder, Reply, Request, MAX_FRAME_LEN};
use super::ServerBus;
use crate::telemetry::{Counter, Latency, Telemetry};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
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
    /// Loop threads connections are spread across. `0` (default) sizes to
    /// the host: half the available cores, clamped to `1..=4` — each loop
    /// is I/O-bound bookkeeping, so a few go a long way even at thousands
    /// of connections.
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

/// Hands accepted sockets to loop threads round-robin. Cloneable so the
/// accept thread can own one while the pool keeps the join handles.
#[derive(Clone)]
pub(crate) struct Dispatcher {
    lanes: Arc<Vec<(Sender<TcpStream>, Waker)>>,
    next: Arc<AtomicU64>,
}

impl Dispatcher {
    /// Queue `stream` on the next loop thread and wake it.
    pub(crate) fn dispatch(&self, stream: TcpStream) {
        let lane = (self.next.fetch_add(1, Ordering::Relaxed) as usize) % self.lanes.len();
        let (tx, waker) = &self.lanes[lane];
        if tx.send(stream).is_ok() {
            waker.wake();
        }
    }
}

/// A running pool of event-loop threads.
pub(crate) struct EventLoopPool {
    dispatcher: Dispatcher,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl EventLoopPool {
    /// Spawn the loop threads.
    pub(crate) fn start(
        bus: ServerBus,
        cfg: EventLoopConfig,
        max_connections: usize,
        telemetry: Telemetry,
        active: Arc<AtomicUsize>,
    ) -> std::io::Result<EventLoopPool> {
        let threads = cfg.resolved_threads();
        let stop = Arc::new(AtomicBool::new(false));
        let mut lanes = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = channel::<TcpStream>();
            let (waker, wake_rx) = waker_pair()?;
            let worker = LoopWorker {
                bus: bus.clone(),
                cfg: cfg.clone(),
                max_connections,
                telemetry: telemetry.clone(),
                active: Arc::clone(&active),
                incoming: rx,
                wake_rx,
                stop: Arc::clone(&stop),
            };
            let handle = std::thread::Builder::new()
                .name(format!("harmony-evloop-{i}"))
                .spawn(move || worker.run())?;
            lanes.push((tx, waker));
            handles.push(handle);
        }
        Ok(EventLoopPool {
            dispatcher: Dispatcher {
                lanes: Arc::new(lanes),
                next: Arc::new(AtomicU64::new(0)),
            },
            stop,
            handles,
        })
    }

    pub(crate) fn dispatcher(&self) -> Dispatcher {
        self.dispatcher.clone()
    }

    /// Stop every loop thread and wait for them; established connections
    /// are dropped (the adaptation controller is shutting down with us).
    pub(crate) fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for (_, waker) in self.dispatcher.lanes.iter() {
            waker.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Why a connection is being torn down (drives churn counters and the
/// client's departure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
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
enum Phase {
    /// Serving the protocol.
    Active,
    /// Over capacity: wait (bounded) for the first request, answer it with
    /// the retryable busy error, then flush and close.
    Refusing,
    /// Reply queued for a goodbye/refusal/frame-error; close once the
    /// write buffer drains.
    Closing,
}

/// One registered connection.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Serialized replies not yet written (consumed prefix tracked by
    /// `out_pos`, compacted lazily).
    out: Vec<u8>,
    out_pos: usize,
    client_id: u64,
    departed: bool,
    /// The last pass served a request and left input buffered: service the
    /// connection again next pass without waiting for its socket.
    resume: bool,
    /// Read side saw EOF; drain buffered frames, then close.
    eof: bool,
    /// The EOF remainder (a final frame with no newline) was processed.
    finished_tail: bool,
    last_activity: Instant,
    phase: Phase,
    /// Holds one slot of the connection ceiling.
    counted: bool,
}

/// One event-loop thread: owns its connections outright; nothing here is
/// shared except the atomic connection count.
struct LoopWorker {
    bus: ServerBus,
    cfg: EventLoopConfig,
    max_connections: usize,
    telemetry: Telemetry,
    active: Arc<AtomicUsize>,
    incoming: Receiver<TcpStream>,
    wake_rx: WakeReceiver,
    stop: Arc<AtomicBool>,
}

impl LoopWorker {
    fn run(self) {
        let mut poller = PollPoller::new();
        let mut conns: HashMap<u64, Conn> = HashMap::new();
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

            // Adopt connections the accept thread handed over.
            while let Ok(stream) = self.incoming.try_recv() {
                if let Some(conn) = self.adopt(stream) {
                    conns.insert(next_token, conn);
                    next_token += 1;
                }
            }

            // Deadlines: idle reaping and the refusal wait bound.
            let now = Instant::now();
            for (&token, conn) in conns.iter_mut() {
                let waited = now.duration_since(conn.last_activity);
                let expired = match conn.phase {
                    Phase::Refusing if waited > REFUSE_DEADLINE => Some(Close::Refused),
                    Phase::Active if self.cfg.idle_timeout.is_some_and(|idle| waited > idle) => {
                        Some(Close::Idle)
                    }
                    _ => None,
                };
                if let Some(cause) = expired {
                    closed.push((token, cause));
                }
            }
            self.reap(&mut conns, &mut closed);

            // Build the poll set: the waker first, then every connection.
            sources.clear();
            tokens.clear();
            sources.push((self.wake_rx.fd(), Interest::READ));
            for (&token, conn) in conns.iter() {
                sources.push((poll_fd(&conn.stream), self.interest_of(conn)));
                tokens.push(token);
            }

            let timeout = self.poll_timeout(&conns, now);
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
            if ready.first().is_some_and(|r| r.readable) {
                self.wake_rx.drain();
            }
            if n == 0 && !timeout.is_zero() {
                continue; // timeout tick: deadlines re-checked above
            }

            for (idx, &token) in tokens.iter().enumerate() {
                let readiness = ready[idx + 1];
                let conn = conns.get_mut(&token).expect("token registered");
                if !readiness.any() && !conn.resume {
                    continue;
                }
                match self.service(conn, readiness, &mut read_buf) {
                    Ok(()) => {}
                    Err(cause) => closed.push((token, cause)),
                }
            }
            self.reap(&mut conns, &mut closed);
        }
    }

    /// Take ownership of a fresh socket: claim a ceiling slot or put the
    /// connection on the nonblocking refusal path.
    fn adopt(&self, stream: TcpStream) -> Option<Conn> {
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
            client_id: 0,
            departed: false,
            resume: false,
            eof: false,
            finished_tail: false,
            last_activity: Instant::now(),
            phase,
            counted: !over_cap,
        })
    }

    /// What this connection should be polled for right now.
    fn interest_of(&self, conn: &Conn) -> Interest {
        Interest {
            // Read only what could be decoded: not while the peer is not
            // draining its replies (backpressure), nor while requests are
            // already buffered (the protocol is request-reply serial), nor
            // after EOF.
            read: self.may_decode(conn) && !conn.resume && !conn.eof,
            write: conn.out.len() > conn.out_pos,
        }
    }

    /// The nearest deadline any connection is waiting on; zero when a
    /// connection has buffered requests to resume.
    fn poll_timeout(&self, conns: &HashMap<u64, Conn>, now: Instant) -> Duration {
        let mut timeout = IDLE_TICK;
        for conn in conns.values() {
            if conn.resume {
                return Duration::ZERO;
            }
            let deadline = match conn.phase {
                Phase::Refusing => Some(REFUSE_DEADLINE),
                Phase::Active => self.cfg.idle_timeout,
                _ => None,
            };
            if let Some(d) = deadline {
                let elapsed = now.duration_since(conn.last_activity);
                let left = d.checked_sub(elapsed).unwrap_or(Duration::from_millis(1));
                timeout = timeout.min(left.max(Duration::from_millis(1)));
            }
        }
        timeout
    }

    /// React to readiness on one connection.
    fn service(
        &self,
        conn: &mut Conn,
        readiness: Readiness,
        read_buf: &mut [u8],
    ) -> Result<(), Close> {
        if readiness.readable && !conn.resume {
            self.read_some(conn, read_buf)?;
        }
        self.advance(conn)
    }

    /// Drain the kernel's receive buffer into the frame decoder, through
    /// the loop thread's one read buffer.
    fn read_some(&self, conn: &mut Conn, buf: &mut [u8]) -> Result<(), Close> {
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
                    // decide. Keep reading only while the socket has data.
                    if n < buf.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Close::Peer),
            }
        }
    }

    /// Whether the next buffered frame may be decoded now: the connection
    /// is not closing, and its unsent replies are under the cap.
    fn may_decode(&self, conn: &Conn) -> bool {
        conn.phase != Phase::Closing && conn.out.len() - conn.out_pos < self.cfg.write_buffer_cap
    }

    /// Push the state machine one step: flush queued reply bytes, decode
    /// buffered frames up to and including the first request served,
    /// flush again. Stopping at one served request
    /// keeps a pipelining peer from monopolising the pass; stopping at the
    /// cap keeps a non-draining one from growing `out`.
    fn advance(&self, conn: &mut Conn) -> Result<(), Close> {
        flush_out(conn)?;
        let mut served = false;
        while !served && self.may_decode(conn) {
            let frame = match conn.decoder.next_frame() {
                Ok(Some(frame)) => Some(frame),
                Ok(None) => {
                    // At EOF the blocking reader still yields an
                    // unterminated final line; mirror that exactly once.
                    if conn.eof && !conn.finished_tail {
                        conn.finished_tail = true;
                        conn.decoder.finish()
                    } else {
                        None
                    }
                }
                Err(e) => {
                    // Unframeable stream: tell the peer why, then close.
                    queue_reply(&mut conn.out, &Reply::err(format!("protocol error: {e}")));
                    conn.phase = Phase::Closing;
                    continue;
                }
            };
            let Some(frame) = frame else { break };
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
                    let Ok(reply) = self.bus.dispatch(conn.client_id, req) else {
                        return Err(Close::Server);
                    };
                    complete(conn, is_leave, &reply);
                    served = true;
                }
                Err(e) => {
                    queue_reply(
                        &mut conn.out,
                        &Reply::err(format!("malformed request: {e}")),
                    );
                }
            }
        }
        flush_out(conn)?;
        conn.resume = served
            && self.may_decode(conn)
            && (conn.decoder.buffered() > 0 || (conn.eof && !conn.finished_tail));
        if conn.phase == Phase::Closing && conn.out_pos == conn.out.len() {
            // Goodbye/refusal fully flushed.
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
    fn reap(&self, conns: &mut HashMap<u64, Conn>, closed: &mut Vec<(u64, Close)>) {
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
            if conn.client_id != 0 && !conn.departed {
                // The connection died with its client still a member:
                // requeue outstanding trials for the survivors, and keep
                // the session for the client to rejoin. Nobody reads this
                // reply.
                let _ = self.bus.depart(conn.client_id);
            }
        }
    }
}

/// Apply a request's reply to its connection: note a completed `Leave` or
/// a granted client id, and queue the reply frame for writing.
fn complete(conn: &mut Conn, is_leave: bool, reply: &Reply) {
    conn.last_activity = Instant::now();
    if is_leave && matches!(reply, Reply::Ok) {
        conn.departed = true;
    }
    if let Reply::Registered { client_id, .. } = reply {
        conn.client_id = *client_id;
        conn.departed = false;
    }
    queue_reply(&mut conn.out, reply);
}

/// Serialize one reply frame straight onto a connection's write buffer.
fn queue_reply(out: &mut Vec<u8>, reply: &Reply) {
    serde_json::to_writer(out, reply).expect("replies serialize");
    out.push(b'\n');
}

/// Write as much buffered output as the socket accepts right now.
fn flush_out(conn: &mut Conn) -> Result<(), Close> {
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
    } else if conn.out_pos > 64 * 1024 {
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
        worker: LoopWorker,
        poller: PollPoller,
        read_buf: Vec<u8>,
    }

    impl Rig {
        fn new(cfg: EventLoopConfig) -> Rig {
            let server = HarmonyServer::start();
            let (waker, wake_rx) = waker_pair().unwrap();
            let worker = LoopWorker {
                bus: server.bus(),
                cfg,
                max_connections: 8,
                telemetry: Telemetry::disabled(),
                active: Arc::new(AtomicUsize::new(0)),
                incoming: channel().1,
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
        fn connect(&self) -> (Conn, TcpStream) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (stream, _) = listener.accept().unwrap();
            (self.worker.adopt(stream).unwrap(), peer)
        }

        /// What `run` does for one connection in one pass: poll it for
        /// what it wants (not at all when it has requests to resume), then
        /// service it. Returns whether it was serviced.
        fn pass(&mut self, conn: &mut Conn, wait: Duration) -> bool {
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
        assert_ne!(conn.client_id, 0, "the Register reply was applied");
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
        let backlog = |conn: &Conn| conn.out.len() - conn.out_pos;
        let check = |rig: &mut Rig, conn: &mut Conn, wait: Duration| -> bool {
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
