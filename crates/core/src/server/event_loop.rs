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
//! bounded write buffer. Exactly one request per connection is in flight
//! toward the shard pool at a time — the serialization a blocking
//! in-process client gets for free — which is what keeps event-loop
//! tuning trajectories bit-identical to serial in-process runs. Replies
//! come back through a [`CompletionSink`]: the shard worker enqueues the
//! reply on the owning loop's completion queue and pops its poller with a
//! [`Waker`] instead of the loop parking in a blocking `recv`.
//!
//! # Backpressure and eviction
//!
//! A connection whose write buffer is past its cap stops being polled for
//! read — a peer that will not drain its replies cannot force the server
//! to buffer unboundedly, and the kernel's socket buffers push back on the
//! peer's sends. Connections silent past the configured idle timeout are
//! reaped exactly like a dead socket: a `Leave` is synthesised so the
//! session requeues their outstanding trials through the existing eviction
//! path. Over-capacity connections get the protocol's retryable
//! `ServerBusy` refusal written from this same nonblocking write path —
//! no thread is ever spawned per refusal.

use super::poll::{
    poll_fd, waker_pair, Interest, PollFd, PollPoller, Readiness, ReadinessPoller, WakeReceiver,
    Waker,
};
use super::protocol::{
    CompletionSink, Envelope, FrameDecoder, Reply, ReplySink, Request, MAX_FRAME_LEN,
};
use super::ServerBus;
use crate::telemetry::{Counter, Latency, Telemetry};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// synthesising a `Leave` (outstanding trials requeue through the
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
            let (tx, rx) = unbounded::<TcpStream>();
            let (waker, wake_rx) = waker_pair()?;
            let shared = Arc::new(LoopShared {
                completions: Mutex::new(Vec::new()),
                waker: waker.clone(),
            });
            let worker = LoopWorker {
                bus: bus.clone(),
                cfg: cfg.clone(),
                max_connections,
                telemetry: telemetry.clone(),
                active: Arc::clone(&active),
                incoming: rx,
                shared,
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

/// The completion queue one loop thread drains, handed to shard workers
/// inside [`ReplySink::Completion`].
struct LoopShared {
    completions: Mutex<Vec<(u64, Reply)>>,
    waker: Waker,
}

impl CompletionSink for LoopShared {
    fn complete(&self, token: u64, reply: Reply) {
        self.completions.lock().push((token, reply));
        self.waker.wake();
    }
}

/// Why a connection is being torn down (drives churn counters and the
/// `Leave` synthesis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// Peer closed (EOF, reset, write failure) or said a clean goodbye.
    Peer,
    /// Reaped by the idle timeout.
    Idle,
    /// Refusal completed (busy frame flushed, or the peer never asked).
    Refused,
    /// Internal failure (shard pool gone).
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
    /// This connection's key in the loop's map; shard replies carry it
    /// back through the completion queue.
    token: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Serialized replies not yet written (consumed prefix tracked by
    /// `out_pos`, compacted lazily).
    out: Vec<u8>,
    out_pos: usize,
    client_id: u64,
    departed: bool,
    /// `Some(is_leave)` while a request is at the shard pool; the protocol
    /// is strictly request-reply per connection, so one is enough.
    in_flight: Option<bool>,
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
/// shared except the completion queue and the atomic connection count.
struct LoopWorker {
    bus: ServerBus,
    cfg: EventLoopConfig,
    max_connections: usize,
    telemetry: Telemetry,
    active: Arc<AtomicUsize>,
    incoming: Receiver<TcpStream>,
    shared: Arc<LoopShared>,
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
                if let Some(conn) = self.adopt(stream, next_token) {
                    conns.insert(next_token, conn);
                    next_token += 1;
                }
            }

            // Route completed shard replies back onto their connections.
            let completions: Vec<(u64, Reply)> =
                std::mem::take(&mut *self.shared.completions.lock());
            for (token, reply) in completions {
                let Some(conn) = conns.get_mut(&token) else {
                    continue; // connection closed while the shard worked
                };
                conn.last_activity = Instant::now();
                let is_leave = conn.in_flight.take().unwrap_or(false);
                if is_leave && matches!(reply, Reply::Ok) {
                    conn.departed = true;
                }
                if let Reply::Registered { client_id, .. } = reply {
                    conn.client_id = client_id;
                    conn.departed = false;
                }
                queue_reply(&mut conn.out, &reply);
                // The reply may unblock the next buffered frame.
                if let Err(cause) = self.advance(conn) {
                    closed.push((token, cause));
                }
            }

            // Deadlines: idle reaping and the refusal wait bound.
            let now = Instant::now();
            for (&token, conn) in conns.iter_mut() {
                match conn.phase {
                    Phase::Refusing if now.duration_since(conn.last_activity) > REFUSE_DEADLINE => {
                        closed.push((token, Close::Refused));
                    }
                    Phase::Active => {
                        if let Some(idle) = self.cfg.idle_timeout {
                            if conn.in_flight.is_none()
                                && now.duration_since(conn.last_activity) > idle
                            {
                                closed.push((token, Close::Idle));
                            }
                        }
                    }
                    _ => {}
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
            if n == 0 {
                continue; // timeout tick: deadlines re-checked above
            }

            for (idx, &token) in tokens.iter().enumerate() {
                let readiness = ready[idx + 1];
                if !readiness.any() {
                    continue;
                }
                let conn = conns.get_mut(&token).expect("token registered");
                match self.service(conn, readiness) {
                    Ok(()) => {}
                    Err(cause) => closed.push((token, cause)),
                }
            }
            self.reap(&mut conns, &mut closed);
        }
    }

    /// Take ownership of a fresh socket: claim a ceiling slot or put the
    /// connection on the nonblocking refusal path.
    fn adopt(&self, stream: TcpStream, token: u64) -> Option<Conn> {
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
            token,
            stream,
            decoder: FrameDecoder::new(self.cfg.max_frame_len),
            out: Vec::new(),
            out_pos: 0,
            client_id: 0,
            departed: false,
            in_flight: None,
            eof: false,
            finished_tail: false,
            last_activity: Instant::now(),
            phase,
            counted: !over_cap,
        })
    }

    /// What this connection should be polled for right now.
    fn interest_of(&self, conn: &Conn) -> Interest {
        let backlog = conn.out.len() - conn.out_pos;
        Interest {
            // Stop reading while a request is in flight (the protocol is
            // request-reply serial), after EOF, once closing, and while
            // the peer is not draining its replies (backpressure).
            read: !conn.eof
                && conn.phase != Phase::Closing
                && conn.in_flight.is_none()
                && backlog < self.cfg.write_buffer_cap,
            write: backlog > 0,
        }
    }

    /// The nearest deadline any connection is waiting on.
    fn poll_timeout(&self, conns: &HashMap<u64, Conn>, now: Instant) -> Duration {
        let mut timeout = IDLE_TICK;
        for conn in conns.values() {
            let deadline = match conn.phase {
                Phase::Refusing => Some(REFUSE_DEADLINE),
                Phase::Active if conn.in_flight.is_none() => self.cfg.idle_timeout,
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
    fn service(&self, conn: &mut Conn, readiness: Readiness) -> Result<(), Close> {
        if readiness.readable {
            self.read_some(conn)?;
        }
        self.advance(conn)
    }

    /// Drain the kernel's receive buffer into the frame decoder.
    fn read_some(&self, conn: &mut Conn) -> Result<(), Close> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.extend(&buf[..n]);
                    // One request is in flight at a time; bytes beyond it
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

    /// Push the state machine as far as it can go without blocking: flush
    /// queued reply bytes, decode and act on buffered frames, flush again.
    fn advance(&self, conn: &mut Conn) -> Result<(), Close> {
        flush_out(conn)?;
        while conn.in_flight.is_none() && conn.phase != Phase::Closing {
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
                    let env = Envelope::with_sink(
                        conn.client_id,
                        req,
                        ReplySink::Completion {
                            sink: Arc::clone(&self.shared) as Arc<dyn CompletionSink>,
                            token: conn.token,
                        },
                    );
                    if self.bus.send(env).is_err() {
                        return Err(Close::Server);
                    }
                    conn.in_flight = Some(is_leave);
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
        if conn.phase == Phase::Closing && conn.out_pos == conn.out.len() {
            // Goodbye/refusal fully flushed.
            return Err(if conn.counted {
                Close::Peer
            } else {
                Close::Refused
            });
        }
        if conn.eof
            && conn.in_flight.is_none()
            && conn.finished_tail
            && conn.decoder.buffered() == 0
        {
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
                // requeue outstanding trials for the survivors. Nobody
                // waits for this reply.
                let _ = self.bus.send(Envelope::with_sink(
                    conn.client_id,
                    Request::Leave,
                    ReplySink::Discard,
                ));
            }
        }
    }
}

/// Serialize one reply frame onto a connection's write buffer.
fn queue_reply(out: &mut Vec<u8>, reply: &Reply) {
    let blob = serde_json::to_string(reply).expect("replies serialize");
    out.extend_from_slice(blob.as_bytes());
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
