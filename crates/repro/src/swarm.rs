//! Nonblocking swarm clients: thousands of tuning workers from a handful
//! of threads.
//!
//! Simulating the paper's premise — one Harmony server steering an entire
//! cluster's worth of reporting workers — needs more concurrent clients
//! than a thread-per-client driver can afford. This module reuses the
//! server's own building blocks on the *client* side: each driver thread
//! owns a slice of nonblocking sockets, multiplexes them with a
//! [`PollPoller`], frames replies with an incremental [`FrameDecoder`],
//! and steps each connection's [`SwarmScript`] (a scripted request/reply
//! state machine) whenever its reply arrives. A thousand clients is a few
//! poll sets, not a thousand stacks.
//!
//! Two scripts cover the two uses: [`IndependentScript`] (every client
//! tunes its own session — the `tcp/swarm` bench scenario) and
//! [`SharedWorkerScript`] (every client attaches to one shared session —
//! the 1k-vs-16 bit-identity smoke campaign).

use ah_core::param::Param;
use ah_core::server::poll::{poll_fd, Interest, PollFd, PollPoller, ReadinessPoller};
use ah_core::server::protocol::{
    FrameDecoder, Reply, Request, StrategyKind, TrialReport, MAX_FRAME_LEN,
};
use ah_core::session::SessionOptions;
use ah_core::space::Configuration;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One scripted client: a deterministic request/reply state machine the
/// swarm driver steps whenever this connection's reply frame arrives.
pub trait SwarmScript: Send {
    /// The request sent as soon as the connection is up.
    fn first(&mut self) -> Request;
    /// Given the reply to the previous request: the next request, or
    /// `None` when this client is done (its socket is then closed; the
    /// server departs the client as for a dead connection).
    fn next(&mut self, reply: Reply) -> Option<Request>;
    /// Per-evaluation latencies recorded by the script (µs), drained.
    fn take_latencies(&mut self) -> Vec<f64> {
        Vec::new()
    }
}

/// One swarm connection: socket, frame decoder, pending output, script.
struct SwarmConn<S: SwarmScript> {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    script: S,
    done: bool,
}

impl<S: SwarmScript> SwarmConn<S> {
    fn queue(&mut self, req: &Request) {
        let blob = serde_json::to_string(req).expect("requests serialize");
        self.out.extend_from_slice(blob.as_bytes());
        self.out.push(b'\n');
    }

    fn flush(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => panic!("swarm: server closed connection mid-write"),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("swarm: write failed: {e}"),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Read whatever the socket has, step the script once per reply frame.
    fn pump(&mut self) {
        let mut buf = [0u8; 8 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => panic!("swarm: server closed connection unexpectedly"),
                Ok(n) => {
                    self.decoder.extend(&buf[..n]);
                    while let Some(frame) = self.decoder.next_frame().expect("swarm reply frame") {
                        let reply: Reply =
                            serde_json::from_str(&frame).expect("swarm reply parses");
                        match self.script.next(reply) {
                            Some(req) => self.queue(&req),
                            None => {
                                self.done = true;
                                return;
                            }
                        }
                    }
                    if n < buf.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("swarm: read failed: {e}"),
            }
        }
    }
}

/// A connected swarm, ready to drive. Connecting and driving are separate
/// so callers can assert on server-side connection counts while every
/// client is simultaneously established.
pub struct Swarm<S: SwarmScript> {
    chunks: Vec<Vec<SwarmConn<S>>>,
}

impl<S: SwarmScript> Swarm<S> {
    /// Open one connection per script (blocking connects with a short
    /// retry for accept-backlog overflow), split across `threads` driver
    /// threads. Nothing is sent yet.
    pub fn connect(addr: SocketAddr, scripts: Vec<S>, threads: usize) -> std::io::Result<Self> {
        let threads = threads.max(1).min(scripts.len().max(1));
        let mut chunks: Vec<Vec<SwarmConn<S>>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, script) in scripts.into_iter().enumerate() {
            let stream = connect_retry(addr)?;
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true)?;
            chunks[i % threads].push(SwarmConn {
                stream,
                decoder: FrameDecoder::new(MAX_FRAME_LEN),
                out: Vec::new(),
                out_pos: 0,
                script,
                done: false,
            });
        }
        Ok(Swarm { chunks })
    }

    /// Number of established connections.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// True when the swarm holds no connections.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run every script to completion and hand the scripts back (latency
    /// records and all). Each driver thread multiplexes its slice with one
    /// poller.
    pub fn drive(self) -> Vec<S> {
        let mut finished: Vec<S> = Vec::new();
        let results: Vec<Vec<S>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .chunks
                .into_iter()
                .map(|chunk| scope.spawn(move || drive_chunk(chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("swarm driver thread"))
                .collect()
        });
        for r in results {
            finished.extend(r);
        }
        finished
    }
}

fn connect_retry(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("connect failed")))
}

/// One driver thread's loop over its slice of connections.
fn drive_chunk<S: SwarmScript>(mut chunk: Vec<SwarmConn<S>>) -> Vec<S> {
    // Kick every script off with its first request.
    for conn in chunk.iter_mut() {
        let req = conn.script.first();
        conn.queue(&req);
        conn.flush();
    }
    let mut poller = PollPoller::new();
    let mut sources: Vec<(PollFd, Interest)> = Vec::new();
    let mut ready = Vec::new();
    let mut done: Vec<S> = Vec::new();
    while !chunk.is_empty() {
        sources.clear();
        for conn in chunk.iter() {
            sources.push((
                poll_fd(&conn.stream),
                Interest {
                    read: true,
                    write: conn.out_pos < conn.out.len(),
                },
            ));
        }
        poller
            .wait(&sources, &mut ready, Duration::from_millis(500))
            .expect("swarm poll");
        for (i, conn) in chunk.iter_mut().enumerate() {
            if !ready[i].any() {
                continue;
            }
            if ready[i].readable {
                conn.pump();
            }
            if !conn.done {
                conn.flush();
            }
        }
        // Compact: closing the socket (drop) is the goodbye; the server
        // departs the clients that still hold membership.
        let mut still = Vec::with_capacity(chunk.len());
        for conn in chunk.into_iter() {
            if conn.done {
                done.push(conn.script);
            } else {
                still.push(conn);
            }
        }
        chunk = still;
    }
    done
}

/// Fixed parameter space shared by the swarm scripts; mirrors the other
/// bench scenarios so the numbers are comparable.
fn swarm_param() -> Param {
    Param::int("x", 0, 1_000_000, 1)
}

/// Deterministic objective: a pure function of the configuration, which is
/// what makes swarm trajectories comparable across member counts.
pub fn swarm_objective(config: &Configuration) -> f64 {
    (config.int("x").expect("x") % 1009) as f64
}

enum IndState {
    Registering,
    DeclaringParam,
    Sealing,
    Fetching {
        t0: Instant,
    },
    /// `count` trials reported, in a batch whose round began at `t0`.
    Exchanging {
        t0: Instant,
        count: usize,
    },
}

/// Every client founds and tunes its own session: `Register` → declare →
/// `Seal` → one `FetchBatch`, then `iters` evaluations through `Exchange`s,
/// each reporting a batch and bringing back the next (none after the
/// last).
pub struct IndependentScript {
    app: String,
    tenant: String,
    seed: u64,
    iters: usize,
    batch: usize,
    done_evals: usize,
    state: IndState,
    latencies: Vec<f64>,
}

impl IndependentScript {
    /// A client tuning `iters` evaluations under its own app label.
    pub fn new(app: String, seed: u64, iters: usize, batch: usize) -> Self {
        IndependentScript {
            app,
            tenant: String::new(),
            seed,
            iters,
            batch: batch.max(1),
            done_evals: 0,
            state: IndState::Registering,
            latencies: Vec::new(),
        }
    }

    /// Label this client with a tenant id for quota/fair-dispatch
    /// accounting on the server (empty means the default tenant).
    pub fn with_tenant(mut self, tenant: String) -> Self {
        self.tenant = tenant;
        self
    }

    /// How many trials to ask for once `pending` more are reported.
    fn wanted(&self, pending: usize) -> usize {
        self.batch.min(self.iters - self.done_evals - pending)
    }
}

impl SwarmScript for IndependentScript {
    fn first(&mut self) -> Request {
        Request::Register {
            app: self.app.clone(),
            tenant: self.tenant.clone(),
        }
    }

    fn next(&mut self, reply: Reply) -> Option<Request> {
        match (&self.state, reply) {
            (IndState::Registering, Reply::Registered { .. }) => {
                self.state = IndState::DeclaringParam;
                Some(Request::AddParam {
                    param: swarm_param(),
                })
            }
            (IndState::DeclaringParam, Reply::Ok) => {
                self.state = IndState::Sealing;
                Some(Request::Seal {
                    options: SessionOptions {
                        // The driver stops at `iters`; the session itself
                        // must not finish first.
                        max_evaluations: usize::MAX / 4,
                        max_cached_replays: usize::MAX / 4,
                        seed: self.seed,
                        ..Default::default()
                    },
                    strategy: StrategyKind::Random,
                })
            }
            (IndState::Sealing, Reply::Ok) => {
                self.state = IndState::Fetching { t0: Instant::now() };
                Some(Request::FetchBatch {
                    max: self.wanted(0),
                })
            }
            (&IndState::Fetching { t0 }, Reply::Configs { trials, finished })
            | (&IndState::Exchanging { t0, .. }, Reply::Configs { trials, finished }) => {
                // An exchange's reply closes the round of the batch it
                // reported, and the next batch's round begins.
                let t0 = match self.state {
                    IndState::Exchanging { count, .. } => {
                        let per_eval = t0.elapsed().as_secs_f64() * 1e6 / count as f64;
                        self.latencies.extend(std::iter::repeat_n(per_eval, count));
                        self.done_evals += count;
                        if self.done_evals == self.iters {
                            return None;
                        }
                        Instant::now()
                    }
                    _ => t0,
                };
                assert!(!finished && !trials.is_empty(), "swarm session ended early");
                let reports: Vec<TrialReport> = trials
                    .iter()
                    .map(|t| TrialReport {
                        iteration: t.iteration,
                        cost: swarm_objective(&t.config),
                        wall_time: 0.0,
                    })
                    .collect();
                let count = reports.len();
                self.state = IndState::Exchanging { t0, count };
                Some(Request::Exchange {
                    reports,
                    max: self.wanted(count),
                })
            }
            (_, reply) => panic!("swarm[{}]: unexpected reply {reply:?}", self.app),
        }
    }

    fn take_latencies(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.latencies)
    }
}

/// A worker in one shared session: `Attach` → `FetchBatch`, then an
/// `Exchange` per batch (reporting it, fetching the next) until the session
/// finishes. With a deterministic objective the shared trajectory
/// is bit-identical however many of these run concurrently.
pub struct SharedWorkerScript {
    session: u64,
    tenant: String,
    batch: usize,
    attached: bool,
    /// Evaluations this worker measured (for sanity assertions).
    pub measured: usize,
}

impl SharedWorkerScript {
    /// A worker joining `session`, fetching `batch` trials per round-trip.
    pub fn new(session: u64, batch: usize) -> Self {
        SharedWorkerScript {
            session,
            tenant: String::new(),
            batch: batch.max(1),
            attached: false,
            measured: 0,
        }
    }

    /// Label this worker with a tenant id for fair-dispatch accounting.
    pub fn with_tenant(mut self, tenant: String) -> Self {
        self.tenant = tenant;
        self
    }
}

impl SwarmScript for SharedWorkerScript {
    fn first(&mut self) -> Request {
        Request::Attach {
            session: self.session,
            tenant: self.tenant.clone(),
        }
    }

    fn next(&mut self, reply: Reply) -> Option<Request> {
        match reply {
            Reply::Registered { .. } => {
                self.attached = true;
                Some(Request::FetchBatch { max: self.batch })
            }
            Reply::Configs { trials, finished } => {
                if finished {
                    return None;
                }
                if trials.is_empty() {
                    // Strategy is waiting on outstanding reports held by
                    // other members; ask again.
                    return Some(Request::FetchBatch { max: self.batch });
                }
                self.measured += trials.len();
                let reports = trials
                    .iter()
                    .map(|t| TrialReport {
                        iteration: t.iteration,
                        cost: swarm_objective(&t.config),
                        wall_time: 0.0,
                    })
                    .collect();
                Some(Request::Exchange {
                    reports,
                    max: self.batch,
                })
            }
            other => panic!("swarm worker: unexpected reply {other:?}"),
        }
    }
}
