//! TCP transport for the Harmony server.
//!
//! The real Active Harmony ran as a network daemon that applications on the
//! compute nodes connected to. This module puts the same serde
//! [`protocol`](super::protocol) on a socket: one JSON message per line,
//! one tuning client per connection. The in-process
//! [`HarmonyServer`] remains the adaptation
//! controller; connections are bridged onto its message bus.
//!
//! The bridging is done by the nonblocking readiness
//! [`event loop`](super::event_loop): a few loop threads take turns at the
//! listening socket, accept from it themselves, and multiplex every
//! connection's reads, writes, refusals, and idle eviction. A campaign driven over it
//! produces the bit-identical tuning trajectory of a serial in-process run.
//!
//! Trials move by one request, [`Request::Exchange`], and a whole batch (an
//! `Exchange`, its `Configs` reply) is one serde frame — one line, one
//! write. Every report fetches what comes next in the same round trip:
//! [`TcpHarmonyClient::report_batch`] sends an `Exchange` that reports the
//! measurements and asks for as many trials as the last
//! [`fetch_batch`](TcpHarmonyClient::fetch_batch) did, and the following
//! `fetch_batch` returns them without touching the socket. The serial loop
//! is the batch of one ([`fetch`](TcpHarmonyClient::fetch) is a
//! `fetch_batch(1)`, [`report`](TcpHarmonyClient::report) a `report_batch`
//! of the fetched trial), so it costs one round trip per trial, and a PRO
//! round of candidates, or a batch of 16, one per batch: only a session's
//! first fetch, and a fetch the kept trials cannot answer, is an
//! `Exchange` that reports nothing. Sockets run with `TCP_NODELAY` and buffered
//! writers: frames are small and latency-bound, so waiting for Nagle
//! coalescing only delays the tuning loop.
//!
//! # Fault tolerance
//!
//! On the paper's machines clients lose connections mid-iteration, so
//! [`TcpHarmonyClient`] retries retryable failures with the bounded
//! exponential backoff of a [`RetryPolicy`]: connects retry on refusal or
//! capacity errors, and idempotent requests (fetches, reports, queries)
//! transparently reconnect and [`Request::Attach`] back to their session
//! under a fresh client id. A report carries the trial's iteration token,
//! which the server treats idempotently — a retried report whose first
//! copy did arrive is a tolerated duplicate. When a connection dies, the
//! server front-end departs its client from the session as a
//! [`Request::Leave`] would, requeueing the client's outstanding trials,
//! prefetched ones included, for the surviving members, but it keeps the
//! session for the client to rejoin even when no member is left; a client
//! that reconnects forgets the trials it held.

use super::client::{one_trial, reply_error, Fetched};
use super::event_loop::{EventLoopConfig, EventLoopPool, TuningService};
use super::protocol::{FetchedTrial, Reply, Request, StrategyKind, TrialReport};
use super::HarmonyServer;
use crate::error::{HarmonyError, Result};
use crate::history::History;
use crate::param::Param;
use crate::retry::RetryPolicy;
use crate::session::SessionOptions;
use crate::space::Configuration;
use crate::telemetry::{Counter, Latency, SpanKind, Telemetry};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Default cap on simultaneously served connections; beyond it new
/// connections are refused with a retryable error reply instead of
/// degrading every established tuning loop. The readiness event loop
/// multiplexes connections instead of spawning threads, so the default
/// ceiling is sized by file descriptors and per-connection buffers, not by
/// thread stacks.
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;

/// The front-end that bridges sockets onto the in-process message bus, with
/// its tuning knobs. The one-variant enum (and
/// [`bind_with_transport`](TcpHarmonyServer::bind_with_transport) taking
/// it) is the spelling the frozen `benchmark/` crate names; folding it into
/// a plain [`EventLoopConfig`] argument belongs to the next PR that may
/// edit `benchmark/`.
#[derive(Debug, Clone)]
pub enum TcpTransport {
    /// Nonblocking readiness event loop: a few loop threads multiplex every
    /// connection (see [`super::event_loop`]).
    EventLoop(EventLoopConfig),
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport::EventLoop(EventLoopConfig::default())
    }
}

/// A Harmony server listening on a TCP socket.
pub struct TcpHarmonyServer {
    addr: SocketAddr,
    // Fields drop in order: the loops stop (closing the listener and every
    // connection) before the server behind them shuts down.
    pool: EventLoopPool,
    inner: HarmonyServer,
}

impl TcpHarmonyServer {
    /// Bind and start serving with [`DEFAULT_MAX_CONNECTIONS`] over the
    /// default [`TcpTransport`]. Use `"127.0.0.1:0"` to pick a free port.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Self::bind_with_limit(addr, DEFAULT_MAX_CONNECTIONS)
    }

    /// Bind with an explicit cap on simultaneous connections; connection
    /// number `max_connections + 1` gets a retryable error reply and is
    /// dropped.
    pub fn bind_with_limit(addr: &str, max_connections: usize) -> std::io::Result<Self> {
        Self::bind_with(addr, max_connections, super::ServerConfig::default())
    }

    /// Bind with full control over the connection cap and the inner
    /// server's deadline/eviction policy.
    pub fn bind_with(
        addr: &str,
        max_connections: usize,
        config: super::ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_with_transport(addr, max_connections, config, TcpTransport::default())
    }

    /// Bind with full control over cap, inner-server policy, and the
    /// event loop's knobs.
    pub fn bind_with_transport(
        addr: &str,
        max_connections: usize,
        config: super::ServerConfig,
        transport: TcpTransport,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let telemetry = config.telemetry.clone();
        let inner = HarmonyServer::start_with_config(config);
        let bus = inner.bus();
        let TcpTransport::EventLoop(cfg) = transport;
        let max_connections = max_connections.max(1);
        // The loops accept from the listener themselves.
        let pool = EventLoopPool::start(
            "harmony-evloop",
            listener,
            cfg,
            max_connections,
            telemetry.clone(),
            |_| TuningService {
                bus: bus.clone(),
                telemetry: telemetry.clone(),
                max_connections,
            },
        )?;
        Ok(TcpHarmonyServer {
            addr: local,
            pool,
            inner,
        })
    }

    /// The bound address (with the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many connections currently hold a slot of the connection
    /// ceiling.
    pub fn active_connections(&self) -> usize {
        self.pool.active.load(Ordering::SeqCst)
    }

    /// The in-process server behind the socket: clients connected through
    /// it share sessions with the TCP clients.
    pub fn inproc(&self) -> &HarmonyServer {
        &self.inner
    }

    /// Start the observability plane on `addr` (see
    /// [`HarmonyServer::observe`]).
    pub fn observe(&self, addr: &str) -> std::io::Result<super::ObserveHandle> {
        self.inproc().observe(addr)
    }

    /// Stop accepting connections and shut the adaptation controller down.
    /// Dropping the server does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Transport knobs of a [`TcpHarmonyClient`].
#[derive(Debug, Clone, Default)]
pub struct TcpClientOptions {
    /// Backoff schedule for connects and idempotent requests.
    pub retry: RetryPolicy,
    /// Per-operation socket deadline (connect, read, write). `None` blocks
    /// indefinitely; with a deadline, an elapsed read surfaces as
    /// [`HarmonyError::Timeout`] and is retried like a disconnect.
    pub io_timeout: Option<Duration>,
    /// Telemetry handle recording batch round-trip latencies and retry
    /// backoffs on the client side (disabled by default).
    pub telemetry: Telemetry,
    /// Tenant label sent with `Register`/`Attach`; empty (default) means
    /// the server's `"default"` tenant. Quota refusals for this tenant come
    /// back as the retryable [`HarmonyError::QuotaExceeded`].
    pub tenant: String,
}

fn io_error(e: std::io::Error, what: &str) -> HarmonyError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HarmonyError::Timeout(format!("{what} deadline elapsed"))
        }
        _ => HarmonyError::Disconnected,
    }
}

/// One live socket to the server, with the two buffers every exchange on
/// it reuses: the request frame being written and the reply line being read.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: Vec<u8>,
    reply: String,
}

impl Conn {
    fn open(addr: SocketAddr, io_timeout: Option<Duration>) -> Result<Conn> {
        let stream = match io_timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t).map_err(|e| io_error(e, "connect")),
            None => TcpStream::connect(addr).map_err(|_| HarmonyError::Disconnected),
        }?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(io_timeout);
        let _ = stream.set_write_timeout(io_timeout);
        let writer = stream.try_clone().map_err(|_| HarmonyError::Disconnected)?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            request: Vec::new(),
            reply: String::new(),
        })
    }

    fn call(&mut self, req: &Request) -> Result<Reply> {
        self.request.clear();
        serde_json::to_writer(&mut self.request, req).expect("requests serialize");
        self.request.push(b'\n');
        // The frame is whole, so it goes to the socket in one write.
        self.writer
            .write_all(&self.request)
            .map_err(|e| io_error(e, "request write"))?;
        self.reply.clear();
        let n = self
            .reader
            .read_line(&mut self.reply)
            .map_err(|e| io_error(e, "reply read"))?;
        if n == 0 {
            return Err(HarmonyError::Disconnected);
        }
        serde_json::from_str(&self.reply)
            .map_err(|e| HarmonyError::Protocol(format!("bad reply: {e}")))
    }
}

/// A Harmony client talking to a [`TcpHarmonyServer`] over a socket, with
/// bounded retry/backoff and crash-rejoin via [`Request::Attach`].
pub struct TcpHarmonyClient {
    addr: SocketAddr,
    opts: TcpClientOptions,
    conn: Option<Conn>,
    client_id: u64,
    session: u64,
    /// Iteration token of the last unanswered [`fetch`](Self::fetch); a
    /// [`report`](Self::report) carries it, so a retried report is
    /// idempotent.
    last_fetch: Option<usize>,
    /// The trials the last [`report_batch`](Self::report_batch)'s
    /// `Exchange` brought back, up to `batch`, which the next `fetch_batch`
    /// of at most as many returns without a round trip. They
    /// are held for this client on the server until reported. A fetch they
    /// cannot answer drops them (the server serves a client's unreported
    /// trials first, so its request gets them back), and so do a reconnect
    /// (the dead connection's departure requeues them for the new client
    /// id) and `leave`.
    prefetched: Vec<FetchedTrial>,
    /// The `max` of the last [`fetch_batch`](Self::fetch_batch), which
    /// `report_batch`'s exchange asks for.
    batch: usize,
}

impl std::fmt::Debug for TcpHarmonyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpHarmonyClient")
            .field("addr", &self.addr)
            .field("client_id", &self.client_id)
            .field("session", &self.session)
            .field("connected", &self.conn.is_some())
            .finish_non_exhaustive()
    }
}

/// Record one retry backoff in `telemetry`, then sleep it out. Shared by
/// the connect, attach, and idempotent-call retry loops so every backoff a
/// client takes shows up in the `retry_backoff_sleep` histogram.
fn observed_backoff(telemetry: &Telemetry, policy: &RetryPolicy, attempt: u32) {
    let sleep = policy.delay(attempt);
    telemetry.inc(Counter::RetryBackoffs);
    telemetry.observe(Latency::RetryBackoffSleep, sleep);
    std::thread::sleep(sleep);
}

impl TcpHarmonyClient {
    /// Connect and register the application (founds a new session), with
    /// default [`TcpClientOptions`].
    pub fn connect(addr: SocketAddr, app: &str) -> Result<Self> {
        Self::connect_with(addr, app, TcpClientOptions::default())
    }

    /// Connect and register with explicit retry/timeout options.
    pub fn connect_with(addr: SocketAddr, app: &str, opts: TcpClientOptions) -> Result<Self> {
        let mut client = TcpHarmonyClient {
            addr,
            opts,
            conn: None,
            client_id: 0,
            session: 0,
            last_fetch: None,
            prefetched: Vec::new(),
            batch: 0,
        };
        let policy = client.opts.retry.clone();
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match client.register_once(app) {
                Ok(()) => return Ok(client),
                Err(e) if e.is_retryable() && attempt + 1 < attempts => {
                    observed_backoff(&client.opts.telemetry, &policy, attempt);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Connect and join an existing session (worker pools, or rejoining
    /// after this process crashed and lost its previous connection).
    pub fn attach(addr: SocketAddr, session: u64) -> Result<Self> {
        Self::attach_with(addr, session, TcpClientOptions::default())
    }

    /// [`attach`](Self::attach) with explicit retry/timeout options.
    pub(crate) fn attach_with(
        addr: SocketAddr,
        session: u64,
        opts: TcpClientOptions,
    ) -> Result<Self> {
        let mut client = TcpHarmonyClient {
            addr,
            opts,
            conn: None,
            client_id: 0,
            session,
            last_fetch: None,
            prefetched: Vec::new(),
            batch: 0,
        };
        let policy = client.opts.retry.clone();
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match client.reconnect_once() {
                Ok(()) => return Ok(client),
                Err(e) if e.is_retryable() && attempt + 1 < attempts => {
                    observed_backoff(&client.opts.telemetry, &policy, attempt);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn register_once(&mut self, app: &str) -> Result<()> {
        let mut conn = Conn::open(self.addr, self.opts.io_timeout)?;
        match conn.call(&Request::Register {
            app: app.to_string(),
            tenant: self.opts.tenant.clone(),
        })? {
            Reply::Registered { client_id, session } => {
                self.client_id = client_id;
                self.session = session;
                self.conn = Some(conn);
                Ok(())
            }
            Reply::QuotaExceeded { tenant } => Err(HarmonyError::QuotaExceeded { tenant }),
            Reply::Error { message, retryable } => Err(reply_error(message, retryable)),
            _ => Err(HarmonyError::Protocol("unexpected reply".into())),
        }
    }

    /// Open a fresh socket and rejoin the remembered session under a new
    /// client id.
    fn reconnect_once(&mut self) -> Result<()> {
        if self.session == 0 {
            return Err(HarmonyError::Protocol(
                "cannot reconnect before registering".into(),
            ));
        }
        // The old connection's departure requeues the held trials; the new
        // client id fetches them, or another member claims them.
        self.prefetched.clear();
        let mut conn = Conn::open(self.addr, self.opts.io_timeout)?;
        match conn.call(&Request::Attach {
            session: self.session,
            tenant: self.opts.tenant.clone(),
        })? {
            Reply::Registered { client_id, .. } => {
                self.client_id = client_id;
                self.conn = Some(conn);
                Ok(())
            }
            Reply::QuotaExceeded { tenant } => Err(HarmonyError::QuotaExceeded { tenant }),
            Reply::Error { message, retryable } => Err(reply_error(message, retryable)),
            _ => Err(HarmonyError::Protocol("unexpected reply".into())),
        }
    }

    /// One attempt: (re)open the connection if needed, send, read. A
    /// transport failure poisons the connection so the next attempt
    /// reconnects; a protocol-level error leaves it open.
    fn try_call(&mut self, req: &Request) -> Result<Reply> {
        if self.conn.is_none() {
            self.reconnect_once()?;
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        match conn.call(req) {
            Ok(Reply::QuotaExceeded { tenant }) => Err(HarmonyError::QuotaExceeded { tenant }),
            Ok(Reply::Error { message, retryable }) => Err(reply_error(message, retryable)),
            Ok(reply) => Ok(reply),
            Err(e) => {
                if e.is_retryable() {
                    self.conn = None;
                }
                Err(e)
            }
        }
    }

    /// Retry loop for idempotent requests: fetches and queries have no
    /// side effect to duplicate, and reports are deduplicated by iteration
    /// token on the server. Each attempt's reply goes through `shape`, so a
    /// retryable error it makes of a reply is retried too.
    fn call_retrying<T>(&mut self, req: &Request, shape: impl Fn(Reply) -> Result<T>) -> Result<T> {
        let policy = self.opts.retry.clone();
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match self.try_call(req).and_then(&shape) {
                Err(e) if e.is_retryable() && attempt + 1 < attempts => {
                    observed_backoff(&self.opts.telemetry, &policy, attempt);
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Single attempt for declaration-phase requests, which are not
    /// idempotent (a retried `AddParam` whose first copy arrived would
    /// declare a duplicate parameter).
    fn call_once(&mut self, req: Request) -> Result<Reply> {
        self.try_call(&req)
    }

    /// This client's id on the server (changes after a reconnect).
    pub fn id(&self) -> u64 {
        self.client_id
    }

    /// The session this client tunes; keep it to
    /// [`attach`](Self::attach) after a process restart.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Declare a tunable parameter.
    pub fn add_param(&mut self, param: Param) -> Result<()> {
        self.call_once(Request::AddParam { param }).map(|_| ())
    }

    /// Declare a monotone-chain dependency.
    pub fn add_monotone_chain<I, S>(&mut self, names: I) -> Result<()>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.call_once(Request::AddMonotoneChain {
            names: names.into_iter().map(Into::into).collect(),
        })
        .map(|_| ())
    }

    /// Finish declaration and start tuning.
    pub fn seal(&mut self, options: SessionOptions, strategy: StrategyKind) -> Result<()> {
        self.call_once(Request::Seal { options, strategy })
            .map(|_| ())
    }

    /// One observed round trip of the tuning loop: an `Exchange` of
    /// `reports` asking for `max` trials, with a client span of `kind`
    /// around the retrying call (faulted if it fails) and an `rtt` sample
    /// of how long the caller waited. `shape` sees each attempt's trials.
    fn observed_exchange<T>(
        &mut self,
        kind: SpanKind,
        rtt: Latency,
        reports: Vec<TrialReport>,
        max: usize,
        shape: impl Fn(Vec<FetchedTrial>, bool) -> Result<T>,
    ) -> Result<T> {
        let started = Instant::now();
        let span = self
            .opts
            .telemetry
            .span_begin(kind, 0, "client", self.client_id);
        let req = Request::Exchange { reports, max };
        let reply = self.call_retrying(&req, |reply| match reply {
            Reply::Configs { trials, finished } => shape(trials, finished),
            _ => Err(HarmonyError::Protocol(
                "unexpected reply to Exchange".into(),
            )),
        });
        match &reply {
            Ok(_) => self.opts.telemetry.span_end(span),
            Err(_) => self.opts.telemetry.span_fault(span, "rpc_failed"),
        }
        self.opts.telemetry.observe(rtt, started.elapsed());
        reply
    }

    /// Fetch the next configuration (same semantics as the in-process
    /// client: repeats until reported; `finished` carries the final best):
    /// a [`fetch_batch`](Self::fetch_batch) of one. After a
    /// [`report`](Self::report) this is the trial its exchange brought
    /// back, with no round trip. An empty batch is retried with backoff
    /// while the strategy waits on another member's report, and once the
    /// session has finished it is one `QueryBest` for the best
    /// configuration.
    pub fn fetch(&mut self) -> Result<(Configuration, bool)> {
        let trial = self.fetch_shaped(1, one_trial)?;
        self.last_fetch = trial.as_ref().map(|t| t.iteration);
        match trial {
            Some(t) => Ok((t.config, false)),
            None => Ok((Fetched::finished(self.best()?)?.config, true)),
        }
    }

    /// Report the measured cost of the last fetched configuration, and
    /// fetch the next one in the same round trip: a
    /// [`report_batch`](Self::report_batch) of the fetched iteration token
    /// (so a retry after a lost reply cannot double-count the
    /// measurement), whose trial the next [`fetch`](Self::fetch) returns.
    pub fn report(&mut self, cost: f64) -> Result<()> {
        let Some(iteration) = self.last_fetch.take() else {
            return Err(HarmonyError::Protocol(
                "report without an outstanding fetch".into(),
            ));
        };
        let report = TrialReport {
            iteration,
            cost,
            wall_time: cost,
        };
        // Keep the token on failure: the caller may retry the report.
        self.report_batch(vec![report])
            .inspect_err(|_| self.last_fetch = Some(iteration))
    }

    /// Fetch up to `max` configurations. Returns `(trials, finished)`.
    /// After a [`report_batch`](Self::report_batch) whose exchange brought
    /// back at least `max` trials, these are the first `max` of them, with
    /// no round trip. Otherwise (the first fetch, a larger `max`, a short
    /// or empty batch, after a reconnect) it is an `Exchange` that reports
    /// nothing: one request frame out, one reply frame back, which serves
    /// this client's unreported trials first — the kept ones among them —
    /// then fresh ones.
    pub fn fetch_batch(&mut self, max: usize) -> Result<(Vec<FetchedTrial>, bool)> {
        self.fetch_shaped(max, |trials, finished| Ok((trials, finished)))
    }

    /// [`fetch_batch`](Self::fetch_batch), with `shape` applied to the
    /// batch inside the retry loop.
    fn fetch_shaped<T>(
        &mut self,
        max: usize,
        shape: impl Fn(Vec<FetchedTrial>, bool) -> Result<T>,
    ) -> Result<T> {
        self.batch = max;
        let mut kept = std::mem::take(&mut self.prefetched);
        if max > 0 && kept.len() >= max {
            kept.truncate(max);
            return shape(kept, false);
        }
        self.observed_exchange(
            SpanKind::Fetch,
            Latency::FetchBatchRtt,
            Vec::new(),
            max,
            shape,
        )
    }

    /// Report measured costs for any subset of outstanding trials, and
    /// fetch the next batch in the same round trip (one frame each way): an
    /// `Exchange` asking for as many trials as the last
    /// [`fetch_batch`](Self::fetch_batch), which the next `fetch_batch`
    /// returns. Safe to retry: duplicates are dropped by iteration token on
    /// the server.
    pub fn report_batch(&mut self, reports: Vec<TrialReport>) -> Result<()> {
        self.prefetched.clear();
        let max = self.batch;
        self.prefetched = self.observed_exchange(
            SpanKind::Report,
            Latency::ReportBatchRtt,
            reports,
            max,
            |trials, _| Ok(trials),
        )?;
        Ok(())
    }

    /// Best `(configuration, cost)` so far.
    pub fn best(&mut self) -> Result<Option<(Configuration, f64)>> {
        self.call_retrying(&Request::QueryBest, |reply| match reply {
            Reply::Best { best } => Ok(best),
            _ => Err(HarmonyError::Protocol("unexpected reply".into())),
        })
    }

    /// The full evaluation history of the session, and whether it finished.
    pub fn history(&mut self) -> Result<(History, bool)> {
        self.call_retrying(&Request::QueryHistory, |reply| match reply {
            Reply::History { history, finished } => Ok((history, finished)),
            _ => Err(HarmonyError::Protocol(
                "unexpected reply to QueryHistory".into(),
            )),
        })
    }

    /// Refresh liveness during a long measurement (see
    /// [`ServerConfig::client_ttl`](super::ServerConfig::client_ttl)).
    pub fn heartbeat(&mut self) -> Result<()> {
        self.call_retrying(&Request::Heartbeat, |_| Ok(()))
    }

    /// Depart from the session, requeueing outstanding trials, the
    /// prefetched ones included, for the remaining members. When this
    /// client is the last member the session ends: the server frees it,
    /// returns its trials' in-flight quota to the tenant, and refuses a
    /// later [`attach`](Self::attach) to it. (Unless a member that lost its
    /// connection has not rejoined yet: then the session waits for it.)
    pub fn leave(&mut self) -> Result<()> {
        self.prefetched.clear();
        self.call_once(Request::Leave).map(|_| ())
    }

    /// Say goodbye (closes this connection only; the server front-end
    /// departs the client as for a dead connection, so the session stays
    /// open to an [`attach`](Self::attach)).
    pub fn close(mut self) {
        if let Some(conn) = self.conn.as_mut() {
            let _ = conn.call(&Request::Shutdown);
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    #[test]
    fn tcp_client_tunes_end_to_end() {
        let server = TcpHarmonyServer::bind("127.0.0.1:0").expect("bind");
        let telemetry = Telemetry::enabled();
        let opts = TcpClientOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let mut client =
            TcpHarmonyClient::connect_with(server.local_addr(), "tcp-app", opts).unwrap();
        client.add_param(Param::int("x", 0, 80, 1)).unwrap();
        client
            .seal(
                SessionOptions {
                    max_evaluations: 80,
                    seed: 5,
                    ..Default::default()
                },
                StrategyKind::NelderMead,
            )
            .unwrap();
        let mut reports = 0;
        loop {
            let (cfg, finished) = client.fetch().unwrap();
            if finished {
                break;
            }
            let x = cfg.int("x").unwrap() as f64;
            client.report((x - 33.0).powi(2)).unwrap();
            reports += 1;
        }
        // A serial client is as visible as a batching one: every round trip
        // is one sample and one closed span. Each report is an exchange that
        // brings the next trial back, so only two fetches leave the client:
        // the first, and the one that learns the session `finished`.
        assert_eq!(telemetry.histogram(Latency::FetchBatchRtt).count, 2);
        assert_eq!(telemetry.histogram(Latency::ReportBatchRtt).count, reports);
        let fetch_spans = telemetry
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Fetch)
            .count();
        assert_eq!(fetch_spans, 2);
        let (best, cost) = client.best().unwrap().unwrap();
        assert!(cost <= 4.0, "best {best} cost {cost}");
        assert!((best.int("x").unwrap() - 33).abs() <= 2);
        client.close();
        server.shutdown();
    }

    #[test]
    fn quota_refusal_over_tcp_is_typed_and_retryable() {
        let server = TcpHarmonyServer::bind_with(
            "127.0.0.1:0",
            DEFAULT_MAX_CONNECTIONS,
            crate::server::ServerConfig {
                tenant_max_sessions: Some(1),
                ..Default::default()
            },
        )
        .expect("bind");
        let opts = || TcpClientOptions {
            tenant: "team".into(),
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let mut first = TcpHarmonyClient::connect_with(server.local_addr(), "a", opts()).unwrap();
        // The refusal travels the wire as its own frame, not a generic
        // busy error, and classifies retryable for the backoff loop.
        let err = TcpHarmonyClient::connect_with(server.local_addr(), "b", opts()).unwrap_err();
        assert_eq!(
            err,
            HarmonyError::QuotaExceeded {
                tenant: "team".into()
            }
        );
        assert!(err.is_retryable(), "quota refusal must classify retryable");
        // Once the founding member departs, the slot frees immediately.
        first.leave().unwrap();
        let second = TcpHarmonyClient::connect_with(server.local_addr(), "c", opts());
        assert!(second.is_ok(), "{:?}", second.err());
        server.shutdown();
    }

    #[test]
    fn two_tcp_clients_tune_concurrently() {
        let server = TcpHarmonyServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let handles: Vec<_> = [(10i64, 1u64), (64, 2)]
            .into_iter()
            .map(|(target, seed)| {
                std::thread::spawn(move || {
                    let mut c = TcpHarmonyClient::connect(addr, "app").unwrap();
                    c.add_param(Param::int("x", 0, 100, 1)).unwrap();
                    c.seal(
                        SessionOptions {
                            max_evaluations: 60,
                            seed,
                            ..Default::default()
                        },
                        StrategyKind::NelderMead,
                    )
                    .unwrap();
                    loop {
                        let (cfg, finished) = c.fetch().unwrap();
                        if finished {
                            break;
                        }
                        let x = cfg.int("x").unwrap();
                        c.report(((x - target) as f64).abs()).unwrap();
                    }
                    let (cfg, _) = c.best().unwrap().unwrap();
                    cfg.int("x").unwrap()
                })
            })
            .collect();
        let results: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!((results[0] - 10).abs() <= 2, "{results:?}");
        assert!((results[1] - 64).abs() <= 2, "{results:?}");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_error_replies() {
        let server = TcpHarmonyServer::bind("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"this is not json\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let reply: Reply = serde_json::from_str(&line).unwrap();
        assert!(matches!(reply, Reply::Error { .. }), "{line}");
        server.shutdown();
    }

    #[test]
    fn non_finite_cost_over_the_wire_is_sanitized_not_best() {
        // Regression: the vendored serde_json refuses to *serialize* NaN or
        // infinity, but raw JSON like `1e999` happily *parses* to `+inf`,
        // so a buggy or hostile client can deliver a non-finite cost over
        // TCP. The server must clamp it at the protocol boundary: it may
        // never become the session's best or scramble the cost ordering.
        let telemetry = Telemetry::enabled();
        let server = TcpHarmonyServer::bind_with(
            "127.0.0.1:0",
            64,
            crate::server::ServerConfig {
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        )
        .expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut call = |frame: String| -> Reply {
            stream.write_all(frame.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            serde_json::from_str(&line).unwrap()
        };
        let frame = |req: &Request| serde_json::to_string(req).unwrap();

        let reply = call(frame(&Request::Register {
            app: "nan".into(),
            tenant: String::new(),
        }));
        assert!(matches!(reply, Reply::Registered { .. }), "{reply:?}");
        call(frame(&Request::AddParam {
            param: Param::int("x", 0, 10, 1),
        }));
        call(frame(&Request::Seal {
            options: SessionOptions {
                max_evaluations: 4,
                seed: 5,
                ..Default::default()
            },
            strategy: StrategyKind::Random,
        }));
        let fetch = Request::Exchange {
            reports: Vec::new(),
            max: 4,
        };
        let Reply::Configs { trials, .. } = call(frame(&fetch)) else {
            panic!("expected Configs");
        };
        assert_eq!(trials.len(), 4);
        // First trial reports `1e999` (parses to +inf — a stand-in for any
        // non-finite measurement); the rest report finite costs.
        let poisoned = trials[0].iteration;
        call(format!(
            "{{\"Exchange\":{{\"reports\":[{{\"iteration\":{poisoned},\
             \"cost\":1e999,\"wall_time\":0.0}}],\"max\":0}}}}"
        ));
        let reports: Vec<String> = trials[1..]
            .iter()
            .map(|t| {
                format!(
                    "{{\"iteration\":{},\"cost\":{}.0,\"wall_time\":0.0}}",
                    t.iteration,
                    t.iteration + 2
                )
            })
            .collect();
        call(format!(
            "{{\"Exchange\":{{\"reports\":[{}],\"max\":0}}}}",
            reports.join(",")
        ));
        let Reply::Best { best } = call(frame(&Request::QueryBest)) else {
            panic!("expected Best");
        };
        let (_, cost) = best.expect("four evaluations happened");
        assert!(
            cost.is_finite(),
            "non-finite report leaked into best: {cost}"
        );
        assert_eq!(
            telemetry.counter(Counter::NonFiniteCostsSanitized),
            1,
            "the clamp must be counted exactly once"
        );
        server.shutdown();
    }

    #[test]
    fn oversized_fetch_batch_is_clamped_not_an_overflow() {
        // `max` arrives unchecked off the wire. Unclamped, this frame
        // overflows the session's `max + max_cached_replays` queue bound:
        // a debug build panics the thread serving it, and the loop thread's
        // other connections go down with it.
        let server =
            TcpHarmonyServer::bind_with("127.0.0.1:0", 64, crate::server::ServerConfig::default())
                .expect("bind");
        // The deadline turns a dead server into a failed read, not a hang.
        let opts = TcpClientOptions {
            io_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        };
        let mut client =
            TcpHarmonyClient::connect_with(server.local_addr(), "greedy", opts).unwrap();
        client.add_param(Param::int("x", 0, 1_000_000, 1)).unwrap();
        let clamp = crate::server::MAX_SERVED_PER_REQUEST;
        client
            .seal(
                SessionOptions {
                    max_evaluations: 4 * clamp,
                    ..Default::default()
                },
                StrategyKind::Random,
            )
            .unwrap();
        let conn = client.conn.as_mut().expect("connected");
        conn.writer
            .write_all(b"{\"Exchange\":{\"reports\":[],\"max\":18446744073709551615}}\n")
            .unwrap();
        conn.writer.flush().unwrap();
        let mut line = String::new();
        conn.reader.read_line(&mut line).unwrap();
        let Reply::Configs { trials, finished } = serde_json::from_str(&line).unwrap() else {
            panic!("expected Configs, got {line}");
        };
        assert!(!finished);
        assert_eq!(trials.len(), clamp);
        // The server is still serving.
        let second = TcpHarmonyClient::connect(server.local_addr(), "after");
        assert!(second.is_ok(), "{:?}", second.err());
        server.shutdown();
    }

    #[test]
    fn client_shutdown_does_not_kill_the_server() {
        let server = TcpHarmonyServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let c1 = TcpHarmonyClient::connect(addr, "a").unwrap();
        c1.close();
        // A new client can still connect and work.
        let mut c2 = TcpHarmonyClient::connect(addr, "b").unwrap();
        c2.add_param(Param::int("x", 0, 4, 1)).unwrap();
        c2.seal(SessionOptions::default(), StrategyKind::Random)
            .unwrap();
        let (cfg, _) = c2.fetch().unwrap();
        assert!(cfg.int("x").is_some());
        server.shutdown();
    }

    #[test]
    fn over_limit_connections_are_refused_with_an_error() {
        let server = TcpHarmonyServer::bind_with_limit("127.0.0.1:0", 1).expect("bind");
        let addr = server.local_addr();
        // First connection occupies the single slot.
        let c1 = TcpHarmonyClient::connect(addr, "a").unwrap();
        // Second one must be told off, not silently dropped.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"Register\":{\"app\":\"b\"}}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let reply: Reply = serde_json::from_str(&line).unwrap();
        match reply {
            Reply::Error { message, retryable } => {
                assert!(
                    message.contains("connection capacity"),
                    "unexpected refusal message: {message}"
                );
                assert!(retryable, "capacity refusal must be marked retryable");
            }
            other => panic!("expected refusal error, got {other:?}"),
        }
        drop(reader);
        // Releasing the first slot lets new connections in again.
        c1.close();
        for _ in 0..50 {
            if TcpHarmonyClient::connect(addr, "c").is_ok() {
                server.shutdown();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        panic!("slot was not released after client close");
    }

    #[test]
    fn refused_connect_surfaces_server_busy_not_eof() {
        // The regression this guards: the refusal used to be written before
        // the client's request was read, so the client's in-flight write
        // triggered an RST that discarded the error frame and the client
        // saw a bare EOF (`Disconnected`). It must see the typed, retryable
        // capacity error instead.
        let server = TcpHarmonyServer::bind_with_limit("127.0.0.1:0", 1).expect("bind");
        let addr = server.local_addr();
        let _c1 = TcpHarmonyClient::connect(addr, "a").unwrap();
        let err = TcpHarmonyClient::connect_with(
            addr,
            "b",
            TcpClientOptions {
                retry: RetryPolicy::none(),
                ..Default::default()
            },
        )
        .unwrap_err();
        match err {
            HarmonyError::ServerBusy(msg) => {
                assert!(msg.contains("connection capacity"), "{msg}")
            }
            other => panic!("expected ServerBusy, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn dropped_connection_rejoins_via_attach_and_inherits_trials() {
        let server = TcpHarmonyServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let mut c1 = TcpHarmonyClient::connect(addr, "crashy").unwrap();
        c1.add_param(Param::int("x", 0, 100, 1)).unwrap();
        c1.seal(
            SessionOptions {
                max_evaluations: 6,
                seed: 8,
                ..Default::default()
            },
            StrategyKind::Random,
        )
        .unwrap();
        let session = c1.session_id();
        let (held, _) = c1.fetch_batch(3).unwrap();
        assert_eq!(held.len(), 3);
        // Simulate a crash: the socket dies without a goodbye. The server
        // front-end departs the client, requeueing the 3 held trials.
        drop(c1);
        let mut c2 = TcpHarmonyClient::attach(addr, session).unwrap();
        // The departure is processed asynchronously after the EOF; poll until
        // the requeued trials are served to the new incarnation.
        let mut inherited = Vec::new();
        for _ in 0..100 {
            let (trials, _) = c2.fetch_batch(3).unwrap();
            inherited = trials;
            if inherited.len() == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let held_iters: Vec<usize> = held.iter().map(|t| t.iteration).collect();
        let got_iters: Vec<usize> = inherited.iter().map(|t| t.iteration).collect();
        assert_eq!(got_iters, held_iters);
        // And the session completes normally from here.
        loop {
            let (trials, finished) = c2.fetch_batch(8).unwrap();
            if finished {
                break;
            }
            let reports = trials
                .iter()
                .map(|t| TrialReport {
                    iteration: t.iteration,
                    cost: t.config.int("x").unwrap() as f64,
                    wall_time: 0.0,
                })
                .collect();
            c2.report_batch(reports).unwrap();
        }
        let (h, finished) = c2.history().unwrap();
        assert!(finished);
        assert_eq!(h.evaluations().iter().filter(|e| !e.cached).count(), 6);
        c2.close();
        server.shutdown();
    }

    /// A server under `config`, and a client (with `opts`) that founded a
    /// sealed `strategy` session over `x` with `max_evaluations`.
    fn sealed(
        config: crate::server::ServerConfig,
        opts: TcpClientOptions,
        strategy: StrategyKind,
        max_evaluations: usize,
    ) -> (TcpHarmonyServer, TcpHarmonyClient) {
        let server = TcpHarmonyServer::bind_with("127.0.0.1:0", 64, config).expect("bind");
        let mut client = TcpHarmonyClient::connect_with(server.local_addr(), "x", opts).unwrap();
        client.add_param(Param::int("x", 0, 1_000_000, 1)).unwrap();
        let options = SessionOptions {
            max_evaluations,
            seed: 17,
            ..Default::default()
        };
        client.seal(options, strategy).unwrap();
        (server, client)
    }

    fn held(client: &TcpHarmonyClient) -> usize {
        let trial = client.prefetched.first();
        trial.expect("the exchange brought a trial back").iteration
    }

    #[test]
    fn exchange_makes_the_next_fetch_a_local_one() {
        let telemetry = Telemetry::enabled();
        let opts = TcpClientOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let (server, mut client) = sealed(Default::default(), opts, StrategyKind::Random, 20);
        let fetches = || telemetry.histogram(Latency::FetchBatchRtt).count;
        client.fetch().unwrap();
        client.report(1.0).unwrap();
        let next = held(&client);
        assert_eq!(fetches(), 1);
        let (first, finished) = client.fetch().unwrap();
        assert!(!finished);
        assert_eq!(client.last_fetch, Some(next));
        assert_eq!(fetches(), 1, "the held trial needs no round trip");
        // A second fetch before reporting asks the server, which serves the
        // client's unreported trial again.
        let (second, _) = client.fetch().unwrap();
        assert_eq!(second, first);
        assert_eq!(client.last_fetch, Some(next));
        assert_eq!(fetches(), 2);
        server.shutdown();
    }

    #[test]
    fn exchange_refused_by_the_quota_leaves_the_next_fetch_to_meet_it() {
        let config = crate::server::ServerConfig {
            tenant_max_inflight: Some(1),
            ..Default::default()
        };
        let opts = TcpClientOptions {
            tenant: "team".into(),
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let (server, mut client) = sealed(config, opts, StrategyKind::Random, 20);
        client.fetch().unwrap();
        // Stands in for another session of the tenant taking the slot the
        // report frees before this session's top-up reserves it (see the
        // server's test of the same rule).
        let stats = server.inproc().config().tenants.stats("team");
        stats.inflight.fetch_add(1, Ordering::Relaxed);
        client.report(1.0).unwrap();
        assert!(client.prefetched.is_empty());
        assert_eq!(client.history().unwrap().0.len(), 1, "the report counted");
        let quota = HarmonyError::QuotaExceeded {
            tenant: "team".into(),
        };
        assert_eq!(client.fetch().unwrap_err(), quota);
        stats.inflight.fetch_sub(1, Ordering::Relaxed);
        assert!(!client.fetch().unwrap().1);
        server.shutdown();
    }

    #[test]
    fn exchange_held_by_a_leaving_member_is_requeued() {
        let (server, mut founder) = sealed(
            Default::default(),
            Default::default(),
            StrategyKind::Random,
            20,
        );
        let mut worker =
            TcpHarmonyClient::attach(server.local_addr(), founder.session_id()).unwrap();
        worker.fetch().unwrap();
        worker.report(1.0).unwrap();
        let prefetched = held(&worker);
        worker.leave().unwrap();
        assert!(worker.prefetched.is_empty());
        let (claimed, finished) = founder.fetch_batch(1).unwrap();
        assert!(!finished);
        let iterations: Vec<usize> = claimed.iter().map(|t| t.iteration).collect();
        assert_eq!(iterations, vec![prefetched]);
        server.shutdown();
    }

    #[test]
    fn exchange_that_finishes_leaves_the_best_to_the_next_fetch() {
        let (server, mut client) = sealed(
            Default::default(),
            Default::default(),
            StrategyKind::Random,
            3,
        );
        for cost in [3.0, 1.0, 2.0] {
            let (_, finished) = client.fetch().unwrap();
            assert!(!finished);
            client.report(cost).unwrap();
        }
        assert!(client.prefetched.is_empty());
        let (config, finished) = client.fetch().unwrap();
        assert!(finished);
        let (best, cost) = client.best().unwrap().expect("three evaluations");
        assert_eq!((config, cost), (best, 1.0));
        server.shutdown();
    }

    /// The serial loop of either client, so that one test holds both to
    /// the same answers.
    pub(crate) trait Serial {
        fn fetch_one(&mut self) -> Result<(Configuration, bool)>;
        fn report_one(&mut self, cost: f64) -> Result<()>;
        fn best_config(&mut self) -> Configuration;
    }

    impl Serial for crate::server::HarmonyClient {
        fn fetch_one(&mut self) -> Result<(Configuration, bool)> {
            self.fetch().map(|f| (f.config, f.finished))
        }
        fn report_one(&mut self, cost: f64) -> Result<()> {
            self.report(cost)
        }
        fn best_config(&mut self) -> Configuration {
            self.best().unwrap().expect("evaluated").0
        }
    }

    impl Serial for TcpHarmonyClient {
        fn fetch_one(&mut self) -> Result<(Configuration, bool)> {
            self.fetch()
        }
        fn report_one(&mut self, cost: f64) -> Result<()> {
            self.report(cost)
        }
        fn best_config(&mut self) -> Configuration {
            self.best().unwrap().expect("evaluated").0
        }
    }

    /// A session's founder, an attached worker, and their tenant.
    pub(crate) type Pair = (Box<dyn Serial>, Box<dyn Serial>, &'static str);

    /// The [`Pair`] of one sealed session over `n` on `server`: in process
    /// under tenant `inproc`, then over TCP under tenant `tcp`, whose
    /// clients retry nothing, so that a refusal comes back as it is.
    pub(crate) fn serial_pairs(
        server: &TcpHarmonyServer,
        options: SessionOptions,
        strategy: StrategyKind,
    ) -> Vec<Pair> {
        let n = || Param::int("n", 0, 100, 1);
        let inproc = server.inproc();
        let founder = inproc.connect_as("serial", "inproc").unwrap();
        founder.add_param(n()).unwrap();
        founder.seal(options.clone(), strategy.clone()).unwrap();
        let worker = inproc.attach_as(founder.session_id(), "inproc").unwrap();
        let opts = || TcpClientOptions {
            tenant: "tcp".into(),
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let addr = server.local_addr();
        let mut tcp = TcpHarmonyClient::connect_with(addr, "serial", opts()).unwrap();
        tcp.add_param(n()).unwrap();
        tcp.seal(options, strategy).unwrap();
        let tcp_worker = TcpHarmonyClient::attach_with(addr, tcp.session_id(), opts()).unwrap();
        vec![
            (Box::new(founder), Box::new(worker), "inproc"),
            (Box::new(tcp), Box::new(tcp_worker), "tcp"),
        ]
    }

    #[test]
    fn exchange_serial_answers_agree_over_both_clients() {
        // A fetch that needs a fresh trial while the founder holds the
        // tenant's one is the typed quota refusal, counted. The busy,
        // finished and late-report answers are `server::tests::serial_*`.
        let telemetry = Telemetry::enabled();
        let config = crate::server::ServerConfig {
            tenant_max_inflight: Some(1),
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let server = TcpHarmonyServer::bind_with("127.0.0.1:0", 64, config).expect("bind");
        let options = SessionOptions {
            max_evaluations: 12,
            seed: 3,
            ..Default::default()
        };
        let pairs = serial_pairs(&server, options, StrategyKind::Random);
        for (refusals, (mut founder, mut worker, tenant)) in (1..).zip(pairs) {
            assert!(!founder.fetch_one().unwrap().1, "{tenant}");
            let quota = HarmonyError::QuotaExceeded {
                tenant: tenant.into(),
            };
            assert_eq!(worker.fetch_one().unwrap_err(), quota);
            assert_eq!(telemetry.counter(Counter::QuotaRefusals), refusals);
            let stats = server.inproc().config().tenants.stats(tenant);
            let counted = &stats.metrics[crate::telemetry::TenantMetric::QuotaRefusals.idx()];
            assert_eq!(counted.load(Ordering::Relaxed), 1, "{tenant}");
        }
        server.shutdown();
    }

    #[test]
    fn exchange_held_trial_is_forgotten_on_a_reconnect() {
        let telemetry = Telemetry::enabled();
        let opts = TcpClientOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let (server, mut client) = sealed(Default::default(), opts, StrategyKind::NelderMead, 20);
        client.fetch().unwrap();
        client.report(1.0).unwrap();
        let prefetched = held(&client);
        // The socket dies; the next call reconnects under a new client id.
        let old_id = client.id();
        client.conn = None;
        client.heartbeat().unwrap();
        assert_ne!(client.id(), old_id);
        assert!(client.prefetched.is_empty());
        // The dead connection's departure requeues the held trial. Nelder–Mead
        // proposes nothing else meanwhile, so until then a fetch is busy.
        let fetches = telemetry.histogram(Latency::FetchBatchRtt).count;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.fetch() {
                Ok(_) => break,
                Err(HarmonyError::ServerBusy(_)) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(client.last_fetch, Some(prefetched));
        assert!(telemetry.histogram(Latency::FetchBatchRtt).count > fetches);
        server.shutdown();
    }

    /// Report every trial of `trials` at cost `x`, the batch's iterations.
    fn report_all(client: &mut TcpHarmonyClient, trials: &[FetchedTrial]) -> Vec<usize> {
        let reports = trials
            .iter()
            .map(|t| TrialReport {
                iteration: t.iteration,
                cost: t.config.int("x").unwrap() as f64,
                wall_time: 0.0,
            })
            .collect();
        client.report_batch(reports).unwrap();
        trials.iter().map(|t| t.iteration).collect()
    }

    #[test]
    fn exchange_batch_session_makes_one_fetch_and_an_exchange_per_batch() {
        let telemetry = Telemetry::enabled();
        let opts = TcpClientOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let (server, mut client) = sealed(Default::default(), opts, StrategyKind::Random, 1_000);
        let mut proposed = Vec::new();
        for _ in 0..25 {
            let (trials, finished) = client.fetch_batch(16).unwrap();
            assert!(!finished);
            assert_eq!(trials.len(), 16);
            report_all(&mut client, &trials);
            proposed.extend(trials.into_iter().map(|t| t.config));
        }
        // 400 trials: the first batch is fetched, every other one comes
        // back with the report of the batch before it.
        assert_eq!(telemetry.histogram(Latency::FetchBatchRtt).count, 1);
        assert_eq!(telemetry.histogram(Latency::ReportBatchRtt).count, 25);
        assert_eq!(client.prefetched.len(), 16, "the last exchange's batch");
        // The same session, fetched and reported one trial at a time in
        // process, proposes the same 400 configurations.
        let inproc = crate::server::HarmonyServer::start();
        let serial = inproc.connect("x").unwrap();
        serial.add_param(Param::int("x", 0, 1_000_000, 1)).unwrap();
        let options = SessionOptions {
            max_evaluations: 1_000,
            seed: 17,
            ..Default::default()
        };
        serial.seal(options, StrategyKind::Random).unwrap();
        let expected: Vec<Configuration> = (0..400)
            .map(|_| {
                let fetched = serial.fetch().unwrap();
                serial
                    .report(fetched.config.int("x").unwrap() as f64)
                    .unwrap();
                fetched.config
            })
            .collect();
        assert_eq!(proposed, expected);
        server.shutdown();
    }

    #[test]
    fn exchange_batch_kept_is_served_again_after_a_reconnect() {
        let telemetry = Telemetry::enabled();
        let opts = TcpClientOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let (server, mut client) = sealed(Default::default(), opts, StrategyKind::Random, 100);
        let (trials, _) = client.fetch_batch(8).unwrap();
        report_all(&mut client, &trials);
        let kept: Vec<usize> = client.prefetched.iter().map(|t| t.iteration).collect();
        assert_eq!(kept.len(), 8);
        // The socket dies; the next call reconnects under a new client id
        // and forgets the kept batch, which the dead connection's departure
        // requeues.
        client.conn = None;
        client.heartbeat().unwrap();
        assert!(client.prefetched.is_empty());
        await_members(&server, 1);
        let fetches = telemetry.histogram(Latency::FetchBatchRtt).count;
        let (again, finished) = client.fetch_batch(8).unwrap();
        assert!(!finished);
        assert_eq!(
            telemetry.histogram(Latency::FetchBatchRtt).count,
            fetches + 1
        );
        let again: Vec<usize> = again.iter().map(|t| t.iteration).collect();
        assert_eq!(again, kept);
        server.shutdown();
    }

    #[test]
    fn exchange_batch_kept_by_a_leaving_member_is_requeued() {
        let (server, mut founder) = sealed(
            Default::default(),
            Default::default(),
            StrategyKind::Random,
            100,
        );
        let mut worker =
            TcpHarmonyClient::attach(server.local_addr(), founder.session_id()).unwrap();
        let (trials, _) = worker.fetch_batch(8).unwrap();
        report_all(&mut worker, &trials);
        let kept: Vec<usize> = worker.prefetched.iter().map(|t| t.iteration).collect();
        assert_eq!(kept.len(), 8);
        worker.leave().unwrap();
        assert!(worker.prefetched.is_empty());
        let (claimed, finished) = founder.fetch_batch(8).unwrap();
        assert!(!finished);
        let claimed: Vec<usize> = claimed.iter().map(|t| t.iteration).collect();
        assert_eq!(claimed, kept);
        server.shutdown();
    }

    #[test]
    fn exchange_batch_larger_fetch_gets_the_kept_trials_then_fresh_ones() {
        let telemetry = Telemetry::enabled();
        let opts = TcpClientOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let (server, mut client) = sealed(Default::default(), opts, StrategyKind::Random, 100);
        let (trials, _) = client.fetch_batch(4).unwrap();
        let reported = report_all(&mut client, &trials);
        let kept: Vec<usize> = client.prefetched.iter().map(|t| t.iteration).collect();
        assert_eq!(kept.len(), 4);
        let (trials, finished) = client.fetch_batch(8).unwrap();
        assert!(!finished);
        assert_eq!(telemetry.histogram(Latency::FetchBatchRtt).count, 2);
        let got: Vec<usize> = trials.iter().map(|t| t.iteration).collect();
        assert_eq!(got[..4], kept[..]);
        let high = reported.iter().chain(&kept).max().copied().unwrap();
        assert!(got[4..].iter().all(|&i| i > high), "{got:?} after {high}");
        assert_eq!(got.len(), 8);
        // A smaller fetch after the next exchange is answered locally.
        report_all(&mut client, &trials);
        let (local, _) = client.fetch_batch(3).unwrap();
        assert_eq!(local.len(), 3);
        assert_eq!(telemetry.histogram(Latency::FetchBatchRtt).count, 2);
        server.shutdown();
    }

    #[test]
    fn batched_fetch_report_works_over_tcp() {
        let server = TcpHarmonyServer::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpHarmonyClient::connect(server.local_addr(), "batch-app").unwrap();
        client.add_param(Param::int("x", 0, 50, 1)).unwrap();
        client.add_param(Param::int("y", 0, 50, 1)).unwrap();
        client
            .seal(
                SessionOptions {
                    max_evaluations: 120,
                    seed: 9,
                    ..Default::default()
                },
                StrategyKind::Pro,
            )
            .unwrap();
        loop {
            let (trials, finished) = client.fetch_batch(32).unwrap();
            if finished {
                break;
            }
            assert!(!trials.is_empty());
            let reports = trials
                .iter()
                .map(|t| {
                    let x = t.config.int("x").unwrap() as f64;
                    let y = t.config.int("y").unwrap() as f64;
                    let cost = (x - 40.0).powi(2) + (y - 8.0).powi(2);
                    TrialReport {
                        iteration: t.iteration,
                        cost,
                        wall_time: cost,
                    }
                })
                .collect();
            client.report_batch(reports).unwrap();
        }
        let (best, cost) = client.best().unwrap().unwrap();
        assert!(cost <= 25.0, "best {best} cost {cost}");
        client.close();
        server.shutdown();
    }

    fn team_client(server: &TcpHarmonyServer) -> TcpHarmonyClient {
        let opts = TcpClientOptions {
            tenant: "team".into(),
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let mut client = TcpHarmonyClient::connect_with(server.local_addr(), "x", opts).unwrap();
        client.add_param(Param::int("x", 0, 1_000_000, 1)).unwrap();
        let options = SessionOptions {
            max_evaluations: 20,
            seed: 17,
            ..Default::default()
        };
        client.seal(options, StrategyKind::Random).unwrap();
        client
    }

    /// The team's `(sessions, inflight)` row.
    fn holdings(server: &TcpHarmonyServer) -> (u64, u64) {
        let stats = server.inproc().config().tenants.stats("team");
        let load = |n: &std::sync::atomic::AtomicU64| n.load(Ordering::Relaxed);
        (load(&stats.sessions), load(&stats.inflight))
    }

    /// Spin until the server has `n` members, for at most ten seconds.
    fn await_members(server: &TcpHarmonyServer, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.inproc().client_count() != n {
            assert!(Instant::now() < deadline, "waiting for {n} members");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn exchange_client_that_leaves_returns_its_tenants_inflight_quota() {
        let config = crate::server::ServerConfig {
            tenant_max_inflight: Some(2),
            ..Default::default()
        };
        let server = TcpHarmonyServer::bind_with("127.0.0.1:0", 64, config).expect("bind");
        for _ in 0..3 {
            let mut client = team_client(&server);
            for _ in 0..3 {
                client.fetch().unwrap();
                client.report(1.0).unwrap();
            }
            // The last report brought the next trial back with it.
            held(&client);
            client.leave().unwrap();
        }
        assert_eq!(holdings(&server), (0, 0));
        server.shutdown();
    }

    #[test]
    fn lifecycle_a_last_explicit_leave_over_tcp_ends_the_session() {
        let server = TcpHarmonyServer::bind_with("127.0.0.1:0", 64, Default::default()).unwrap();
        let observe = server.observe("127.0.0.1:0").unwrap();
        let mut client = team_client(&server);
        client.fetch().unwrap();
        client.report(1.0).unwrap();
        assert_eq!(holdings(&server), (1, 1));
        client.leave().unwrap();
        assert_eq!(holdings(&server), (0, 0));
        let err = TcpHarmonyClient::attach(server.local_addr(), client.session_id()).unwrap_err();
        assert!(err.to_string().contains("unknown session"), "{err}");
        let addr = observe.addr().to_string();
        let (code, body) = super::super::observe::http_get(&addr, "/status").unwrap();
        assert_eq!(code, 200);
        let doc = serde_json::parse(&body).unwrap();
        let sessions = doc.get("sessions").and_then(|v| v.as_array()).unwrap();
        assert!(sessions.is_empty(), "{body}");
        observe.stop();
        server.shutdown();
    }

    #[test]
    fn lifecycle_a_dead_socket_leaves_the_session_revivable() {
        let server = TcpHarmonyServer::bind_with("127.0.0.1:0", 64, Default::default()).unwrap();
        let mut client = team_client(&server);
        client.fetch().unwrap();
        client.report(1.0).unwrap();
        let (session, prefetched) = (client.session_id(), held(&client));
        drop(client);
        // The event loop has reaped the socket before anyone rejoins.
        await_members(&server, 0);
        assert_eq!(holdings(&server), (0, 1));
        let mut rejoined = TcpHarmonyClient::attach(server.local_addr(), session).unwrap();
        let (inherited, _) = rejoined.fetch_batch(1).unwrap();
        assert_eq!(inherited[0].iteration, prefetched);
        server.shutdown();
    }

    #[test]
    fn lifecycle_a_crashed_worker_and_the_founders_leave_keep_the_session_for_the_worker() {
        let server = TcpHarmonyServer::bind_with("127.0.0.1:0", 64, Default::default()).unwrap();
        let mut founder = team_client(&server);
        let session = founder.session_id();
        let mut worker = TcpHarmonyClient::attach(server.local_addr(), session).unwrap();
        worker.fetch().unwrap();
        worker.report(1.0).unwrap();
        let prefetched = held(&worker);
        drop(worker);
        await_members(&server, 1);
        founder.leave().unwrap();
        assert_eq!(holdings(&server), (0, 1));
        let mut rejoined = TcpHarmonyClient::attach(server.local_addr(), session).unwrap();
        let (inherited, _) = rejoined.fetch_batch(1).unwrap();
        assert_eq!(inherited[0].iteration, prefetched);
        // The rejoin matched the crash, so this goodbye ends the session.
        rejoined.leave().unwrap();
        assert_eq!(holdings(&server), (0, 0));
        let err = TcpHarmonyClient::attach(server.local_addr(), session).unwrap_err();
        assert!(err.to_string().contains("unknown session"), "{err}");
        server.shutdown();
    }
}
