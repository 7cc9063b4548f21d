//! The Harmony tuning server (paper Figure 1).
//!
//! The server hosts the *adaptation controller*: it manages the tunable
//! parameters registered by one or more client applications and steers their
//! values with a search strategy. Applications talk to the server through
//! the small message [`protocol`]; every message type is serde-serializable,
//! so the in-process client and the TCP front-end carry the same requests.
//!
//! Multiple clients may tune concurrently and independently — the paper's
//! Active Harmony "tries to coordinate the use of resources by multiple
//! libraries and applications". Sessions share no tuning state, so each
//! session is its own lock and independent clients never serialize behind
//! one another.
//!
//! # Who executes a request
//!
//! Every request enters through one function, `ServerBus::dispatch`, and is
//! served by the thread that called it — the application thread of an
//! in-process client, or the event-loop thread of a TCP connection — which
//! gets the reply back as the return value. There is no server thread, no
//! channel and no completion queue.
//!
//! Each session lives in a *cell*, `Arc<Mutex<SessionState>>`. One table
//! (`Table`, behind a read-write lock) maps session ids and member client
//! ids to cells. A request takes the read lock only to clone its cell's
//! `Arc`, then locks the cell and is served there: tenant accounting, the
//! `session_wait` sample, the `session_serve` span, `handle`. Requests of
//! different sessions never wait for each other. Requests of one session —
//! its members, all of one tenant — take turns at its cell, and since
//! reports apply in proposal order, their order cannot move the search
//! trajectory. Membership changes (`Register`, `Attach`, `Leave`, a dead
//! connection, a TTL eviction) take the table's write lock briefly, after
//! the cell's.
//!
//! `session_wait` (and a tenant's `session_wait_us`) is the wait for a
//! session's cell, and a `session_serve` span (track `session`, id = the
//! session id) is the service of one request on it.
//!
//! # Sessions, members, and fault tolerance
//!
//! A `Register` founds a *session* (one search space, one strategy) whose id
//! equals the founding client's id. Further connections may [`Request::Attach`]
//! to that session as additional *members*: they share the outstanding-trial
//! queue, so a PRO round can be measured by a worker pool, and a worker that
//! crashed can rejoin under a fresh client id. Every outstanding trial
//! records its owner and issue time; a trial is *requeued* (made claimable
//! by any member) when its owner leaves, is evicted for missing its
//! [`ServerConfig::client_ttl`], or holds the trial past
//! [`ServerConfig::trial_deadline`]. Because [`TuningSession`] applies
//! reports strictly in proposal order and costs are functions of the
//! configuration alone, requeue + re-measure cannot perturb the search
//! trajectory: the history stays bit-identical to a fault-free serial run.
//!
//! A session ends when its last member sends [`Request::Leave`]: its
//! outstanding trials stop counting against the tenant's in-flight quota,
//! it is removed from the table, and a later `Attach` to it is refused as
//! an unknown session. A member can also depart without a `Leave` — its
//! connection dies (the event loop's reap), or it misses its TTL — and
//! such a member may come back. So each of those departures is counted,
//! an `Attach` matches one, and while any is unmatched the last explicit
//! `Leave` leaves the session in the table, memberless, for the rejoin to
//! revive. A session whose last member departed without a `Leave` stays
//! the same way.
//!
//! # One fetch path, one report path
//!
//! The on-line conversation — fetch a configuration, run it, report the
//! time — has three request shapes and two rules, each in one function.
//! The fetch rule (`Tuning::top_up`) serves the caller's own unreported
//! trials first (so a re-fetch after a lost reply converges), then claims
//! requeued trials, then tops up with fresh proposals under the tenant's
//! in-flight quota, answering store-known proposals server-side on the
//! way. The report rule (`Tuning::apply_reports`) matches results to
//! trials by iteration token, sanitises non-finite measurements, applies
//! them, and appends them to the store in one write. `FetchBatch` is the
//! fetch rule and `ReportBatch` the report rule; `Exchange` is the report
//! rule then the fetch rule, in one session visit, which is how a serial TCP
//! client spends one round trip per trial. A serial `Fetch` is a
//! `FetchBatch` of one and a serial `Report` is a one-entry `ReportBatch`
//! for the caller's oldest outstanding trial; only the reply is reshaped
//! (`Config` instead of `Configs`, the best configuration once finished, a
//! retryable busy error while another member holds the round).
//!
//! # Tenancy and federation
//!
//! A `Register` may carry a *tenant* label (empty means the `"default"`
//! tenant); the session it founds, and every member that later attaches to
//! it, belongs to that tenant for accounting and quotas alike — the
//! session is the only record of who belongs where. Two tenants never
//! share a session, so no request ever waits behind another tenant's;
//! across connections, the event loop serves one request per connection
//! per pass, so a thousand-client swarm from one team cannot starve
//! another team's two-client session.
//! [`ServerConfig::tenant_max_sessions`] /
//! [`ServerConfig::tenant_max_inflight`] bound what any one tenant can hold
//! open — refusals are the typed [`Reply::QuotaExceeded`], which clients
//! treat as retryable backpressure. Per-tenant accounting is relaxed atomics
//! on the tenant's [`TenantStats`], which a request already holds, so it
//! takes no lock; the observability plane reads the shared
//! [`TenantRegistry`] for `/status` and `/metrics`.
//!
//! Servers federate through their performance stores: with
//! [`ServerConfig::sync_peers`] set, the server's `chores` thread
//! periodically pulls each peer's log file, as its bytes, over the observer
//! HTTP plane (`GET /store/log?at=B`, from a byte mark) and merges it into
//! the local store, line by line through the store's own reader, under the
//! algebra of [`crate::store::PerfStore::merge_from`] (first write wins, so
//! the pull is idempotent and peers may sync each other in any order). Merged
//! records feed the same read-through cache as local measurements, which is
//! what makes fleet-wide warm starts work: a server can answer a
//! configuration it never measured itself.

mod chores;
pub mod client;
pub mod event_loop;
pub mod observe;
pub mod poll;
pub mod protocol;
pub mod tcp;

pub use client::HarmonyClient;
pub use event_loop::EventLoopConfig;
pub use observe::ObserveHandle;
pub use tcp::{TcpClientOptions, TcpHarmonyClient, TcpHarmonyServer, TcpTransport};

use crate::error::{HarmonyError, Result};
use crate::lock;
use crate::session::{Trial, TuningSession};
use crate::space::SearchSpaceBuilder;
use crate::store::{space_fingerprint, PerfStore, RecordView, SharedStore};
use crate::telemetry::slo::SloRule;
use crate::telemetry::timeseries::TimeSeries;
use crate::telemetry::{
    Counter, Latency, SpanKind, Telemetry, TenantMetric, TenantRow, TrialStage, MAX_TENANT_LABELS,
    TENANT_METRIC_COUNT, TENANT_OVERFLOW_LABEL,
};
use chores::Chores;
use protocol::{sanitize_measurement, FetchedTrial, Reply, Request, TrialReport};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// The tenant label members get when they declare none.
pub(crate) const DEFAULT_TENANT: &str = "default";

/// Map an empty (wire-default) tenant label to [`DEFAULT_TENANT`].
fn canonical_tenant(tenant: &str) -> &str {
    if tenant.is_empty() {
        DEFAULT_TENANT
    } else {
        tenant
    }
}

/// Live accounting for one tenant, shared between its sessions, quota
/// checks, and the observability plane. All counters are relaxed: they
/// gate quotas and feed the observe plane, neither of which needs ordering.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Sessions with at least one live member.
    pub sessions: AtomicU64,
    /// Fetched-but-unreported trials across the tenant's sessions.
    pub inflight: AtomicU64,
    /// Requests served to completion since the server started.
    pub served: AtomicU64,
    /// One counter per [`TenantMetric`].
    metrics: [AtomicU64; TENANT_METRIC_COUNT],
}

impl TenantStats {
    fn add(&self, metric: TenantMetric, n: u64) {
        self.metrics[metric.idx()].fetch_add(n, Ordering::Relaxed);
    }
}

/// Registry of per-tenant stats, shared by the sessions, the server's
/// configuration and the observability plane. The mutex guards only the
/// map of names to arrival order and stats; the stats are lock-free atomics.
#[derive(Debug, Clone, Default)]
pub struct TenantRegistry {
    inner: Arc<Mutex<Tenants>>,
}

type Tenants = HashMap<String, (usize, Arc<TenantStats>)>;

impl TenantRegistry {
    /// The stats cell for `tenant`, created on first use.
    pub fn stats(&self, tenant: &str) -> Arc<TenantStats> {
        let mut map = lock(&self.inner);
        if let Some((_, stats)) = map.get(tenant) {
            return Arc::clone(stats);
        }
        let stats = Arc::<TenantStats>::default();
        let arrival = map.len();
        map.insert(tenant.to_string(), (arrival, Arc::clone(&stats)));
        stats
    }

    /// Every tenant's [`TenantMetric`] counters in arrival order: the first
    /// [`MAX_TENANT_LABELS`] under their own labels, the rest summed into
    /// one [`TENANT_OVERFLOW_LABEL`] row.
    pub(crate) fn metric_rows(&self) -> Vec<TenantRow> {
        let map = lock(&self.inner);
        let mut rows = vec![TenantRow::default(); map.len().min(MAX_TENANT_LABELS + 1)];
        for (name, (arrival, stats)) in map.iter() {
            let (label, sums) = &mut rows[(*arrival).min(MAX_TENANT_LABELS)];
            if *arrival < MAX_TENANT_LABELS {
                label.clone_from(name);
            }
            for (sum, metric) in sums.iter_mut().zip(&stats.metrics) {
                *sum += metric.load(Ordering::Relaxed);
            }
        }
        if let Some((label, _)) = rows.get_mut(MAX_TENANT_LABELS) {
            *label = TENANT_OVERFLOW_LABEL.to_string();
        }
        rows
    }

    /// Snapshot of every tenant ever seen, sorted by name:
    /// `(name, sessions, inflight, served)`.
    pub fn snapshot(&self) -> Vec<(String, u64, u64, u64)> {
        let mut rows: Vec<_> = lock(&self.inner)
            .iter()
            .map(|(name, (_, s))| {
                (
                    name.clone(),
                    s.sessions.load(Ordering::Relaxed),
                    s.inflight.load(Ordering::Relaxed),
                    s.served.load(Ordering::Relaxed),
                )
            })
            .collect();
        rows.sort();
        rows
    }
}

/// Liveness, quota, and federation policy of a running server.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Ignored: every session is its own lock, so there is no table to
    /// partition. Kept only because existing callers still set it.
    pub shards: usize,
    /// Requeue an outstanding trial whose owner has held it longer than
    /// this. `None` (default) disables the deadline: trials are requeued
    /// only when their owner leaves or is evicted.
    pub trial_deadline: Option<Duration>,
    /// Evict a session member not heard from for longer than this,
    /// requeueing its outstanding trials. Any request counts as liveness;
    /// idle clients holding long measurements should send
    /// [`Request::Heartbeat`]. `None` (default) disables eviction.
    pub client_ttl: Option<Duration>,
    /// Telemetry handle every session records onto (disabled by default —
    /// recording costs nothing until a caller passes an enabled handle).
    pub telemetry: Telemetry,
    /// Shared performance store ([`crate::store`]). When set, every session
    /// consults it before dispatching a trial — a configuration whose cost
    /// is already on record is answered inside the session
    /// (`TuningSession::suggest_batch_with`) without a round trip to any
    /// client — and records every fresh measurement into it.
    pub store: Option<SharedStore>,
    /// Most sessions one tenant may hold open at once; a `Register` past
    /// the cap is refused with [`Reply::QuotaExceeded`]. `None` (default)
    /// leaves founding unbounded.
    pub tenant_max_sessions: Option<usize>,
    /// Most fetched-but-unreported trials one tenant may hold across its
    /// sessions. A fetch has its fresh top-up clamped to the cap and is
    /// refused with [`Reply::QuotaExceeded`] only when it gathered nothing
    /// at all — for a serial `Fetch`, whenever it would need a fresh trial.
    /// An `Exchange` is clamped the same way but answers an empty batch
    /// instead of refusing, since its reports were applied. Re-fetches
    /// and requeue claims are always exempt — they never grow the tenant's
    /// holdings. `None` (default) leaves issuance unbounded.
    pub tenant_max_inflight: Option<usize>,
    /// Per-tenant accounting, shared by sessions and the observability
    /// plane. The default (empty) registry fills in lazily as tenants
    /// appear.
    pub tenants: TenantRegistry,
    /// Observer-plane addresses (`host:port`) of peer servers whose store
    /// logs this server should pull and merge on an anti-entropy interval.
    /// Requires [`store`](Self::store); empty (default) disables syncing.
    /// `GET /fleet` on the observe plane also aggregates these peers'
    /// `/status` + `/metrics` into one fleet view.
    pub sync_peers: Vec<String>,
    /// Anti-entropy pull period; `Duration::ZERO` (default) means 500 ms.
    /// Each failed pull of a peer in a row doubles it, up to 32 times.
    pub sync_interval: Duration,
    /// Retained time-series over [`telemetry`](Self::telemetry). When set,
    /// the server samples it every [`sample_interval`](Self::sample_interval)
    /// and registers a `store_unsynced` gauge on it (with a store
    /// attached), and the observe plane serves `GET /metrics/history` and
    /// the `GET /healthz` SLO engine from it. `None` (default) disables
    /// both endpoints.
    pub timeseries: Option<TimeSeries>,
    /// Sampling period of [`timeseries`](Self::timeseries);
    /// `Duration::ZERO` (default) means 1 s.
    pub sample_interval: Duration,
    /// SLO rules `GET /healthz` evaluates against
    /// [`timeseries`](Self::timeseries) (grammar:
    /// [`crate::telemetry::slo`]). Empty (default) means `/healthz` always
    /// answers 200 with zero rules.
    pub slo_rules: Vec<SloRule>,
}

impl ServerConfig {
    /// The server's Prometheus exposition, as `GET /metrics` serves it:
    /// every counter and histogram of its [`telemetry`](Self::telemetry)
    /// and, when that is enabled, one `ah_tenant_<metric>_total` family per
    /// [`TenantMetric`] from its [`tenants`](Self::tenants).
    pub fn prometheus(&self) -> String {
        self.telemetry.prometheus(&self.tenant_rows())
    }

    /// The registry's per-tenant rows when telemetry is enabled, else none.
    pub(crate) fn tenant_rows(&self) -> Vec<TenantRow> {
        if self.telemetry.is_enabled() {
            self.tenants.metric_rows()
        } else {
            Vec::new()
        }
    }
}

/// Upper bound on the work of one fetch request: on the trials it may
/// return (a `FetchBatch.max` off the wire is clamped to it) and on the
/// store-served trials it may resolve. A warm store plus a generous
/// evaluation budget could otherwise keep one request serving cached costs
/// for the session's whole remaining budget while the client waits; past
/// the cap the trial is handed to the client even on a hit, which is
/// always correct (merely slower).
const MAX_SERVED_PER_REQUEST: usize = 1024;

/// One member of a session.
struct Member {
    last_seen: Instant,
}

/// A trial handed to some member and not yet reported.
struct OutstandingTrial {
    trial: Trial,
    /// Client currently measuring it; `0` = unowned (requeued), claimable
    /// by any member's fetch.
    owner: u64,
    /// When the current owner received it (deadline eviction clock).
    issued: Instant,
    /// The trial was requeued by fault handling at least once; recorded as
    /// provenance when its measurement reaches the performance store.
    requeued: bool,
}

/// Declaration-vs-tuning phase of a session.
enum SessionPhase {
    /// Still declaring parameters.
    Building { builder: Option<SearchSpaceBuilder> },
    /// Space sealed; tuning in progress.
    Tuning(Tuning),
}

/// A sealed session: the search, and the trials it has handed out.
struct Tuning {
    session: Box<TuningSession>,
    /// Fetched-but-unreported trials, oldest first.
    outstanding: VecDeque<OutstandingTrial>,
    /// Highest iteration token ever issued; a report for an unknown
    /// token at or below it is a stale duplicate (the trial was
    /// requeued, re-measured, and already applied) and is ignored.
    issued_high: usize,
    /// [`space_fingerprint`] of the sealed space, the session's store
    /// key alongside the application label.
    fingerprint: u64,
    /// Store position of the session's last served hit, where a warm
    /// replay's next lookup looks first ([`PerfStore::lookup_after`]).
    last_hit: Option<usize>,
}

/// Who a tuning request is served for, and under which policy: what the
/// report and fetch rules read besides the session's own state.
#[derive(Clone, Copy)]
struct Caller<'a> {
    cfg: &'a ServerConfig,
    /// The session's application label (its store key).
    app: &'a str,
    tenant: &'a str,
    stats: &'a TenantStats,
    client: u64,
    session_id: u64,
    now: Instant,
}

/// What the fetch rule gathered for one request.
struct TopUp {
    trials: Vec<FetchedTrial>,
    /// The session has stopped; no further trials will come.
    finished: bool,
    /// Nothing was gathered because the tenant's in-flight quota left no
    /// room for a fresh trial.
    refused: bool,
}

/// One tuning session shared by its founder and any attached members.
struct SessionState {
    /// The session's id, which is its founder's client id.
    id: u64,
    /// Application label: diagnostics, and the performance-store key.
    app: String,
    phase: SessionPhase,
    /// Live members by client id.
    members: HashMap<u64, Member>,
    /// Tenant the founder registered under; attached members inherit it for
    /// quota accounting regardless of the label they attached with.
    tenant: String,
    /// The tenant's shared accounting cell, resolved once at founding.
    tenant_stats: Arc<TenantStats>,
    /// Members that departed without a `Leave` (a dead connection, a TTL
    /// eviction) and that no `Attach` has matched since. While any remain,
    /// the last explicit `Leave` keeps the session for the rejoin.
    unmatched_departures: usize,
    /// The session has left the table. A caller that took the cell before
    /// the removal finds this and is answered as if the session were gone.
    ended: bool,
}

/// A session behind its own lock: what a request holds while it is served.
type Cell = Arc<Mutex<SessionState>>;

/// Where every session and every live member is.
///
/// **Lock order.** A thread that holds a cell may take the table lock
/// (membership changes do, to record themselves); no thread takes a cell
/// while it holds the table lock. A request clones its cell's `Arc` under
/// the read lock and drops the lock before locking the cell, and `/status`
/// clones every cell out before it locks any. Shutdown takes neither: it
/// waits on the count of admitted requests (`Gate`).
#[derive(Default)]
struct Table {
    /// Session id → the session's cell.
    sessions: HashMap<u64, Cell>,
    /// Client id → its session's cell, for every live member.
    clients: HashMap<u64, Cell>,
}

fn read(table: &RwLock<Table>) -> RwLockReadGuard<'_, Table> {
    table.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(table: &RwLock<Table>) -> RwLockWriteGuard<'_, Table> {
    table.write().unwrap_or_else(PoisonError::into_inner)
}

/// The top bit of a [`Gate`]: the server is closed.
const CLOSED: u64 = 1 << 63;

/// What shutdown waits on: a `closed` flag (the top bit) and the number of
/// requests admitted and not yet answered (the rest), in one word, so that
/// a request that is admitted and a shutdown that closes cannot miss each
/// other. An answered request's `Release` pairs with the closer's
/// `Acquire`: once `close` returns, it sees everything those requests did.
#[derive(Default)]
struct Gate(AtomicU64);

impl Gate {
    /// Admit a request, or refuse it with `Disconnected` once the server is
    /// closed. It counts as admitted until the returned guard drops.
    fn enter(&self) -> Result<Admitted<'_>> {
        if self.0.fetch_add(1, Ordering::Acquire) & CLOSED != 0 {
            self.0.fetch_sub(1, Ordering::Release);
            return Err(HarmonyError::Disconnected);
        }
        Ok(Admitted(self))
    }

    /// Refuse every later request, and return once every admitted one has
    /// been answered.
    fn close(&self) {
        self.0.fetch_or(CLOSED, Ordering::AcqRel);
        while self.0.load(Ordering::Acquire) != CLOSED {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Requests admitted and not yet answered.
    #[cfg(test)]
    fn admitted(&self) -> u64 {
        self.0.load(Ordering::Acquire) & !CLOSED
    }
}

/// An admitted request; dropping it marks the request answered.
struct Admitted<'a>(&'a Gate);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0 .0.fetch_sub(1, Ordering::Release);
    }
}

/// Cheap, cloneable entry to the sessions (held by every client handle and
/// by the TCP front-end).
#[derive(Clone)]
pub(crate) struct ServerBus {
    table: Arc<RwLock<Table>>,
    /// The next client id to hand out. Ids count up from 1, because an
    /// owner of 0 marks a trial unowned.
    next_id: Arc<AtomicU64>,
    gate: Arc<Gate>,
    cfg: Arc<ServerConfig>,
}

impl ServerBus {
    /// The one way into the server: serve `client`'s `req` on the calling
    /// thread and return the reply. `Register` and `Attach` get their
    /// client id here. The caller waits only for its own session's cell.
    /// `Disconnected` once the server has shut down.
    pub(crate) fn dispatch(&self, client: u64, req: Request) -> Result<Reply> {
        self.route(client, req, false)
    }

    /// `client` departed without a `Leave`: its connection died. Its
    /// trials are requeued for the other members as a `Leave` would, but
    /// the session stays to be revived by an `Attach` even when no member
    /// is left.
    pub(crate) fn depart(&self, client: u64) -> Result<Reply> {
        self.route(client, Request::Leave, true)
    }

    /// [`dispatch`](Self::dispatch); `implicit` marks a `Leave` that the
    /// client never sent.
    fn route(&self, client: u64, req: Request, implicit: bool) -> Result<Reply> {
        let arrived = Instant::now();
        let _admitted = self.gate.enter()?;
        Ok(match req {
            Request::Register { app, tenant } => self.register(app, &tenant, arrived),
            Request::Attach { session, .. } => self.attach(session, arrived),
            req => self.member(client, req, implicit, arrived),
        })
    }

    /// Found a session whose id is its founder's fresh client id, under the
    /// tenant's session quota: the cell is built first, then entered in
    /// the table.
    fn register(&self, app: String, tenant: &str, arrived: Instant) -> Reply {
        let cfg = &*self.cfg;
        let tenant = canonical_tenant(tenant).to_string();
        let stats = cfg.tenants.stats(&tenant);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        account(cfg, &stats, arrived);
        in_span(cfg, id, || {
            // Claim-then-check keeps the cap exact when registers race.
            let prior = stats.sessions.fetch_add(1, Ordering::Relaxed);
            if cfg
                .tenant_max_sessions
                .is_some_and(|max| prior >= max as u64)
            {
                stats.sessions.fetch_sub(1, Ordering::Relaxed);
                cfg.telemetry.inc(Counter::QuotaRefusals);
                stats.add(TenantMetric::QuotaRefusals, 1);
                return Reply::QuotaExceeded { tenant };
            }
            let founder = Member {
                last_seen: Instant::now(),
            };
            let cell = Arc::new(Mutex::new(SessionState {
                id,
                app,
                phase: SessionPhase::Building {
                    builder: Some(SearchSpaceBuilder::default()),
                },
                members: HashMap::from([(id, founder)]),
                tenant,
                tenant_stats: stats,
                unmatched_departures: 0,
                ended: false,
            }));
            let mut table = write(&self.table);
            table.sessions.insert(id, Arc::clone(&cell));
            table.clients.insert(id, cell);
            Reply::Registered {
                client_id: id,
                session: id,
            }
        })
    }

    /// Join `session` under a fresh client id. A session that is gone,
    /// also one that ended while the caller waited for its cell, is
    /// unknown.
    fn attach(&self, session: u64, arrived: Instant) -> Reply {
        let cfg = &*self.cfg;
        let cell = read(&self.table).sessions.get(&session).cloned();
        let state = cell.as_deref().map(lock).filter(|s| !s.ended);
        let (Some(cell), Some(mut state)) = (&cell, state) else {
            stranger(cfg, arrived);
            return Reply::err(format!("unknown session {session}"));
        };
        account(cfg, &state.tenant_stats, arrived);
        in_span(cfg, session, || {
            let client = self.next_id.fetch_add(1, Ordering::Relaxed);
            if state.members.is_empty() {
                // Reviving an abandoned session counts against the founding
                // tenant again.
                state.tenant_stats.sessions.fetch_add(1, Ordering::Relaxed);
            }
            state.unmatched_departures = state.unmatched_departures.saturating_sub(1);
            let now = Instant::now();
            state.members.insert(client, Member { last_seen: now });
            write(&self.table).clients.insert(client, Arc::clone(cell));
            Reply::Registered {
                client_id: client,
                session,
            }
        })
    }

    /// Serve a member's request on its session. A `Leave` takes the member
    /// out (`implicit`: a departure without one); the last member's
    /// explicit `Leave`, with no departure left to rejoin, ends the session.
    /// A client that is no member — never registered, left, or evicted,
    /// also while it waited for the cell — is unknown.
    fn member(&self, client: u64, req: Request, implicit: bool, arrived: Instant) -> Reply {
        let cfg = &*self.cfg;
        let cell = read(&self.table).clients.get(&client).cloned();
        let state = cell.as_deref().map(lock);
        let Some(mut state) = state.filter(|s| s.members.contains_key(&client)) else {
            stranger(cfg, arrived);
            return Reply::err(HarmonyError::UnknownClient(client).to_string());
        };
        account(cfg, &state.tenant_stats, arrived);
        let state = &mut *state;
        in_span(cfg, state.id, || {
            let now = Instant::now();
            if let Some(m) = state.members.get_mut(&client) {
                m.last_seen = now;
            }
            let leave = matches!(req, Request::Leave);
            if leave {
                state.members.remove(&client);
                if state.members.is_empty() {
                    state.tenant_stats.sessions.fetch_sub(1, Ordering::Relaxed);
                }
                state.unmatched_departures += usize::from(implicit);
            }
            // sweep() also requeues a leaver's outstanding trials.
            let mut gone = HarmonyServer::sweep(state, cfg, now);
            let ended = leave && state.members.is_empty() && state.unmatched_departures == 0;
            if ended {
                // The last member said goodbye and nobody is due to rejoin:
                // the session ends, and its trials stop counting against
                // the tenant.
                if let SessionPhase::Tuning(tuning) = &mut state.phase {
                    drain_outstanding(&mut tuning.outstanding, &state.tenant_stats);
                }
                state.ended = true;
            }
            if leave {
                gone.insert(client);
            }
            if !gone.is_empty() {
                let mut table = write(&self.table);
                for id in &gone {
                    table.clients.remove(id);
                }
                if ended {
                    table.sessions.remove(&state.id);
                }
            }
            if leave {
                return Reply::Ok;
            }
            HarmonyServer::handle_for_session(state, cfg, client, req, now)
        })
    }

    /// Every session's cell, cloned out of the table so that the caller
    /// can lock them without holding it (see [`Table`]).
    fn cells(&self) -> Vec<Cell> {
        read(&self.table).sessions.values().cloned().collect()
    }

    /// Total live members across all sessions.
    pub(crate) fn client_count(&self) -> usize {
        read(&self.table).clients.len()
    }
}

/// Account a request that found no session to [`DEFAULT_TENANT`].
fn stranger(cfg: &ServerConfig, arrived: Instant) {
    account(cfg, &cfg.tenants.stats(DEFAULT_TENANT), arrived);
}

/// Count a request to its tenant and sample how long it waited for its
/// session's cell.
fn account(cfg: &ServerConfig, stats: &TenantStats, arrived: Instant) {
    stats.served.fetch_add(1, Ordering::Relaxed);
    let wait = arrived.elapsed();
    cfg.telemetry.observe(Latency::SessionWait, wait);
    stats.add(
        TenantMetric::SessionWaitUs,
        u64::try_from(wait.as_micros()).unwrap_or(u64::MAX),
    );
}

/// Run `handle` inside a `session_serve` span on `session`'s track. It runs
/// while the caller holds the session's cell, so the spans of one session
/// never overlap, whichever threads record them.
fn in_span(cfg: &ServerConfig, session: u64, handle: impl FnOnce() -> Reply) -> Reply {
    let span = cfg
        .telemetry
        .span_begin(SpanKind::SessionServe, 0, "session", session);
    let reply = handle();
    cfg.telemetry.span_end(span);
    reply
}

/// Handle to a running Harmony server: its sessions, plus one
/// `harmony-chores` thread for its timed work (`chores`) when it has a
/// time series or sync peers. Requests are served by the threads that send
/// them, so the server runs no other thread; a TCP front-end adds its
/// event-loop threads, and [`observe`](Self::observe) adds one loop thread
/// for all of its HTTP connections.
pub struct HarmonyServer {
    bus: ServerBus,
    chores: Option<Chores>,
}

impl HarmonyServer {
    /// Start the server with the default [`ServerConfig`]: no deadlines,
    /// no eviction.
    pub fn start() -> Self {
        Self::start_with_config(ServerConfig::default())
    }

    /// Start the server with full control over per-trial deadlines,
    /// member liveness eviction, quotas, the store and federation.
    pub fn start_with_config(config: ServerConfig) -> Self {
        if let (Some(series), Some(store)) = (&config.timeseries, config.store.clone()) {
            // The stock server gauge: the store's unflushed record count
            // (`store_unsynced`, flush lag).
            series.register_gauge("store_unsynced", move || store.unsynced() as f64);
        }
        HarmonyServer {
            chores: Chores::start(&config),
            bus: ServerBus {
                table: Arc::default(),
                next_id: Arc::new(AtomicU64::new(1)),
                gate: Arc::default(),
                cfg: Arc::new(config),
            },
        }
    }

    /// Number of live members across all sessions.
    pub fn client_count(&self) -> usize {
        self.bus.client_count()
    }

    /// The routing bus (used by [`HarmonyClient`] and the TCP front-end).
    pub(crate) fn bus(&self) -> ServerBus {
        self.bus.clone()
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.bus.cfg
    }

    /// Start the observability plane: an HTTP responder on `addr` serving
    /// `/metrics`, `/status`, `/fleet` and the other routes of
    /// [`observe`](mod@observe) from one event-loop thread of its own, which
    /// accepts and serves every HTTP connection (`/fleet`'s peer reads run
    /// on the server's chores thread). Snapshots take each session's lock
    /// only briefly; the tuning hot path is untouched. Bind to port 0 to let
    /// the OS pick; the bound address is on the returned [`ObserveHandle`].
    pub fn observe(&self, addr: &str) -> std::io::Result<ObserveHandle> {
        let chores = self.chores.as_ref().map(Chores::poster).unwrap_or_default();
        observe::start(addr, self.bus.clone(), self.config().clone(), chores)
    }

    /// Connect a new client application (founds a fresh session) under the
    /// default tenant.
    pub fn connect(&self, app: impl Into<String>) -> Result<HarmonyClient> {
        self.connect_as(app, "")
    }

    /// Connect a new client application under an explicit tenant label.
    /// Refused with [`HarmonyError::QuotaExceeded`] when the tenant is at
    /// its [`ServerConfig::tenant_max_sessions`] cap.
    pub fn connect_as(
        &self,
        app: impl Into<String>,
        tenant: impl Into<String>,
    ) -> Result<HarmonyClient> {
        HarmonyClient::register(self.bus(), app.into(), tenant.into())
    }

    /// Join an existing session as an additional member (worker pools,
    /// crash rejoin). The session id comes from the founder's
    /// [`HarmonyClient::session_id`].
    pub fn attach(&self, session: u64) -> Result<HarmonyClient> {
        self.attach_as(session, "")
    }

    /// Join an existing session, sending a tenant label along. The label
    /// is carried for the wire format's sake only: a member belongs to the
    /// tenant its session was founded under, for accounting and for quotas
    /// alike.
    pub(crate) fn attach_as(
        &self,
        session: u64,
        tenant: impl Into<String>,
    ) -> Result<HarmonyClient> {
        HarmonyClient::attach(self.bus(), session, tenant.into())
    }

    /// Refuse later requests and return once every admitted one has been
    /// answered: callers already waiting for a session are still served,
    /// later calls fail with [`HarmonyError::Disconnected`]. Dropping the
    /// server does the same.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Requeue deadline-expired trials and evict silent members. Runs on
    /// every message addressed to a tuning session, with the sender's
    /// `last_seen` already refreshed (a client can never evict itself by
    /// talking to the server). Returns the evicted members, for the caller
    /// to take out of the table.
    fn sweep(state: &mut SessionState, cfg: &ServerConfig, now: Instant) -> HashSet<u64> {
        let telemetry = &cfg.telemetry;
        let SessionPhase::Tuning(Tuning { outstanding, .. }) = &mut state.phase else {
            return HashSet::new();
        };
        // Members evicted by *this* sweep, so requeues below can name the
        // right cause (an eviction vs. an explicit leave).
        let mut evicted: HashSet<u64> = HashSet::new();
        if let Some(ttl) = cfg.client_ttl {
            let dead: Vec<u64> = state
                .members
                .iter()
                .filter(|(_, m)| now.duration_since(m.last_seen) > ttl)
                .map(|(&id, _)| id)
                .collect();
            for id in dead {
                state.members.remove(&id);
                telemetry.inc(Counter::MembersEvicted);
                telemetry.event(TrialStage::Evicted, 0, id, Some("ttl_expired"));
                evicted.insert(id);
            }
            state.unmatched_departures += evicted.len();
            if !evicted.is_empty() && state.members.is_empty() {
                // Eviction emptied the session: release its tenant slot
                // (an Attach revival re-claims it).
                state.tenant_stats.sessions.fetch_sub(1, Ordering::Relaxed);
            }
        }
        for t in outstanding.iter_mut() {
            if t.owner == 0 {
                continue;
            }
            let expired = cfg
                .trial_deadline
                .is_some_and(|d| now.duration_since(t.issued) > d);
            if expired || !state.members.contains_key(&t.owner) {
                let cause = if expired {
                    "trial_deadline"
                } else if evicted.contains(&t.owner) {
                    "owner_evicted"
                } else {
                    "owner_left"
                };
                telemetry.inc(Counter::TrialsRequeued);
                telemetry.event(
                    TrialStage::Requeued,
                    t.trial.iteration,
                    t.owner,
                    Some(cause),
                );
                t.owner = 0;
                t.requeued = true;
            }
        }
        evicted
    }

    /// Serve one request of a session member. A session still declaring
    /// its space takes declarations; a sealed one serves the tuning loop,
    /// whose three shapes share two rules: `Report`, `ReportBatch` and
    /// `Exchange` apply reports through [`Tuning::apply_reports`], and
    /// `Fetch`, `FetchBatch` and `Exchange` gather trials through
    /// [`Tuning::top_up`].
    fn handle_for_session(
        state: &mut SessionState,
        cfg: &ServerConfig,
        client: u64,
        req: Request,
        now: Instant,
    ) -> Reply {
        if matches!(req, Request::Heartbeat) {
            return Reply::Ok; // last_seen already refreshed by the caller
        }
        // Disjoint borrows: the store key (`app`) and tenant accounting are
        // read while `phase` is borrowed mutably.
        let SessionState {
            id,
            app,
            phase,
            tenant,
            tenant_stats,
            ..
        } = state;
        let tuning = match phase {
            SessionPhase::Tuning(tuning) => tuning,
            SessionPhase::Building { builder } => {
                return match req {
                    Request::AddParam { param } => {
                        if let Err(e) = param.validate() {
                            return Reply::err(e.to_string());
                        }
                        let b = builder.take().expect("builder present while building");
                        *builder = Some(b.param(param));
                        Reply::Ok
                    }
                    Request::AddMonotoneChain { names } => {
                        let b = builder.take().expect("builder present while building");
                        *builder = Some(b.constraint(crate::constraint::MonotoneChain::new(names)));
                        Reply::Ok
                    }
                    Request::Seal { options, strategy } => {
                        // Built from a copy: a refused `Seal` (say, a chain
                        // naming an unknown parameter) leaves the builder in
                        // place, so the next request is refused the same way.
                        let b = builder.clone().expect("builder present while building");
                        match b.build() {
                            Ok(space) => {
                                let fingerprint = space_fingerprint(&space);
                                let mut session =
                                    TuningSession::new(space, strategy.build(), options);
                                session.set_telemetry(cfg.telemetry.clone());
                                *phase = SessionPhase::Tuning(Tuning {
                                    session: Box::new(session),
                                    outstanding: VecDeque::new(),
                                    issued_high: 0,
                                    fingerprint,
                                    last_hit: None,
                                });
                                Reply::Ok
                            }
                            Err(e) => Reply::err(e.to_string()),
                        }
                    }
                    Request::QueryBest => Reply::Best { best: None },
                    Request::Fetch
                    | Request::Report { .. }
                    | Request::FetchBatch { .. }
                    | Request::ReportBatch { .. }
                    | Request::Exchange { .. }
                    | Request::QueryHistory => Reply::err(
                        HarmonyError::Protocol("space not sealed yet".into()).to_string(),
                    ),
                    _ => {
                        Reply::err(HarmonyError::Protocol("unexpected message".into()).to_string())
                    }
                };
            }
        };
        let caller = Caller {
            cfg,
            app,
            tenant,
            stats: tenant_stats,
            client,
            session_id: *id,
            now,
        };
        match req {
            Request::Fetch => {
                let top = tuning.top_up(&caller, 1);
                tuning.fetch_reply(&caller, top, true)
            }
            Request::FetchBatch { max } => {
                let top = tuning.top_up(&caller, max);
                tuning.fetch_reply(&caller, top, false)
            }
            // A serial report answers the caller's oldest outstanding trial.
            Request::Report { cost, wall_time } => {
                let Some(t) = tuning.outstanding.iter().find(|t| t.owner == client) else {
                    return Reply::err("report without an outstanding fetch");
                };
                let report = TrialReport {
                    iteration: t.trial.iteration,
                    cost,
                    wall_time,
                };
                tuning
                    .apply_reports(&caller, vec![report])
                    .map_or_else(Reply::err, |()| Reply::Ok)
            }
            Request::ReportBatch { reports } => tuning
                .apply_reports(&caller, reports)
                .map_or_else(Reply::err, |()| Reply::Ok),
            Request::Exchange { reports, max } => match tuning.apply_reports(&caller, reports) {
                // A failed report prefetches nothing.
                Err(e) => Reply::err(e),
                // A top-up the in-flight quota refuses is an empty batch, not
                // `QuotaExceeded`: the reports counted, and the refusal is
                // met by the caller's next fetch.
                Ok(()) => {
                    let TopUp {
                        trials, finished, ..
                    } = tuning.top_up(&caller, max);
                    Reply::Configs { trials, finished }
                }
            },
            Request::QueryBest => {
                let best = tuning.session.best().map(|(c, v)| (c.clone(), v));
                Reply::Best { best }
            }
            Request::QueryHistory => Reply::History {
                history: tuning.session.history().clone(),
                finished: tuning.session.stop_reason().is_some(),
            },
            _ => Reply::err(HarmonyError::Protocol("space already sealed".into()).to_string()),
        }
    }
}

/// Forget every outstanding trial, returning the tenant's in-flight claim
/// on them. Used wherever a finished session drops its queue.
fn drain_outstanding(outstanding: &mut VecDeque<OutstandingTrial>, stats: &TenantStats) {
    stats
        .inflight
        .fetch_sub(outstanding.len() as u64, Ordering::Relaxed);
    outstanding.clear();
}

impl Tuning {
    /// The report rule: match each result to its trial by iteration token,
    /// sanitise non-finite measurements, apply them in order, and append
    /// the applied ones to the store in one write. A report that fails
    /// stops the batch and is the error returned; the ones before it stay
    /// applied and recorded.
    fn apply_reports(
        &mut self,
        caller: &Caller,
        reports: Vec<TrialReport>,
    ) -> std::result::Result<(), String> {
        let Caller {
            cfg,
            app,
            stats,
            session_id,
            ..
        } = *caller;
        let telemetry = &cfg.telemetry;
        let Tuning {
            session,
            outstanding,
            issued_high,
            fingerprint,
            ..
        } = self;
        // The applied trials with their measurements, appended to the store
        // as one locked write of borrowed records instead of one per trial,
        // so attaching a store does not un-amortize what batching bought.
        let mut recorded = match cfg.store {
            Some(_) => Vec::with_capacity(reports.len()),
            None => Vec::new(),
        };
        let mut failed: Option<String> = None;
        for r in reports {
            if session.stop_reason().is_some() {
                // Stopped mid-batch: the remaining results belong to
                // trials the session already dropped.
                break;
            }
            match outstanding
                .iter()
                .position(|t| t.trial.iteration == r.iteration)
            {
                Some(pos) => {
                    let t = outstanding.remove(pos).expect("position found above");
                    stats.inflight.fetch_sub(1, Ordering::Relaxed);
                    let (cost, wall_time, clamped) = sanitize_measurement(r.cost, r.wall_time);
                    if clamped {
                        telemetry.inc(Counter::NonFiniteCostsSanitized);
                    }
                    stats.add(TenantMetric::Reports, 1);
                    if let Err(e) = session.report_iteration(t.trial.iteration, cost, wall_time) {
                        failed = Some(e.to_string());
                        break;
                    }
                    stats.add(TenantMetric::Evaluations, 1);
                    if cfg.store.is_some() {
                        recorded.push((t, cost, wall_time));
                    }
                }
                // Stale duplicate: the trial was requeued after an
                // eviction, re-measured by another member, and its cost
                // already applied. Costs are functions of the
                // configuration, so dropping the echo is lossless.
                None if r.iteration <= *issued_high => {
                    telemetry.inc(Counter::StaleReportsDropped);
                    stats.add(TenantMetric::Reports, 1);
                }
                None => {
                    failed = Some(
                        HarmonyError::Protocol(format!("report for unknown trial {}", r.iteration))
                            .to_string(),
                    );
                    break;
                }
            }
        }
        if let (Some(store), false) = (&cfg.store, recorded.is_empty()) {
            let records = recorded.iter().map(|(t, cost, wall_time)| RecordView {
                app,
                fingerprint: *fingerprint,
                config: &t.trial.config,
                cost_bits: cost.to_bits(),
                wall_bits: wall_time.to_bits(),
                session: session_id,
                iteration: t.trial.iteration,
                requeued: t.requeued,
                replayed: false,
            });
            // Advisory write: a full disk must not fail reports the
            // session already accepted.
            let _ = store.with(|store| store.insert_views(records));
        }
        if session.stop_reason().is_some() {
            drain_outstanding(outstanding, stats);
        }
        failed.map_or(Ok(()), Err)
    }

    /// The fetch rule: gather up to `max` trials for the caller (clamped
    /// to [`MAX_SERVED_PER_REQUEST`]) — its own unreported trials first (so
    /// a re-fetch after a lost reply converges), then requeued trials of
    /// departed owners, then fresh proposals under the tenant's in-flight
    /// quota, answering store-known proposals on the way.
    fn top_up(&mut self, caller: &Caller, max: usize) -> TopUp {
        let Caller {
            cfg,
            app,
            stats,
            client,
            now,
            ..
        } = *caller;
        let telemetry = &cfg.telemetry;
        let Tuning {
            session,
            outstanding,
            issued_high,
            fingerprint,
            last_hit,
        } = self;
        if session.stop_reason().is_some() {
            // Trials fetched before the stop were dropped by the session;
            // forget them here too.
            drain_outstanding(outstanding, stats);
            return TopUp {
                trials: Vec::new(),
                finished: true,
                refused: false,
            };
        }
        // `max` comes straight off the wire: bound what one request can
        // make the session propose and the reply carry.
        let max = max.min(MAX_SERVED_PER_REQUEST);
        let mut trials: Vec<FetchedTrial> = Vec::new();
        for t in outstanding.iter().filter(|t| t.owner == client).take(max) {
            telemetry.inc(Counter::TrialsFetched);
            telemetry.event(
                TrialStage::Fetched,
                t.trial.iteration,
                client,
                Some("refetch"),
            );
            trials.push(FetchedTrial {
                config: t.trial.config.clone(),
                iteration: t.trial.iteration,
            });
        }
        for t in outstanding.iter_mut().filter(|t| t.owner == 0) {
            if trials.len() >= max {
                break;
            }
            t.owner = client;
            t.issued = now;
            telemetry.inc(Counter::TrialsFetched);
            telemetry.event(
                TrialStage::Fetched,
                t.trial.iteration,
                client,
                Some("requeue_claim"),
            );
            trials.push(FetchedTrial {
                config: t.trial.config.clone(),
                iteration: t.trial.iteration,
            });
        }
        // Top up with fresh proposals. The session asks the store about
        // each one and applies a hit on the spot, so what comes back is
        // only what a client must measure. The tenant's in-flight cap
        // clamps how many may be issued (served hits complete immediately
        // and don't count), so no proposal is ever pulled from the strategy
        // and dropped; past `MAX_SERVED_PER_REQUEST` hits the memo stops
        // answering and the rest are handed out. The clamp is reserved
        // against the cap in one step, so sessions of one tenant topping
        // up at once never together pass it, and what is not issued is
        // handed back.
        let cap = cfg.tenant_max_inflight.map_or(u64::MAX, |cap| cap as u64);
        let want = (max - trials.len()) as u64;
        let room = |held: u64| want.min(cap.saturating_sub(held));
        let prior = stats
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                Some(held + room(held))
            })
            .expect("the update never declines");
        let reserved = room(prior);
        let mut served = 0usize;
        let mut propose = |store: Option<&PerfStore>| {
            session.suggest_batch_with(reserved as usize, |iteration, key| {
                if served == MAX_SERVED_PER_REQUEST {
                    return None;
                }
                let hit = store?.lookup_after(app, *fingerprint, key, last_hit)?;
                served += 1;
                *issued_high = (*issued_high).max(iteration);
                Some(hit.cost)
            })
        };
        // The request's proposals meet the store under one lock, not one
        // lock per proposal.
        let batch = match &cfg.store {
            Some(store) => store.with(|store| propose(Some(store))),
            None => propose(None),
        };
        stats
            .inflight
            .fetch_sub(reserved - batch.len() as u64, Ordering::Relaxed);
        for trial in batch {
            *issued_high = (*issued_high).max(trial.iteration);
            telemetry.inc(Counter::TrialsFetched);
            telemetry.event(TrialStage::Fetched, trial.iteration, client, None);
            trials.push(FetchedTrial {
                config: trial.config.clone(),
                iteration: trial.iteration,
            });
            outstanding.push_back(OutstandingTrial {
                trial,
                owner: client,
                issued: now,
                requeued: false,
            });
        }
        let finished = trials.is_empty() && session.stop_reason().is_some();
        if finished {
            drain_outstanding(outstanding, stats);
        }
        let refused = trials.is_empty() && !finished && prior >= cap;
        TopUp {
            trials,
            finished,
            refused,
        }
    }

    /// Shape what the fetch rule gathered for a `Fetch` or `FetchBatch`.
    /// Empty-handed under the quota is the typed `QuotaExceeded`, counted.
    /// A `FetchBatch` gets the `Configs` frame as is; a serial `Fetch` gets
    /// its one trial as a `Config`, the best configuration found once the
    /// session has finished, and a retryable busy error while the strategy
    /// waits on another member's report.
    fn fetch_reply(&self, caller: &Caller, top: TopUp, serial: bool) -> Reply {
        let TopUp {
            mut trials,
            finished,
            refused,
        } = top;
        if refused {
            caller.cfg.telemetry.inc(Counter::QuotaRefusals);
            caller.stats.add(TenantMetric::QuotaRefusals, 1);
            return Reply::QuotaExceeded {
                tenant: caller.tenant.to_string(),
            };
        }
        if !serial {
            return Reply::Configs { trials, finished };
        }
        if let Some(t) = trials.pop() {
            return Reply::Config {
                config: t.config,
                iteration: t.iteration,
                finished: false,
            };
        }
        if !finished {
            return Reply::busy("no trial available until outstanding reports arrive");
        }
        match self.session.best() {
            Some((cfg, _)) => Reply::Config {
                config: cfg.clone(),
                iteration: self.session.history().len(),
                finished: true,
            },
            None => Reply::err("session finished with no evaluations"),
        }
    }
}

impl Drop for HarmonyServer {
    fn drop(&mut self) {
        // Stop the timed work first so nothing merges into the store while
        // it is being flushed for the last time.
        if let Some(chores) = self.chores.take() {
            chores.stop();
        }
        self.bus.gate.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use crate::server::protocol::{StrategyKind, TrialReport};
    use crate::session::SessionOptions;
    use crate::store::StoreRecord;

    #[test]
    fn single_client_tunes_a_bowl() {
        let server = HarmonyServer::start();
        let client = server.connect("bowl").unwrap();
        client.add_param(Param::int("x", 0, 60, 1)).unwrap();
        client.add_param(Param::int("y", 0, 60, 1)).unwrap();
        client
            .seal(
                SessionOptions {
                    max_evaluations: 120,
                    seed: 21,
                    ..Default::default()
                },
                StrategyKind::NelderMead,
            )
            .unwrap();
        loop {
            let fetch = client.fetch().unwrap();
            if fetch.finished {
                break;
            }
            let x = fetch.config.int("x").unwrap() as f64;
            let y = fetch.config.int("y").unwrap() as f64;
            client
                .report((x - 42.0).powi(2) + (y - 13.0).powi(2))
                .unwrap();
        }
        let (best, cost) = client.best().unwrap().unwrap();
        assert!(cost <= 8.0, "cost={cost} best={best}");
        server.shutdown();
    }

    #[test]
    fn two_clients_tune_independently() {
        let server = HarmonyServer::start();
        let c1 = server.connect("app1").unwrap();
        let c2 = server.connect("app2").unwrap();
        for c in [&c1, &c2] {
            c.add_param(Param::int("n", 0, 100, 1)).unwrap();
            c.seal(
                SessionOptions {
                    max_evaluations: 60,
                    seed: 22,
                    ..Default::default()
                },
                StrategyKind::NelderMead,
            )
            .unwrap();
        }
        // Interleave the two clients' loops.
        let mut done1 = false;
        let mut done2 = false;
        while !(done1 && done2) {
            if !done1 {
                let f = c1.fetch().unwrap();
                if f.finished {
                    done1 = true;
                } else {
                    let n = f.config.int("n").unwrap() as f64;
                    c1.report((n - 10.0).abs()).unwrap();
                }
            }
            if !done2 {
                let f = c2.fetch().unwrap();
                if f.finished {
                    done2 = true;
                } else {
                    let n = f.config.int("n").unwrap() as f64;
                    c2.report((n - 90.0).abs()).unwrap();
                }
            }
        }
        let (b1, v1) = c1.best().unwrap().unwrap();
        let (b2, v2) = c2.best().unwrap().unwrap();
        assert!(v1 <= 2.0, "client1 best {b1} cost {v1}");
        assert!(v2 <= 2.0, "client2 best {b2} cost {v2}");
        assert!((b1.int("n").unwrap() - 10).abs() <= 2);
        assert!((b2.int("n").unwrap() - 90).abs() <= 2);
        server.shutdown();
    }

    #[test]
    fn protocol_violations_are_reported() {
        let server = HarmonyServer::start();
        let client = server.connect("app").unwrap();
        // Fetch before seal.
        assert!(client.fetch().is_err());
        client.add_param(Param::int("n", 0, 10, 1)).unwrap();
        client
            .seal(SessionOptions::default(), StrategyKind::Random)
            .unwrap();
        // Report without fetch.
        assert!(client.report(1.0).is_err());
        // Adding params after seal fails.
        assert!(client.add_param(Param::int("m", 0, 1, 1)).is_err());
        server.shutdown();
    }

    #[test]
    fn refetch_returns_same_trial_until_reported() {
        let server = HarmonyServer::start();
        let client = server.connect("app").unwrap();
        client.add_param(Param::int("n", 0, 100, 1)).unwrap();
        client
            .seal(
                SessionOptions {
                    max_evaluations: 10,
                    seed: 1,
                    ..Default::default()
                },
                StrategyKind::NelderMead,
            )
            .unwrap();
        let a = client.fetch().unwrap();
        let b = client.fetch().unwrap();
        assert_eq!(a.config, b.config);
        assert_eq!(a.iteration, b.iteration);
        client.report(1.0).unwrap();
        server.shutdown();
    }

    #[test]
    fn serial_replies_keep_their_shape_through_the_batch_arms() {
        let server = HarmonyServer::start();
        let founder = server.connect("shapes").unwrap();
        founder.add_param(Param::int("n", 0, 100, 1)).unwrap();
        founder
            .seal(
                SessionOptions {
                    max_evaluations: 12,
                    seed: 3,
                    ..Default::default()
                },
                StrategyKind::NelderMead,
            )
            .unwrap();
        let worker = server.attach(founder.session_id()).unwrap();
        // Nelder–Mead proposes one point at a time: while the founder holds
        // it, the worker's empty batch of one is the retryable busy error.
        let held = founder.fetch().unwrap();
        assert!(!held.finished);
        assert!(matches!(worker.fetch(), Err(HarmonyError::ServerBusy(_))));
        founder
            .report(held.config.int("n").unwrap() as f64)
            .unwrap();
        loop {
            let f = founder.fetch().unwrap();
            if f.finished {
                // A finished fetch carries the best configuration, stamped
                // with the history length.
                let (best, _) = founder.best().unwrap().unwrap();
                let (h, _) = founder.history().unwrap();
                assert_eq!(f.config, best);
                assert_eq!(f.iteration, h.len());
                break;
            }
            founder.report(f.config.int("n").unwrap() as f64).unwrap();
        }
        assert!(worker.fetch().unwrap().finished);
        server.shutdown();
    }

    #[test]
    fn serial_report_after_the_session_stopped_has_no_outstanding_fetch() {
        // At the parent of the fold the answer depended on who noticed the
        // stop first: "tuning session already finished" when the stopping
        // report came through the serial arm (which left the queue alone),
        // "report without an outstanding fetch" once a batch report or any
        // fetch had drained it. The one report arm drains on every stop, so
        // the second answer is the one kept: a stopped session holds no
        // fetch of anybody's.
        let server = HarmonyServer::start();
        let founder = server.connect("late").unwrap();
        founder.add_param(Param::int("n", 0, 100, 1)).unwrap();
        founder
            .seal(
                SessionOptions {
                    target_cost: Some(0.5),
                    seed: 9,
                    ..Default::default()
                },
                StrategyKind::Random,
            )
            .unwrap();
        let worker = server.attach(founder.session_id()).unwrap();
        assert!(!founder.fetch().unwrap().finished);
        assert!(!worker.fetch().unwrap().finished);
        founder.report(0.0).unwrap(); // reaches the target: the session stops
        let err = worker.report(1.0).unwrap_err();
        assert_eq!(
            err,
            HarmonyError::Protocol("report without an outstanding fetch".into())
        );
        assert!(worker.fetch().unwrap().finished);
        server.shutdown();
    }

    #[test]
    fn clients_work_from_other_threads() {
        let server = HarmonyServer::start();
        let mut joins = Vec::new();
        for t in 0..4 {
            let client = server.connect(format!("app{t}")).unwrap();
            joins.push(std::thread::spawn(move || {
                client.add_param(Param::int("n", 0, 50, 1)).unwrap();
                client
                    .seal(
                        SessionOptions {
                            max_evaluations: 30,
                            seed: t,
                            ..Default::default()
                        },
                        StrategyKind::NelderMead,
                    )
                    .unwrap();
                loop {
                    let f = client.fetch().unwrap();
                    if f.finished {
                        break;
                    }
                    let n = f.config.int("n").unwrap() as f64;
                    client.report((n - t as f64 * 10.0).abs()).unwrap();
                }
                let (_, cost) = client.best().unwrap().unwrap();
                assert!(cost <= 3.0);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn attached_member_shares_the_session() {
        let server = HarmonyServer::start();
        let founder = server.connect("pool").unwrap();
        founder.add_param(Param::int("x", 0, 100, 1)).unwrap();
        founder
            .seal(
                SessionOptions {
                    max_evaluations: 40,
                    seed: 4,
                    ..Default::default()
                },
                StrategyKind::Random,
            )
            .unwrap();
        let worker = server.attach(founder.session_id()).unwrap();
        assert_eq!(worker.session_id(), founder.session_id());
        assert_ne!(worker.id(), founder.id());
        // Both members alternate measuring trials of the one shared search.
        let mut done = false;
        while !done {
            for c in [&founder, &worker] {
                let (trials, finished) = c.fetch_batch(1).unwrap();
                if finished {
                    done = true;
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
                c.report_batch(reports).unwrap();
            }
        }
        // One shared history, 40 fresh evaluations between the two members.
        let (h, finished) = founder.history().unwrap();
        assert!(finished);
        assert_eq!(h.evaluations().iter().filter(|e| !e.cached).count(), 40);
        let (hw, _) = worker.history().unwrap();
        assert_eq!(h.len(), hw.len());
        server.shutdown();
    }

    #[test]
    fn leave_requeues_outstanding_trials_for_other_members() {
        let server = HarmonyServer::start();
        let founder = server.connect("pool").unwrap();
        founder.add_param(Param::int("x", 0, 100, 1)).unwrap();
        founder
            .seal(
                SessionOptions {
                    max_evaluations: 5,
                    seed: 9,
                    ..Default::default()
                },
                StrategyKind::Random,
            )
            .unwrap();
        let worker = server.attach(founder.session_id()).unwrap();
        // The worker grabs trials, then dies without reporting.
        let (grabbed, _) = worker.fetch_batch(3).unwrap();
        assert_eq!(grabbed.len(), 3);
        worker.leave().unwrap();
        assert!(worker.fetch().is_err(), "departed member must be refused");
        // The founder inherits the exact same trials.
        let (again, _) = founder.fetch_batch(5).unwrap();
        let grabbed_iters: Vec<usize> = grabbed.iter().map(|t| t.iteration).collect();
        let again_iters: Vec<usize> = again.iter().map(|t| t.iteration).collect();
        assert_eq!(&again_iters[..3], &grabbed_iters[..]);
        server.shutdown();
    }

    #[test]
    fn trial_deadline_requeues_stragglers() {
        let server = HarmonyServer::start_with_config(ServerConfig {
            trial_deadline: Some(Duration::from_millis(30)),
            ..Default::default()
        });
        let founder = server.connect("straggle").unwrap();
        founder.add_param(Param::int("x", 0, 100, 1)).unwrap();
        founder
            .seal(
                SessionOptions {
                    max_evaluations: 4,
                    seed: 2,
                    ..Default::default()
                },
                StrategyKind::Random,
            )
            .unwrap();
        let worker = server.attach(founder.session_id()).unwrap();
        let (held, _) = worker.fetch_batch(1).unwrap();
        assert_eq!(held.len(), 1);
        std::thread::sleep(Duration::from_millis(60));
        // Past the deadline the founder's fetch claims the same trial.
        let f = founder.fetch().unwrap();
        assert_eq!(f.iteration, held[0].iteration);
        founder.report(1.0).unwrap();
        // The straggler's late report is a tolerated duplicate.
        worker
            .report_batch(vec![TrialReport {
                iteration: held[0].iteration,
                cost: 1.0,
                wall_time: 1.0,
            }])
            .unwrap();
        server.shutdown();
    }

    #[test]
    fn client_ttl_evicts_silent_members() {
        let server = HarmonyServer::start_with_config(ServerConfig {
            client_ttl: Some(Duration::from_millis(30)),
            ..Default::default()
        });
        let founder = server.connect("ttl").unwrap();
        founder.add_param(Param::int("x", 0, 100, 1)).unwrap();
        founder
            .seal(
                SessionOptions {
                    max_evaluations: 4,
                    seed: 3,
                    ..Default::default()
                },
                StrategyKind::Random,
            )
            .unwrap();
        let worker = server.attach(founder.session_id()).unwrap();
        let (held, _) = worker.fetch_batch(1).unwrap();
        assert_eq!(held.len(), 1);
        // The founder heartbeats; the worker goes silent past its TTL.
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(20));
            founder.heartbeat().unwrap();
        }
        // The worker was evicted and its trial requeued to the founder.
        let f = founder.fetch().unwrap();
        assert_eq!(f.iteration, held[0].iteration);
        assert!(worker.fetch().is_err(), "evicted member must be refused");
        server.shutdown();
    }

    #[test]
    fn heartbeat_keeps_a_member_alive() {
        let server = HarmonyServer::start_with_config(ServerConfig {
            client_ttl: Some(Duration::from_millis(40)),
            ..Default::default()
        });
        let founder = server.connect("hb").unwrap();
        founder.add_param(Param::int("x", 0, 100, 1)).unwrap();
        founder
            .seal(
                SessionOptions {
                    max_evaluations: 4,
                    seed: 5,
                    ..Default::default()
                },
                StrategyKind::Random,
            )
            .unwrap();
        let worker = server.attach(founder.session_id()).unwrap();
        let (held, _) = worker.fetch_batch(1).unwrap();
        assert_eq!(held.len(), 1);
        // Both sides stay chatty for several TTL windows.
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(15));
            worker.heartbeat().unwrap();
            founder.heartbeat().unwrap();
        }
        // The trial is still the worker's: the founder gets a fresh one.
        let f = founder.fetch().unwrap();
        assert_ne!(f.iteration, held[0].iteration);
        server.shutdown();
    }

    #[test]
    fn warm_store_serves_a_second_run_without_remeasurement() {
        let path = crate::TempPath::new("server-warm.store");
        let _ = std::fs::remove_file(&path);
        let cost_of = |cfg: &crate::space::Configuration| {
            let x = cfg.int("x").unwrap() as f64;
            let y = cfg.int("y").unwrap() as f64;
            (x - 42.0).powi(2) + (y - 13.0).powi(2)
        };
        let connect = |store: &SharedStore| {
            let server = HarmonyServer::start_with_config(ServerConfig {
                store: Some(store.clone()),
                ..Default::default()
            });
            let client = server.connect("warm").unwrap();
            client.add_param(Param::int("x", 0, 80, 1)).unwrap();
            client.add_param(Param::int("y", 0, 80, 1)).unwrap();
            client
                .seal(
                    SessionOptions {
                        max_evaluations: 60,
                        seed: 11,
                        ..Default::default()
                    },
                    StrategyKind::NelderMead,
                )
                .unwrap();
            (server, client)
        };

        // Cold run: every trial is dispatched and measured by the client.
        let store = SharedStore::open(&path).unwrap();
        let (server, client) = connect(&store);
        let mut measured = 0usize;
        loop {
            let (trials, finished) = client.fetch_batch(4).unwrap();
            if finished {
                break;
            }
            let reports = trials
                .iter()
                .map(|t| {
                    measured += 1;
                    TrialReport {
                        iteration: t.iteration,
                        cost: cost_of(&t.config),
                        wall_time: 1.0,
                    }
                })
                .collect();
            client.report_batch(reports).unwrap();
        }
        let (cold, _) = client.history().unwrap();
        server.shutdown();
        store.flush().unwrap();
        assert_eq!(measured, 60, "cold run measures its whole budget");
        assert_eq!(store.stats().live_configs, 60);
        drop(store);

        // Warm run against the same store file: the server resolves every
        // proposal internally and the very first fetch reports `finished`.
        let store = SharedStore::open(&path).unwrap();
        let (server, client) = connect(&store);
        let first = client.fetch().unwrap();
        assert!(first.finished, "warm run must finish without dispatching");
        let (warm, finished) = client.history().unwrap();
        assert!(finished);
        server.shutdown();

        // Bit-identical trajectory, every warm row served from the store.
        assert_eq!(cold.len(), warm.len());
        for (c, w) in cold.evaluations().iter().zip(warm.evaluations()) {
            assert_eq!(c.iteration, w.iteration);
            assert_eq!(c.config.cache_key(), w.config.cache_key());
            assert_eq!(c.cost.to_bits(), w.cost.to_bits());
        }
        assert!(warm.evaluations().iter().all(|e| e.cached));
        // The warm run re-recorded nothing: bit-identical costs dedup away.
        assert_eq!(store.stats().records, 60);
    }

    #[test]
    fn store_backed_batches_interleave_hits_and_fresh_trials() {
        // Pre-populate the store with only *some* of the configurations a
        // run will visit, via a half-budget cold run; the full-budget run
        // must then mix server-side hits with dispatched trials and still
        // match a storeless full run bit-for-bit.
        let path = crate::TempPath::new("server-partial.store");
        let _ = std::fs::remove_file(&path);
        let cost_of = |cfg: &crate::space::Configuration| {
            let x = cfg.int("x").unwrap() as f64;
            (x - 33.0).powi(2)
        };
        let run = |store: Option<SharedStore>, evals: usize| {
            let server = HarmonyServer::start_with_config(ServerConfig {
                store,
                ..Default::default()
            });
            let client = server.connect("partial").unwrap();
            client.add_param(Param::int("x", 0, 200, 1)).unwrap();
            client
                .seal(
                    SessionOptions {
                        max_evaluations: evals,
                        seed: 7,
                        ..Default::default()
                    },
                    StrategyKind::NelderMead,
                )
                .unwrap();
            let mut measured = 0usize;
            loop {
                let (trials, finished) = client.fetch_batch(3).unwrap();
                if finished {
                    break;
                }
                let reports = trials
                    .iter()
                    .map(|t| {
                        measured += 1;
                        TrialReport {
                            iteration: t.iteration,
                            cost: cost_of(&t.config),
                            wall_time: 1.0,
                        }
                    })
                    .collect();
                client.report_batch(reports).unwrap();
            }
            let (h, _) = client.history().unwrap();
            server.shutdown();
            (measured, h)
        };
        let store = SharedStore::open(&path).unwrap();
        let (m_half, _) = run(Some(store.clone()), 25);
        assert_eq!(m_half, 25);
        store.flush().unwrap();

        let (m_none, reference) = run(None, 50);
        assert_eq!(m_none, 50);
        let (m_mixed, mixed) = run(Some(store), 50);
        assert!(
            m_mixed < 50 && m_mixed > 0,
            "expected a mix of hits and fresh trials, measured {m_mixed}"
        );
        assert_eq!(reference.len(), mixed.len());
        for (a, b) in reference.evaluations().iter().zip(mixed.evaluations()) {
            assert_eq!(a.config.cache_key(), b.config.cache_key());
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
        assert!(mixed.evaluations().iter().any(|e| e.cached));
    }

    /// A sealed session's rules over four ints, as `Seal` builds them, for
    /// `max_evaluations` trials of Random search.
    fn four_int_tuning() -> Tuning {
        let mut space = crate::space::SearchSpace::builder();
        for name in ["tile", "unroll", "block", "depth"] {
            space = space.param(Param::int(name, 0, 1_000_000, 1));
        }
        let space = space.build().unwrap();
        let fingerprint = space_fingerprint(&space);
        let options = SessionOptions {
            max_evaluations: 1 << 20,
            seed: 3,
            ..Default::default()
        };
        Tuning {
            session: Box::new(TuningSession::new(
                space,
                StrategyKind::Random.build(),
                options,
            )),
            outstanding: VecDeque::new(),
            issued_high: 0,
            fingerprint,
            last_hit: None,
        }
    }

    #[test]
    fn a_report_batch_reaches_the_store_with_no_allocation_per_record() {
        let (store, _, _path) = fresh_store("allocations");
        let stored = ServerConfig {
            store: Some(store.clone()),
            ..Default::default()
        };
        let bare = ServerConfig::default();
        let stats = TenantStats::default();
        // Fetch a batch of `max`, then count the allocator calls of
        // reporting it.
        let report_calls = |tuning: &mut Tuning, cfg: &ServerConfig, max: usize| {
            let caller = Caller {
                cfg,
                app: "allocations",
                tenant: "",
                stats: &stats,
                client: 1,
                session_id: 1,
                now: Instant::now(),
            };
            let trials = tuning.top_up(&caller, max).trials;
            let reports: Vec<TrialReport> = trials
                .iter()
                .map(|t| TrialReport {
                    iteration: t.iteration,
                    cost: t.config.int("tile").unwrap() as f64,
                    wall_time: 0.0,
                })
                .collect();
            let before = crate::counting::calls();
            tuning.apply_reports(&caller, reports).unwrap();
            crate::counting::calls() - before
        };
        // Twin sessions, one with a store: what the session does allocates
        // alike in both, so the difference is the store's append.
        let (mut with, mut without) = (four_int_tuning(), four_int_tuning());
        let mut appended = 0;
        for (round, max) in [16, 16, 16, 16, 64, 16, 16].into_iter().enumerate() {
            let calls = report_calls(&mut with, &stored, max);
            let twin = report_calls(&mut without, &bare, max);
            let store_calls = calls - twin;
            eprintln!("batch of {max}: {calls} allocator calls, {store_calls} for the store");
            appended += max;
            // The first batch interns the app and the shape.
            if round > 0 {
                assert!(
                    store_calls <= 10,
                    "{store_calls} calls for a batch of {max}"
                );
            }
        }
        assert_eq!(store.record_count(), appended);
    }

    /// A store at a fresh temporary path, the fingerprint of the
    /// two-parameter space `declare_xy` seals, and the path's guard.
    fn fresh_store(tag: &str) -> (SharedStore, u64, crate::TempPath) {
        let path = crate::TempPath::new(&format!("server-{tag}.store"));
        let _ = std::fs::remove_file(&path);
        let space = crate::space::SearchSpace::builder()
            .param(Param::int("x", 0, 200, 1))
            .param(Param::int("y", 0, 200, 1))
            .build()
            .unwrap();
        let store = SharedStore::open(&path).unwrap();
        (store, space_fingerprint(&space), path)
    }

    fn declare_xy(client: &HarmonyClient, max_evaluations: usize) {
        client.add_param(Param::int("x", 0, 200, 1)).unwrap();
        client.add_param(Param::int("y", 0, 200, 1)).unwrap();
        let options = SessionOptions {
            max_evaluations,
            seed: 5,
            ..Default::default()
        };
        client.seal(options, StrategyKind::Random).unwrap();
    }

    fn xy_cost(cfg: &crate::space::Configuration) -> f64 {
        let x = cfg.int("x").unwrap() as f64;
        let y = cfg.int("y").unwrap() as f64;
        (x - 120.0).powi(2) + (y - 40.0).powi(2)
    }

    #[test]
    fn a_report_batch_that_fails_partway_still_records_what_it_applied() {
        let (store, fingerprint, _path) = fresh_store("partway");
        let server = HarmonyServer::start_with_config(ServerConfig {
            store: Some(store.clone()),
            ..Default::default()
        });
        let client = server.connect("partway").unwrap();
        declare_xy(&client, 10);
        let (trials, _) = client.fetch_batch(2).unwrap();
        let valid = TrialReport {
            iteration: trials[0].iteration,
            cost: 7.5,
            wall_time: 1.0,
        };
        let unknown = TrialReport {
            iteration: 10_000,
            cost: 1.0,
            wall_time: 1.0,
        };
        let err = client.report_batch(vec![valid, unknown]).unwrap_err();
        assert!(err.to_string().contains("unknown trial"), "{err}");
        // The session applied the first report; the store has it too.
        assert_eq!(client.history().unwrap().0.len(), 1);
        let key = trials[0].config.cache_key();
        let hit = store
            .lookup("partway", fingerprint, &key)
            .expect("a store hit");
        assert_eq!(hit.cost, 7.5);
        server.shutdown();
    }

    #[test]
    fn a_report_for_a_served_iteration_is_dropped_as_stale() {
        // The reference campaign, measured with no store.
        let server = HarmonyServer::start();
        let client = server.connect("served").unwrap();
        declare_xy(&client, 6);
        loop {
            let fetched = client.fetch().unwrap();
            if fetched.finished {
                break;
            }
            client.report(xy_cost(&fetched.config)).unwrap();
        }
        let (reference, _) = client.history().unwrap();
        server.shutdown();
        assert!(reference.evaluations().iter().all(|e| !e.cached));

        // The store knows every point but the first, so one request hands
        // out iteration 1 and serves 2..=6 behind it.
        let (store, fingerprint, _path) = fresh_store("served");
        for e in &reference.evaluations()[1..] {
            let record = StoreRecord::new("served", fingerprint, e.config.clone(), e.cost, 1.0);
            store.insert(record).unwrap();
        }
        let telemetry = Telemetry::enabled();
        let server = HarmonyServer::start_with_config(ServerConfig {
            store: Some(store),
            telemetry: telemetry.clone(),
            ..Default::default()
        });
        let client = server.connect("served").unwrap();
        declare_xy(&client, 6);
        let (trials, finished) = client.fetch_batch(16).unwrap();
        assert!(!finished);
        assert_eq!(trials.len(), 1);
        assert_eq!(trials[0].iteration, 1);
        let report = |iteration, cost| TrialReport {
            iteration,
            cost,
            wall_time: 1.0,
        };
        // Iteration 6 was served, never handed out: its echo is stale.
        client.report_batch(vec![report(6, 0.0)]).unwrap();
        assert_eq!(telemetry.counter(Counter::StaleReportsDropped), 1);
        let err = client.report_batch(vec![report(7, 0.0)]).unwrap_err();
        assert!(err.to_string().contains("unknown trial"), "{err}");
        let first = xy_cost(&trials[0].config);
        client.report_batch(vec![report(1, first)]).unwrap();
        assert!(client.fetch_batch(16).unwrap().1, "the budget is spent");
        let (warm, _) = client.history().unwrap();
        server.shutdown();
        assert_eq!(reference.len(), warm.len());
        for (a, b) in reference.evaluations().iter().zip(warm.evaluations()) {
            assert_eq!(a.config.cache_key(), b.config.cache_key());
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(b.cached, b.iteration > 1);
        }
    }

    /// Send `req` as `client` and return the reply.
    fn call(bus: &ServerBus, client: u64, req: Request) -> Reply {
        bus.dispatch(client, req).expect("running")
    }

    /// How many trials `client`'s session has out, read off its cell.
    fn outstanding(bus: &ServerBus, client: u64) -> usize {
        let cell = Arc::clone(&read(&bus.table).clients[&client]);
        let state = lock(&cell);
        match &state.phase {
            SessionPhase::Tuning(tuning) => tuning.outstanding.len(),
            SessionPhase::Building { .. } => 0,
        }
    }

    fn inflight(server: &HarmonyServer, tenant: &str) -> u64 {
        let stats = server.config().tenants.stats(tenant);
        stats.inflight.load(Ordering::Relaxed)
    }

    fn exchange(reports: Vec<TrialReport>) -> Request {
        Request::Exchange { reports, max: 1 }
    }

    #[test]
    fn exchange_reporting_an_unknown_iteration_is_an_error_and_issues_nothing() {
        let telemetry = Telemetry::enabled();
        let server = HarmonyServer::start_with_config(ServerConfig {
            telemetry: telemetry.clone(),
            ..Default::default()
        });
        let client = server.connect_as("unknown", "team").unwrap();
        declare_xy(&client, 10);
        let (trials, _) = client.fetch_batch(2).unwrap();
        let bus = server.bus();
        let fetched = telemetry.counter(Counter::TrialsFetched);
        let unknown = TrialReport {
            iteration: 10_000,
            cost: 1.0,
            wall_time: 1.0,
        };
        let Reply::Error { message, retryable } = call(&bus, client.id(), exchange(vec![unknown]))
        else {
            panic!("an unknown iteration must be an error");
        };
        assert_eq!(
            client::reply_error(message, retryable),
            HarmonyError::Protocol("protocol error: report for unknown trial 10000".into())
        );
        assert_eq!(telemetry.counter(Counter::TrialsFetched), fetched);
        assert_eq!(outstanding(&bus, client.id()), 2);
        assert_eq!(inflight(&server, "team"), 2);
        // The two trials are still the client's, re-served first.
        let (again, _) = client.fetch_batch(2).unwrap();
        let iterations = |ts: &[FetchedTrial]| ts.iter().map(|t| t.iteration).collect::<Vec<_>>();
        assert_eq!(iterations(&again), iterations(&trials));
        server.shutdown();
    }

    #[test]
    fn exchange_refused_by_the_inflight_quota_still_applies_its_report() {
        let telemetry = Telemetry::enabled();
        let server = HarmonyServer::start_with_config(ServerConfig {
            tenant_max_inflight: Some(1),
            telemetry: telemetry.clone(),
            ..Default::default()
        });
        let client = server.connect_as("quota", "team").unwrap();
        declare_xy(&client, 50);
        let (trials, _) = client.fetch_batch(1).unwrap();
        // Another session of the tenant may take the slot the report frees
        // before this session's top-up reserves it: its cell is not this
        // one's. This stands in for that session's trial; without it, the
        // slot is always there for the top-up.
        let stats = server.config().tenants.stats("team");
        stats.inflight.fetch_add(1, Ordering::Relaxed);
        let report = TrialReport {
            iteration: trials[0].iteration,
            cost: 2.0,
            wall_time: 1.0,
        };
        let reply = call(&server.bus(), client.id(), exchange(vec![report]));
        assert!(
            matches!(&reply, Reply::Configs { trials, finished: false } if trials.is_empty()),
            "{reply:?}"
        );
        assert_eq!(client.history().unwrap().0.len(), 1, "the report counted");
        // Nothing was refused that was asked for by name: the refusal is
        // counted when a fetch meets it.
        assert_eq!(telemetry.counter(Counter::QuotaRefusals), 0);
        let quota = HarmonyError::QuotaExceeded {
            tenant: "team".into(),
        };
        assert_eq!(client.fetch().unwrap_err(), quota);
        assert_eq!(telemetry.counter(Counter::QuotaRefusals), 1);
        stats.inflight.fetch_sub(1, Ordering::Relaxed);
        assert!(!client.fetch().unwrap().finished);
        server.shutdown();
    }

    #[test]
    fn exchange_that_finishes_the_session_says_so() {
        let server = HarmonyServer::start();
        let client = server.connect_as("last", "team").unwrap();
        declare_xy(&client, 1);
        let (trials, _) = client.fetch_batch(1).unwrap();
        let report = TrialReport {
            iteration: trials[0].iteration,
            cost: 3.0,
            wall_time: 1.0,
        };
        let bus = server.bus();
        let reply = call(&bus, client.id(), exchange(vec![report]));
        assert!(
            matches!(&reply, Reply::Configs { trials, finished: true } if trials.is_empty()),
            "{reply:?}"
        );
        assert_eq!(outstanding(&bus, client.id()), 0);
        assert_eq!(inflight(&server, "team"), 0);
        // The next fetch carries the best configuration.
        let last = client.fetch().unwrap();
        assert!(last.finished);
        assert_eq!(last.config, trials[0].config);
        server.shutdown();
    }

    #[test]
    fn attach_to_unknown_session_fails() {
        let server = HarmonyServer::start();
        let err = server.attach(999_999).unwrap_err();
        assert!(err.to_string().contains("unknown session"), "{err}");
        server.shutdown();
    }

    #[test]
    fn session_quota_refuses_then_frees_on_leave() {
        let server = HarmonyServer::start_with_config(ServerConfig {
            tenant_max_sessions: Some(1),
            ..Default::default()
        });
        let first = server.connect_as("a", "team-a").unwrap();
        let err = server.connect_as("b", "team-a").unwrap_err();
        assert_eq!(
            err,
            HarmonyError::QuotaExceeded {
                tenant: "team-a".into()
            }
        );
        // Another tenant's budget is untouched by team-a being full.
        let other = server.connect_as("c", "team-b").unwrap();
        // Attaching a worker joins the existing session; it does not found
        // a new one, so it passes while the session quota is exhausted.
        first.add_param(Param::int("x", 0, 10, 1)).unwrap();
        first
            .seal(SessionOptions::default(), StrategyKind::Random)
            .unwrap();
        let worker = server.attach_as(first.session_id(), "team-a").unwrap();
        worker.leave().unwrap();
        // Only the *last* member leaving frees the session slot.
        first.leave().unwrap();
        server.connect_as("d", "team-a").unwrap();
        other.leave().unwrap();
        server.shutdown();
    }

    #[test]
    fn inflight_quota_clamps_batches_and_refuses_empty_handed_fetches() {
        let telemetry = Telemetry::enabled();
        let server = HarmonyServer::start_with_config(ServerConfig {
            tenant_max_inflight: Some(2),
            telemetry: telemetry.clone(),
            ..Default::default()
        });
        let c = server.connect_as("q", "team").unwrap();
        c.add_param(Param::int("x", 0, 1000, 1)).unwrap();
        c.seal(
            SessionOptions {
                max_evaluations: 50,
                seed: 1,
                ..Default::default()
            },
            StrategyKind::Random,
        )
        .unwrap();
        // A batch fetch is clamped to the tenant's in-flight budget.
        let (trials, finished) = c.fetch_batch(10).unwrap();
        assert!(!finished);
        assert_eq!(trials.len(), 2);
        // Re-fetching serves the same outstanding trials (refetch is exempt
        // from the quota — it issues nothing new).
        let (again, _) = c.fetch_batch(10).unwrap();
        let iters: Vec<usize> = trials.iter().map(|t| t.iteration).collect();
        let again_iters: Vec<usize> = again.iter().map(|t| t.iteration).collect();
        assert_eq!(iters, again_iters);
        // A second member with nothing to re-serve is refused, typed.
        let w = server.attach_as(c.session_id(), "team").unwrap();
        let quota_err = HarmonyError::QuotaExceeded {
            tenant: "team".into(),
        };
        assert_eq!(w.fetch_batch(10).unwrap_err(), quota_err);
        assert_eq!(w.fetch().unwrap_err(), quota_err);
        assert!(telemetry.counter(Counter::QuotaRefusals) >= 2);
        // Reporting frees the budget for the whole tenant.
        c.report_batch(
            trials
                .iter()
                .map(|t| TrialReport {
                    iteration: t.iteration,
                    cost: 1.0,
                    wall_time: 0.0,
                })
                .collect(),
        )
        .unwrap();
        let (now, _) = w.fetch_batch(10).unwrap();
        assert_eq!(now.len(), 2);
        server.shutdown();
    }

    #[test]
    fn sync_peer_replicates_and_warm_starts_from_peer_records() {
        let path_a = crate::TempPath::new("server-sync-a.store");
        let path_b = crate::TempPath::new("server-sync-b.store");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let cost_of = |cfg: &crate::space::Configuration| {
            let x = cfg.int("x").unwrap() as f64;
            (x - 21.0).powi(2)
        };
        let campaign = |server: &HarmonyServer| {
            let client = server.connect("fed").unwrap();
            client.add_param(Param::int("x", 0, 80, 1)).unwrap();
            client
                .seal(
                    SessionOptions {
                        max_evaluations: 30,
                        seed: 13,
                        ..Default::default()
                    },
                    StrategyKind::NelderMead,
                )
                .unwrap();
            let mut measured = 0usize;
            loop {
                let (trials, finished) = client.fetch_batch(4).unwrap();
                if finished {
                    break;
                }
                let reports = trials
                    .iter()
                    .map(|t| {
                        measured += 1;
                        TrialReport {
                            iteration: t.iteration,
                            cost: cost_of(&t.config),
                            wall_time: 1.0,
                        }
                    })
                    .collect();
                client.report_batch(reports).unwrap();
            }
            let (h, _) = client.history().unwrap();
            (measured, h)
        };

        // Server A measures a campaign and exposes its log over /store/log.
        let store_a = SharedStore::open(&path_a).unwrap();
        let server_a = HarmonyServer::start_with_config(ServerConfig {
            store: Some(store_a.clone()),
            ..Default::default()
        });
        let observe_a = server_a.observe("127.0.0.1:0").unwrap();
        let (measured_a, hist_a) = campaign(&server_a);
        assert_eq!(measured_a, 30);
        store_a.flush().unwrap();

        // Server B starts on an empty store with A as its anti-entropy peer.
        let store_b = SharedStore::open(&path_b).unwrap();
        let server_b = HarmonyServer::start_with_config(ServerConfig {
            store: Some(store_b.clone()),
            sync_peers: vec![observe_a.addr().to_string()],
            sync_interval: Duration::from_millis(25),
            ..Default::default()
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while store_b.record_count() < store_a.record_count() {
            assert!(Instant::now() < deadline, "replication did not converge");
            std::thread::sleep(Duration::from_millis(10));
        }
        // B never measured a trial of this app, yet it answers the whole
        // campaign from records it pulled off A.
        let (measured_b, hist_b) = campaign(&server_b);
        assert_eq!(measured_b, 0, "warm start on B must re-measure nothing");
        assert_eq!(hist_a.len(), hist_b.len());
        for (a, b) in hist_a.evaluations().iter().zip(hist_b.evaluations()) {
            assert_eq!(a.config.cache_key(), b.config.cache_key());
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
        assert!(hist_b.evaluations().iter().all(|e| e.cached));
        server_b.shutdown();
        observe_a.stop();
        server_a.shutdown();
    }

    #[test]
    fn a_puller_repulls_records_a_compaction_moved_beneath_its_mark() {
        let path_a = crate::TempPath::new("server-resync-a.store");
        let path_b = crate::TempPath::new("server-resync-b.store");
        for path in [&path_a, &path_b] {
            let _ = std::fs::remove_file(path);
        }
        let space = crate::space::SearchSpace::builder()
            .int("x", 0, 80, 1)
            .build()
            .unwrap();
        let fp = space_fingerprint(&space);
        let record =
            |x: f64, cost: f64| StoreRecord::new("resync", fp, space.project(&[x]), cost, cost);
        // Ten records and a noisy re-measurement of the first: eleven lines
        // in A's log, ten of them live. Every `x` has two digits and every
        // cost's bits nineteen, so every line is as long as every other.
        let store_a = SharedStore::open(&path_a).unwrap();
        let mut seeded: Vec<StoreRecord> = (10..20).map(|x| record(x as f64, x as f64)).collect();
        seeded.push(record(10.0, 10.5));
        store_a.insert_batch(seeded).unwrap();
        let server_a = HarmonyServer::start_with_config(ServerConfig {
            store: Some(store_a.clone()),
            ..Default::default()
        });
        let observe_a = server_a.observe("127.0.0.1:0").unwrap();
        let store_b = SharedStore::open(&path_b).unwrap();
        let server_b = HarmonyServer::start_with_config(ServerConfig {
            store: Some(store_b.clone()),
            sync_peers: vec![observe_a.addr().to_string()],
            sync_interval: Duration::from_millis(10),
            ..Default::default()
        });
        let has = |x: f64| {
            let key = space.project(&[x]).cache_key();
            store_b.lookup("resync", fp, &key).is_some()
        };
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let lines = || {
            let file = std::fs::read_to_string(&path_a).unwrap();
            let starts = file.split_inclusive('\n').skip(1).scan(0, |at, line| {
                let start = *at;
                *at += line.len();
                Some((start, line.to_string()))
            });
            starts.collect::<Vec<_>>()
        };
        // B has merged the first pull, so its mark is the end of A's
        // eleventh line.
        wait_for("the first pull", &|| store_b.record_count() == 10);
        let mark = lines().iter().map(|(_, line)| line.len()).sum::<usize>();
        // In one step under A's lock, so that no pull sees it half done:
        // x=50 and x=51 land after the duplicate, the compaction drops it and
        // moves them up a line, and x=52 lands last. The old mark is now the
        // start of x=51's line: a pull from it that did not know the file
        // changed beneath it would merge x=51 and x=52 and never see x=50.
        store_a.with(|a| {
            a.insert_batch(vec![record(50.0, 50.0), record(51.0, 51.0)])
                .unwrap();
            a.compact().unwrap();
            a.insert(record(52.0, 52.0)).unwrap();
        });
        let at_mark = lines().into_iter().find(|(start, _)| *start == mark);
        assert!(
            at_mark.is_some_and(|(_, line)| line.contains(r#"{"Int":51}"#)),
            "the old mark {mark} must start x=51's line in {:?}",
            lines()
        );
        wait_for("x=52 replicated", &|| has(52.0));
        wait_for("x=50, moved beneath the mark, replicated", &|| has(50.0));
        assert!(has(51.0));
        server_b.shutdown();
        observe_a.stop();
        server_a.shutdown();
    }

    fn register(bus: &ServerBus, tenant: &str) -> u64 {
        let req = Request::Register {
            app: "dispatch".into(),
            tenant: tenant.into(),
        };
        match call(bus, 0, req) {
            Reply::Registered { client_id, .. } => client_id,
            other => panic!("register failed: {other:?}"),
        }
    }

    /// Spin until `done` holds, for at most ten seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn dispatch_serves_an_idle_shard_on_the_caller() {
        let server = HarmonyServer::start();
        let bus = server.bus();
        let req = Request::Register {
            app: "idle".into(),
            tenant: String::new(),
        };
        let reply = bus.dispatch(0, req).unwrap();
        assert!(matches!(reply, Reply::Registered { .. }), "{reply:?}");
        // The request was answered and counts no more.
        assert_eq!(bus.gate.admitted(), 0);
        assert!(matches!(
            call(&bus, 0, Request::Heartbeat),
            Reply::Error { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn shutdown_serves_the_waiters_refuses_later_callers_and_returns_once_idle() {
        let server = HarmonyServer::start();
        let bus = server.bus();
        let client = register(&bus, "");
        let cell = Arc::clone(&read(&bus.table).clients[&client]);
        let held = lock(&cell);
        let waiter = {
            let bus = bus.clone();
            std::thread::spawn(move || bus.dispatch(client, Request::Heartbeat))
        };
        wait_until("the waiter is admitted", || bus.gate.admitted() == 1);
        let stopper = std::thread::spawn(move || server.shutdown());
        wait_until("the server closes", || {
            bus.gate.0.load(Ordering::Acquire) & CLOSED != 0
        });
        // A later caller is refused at once, though its session is busy.
        let refused = bus.dispatch(client, Request::Heartbeat).unwrap_err();
        assert_eq!(refused, HarmonyError::Disconnected);
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !stopper.is_finished(),
            "shutdown returned while a request was waiting for its session"
        );
        drop(held);
        // The caller that was already waiting is still served.
        let served = waiter.join().unwrap();
        assert!(matches!(served, Ok(Reply::Ok)), "{served:?}");
        stopper.join().unwrap();
        assert_eq!(bus.gate.admitted(), 0);
        let refused = bus.dispatch(client, Request::Heartbeat).unwrap_err();
        assert_eq!(refused, HarmonyError::Disconnected);
    }

    #[test]
    fn callers_that_waited_for_a_session_that_went_find_it_gone() {
        let server = HarmonyServer::start();
        let bus = server.bus();
        let founder = register(&bus, "team");
        let cell = Arc::clone(&read(&bus.table).sessions[&founder]);
        let mut held = lock(&cell);
        // An attach and the founder's heartbeat each take the cell out of
        // the table, then wait for it: two references besides the table's
        // two and this test's.
        let attach = {
            let bus = bus.clone();
            let req = Request::Attach {
                session: founder,
                tenant: String::new(),
            };
            std::thread::spawn(move || call(&bus, 0, req))
        };
        let heartbeat = {
            let bus = bus.clone();
            std::thread::spawn(move || call(&bus, founder, Request::Heartbeat))
        };
        wait_until("both wait for the cell", || Arc::strong_count(&cell) == 5);
        // Meanwhile the session leaves the table, as at its last `Leave`.
        held.members.clear();
        held.ended = true;
        let mut table = write(&bus.table);
        table.sessions.remove(&founder);
        table.clients.remove(&founder);
        drop(table);
        drop(held);
        let unknown = format!("unknown session {founder}");
        assert!(
            matches!(attach.join().unwrap(), Reply::Error { message, .. } if message == unknown)
        );
        let stranger = HarmonyError::UnknownClient(founder).to_string();
        assert!(
            matches!(heartbeat.join().unwrap(), Reply::Error { message, .. } if message == stranger)
        );
        assert_eq!(server.client_count(), 0);
        server.shutdown();
    }

    fn served(server: &HarmonyServer, tenant: &str) -> u64 {
        let rows = server.config().tenants.snapshot();
        rows.iter().find(|r| r.0 == tenant).map_or(0, |r| r.3)
    }

    #[test]
    fn evicted_member_leaves_no_per_client_state_on_its_shard() {
        let server = HarmonyServer::start_with_config(ServerConfig {
            client_ttl: Some(Duration::from_millis(30)),
            ..Default::default()
        });
        let founder = server.connect_as("ttl", "team").unwrap();
        founder.add_param(Param::int("x", 0, 100, 1)).unwrap();
        founder
            .seal(SessionOptions::default(), StrategyKind::Random)
            .unwrap();
        let worker = server.attach(founder.session_id()).unwrap();
        // The founder heartbeats; the worker goes silent past its TTL.
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(20));
            founder.heartbeat().unwrap();
        }
        // Eviction took the worker out of the table, and the table is all
        // there is: its next request is a stranger's, accounted to the
        // default tenant and not to the team it once belonged to.
        let team_before = served(&server, "team");
        assert!(worker.fetch().is_err(), "evicted member must be refused");
        assert_eq!(served(&server, "team"), team_before);
        assert_eq!(served(&server, DEFAULT_TENANT), 1);
        server.shutdown();
    }

    #[test]
    fn attached_member_with_a_foreign_label_is_served_in_the_founders_queue() {
        let server = HarmonyServer::start();
        let founder = server.connect_as("pool", "team-a").unwrap();
        let worker = server.attach_as(founder.session_id(), "team-b").unwrap();
        for _ in 0..5 {
            worker.heartbeat().unwrap();
        }
        // Register + Attach + five heartbeats, all team-a's; the label the
        // worker attached with never became a tenant of its own.
        assert_eq!(served(&server, "team-a"), 7);
        let rows = server.config().tenants.snapshot();
        assert!(rows.iter().all(|r| r.0 != "team-b"), "{rows:?}");
        server.shutdown();
    }

    /// The tenant's `(sessions, inflight)` row.
    fn holdings(server: &HarmonyServer, tenant: &str) -> (u64, u64) {
        let rows = server.config().tenants.snapshot();
        rows.iter()
            .find(|r| r.0 == tenant)
            .map_or((0, 0), |r| (r.1, r.2))
    }

    /// A sealed session of `tenant` with a founder and one attached worker.
    fn pool(server: &HarmonyServer, tenant: &str) -> (HarmonyClient, HarmonyClient) {
        let founder = server.connect_as("pool", tenant).unwrap();
        declare_xy(&founder, 40);
        let worker = server.attach_as(founder.session_id(), tenant).unwrap();
        (founder, worker)
    }

    fn assert_unknown(server: &HarmonyServer, session: u64) {
        let err = server.attach(session).unwrap_err();
        assert!(err.to_string().contains("unknown session"), "{err}");
    }

    #[test]
    fn inflight_quota_is_exact_when_sessions_top_up_at_once() {
        // Eight sessions of one tenant top up at once under a cap of four:
        // whichever order their top-ups run in, together they never hold
        // more than four trials.
        const SESSIONS: usize = 8;
        const CAP: usize = 4;
        for round in 0..200 {
            let server = HarmonyServer::start_with_config(ServerConfig {
                tenant_max_inflight: Some(CAP),
                ..Default::default()
            });
            let clients: Vec<HarmonyClient> = (0..SESSIONS)
                .map(|i| {
                    let client = server.connect_as(format!("race-{i}"), "team").unwrap();
                    declare_xy(&client, 40);
                    client
                })
                .collect();
            let barrier = std::sync::Barrier::new(SESSIONS);
            let held: usize = std::thread::scope(|s| {
                let fetchers: Vec<_> = clients
                    .iter()
                    .map(|client| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            barrier.wait();
                            client
                                .fetch_batch(CAP)
                                .map_or(0, |(trials, _)| trials.len())
                        })
                    })
                    .collect();
                fetchers.into_iter().map(|f| f.join().unwrap()).sum()
            });
            assert!(held <= CAP, "round {round}: the tenant holds {held} trials");
            assert_eq!(inflight(&server, "team"), held as u64, "round {round}");
            server.shutdown();
        }
    }

    #[test]
    fn table_and_cells_agree_after_racing_membership_changes() {
        let telemetry = Telemetry::enabled();
        let server = HarmonyServer::start_with_config(ServerConfig {
            client_ttl: Some(Duration::from_millis(2)),
            telemetry: telemetry.clone(),
            ..Default::default()
        });
        let bus = server.bus();
        let sessions: Vec<u64> = (0..3)
            .map(|_| {
                let founder = server.connect_as("race", "team").unwrap();
                declare_xy(&founder, 1_000_000);
                founder.session_id()
            })
            .collect();
        // Four threads attach to the sessions, fetch and report part of
        // what they fetched, leave, depart as a dead connection would, and
        // go silent past the TTL so that the others' sweeps evict them.
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let (bus, sessions) = (&bus, &sessions);
                s.spawn(move || {
                    let mut state = (thread + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut next = move |n: usize| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % n as u64) as usize
                    };
                    let mut mine: Vec<u64> = Vec::new();
                    for _ in 0..300 {
                        match next(6) {
                            0 | 1 if mine.len() < 3 => {
                                let req = Request::Attach {
                                    session: sessions[next(sessions.len())],
                                    tenant: String::new(),
                                };
                                if let Reply::Registered { client_id, .. } = call(bus, 0, req) {
                                    mine.push(client_id);
                                }
                            }
                            _ if mine.is_empty() => {}
                            2 => {
                                let client = mine.swap_remove(next(mine.len()));
                                call(bus, client, Request::Leave);
                            }
                            3 => {
                                let client = mine.swap_remove(next(mine.len()));
                                bus.depart(client).unwrap();
                            }
                            4 => std::thread::sleep(Duration::from_millis(3)),
                            _ => {
                                let client = mine[next(mine.len())];
                                let req = Request::FetchBatch { max: 2 };
                                if let Reply::Configs { trials, .. } = call(bus, client, req) {
                                    let reports = trials
                                        .iter()
                                        .take(1)
                                        .map(|t| TrialReport {
                                            iteration: t.iteration,
                                            cost: xy_cost(&t.config),
                                            wall_time: 0.0,
                                        })
                                        .collect();
                                    call(bus, client, Request::ReportBatch { reports });
                                }
                            }
                        }
                    }
                });
            }
        });
        assert!(telemetry.counter(Counter::MembersEvicted) > 0);
        // Cells are locked only after the table lock is dropped.
        let (sessions, clients): (HashMap<u64, Cell>, HashMap<u64, Cell>) = {
            let table = read(&bus.table);
            (table.sessions.clone(), table.clients.clone())
        };
        for (client, cell) in &clients {
            let state = lock(cell);
            assert!(!state.ended, "client {client} maps to an ended session");
            assert!(
                state.members.contains_key(client),
                "client {client} is no member of session {}",
                state.id
            );
            assert!(Arc::ptr_eq(&sessions[&state.id], cell), "client {client}");
        }
        let (mut live, mut held) = (0, 0);
        for (id, cell) in &sessions {
            let state = lock(cell);
            assert_eq!(state.id, *id);
            assert!(!state.ended, "session {id} ended but is in the table");
            for member in state.members.keys() {
                let entry = clients.get(member);
                assert!(
                    entry.is_some_and(|c| Arc::ptr_eq(c, cell)),
                    "member {member}"
                );
            }
            live += u64::from(!state.members.is_empty());
            if let SessionPhase::Tuning(tuning) = &state.phase {
                held += tuning.outstanding.len() as u64;
            }
        }
        assert_eq!(holdings(&server, "team"), (live, held));
        server.shutdown();
    }

    #[test]
    fn lifecycle_a_last_explicit_leave_ends_the_session() {
        let server = HarmonyServer::start();
        let observe = server.observe("127.0.0.1:0").unwrap();
        let (founder, worker) = pool(&server, "team");
        let session = founder.session_id();
        let (held, _) = worker.fetch_batch(3).unwrap();
        assert_eq!(held.len(), 3);
        // A member that is not the last leaves a live session behind, its
        // trials requeued and still counted against the tenant.
        worker.leave().unwrap();
        assert_eq!(holdings(&server, "team"), (1, 3));
        founder.fetch_batch(1).unwrap();
        founder.leave().unwrap();
        assert_eq!(holdings(&server, "team"), (0, 0));
        assert_unknown(&server, session);
        let (code, body) = observe::http_get(&observe.addr().to_string(), "/status").unwrap();
        assert_eq!(code, 200);
        let doc = serde_json::parse(&body).unwrap();
        let sessions = doc.get("sessions").and_then(|v| v.as_array()).unwrap();
        assert!(sessions.is_empty(), "{body}");
        observe.stop();
        server.shutdown();
    }

    #[test]
    fn lifecycle_ttl_eviction_leaves_the_session_revivable() {
        let server = HarmonyServer::start_with_config(ServerConfig {
            client_ttl: Some(Duration::from_millis(30)),
            ..Default::default()
        });
        let (founder, worker) = pool(&server, "team");
        let session = founder.session_id();
        let (held, _) = worker.fetch_batch(1).unwrap();
        // The worker goes silent past its TTL and is evicted by a sweep.
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(20));
            founder.heartbeat().unwrap();
        }
        assert_eq!(server.client_count(), 1);
        // The founder's goodbye leaves nobody, but the evicted worker may
        // still come back: the session waits for it.
        founder.leave().unwrap();
        assert_eq!(holdings(&server, "team"), (0, 1));
        let rejoined = server.attach(session).unwrap();
        assert_eq!(holdings(&server, "team"), (1, 1));
        let (inherited, _) = rejoined.fetch_batch(1).unwrap();
        assert_eq!(inherited[0].iteration, held[0].iteration);
        // The rejoin matched the eviction, so this goodbye ends it.
        rejoined.leave().unwrap();
        assert_eq!(holdings(&server, "team"), (0, 0));
        assert_unknown(&server, session);
        server.shutdown();
    }

    #[test]
    fn lifecycle_a_crashed_worker_and_the_founders_leave_keep_the_session_for_the_worker() {
        let server = HarmonyServer::start();
        let (founder, worker) = pool(&server, "team");
        let session = founder.session_id();
        let (held, _) = worker.fetch_batch(2).unwrap();
        // The worker's connection dies: what the event loop sends for it.
        server.bus().depart(worker.id()).unwrap();
        founder.leave().unwrap();
        assert_eq!(server.client_count(), 0);
        assert_eq!(holdings(&server, "team"), (0, 2));
        let rejoined = server.attach(session).unwrap();
        let (inherited, _) = rejoined.fetch_batch(2).unwrap();
        let iterations = |trials: &[FetchedTrial]| -> Vec<usize> {
            trials.iter().map(|t| t.iteration).collect()
        };
        assert_eq!(iterations(&inherited), iterations(&held));
        rejoined.leave().unwrap();
        assert_unknown(&server, session);
        server.shutdown();
    }

    #[test]
    fn lifecycle_a_last_implicit_departure_leaves_the_session_revivable() {
        let server = HarmonyServer::start();
        let founder = server.connect_as("solo", "team").unwrap();
        declare_xy(&founder, 40);
        let session = founder.session_id();
        let (held, _) = founder.fetch_batch(1).unwrap();
        server.bus().depart(founder.id()).unwrap();
        assert_eq!(holdings(&server, "team"), (0, 1));
        let rejoined = server.attach(session).unwrap();
        let (inherited, _) = rejoined.fetch_batch(1).unwrap();
        assert_eq!(inherited[0].iteration, held[0].iteration);
        rejoined.leave().unwrap();
        assert_eq!(holdings(&server, "team"), (0, 0));
        assert_unknown(&server, session);
        server.shutdown();
    }
}
