//! The observability plane: a tiny embedded HTTP/1.1 responder serving
//! live metrics and search-state introspection for a running
//! [`HarmonyServer`](super::HarmonyServer).
//!
//! Started with [`HarmonyServer::observe`](super::HarmonyServer::observe),
//! the responder is one [`event loop`](super::event_loop) thread running
//! HTTP as its service, and answers:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4) of every
//!   telemetry counter, per-tenant counter and latency histogram.
//! * `GET /status` — JSON: per-session strategy, best-so-far cost and
//!   configuration, simplex vertex costs and spread, evaluations done,
//!   pending/outstanding/requeued trial counts, per-tenant holdings,
//!   store hit rate and WAL position.
//! * `GET /trials?n=K` — the last `K` trial lifecycle events from the
//!   telemetry ring (all of them without `n`).
//! * `GET /spans?n=K` — the last `K` completed timing spans.
//! * `GET /trace` — the completed spans as Chrome trace-event JSON,
//!   loadable in Perfetto (`repro trace --from <addr>` pulls this).
//! * `GET /store/log?at=B` — the attached performance store's log file from
//!   `B` bytes past its header line, as it is on disk, after a JSON header
//!   line (`{"kind":"ah-store-log","start":S,"generation":G}`): the feed
//!   peer servers pull on their anti-entropy interval
//!   ([`ServerConfig::sync_peers`]). `S` is the `B` served, 0 for one past
//!   the end or inside a line; a generation the puller has not seen (the
//!   peer compacted or reopened its store) makes it re-pull from 0 — the
//!   merge is idempotent. The file is read after the store lock is
//!   released, through a handle on the file the store appends to, so a path
//!   renamed or unlinked beneath a running server changes nothing served. A
//!   record whose append failed is in no file, and not served. 404 when no
//!   store is attached.
//! * `GET /` — an index of the routes above.
//!
//! Everything stays off the tuning hot path: a response takes each session's
//! lock only long enough to copy a [`SearchSnapshot`] out, and the plane's
//! own loop keeps a long body (`/store/log`, `/trace`) off the tuning loops.
//! An idle connection costs a buffer, not a thread. A `/fleet` with sync
//! peers reads them on the server's chores thread. The implementation is
//! hand-rolled over [`std::net`] — the repo builds offline against vendored
//! crates only, and a few GET routes do not justify an HTTP dependency.
//!
//! [`SearchSnapshot`]: crate::session::SearchSnapshot

use super::chores::Poster;
use super::event_loop::{Close, Conn, EventLoopConfig, EventLoopPool, Phase, Service};
use super::poll::Waker;
use super::tcp::DEFAULT_MAX_CONNECTIONS;
use super::{ServerBus, ServerConfig, SessionPhase, SessionState, Tuning};
use crate::durable_log::push_line;
use crate::lock;
use crate::store::SharedStore;
use crate::telemetry::{slo, Counter, Telemetry, TenantMetric};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a connection may stay silent — mid-head or between keep-alive
/// requests — before the plane closes it, and how long [`http_get`] waits
/// to connect or read. One slow client must not wedge the plane.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Most bytes a request's head — request line plus headers — may take.
/// Every route is a short `GET`; a client still sending its head after
/// this much is answered `431` and dropped, so what the plane buffers for
/// a connection is bounded whatever that connection sends.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Most bytes [`http_get`] takes from a responder, head included. Room for
/// a full event ring as `/trace` (some 15 MiB); a `/store/log` reply is cut
/// to fit, after a whole line, and the sync loop asks for the rest next
/// round. A peer that never stops sending costs this much and no more.
const MAX_RESPONSE_BYTES: usize = 32 << 20;

/// `kind` value of the [`StoreLogHeader`] a `/store/log` response leads
/// with, so a puller never mistakes an arbitrary HTTP body for a log.
pub(crate) const STORE_LOG_KIND: &str = "ah-store-log";

/// First line of a `/store/log` response: which slice of the peer's log
/// file follows. `start` is the byte offset, counted from the file's first
/// record line, the slice begins at (0 when the requested `at` is past the
/// end or inside a line), and `generation` names the file the offset is in
/// ([`PerfStore::generation`](crate::store::PerfStore::generation)): a
/// compaction rewrites the file, and a puller that sees a new generation
/// re-pulls from 0.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct StoreLogHeader {
    pub kind: String,
    pub start: u64,
    #[serde(default)]
    pub generation: u64,
}

/// Handle to a running observability responder. Dropping it (or calling
/// [`stop`](ObserveHandle::stop)) stops the responder's loop thread.
pub struct ObserveHandle {
    addr: SocketAddr,
    _pool: EventLoopPool,
}

impl ObserveHandle {
    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the responder's loop thread and wait for it to exit; a `/fleet`
    /// build already posted to the server's chores thread still runs there.
    pub fn stop(self) {
        drop(self);
    }
}

/// Everything a response is built from, and this responder's own address
/// (its identity in the fleet view).
struct ObserveCtx {
    bus: ServerBus,
    cfg: ServerConfig,
    fleet: FleetCache,
    local: SocketAddr,
    /// Where a `/fleet` with peers is built.
    chores: Poster,
}

/// Last good `/fleet` snapshot per peer: `(fetched_at, row)`. A peer that
/// stops answering keeps contributing its cached row, marked stale with
/// its age — a fleet view must degrade, not blank, when one server blips.
type FleetCache = Arc<Mutex<HashMap<String, (Instant, Value)>>>;

/// Bind `addr` and start the responder's loop thread.
pub(crate) fn start(
    addr: &str,
    bus: ServerBus,
    cfg: ServerConfig,
    chores: Poster,
) -> std::io::Result<ObserveHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let ctx = Arc::new(ObserveCtx {
        bus,
        cfg,
        fleet: FleetCache::default(),
        local,
        chores,
    });
    let loop_cfg = EventLoopConfig {
        loop_threads: 1,
        idle_timeout: Some(READ_TIMEOUT),
        max_frame_len: MAX_HEAD_BYTES,
        ..Default::default()
    };
    let pool = EventLoopPool::start(
        "harmony-observe",
        listener,
        loop_cfg,
        DEFAULT_MAX_CONNECTIONS,
        // HTTP connections move none of the tuning `connections_*` counters.
        Telemetry::disabled(),
        |waker| HttpService {
            ctx: Arc::clone(&ctx),
            waker: Arc::clone(waker),
            fleet: None,
        },
    )?;
    Ok(ObserveHandle {
        addr: local,
        _pool: pool,
    })
}

/// HTTP as an event-loop service: each request head is read line by line
/// through the connection's frame decoder and answered from [`ObserveCtx`],
/// one request per pass, in order.
struct HttpService {
    ctx: Arc<ObserveCtx>,
    /// Wakes the loop when the chores thread has built `/fleet`.
    waker: Arc<Waker>,
    /// Where the `/fleet` build under way posts its document (`None` if
    /// building it panicked), which every `/fleet` request parked meanwhile
    /// shares. Stopping the plane does not wait for the build.
    fleet: Option<Receiver<Option<String>>>,
}

/// The request head a connection is reading.
#[derive(Default)]
struct Head {
    /// The request line, once it has arrived.
    line: Option<String>,
    /// The client asked for `Connection: close`, or its input ended.
    close: bool,
    /// Head bytes taken so far, against [`MAX_HEAD_BYTES`].
    used: usize,
}

impl Service for HttpService {
    type State = Head;

    fn serve(&mut self, conn: &mut Conn<Head>) -> Result<bool, Close> {
        while conn.may_decode() {
            conn.decoder
                .set_max_frame(MAX_HEAD_BYTES.saturating_sub(conn.state.used));
            let line = match conn.next_frame() {
                Ok(Some(line)) => line,
                // The input ended inside a head: answer what arrived.
                Ok(None) if conn.eof && conn.state.line.is_some() => {
                    conn.state.close = true;
                    String::new()
                }
                Ok(None) => return Ok(false),
                Err(_) => {
                    // The head outgrew its budget: answer, and give the
                    // connection up with the rest of its input unread.
                    respond(conn, 431, "text/plain", "request head too large\n", true);
                    return Ok(true);
                }
            };
            let head = &mut conn.state;
            head.used += line.len() + 2;
            if head.line.is_none() {
                if line.trim().is_empty() {
                    head.used = 0; // stray CRLF between pipelined requests
                } else {
                    head.line = Some(line);
                }
            } else if line.is_empty() {
                let head = std::mem::take(&mut conn.state);
                self.answer(conn, head);
                return Ok(true);
            } else {
                // The only header that changes behavior is an explicit
                // `Connection: close`.
                let lower = line.to_ascii_lowercase();
                if lower.starts_with("connection:") && lower.contains("close") {
                    head.close = true;
                }
            }
        }
        Ok(false)
    }

    fn woken(&mut self, conns: &mut HashMap<u64, Conn<Head>>) {
        let Some(Ok(body)) = self.fleet.as_ref().map(Receiver::try_recv) else {
            return;
        };
        self.fleet = None;
        for conn in conns.values_mut().filter(|conn| conn.parked) {
            let close = std::mem::take(&mut conn.state).close;
            match &body {
                Some(body) => respond(conn, 200, "application/json", body, close),
                None => respond(conn, 503, "text/plain", FLEET_FAILED, close),
            }
            conn.unpark();
        }
    }
}

impl HttpService {
    /// Queue the answer to a whole request head, or park the connection
    /// for a `/fleet` with peers.
    fn answer(&mut self, conn: &mut Conn<Head>, head: Head) {
        let line = head.line.unwrap_or_default();
        let mut parts = line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let target = parts.next().unwrap_or("");
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let (code, content_type, body, close) = if conn.phase == Phase::Refusing {
            let body = format!("server at connection capacity ({DEFAULT_MAX_CONNECTIONS})\n");
            (503, "text/plain", body, true)
        } else if method != "GET" {
            // A non-GET may carry a body this plane does not parse; answer
            // with a correctly-framed 405 and close rather than misread the
            // body bytes as a next request.
            (405, "text/plain", "method not allowed\n".into(), true)
        } else if path == "/fleet" && !self.ctx.cfg.sync_peers.is_empty() {
            if self.fan_out() {
                conn.state.close = head.close;
                conn.parked = true;
                return;
            }
            (503, "text/plain", FLEET_FAILED.into(), head.close)
        } else {
            let (code, content_type, body) = route(&self.ctx, path, query);
            (code, content_type, body, head.close)
        };
        respond(conn, code, content_type, &body, close);
    }

    /// Post the `/fleet` build to the server's chores thread, unless a
    /// build is already under way: its peer reads block, and a loop blocked
    /// in them could not answer a peer's (or its own) `/status` meanwhile.
    /// Returns whether a build is under way; with the server gone there is
    /// none, and the request is refused rather than built here.
    fn fan_out(&mut self) -> bool {
        if self.fleet.is_none() {
            let (tx, rx) = channel();
            let (ctx, waker) = (Arc::clone(&self.ctx), Arc::clone(&self.waker));
            let posted = self.ctx.chores.post(move || {
                let body = catch_unwind(AssertUnwindSafe(|| render(fleet_json(&ctx))));
                let _ = tx.send(body.ok());
                waker.wake();
            });
            self.fleet = posted.then_some(rx);
        }
        self.fleet.is_some()
    }
}

/// The `503` body when no `/fleet` document could be built.
const FLEET_FAILED: &str = "fleet view unavailable\n";

/// Every route but a peer-reading `/fleet`: `(code, content type, body)`.
fn route(ctx: &ObserveCtx, path: &str, query: &str) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    const TEXT: &str = "text/plain";
    let (bus, cfg) = (&ctx.bus, &ctx.cfg);
    match path {
        "/" => (200, JSON, render(index_json())),
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            cfg.prometheus(),
        ),
        "/metrics/history" => match &cfg.timeseries {
            Some(series) => {
                let window = Duration::from_secs(parse_query(query, "window").unwrap_or(60) as u64);
                (200, JSON, render(series.history_json(window)))
            }
            None => (404, TEXT, "no timeseries attached\n".into()),
        },
        "/healthz" => {
            let (code, doc) = healthz_json(cfg);
            (code, JSON, render(doc))
        }
        "/status" => (200, JSON, render(status_json(bus, cfg))),
        "/fleet" => (200, JSON, render(fleet_json(ctx))),
        "/trials" => (200, JSON, tail(cfg.telemetry.events(), query)),
        "/spans" => (200, JSON, tail(cfg.telemetry.spans(), query)),
        "/trace" => (200, JSON, render(cfg.telemetry.chrome_trace())),
        "/store/log" => match &cfg.store {
            Some(store) => {
                let at = parse_query(query, "at").unwrap_or(0) as u64;
                // A reply's head is far shorter than a request's may be.
                match store_log(store, at, MAX_RESPONSE_BYTES - MAX_HEAD_BYTES) {
                    Ok(body) => (200, "application/x-ndjson", body),
                    Err(e) => (500, TEXT, format!("store log unreadable: {e}\n")),
                }
            }
            None => (404, TEXT, "no store attached\n".into()),
        },
        _ => (404, TEXT, "not found\n".into()),
    }
}

/// The `/store/log?at=B` body: a [`StoreLogHeader`] line, then `store`'s
/// log file from `B` bytes past its header line to its committed end, cut
/// after the last whole line within `cap` bytes. The store lock is held
/// only for the generation and [`committed_log`], a handle on the file the
/// store appends to, read after the lock is released.
///
/// [`committed_log`]: crate::store::PerfStore::committed_log
pub(crate) fn store_log(store: &SharedStore, at: u64, cap: usize) -> std::io::Result<String> {
    let (generation, log) = store.with(|store| (store.generation(), store.committed_log()));
    let mut log = log?;
    let len = log.end();
    let first = BufReader::new(&mut log).read_until(b'\n', &mut Vec::new())? as u64;
    let end = len.saturating_sub(first);
    // `B` starts a line when the byte before it ends one.
    let mut before = [b'\n'];
    if (1..=end).contains(&at) {
        log.at(first + at - 1).read_exact(&mut before)?;
    }
    let served = at <= end && before == [b'\n'];
    let header = StoreLogHeader {
        kind: STORE_LOG_KIND.into(),
        start: if served { at } else { 0 },
        generation,
    };
    let mut body = Vec::new();
    push_line(&header, &mut body);
    let want = (end - header.start).min(cap.saturating_sub(body.len()) as u64);
    body.reserve_exact(want as usize);
    log.at(first + header.start)
        .take(want)
        .read_to_end(&mut body)?;
    // A whole log ends in a line's end; one the cap cut short is cut there.
    let whole = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    body.truncate(whole);
    String::from_utf8(body).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// A JSON document as a newline-terminated response body.
fn render(v: Value) -> String {
    let mut body = serde_json::to_string(&v).unwrap_or_else(|_| "null".into());
    body.push('\n');
    body
}

/// Queue one response, head and body, on a connection's write buffer; with
/// `close`, the connection closes once it is flushed.
fn respond(conn: &mut Conn<Head>, code: u16, content_type: &str, body: &str, close: bool) {
    let reason = match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    if close {
        conn.phase = Phase::Closing;
    }
    let _ = write!(
        conn.out,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    conn.out.extend_from_slice(body.as_bytes());
}

/// The numeric value of `key=K` in a query string, if present.
fn parse_query(query: &str, key: &str) -> Option<usize> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find_map(|(k, v)| (k == key).then(|| v.parse().ok()).flatten())
}

/// The last `n` items of a `n=K` query (all of them without one), as a
/// JSON array body.
fn tail<T: Serialize>(items: Vec<T>, query: &str) -> String {
    let n = parse_query(query, "n").unwrap_or(items.len());
    let body = serde_json::to_string(&items[items.len().saturating_sub(n)..]);
    format!("{}\n", body.unwrap_or_else(|_| "[]".into()))
}

fn index_json() -> Value {
    json!({
        "endpoints": [
            "/metrics",
            "/metrics/history?window=S",
            "/healthz",
            "/fleet",
            "/status",
            "/trials?n=K",
            "/spans?n=K",
            "/trace",
            "/store/log?at=B",
        ],
    })
}

/// The `/healthz` route: evaluate the configured SLO rules against the
/// attached time-series. `(status code, verdict document)` — 503 on any
/// breach, 200 otherwise (including when no series or rules are
/// configured: an unconfigured health check must not fail the probe).
fn healthz_json(cfg: &ServerConfig) -> (u16, Value) {
    match &cfg.timeseries {
        Some(series) => {
            let report = slo::evaluate(&cfg.slo_rules, series);
            let code = if report.healthy { 200 } else { 503 };
            let mut doc = report.json();
            if let Value::Object(fields) = &mut doc {
                fields.push(("samples".to_string(), Value::UInt(series.len() as u64)));
            }
            (code, doc)
        }
        None => (
            200,
            json!({
                "healthy": true,
                "status": "ok",
                "rules": [],
                "note": "no timeseries attached",
            }),
        ),
    }
}

/// The unlabeled value of counter `ah_<name>_total` in a Prometheus text
/// exposition — how `/fleet` reads a peer's `/metrics` without a parser
/// dependency.
fn exposition_counter(text: &str, name: &str) -> Option<u64> {
    let prefix = format!("ah_{name}_total ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix).and_then(|v| v.trim().parse().ok()))
}

/// One fleet row built from a peer's `/status` + `/metrics` bodies.
fn fleet_row(
    addr: &str,
    is_self: bool,
    fresh: bool,
    age_s: f64,
    status: &Value,
    metrics: &str,
) -> Value {
    let sessions = status
        .get("sessions")
        .and_then(Value::as_array)
        .map(|s| s.len())
        .unwrap_or(0);
    let store_records = status
        .get("store")
        .and_then(|s| s.get("records"))
        .and_then(Value::as_u64);
    let tenants = status.get("tenant_metrics").cloned().unwrap_or(Value::Null);
    json!({
        "addr": addr,
        "self": is_self,
        "fresh": fresh,
        "age_s": age_s,
        "sessions": sessions,
        "store_records": store_records,
        "evaluations": exposition_counter(metrics, "trials_reported"),
        "reports": exposition_counter(metrics, "trials_measured"),
        "quota_refusals": exposition_counter(metrics, "quota_refusals"),
        "tenants": tenants,
    })
}

/// The `/fleet` document: this server plus every `sync_peers` member,
/// each summarized from its `/status` + `/metrics`, with per-peer
/// freshness and fleet-wide totals. Unreachable peers degrade to their
/// cached row (marked stale) rather than vanishing.
fn fleet_json(ctx: &ObserveCtx) -> Value {
    let mut rows = Vec::new();
    // Self: build the same row from local state, no HTTP round trip.
    let self_addr = ctx.local.to_string();
    let status = status_json(&ctx.bus, &ctx.cfg);
    let metrics = ctx.cfg.prometheus();
    rows.push(fleet_row(&self_addr, true, true, 0.0, &status, &metrics));

    for peer in &ctx.cfg.sync_peers {
        let fetched = http_get(peer, "/status")
            .ok()
            .filter(|(code, _)| *code == 200)
            .and_then(|(_, body)| serde_json::parse(&body).ok())
            .and_then(|status: Value| {
                http_get(peer, "/metrics")
                    .ok()
                    .filter(|(code, _)| *code == 200)
                    .map(|(_, metrics)| (status, metrics))
            });
        let row = match fetched {
            Some((status, metrics)) => {
                let row = fleet_row(peer, false, true, 0.0, &status, &metrics);
                lock(&ctx.fleet).insert(peer.clone(), (Instant::now(), row.clone()));
                row
            }
            None => match lock(&ctx.fleet).get(peer) {
                Some((at, cached)) => {
                    let mut row = cached.clone();
                    if let Value::Object(fields) = &mut row {
                        *entry(fields, "fresh", Value::Null) = Value::Bool(false);
                        let age = Value::Float(at.elapsed().as_secs_f64());
                        *entry(fields, "age_s", Value::Null) = age;
                    }
                    row
                }
                None => json!({
                    "addr": peer.clone(),
                    "self": false,
                    "fresh": false,
                    "age_s": null,
                    "error": "unreachable",
                }),
            },
        };
        rows.push(row);
    }

    let fresh = rows
        .iter()
        .filter(|r| r.get("fresh").and_then(Value::as_bool) == Some(true))
        .count();
    let sum = |key: &str| -> u64 {
        rows.iter()
            .filter_map(|r| r.get(key).and_then(Value::as_u64))
            .sum()
    };
    // Merge every peer's per-tenant series: tenant → metric → summed value,
    // each in the order first seen.
    let mut tenants = Vec::new();
    for (tenant, metrics) in rows
        .iter()
        .filter_map(|r| r.get("tenants")?.as_object())
        .flatten()
    {
        if let Value::Object(slot) = entry(&mut tenants, tenant, Value::Object(Vec::new())) {
            for (metric, value) in metrics.as_object().unwrap_or_default() {
                if let Value::UInt(total) = entry(slot, metric, Value::UInt(0)) {
                    *total += value.as_u64().unwrap_or(0);
                }
            }
        }
    }
    json!({
        "peers": rows.len(),
        "fresh": fresh,
        "totals": {
            "evaluations": sum("evaluations"),
            "reports": sum("reports"),
            "sessions": sum("sessions"),
            "quota_refusals": sum("quota_refusals"),
        },
        "tenants": Value::Object(tenants),
        "rows": Value::Array(rows),
    })
}

/// The value under `key` in a JSON object's fields, added as `init` if
/// absent.
fn entry<'a>(fields: &'a mut Vec<(String, Value)>, key: &str, init: Value) -> &'a mut Value {
    let at = match fields.iter().position(|(k, _)| k == key) {
        Some(at) => at,
        None => {
            fields.push((key.to_owned(), init));
            fields.len() - 1
        }
    };
    &mut fields[at].1
}

/// The `/status` document. Takes each session's lock once, briefly, after
/// the table's is dropped.
fn status_json(bus: &ServerBus, cfg: &ServerConfig) -> Value {
    let mut sessions: Vec<(u64, Value)> = Vec::new();
    for cell in bus.cells() {
        let state = lock(&cell);
        if !state.ended {
            sessions.push((state.id, session_json(&state)));
        }
    }
    // Table iteration order is arbitrary; keep the document stable.
    sessions.sort_by_key(|(id, _)| *id);
    let sessions: Vec<Value> = sessions.into_iter().map(|(_, v)| v).collect();

    let t = &cfg.telemetry;
    let hits = t.counter(Counter::StoreHits);
    let misses = t.counter(Counter::StoreMisses);
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        f64::NAN // serialises as null: no lookups yet
    };
    let tenants: Vec<Value> = cfg
        .tenants
        .snapshot()
        .into_iter()
        .map(|(name, sessions, inflight, served)| {
            json!({
                "tenant": name,
                "sessions": sessions,
                "inflight": inflight,
                "served": served,
            })
        })
        .collect();
    let tenant_metrics = cfg.tenant_rows().into_iter().map(|(tenant, row)| {
        let fields = TenantMetric::ALL.iter().zip(row);
        let fields = fields.map(|(m, v)| (m.name().to_string(), Value::UInt(v)));
        (tenant, Value::Object(fields.collect()))
    });
    json!({
        "server": {
            "clients": bus.client_count(),
        },
        "sessions": Value::Array(sessions),
        "tenants": Value::Array(tenants),
        "quotas": {
            "max_sessions": cfg.tenant_max_sessions,
            "max_inflight": cfg.tenant_max_inflight,
            "refusals": t.counter(Counter::QuotaRefusals),
        },
        "store": {
            "attached": cfg.store.is_some(),
            "records": cfg.store.as_ref().map(|s| s.record_count()),
            "hits": hits,
            "misses": misses,
            "hit_rate": hit_rate,
            "inserts": t.counter(Counter::StoreInserts),
            "merged_records": t.counter(Counter::StoreMergedRecords),
            "merge_conflicts": t.counter(Counter::StoreMergeConflicts),
            "torn_tails": t.counter(Counter::StoreTornTails),
        },
        "wal": {
            "appends": t.counter(Counter::WalAppends),
            "replayed": t.counter(Counter::WalReplayed),
            "torn_tails": t.counter(Counter::WalTornTails),
        },
        "telemetry": {
            "enabled": t.is_enabled(),
            "events_dropped": t.dropped_events(),
            "spans_open": t.open_spans(),
            "spans_dropped": t.dropped_spans(),
        },
        "counters": t.counters_json(),
        "tenant_metrics": Value::Object(tenant_metrics.collect()),
        "slo": {
            "timeseries": cfg.timeseries.is_some(),
            "retained_samples": cfg.timeseries.as_ref().map(|s| s.len()),
            "rules": cfg.slo_rules.iter().map(|r| r.spec()).collect::<Vec<_>>(),
        },
    })
}

fn session_json(state: &SessionState) -> Value {
    let id = state.id;
    match &state.phase {
        SessionPhase::Building { .. } => json!({
            "session": id,
            "app": state.app.clone(),
            "members": state.members.len(),
            "phase": "building",
        }),
        SessionPhase::Tuning(Tuning {
            session,
            outstanding,
            issued_high,
            fingerprint,
            ..
        }) => {
            let snap = session.search_snapshot();
            let unclaimed = outstanding.iter().filter(|t| t.owner == 0).count();
            let requeued = outstanding.iter().filter(|t| t.requeued).count();
            json!({
                "session": id,
                "app": state.app.clone(),
                "members": state.members.len(),
                "phase": "tuning",
                "strategy": snap.strategy,
                "evaluations": snap.evaluations,
                "cached_evaluations": snap.cached_evaluations,
                "best_cost": snap.best_cost,
                "best_config": snap.best_config,
                "stop_reason": snap.stop_reason.map(|r| r.name()),
                "pending": snap.pending,
                "awaiting_report": snap.awaiting_report,
                "outstanding": outstanding.len(),
                "requeued": requeued,
                "unclaimed": unclaimed,
                "issued_high": *issued_high,
                "fingerprint": format!("{fingerprint:016x}"),
                "search": snap.search,
            })
        }
    }
}

/// Minimal HTTP GET against an observability responder: returns
/// `(status code, body)`. Shared by `repro watch`, `repro trace --from`,
/// and the integration tests — none of which want an HTTP client
/// dependency any more than the server wants a framework.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let invalid = |what| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    // Connect with a deadline too: a peer whose accept queue is full, or
    // that drops SYNs, would hold the caller for the kernel's SYN retries.
    let mut stream = Err(std::io::ErrorKind::InvalidInput.into());
    for resolved in addr.to_socket_addrs()? {
        stream = TcpStream::connect_timeout(&resolved, READ_TIMEOUT);
        if stream.is_ok() {
            break;
        }
    }
    let mut stream = stream?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(READ_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream
        .take(MAX_RESPONSE_BYTES as u64)
        .read_to_end(&mut raw)?;
    // A response cut short — by the cap, or by a peer that went away
    // mid-write — may end inside a character: hand on what is whole.
    let raw = String::from_utf8(raw).or_else(|e| {
        let cut = e.utf8_error();
        match cut.error_len() {
            None => {
                let mut whole = e.into_bytes();
                whole.truncate(cut.valid_up_to());
                Ok(String::from_utf8(whole).expect("valid up to the cut"))
            }
            Some(_) => Err(invalid("response is not UTF-8")),
        }
    })?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("malformed response"))?;
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| invalid("missing status"))?;
    Ok((code, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::super::HarmonyServer;
    use super::*;
    use crate::param::Param;
    use crate::server::protocol::StrategyKind;
    use crate::session::SessionOptions;
    use crate::telemetry::Telemetry;

    fn observed_server() -> (HarmonyServer, ObserveHandle) {
        let server = HarmonyServer::start_with_config(ServerConfig {
            telemetry: Telemetry::enabled(),
            ..Default::default()
        });
        let observe = server.observe("127.0.0.1:0").expect("bind observer");
        (server, observe)
    }

    #[test]
    fn endpoints_serve_metrics_status_trials_and_trace() {
        let (server, observe) = observed_server();
        let addr = observe.addr().to_string();

        let client = server.connect("observe-app").unwrap();
        client.add_param(Param::int("x", 0, 60, 1)).unwrap();
        client.add_param(Param::int("y", 0, 60, 1)).unwrap();
        client
            .seal(
                SessionOptions {
                    max_evaluations: 40,
                    seed: 27,
                    ..Default::default()
                },
                StrategyKind::NelderMead,
            )
            .unwrap();
        for _ in 0..30 {
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

        let (code, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("ah_trials_reported_total"), "{body}");

        let (code, body) = http_get(&addr, "/status").unwrap();
        assert_eq!(code, 200);
        let doc: Value = serde_json::parse(&body).expect("status is valid JSON");
        let sessions = doc.get("sessions").and_then(Value::as_array).unwrap();
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.get("phase").and_then(Value::as_str), Some("tuning"));
        assert_eq!(
            s.get("strategy").and_then(Value::as_str),
            Some("nelder-mead")
        );
        assert!(s.get("evaluations").and_then(Value::as_u64).unwrap() > 0);
        assert!(s.get("best_cost").and_then(Value::as_f64).is_some());
        let simplex = s.get("search").and_then(|v| v.get("simplex")).unwrap();
        assert!(!simplex
            .get("vertex_costs")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());

        let (code, body) = http_get(&addr, "/trials?n=5").unwrap();
        assert_eq!(code, 200);
        let trials: Value = serde_json::parse(&body).unwrap();
        let trials = trials.as_array().unwrap();
        assert!(!trials.is_empty() && trials.len() <= 5, "{}", trials.len());

        let (code, body) = http_get(&addr, "/spans?n=3").unwrap();
        assert_eq!(code, 200);
        let spans: Value = serde_json::parse(&body).unwrap();
        assert!(spans.as_array().unwrap().len() <= 3);

        let (code, body) = http_get(&addr, "/trace").unwrap();
        assert_eq!(code, 200);
        let trace: Value = serde_json::parse(&body).unwrap();
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("trace has traceEvents");
        // Serving produced a SessionServe span for every request.
        assert!(events
            .iter()
            .any(|e| { e.get("name").and_then(Value::as_str) == Some("session_serve") }));

        let (code, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(code, 404);

        observe.stop();
        server.shutdown();
    }

    #[test]
    fn status_reflects_a_converging_simplex() {
        let (server, observe) = observed_server();
        let addr = observe.addr().to_string();

        let spread_at = |label: &str| -> f64 {
            let (code, body) = http_get(&addr, "/status").expect("GET /status");
            assert_eq!(code, 200, "{label}");
            let doc: Value = serde_json::parse(&body).unwrap();
            let sessions = doc.get("sessions").and_then(Value::as_array).unwrap();
            sessions[0]
                .get("search")
                .and_then(|s| s.get("simplex"))
                .and_then(|s| s.get("spread"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::INFINITY)
        };

        let client = server.connect("converge-app").unwrap();
        client.add_param(Param::int("x", 0, 80, 1)).unwrap();
        client.add_param(Param::int("y", 0, 80, 1)).unwrap();
        client
            .seal(
                SessionOptions {
                    max_evaluations: 150,
                    seed: 9,
                    ..Default::default()
                },
                StrategyKind::NelderMead,
            )
            .unwrap();
        // Probe /status after every report: the live spread trace must show
        // the simplex tightening. (It is not monotone — a collapse restart
        // re-spreads the simplex — so compare early against the best seen.)
        let mut spreads = Vec::new();
        loop {
            let fetch = client.fetch().unwrap();
            if fetch.finished {
                break;
            }
            let x = fetch.config.int("x").unwrap() as f64;
            let y = fetch.config.int("y").unwrap() as f64;
            client
                .report((x - 9.0).powi(2) + (y - 44.0).powi(2))
                .unwrap();
            spreads.push(spread_at("mid-campaign"));
        }
        let early = spreads
            .iter()
            .copied()
            .find(|s| s.is_finite() && *s > 0.0)
            .expect("a live simplex was visible mid-campaign");
        let tightest = spreads.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            tightest < early / 10.0,
            "spread should shrink as the simplex converges: \
             early={early} tightest={tightest}"
        );

        observe.stop();
        server.shutdown();
    }

    #[test]
    fn unknown_methods_and_disabled_telemetry_are_handled() {
        let server = HarmonyServer::start();
        let observe = server.observe("127.0.0.1:0").unwrap();
        let addr = observe.addr().to_string();

        // Disabled telemetry still yields a well-formed (all-zero) exposition.
        let (code, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("ah_trials_proposed_total 0"), "{body}");

        // Non-GET is refused, and the index lists the routes.
        let mut stream = TcpStream::connect(&addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let (code, body) = http_get(&addr, "/").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("/status"), "{body}");

        observe.stop();
        server.shutdown();
    }

    #[test]
    fn serving_the_store_log_allocates_nothing_per_record() {
        use crate::space::Configuration;
        use crate::store::StoreRecord;
        use crate::value::ParamValue;
        let path = crate::TempPath::new("observe-store-log.store");
        let store = SharedStore::open(&path).unwrap();
        let config = |i: i64| {
            let values = vec![ParamValue::Int(i % 100), ParamValue::Int(i / 100)];
            Configuration::new(vec!["x".into(), "y".into()], values)
        };
        let records = (0..10_000).map(|i| StoreRecord::new("a", 1, config(i), i as f64, 0.0));
        assert_eq!(store.insert_batch(records.collect()).unwrap(), 10_000);
        let before = crate::counting::calls();
        let body = store_log(&store, 0, usize::MAX).unwrap();
        let calls = crate::counting::calls() - before;
        // The file's read buffer, the header line and the reply, and
        // nothing per record: the route that encoded a `StoreRecord` built
        // from each row, under the store lock, made 20 002 calls here.
        assert!(
            calls <= 16,
            "{calls} allocator calls to serve 10 000 records"
        );
        let file = std::fs::read(&path).unwrap();
        let first = file.iter().position(|&b| b == b'\n').unwrap() + 1;
        let (header, log) = body.split_once('\n').unwrap();
        assert!(
            header.starts_with(r#"{"kind":"ah-store-log","start":0,"generation":"#),
            "{header}"
        );
        assert_eq!(log.as_bytes(), &file[first..]);
    }

    #[test]
    fn serving_the_store_log_moves_no_append_cursor_and_outlives_its_path() {
        use crate::space::Configuration;
        use crate::store::StoreRecord;
        use crate::value::ParamValue;
        let path = crate::TempPath::new("observe-store-log-unlinked.store");
        let store = SharedStore::open(&path).unwrap();
        let record = |x: i64| {
            let config = Configuration::new(vec!["x".into()], vec![ParamValue::Int(x)]);
            StoreRecord::new("a", 1, config, x as f64, 0.0)
        };
        store.insert_batch((0..10).map(record).collect()).unwrap();
        let records = |body: &str| body.lines().skip(1).map(String::from).collect::<Vec<_>>();
        // A reply cut short stops reading mid-file; the next append must
        // still land at the file's end.
        assert!(records(&store_log(&store, 0, 400).unwrap()).len() < 10);
        store.insert(record(10)).unwrap();
        let file = std::fs::read_to_string(&path).unwrap();
        let on_disk: Vec<String> = file.lines().skip(1).map(String::from).collect();
        assert_eq!(on_disk.len(), 11, "{file}");
        assert_eq!(records(&store_log(&store, 0, usize::MAX).unwrap()), on_disk);
        // With the path gone, the store appends to and serves its open file.
        std::fs::remove_file(&path).unwrap();
        store.insert(record(11)).unwrap();
        let served = records(&store_log(&store, 0, usize::MAX).unwrap());
        assert_eq!((served.len(), &served[..11]), (12, &on_disk[..]));
    }
}
