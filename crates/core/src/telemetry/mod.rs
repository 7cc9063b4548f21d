//! Trial-lifecycle observability: counters, latency histograms, and a
//! bounded event ring.
//!
//! The paper's authors debug their tuning runs by reading per-iteration
//! traces; after the sharded server, fault injection, retry and WAL layers,
//! this codebase needed the same visibility — when a trial is requeued,
//! evicted, retried or replayed, *something* must record why. A
//! [`Telemetry`] handle is that something. It threads through the server
//! ([`ServerConfig`](crate::server::ServerConfig)), the TCP client
//! ([`TcpClientOptions`](crate::server::tcp::TcpClientOptions)), the session,
//! the retry policy and the write-ahead log, and records three kinds of
//! signal:
//!
//! * **Events** — one [`TrialEvent`] per lifecycle transition
//!   (proposed → fetched → measured → reported, plus requeued / evicted /
//!   replayed / faulted with a cause), kept in a bounded ring so a runaway
//!   session cannot exhaust memory.
//! * **Counters** — monotonic totals ([`Counter`]) for the same
//!   transitions plus sanitized costs, stale duplicate reports, retry
//!   backoffs, WAL appends and torn tails.
//! * **Latency histograms** — log2-bucketed microsecond histograms
//!   ([`Latency`]) for the wait for a session, batch round-trips, backoff sleeps
//!   and WAL append+fsync.
//! * **Spans** — paired begin/end intervals ([`SpanEvent`]) around the
//!   phases of a trial (fetch round-trip, measurement, report round-trip)
//!   and the durable-state operations (WAL append, store lookup), each on
//!   a named track (`client`, `worker`, `session`, `wal`, `store`).
//!   [`Telemetry::chrome_trace`] exports them as Chrome trace-event JSON
//!   loadable in Perfetto, reconstructing the distributed timeline the
//!   paper's per-iteration cost breakdown implies.
//!
//! # Overhead
//!
//! The handle is an `Option<Arc<Inner>>`. [`Telemetry::disabled`] (the
//! `Default`) is `None`: every record call is one branch on a niche-encoded
//! option and returns — no allocation, no atomics, no locking. Enabled
//! recording is a relaxed atomic add for counters/histograms and a short
//! mutex-protected ring push for an event or a closed span; the only locks
//! are those two rings'. An open span is its [`SpanToken`], which carries
//! its own start. The `bench-server --check` CI gate runs with telemetry
//! enabled to keep the overhead inside the regression tolerance.
//!
//! # Determinism
//!
//! Everything except timestamps is a pure function of the message sequence:
//! two runs with the same seed and fault plan produce the identical
//! [`Telemetry::lifecycle`] sequence and counter totals (property-tested in
//! `tests/telemetry_determinism.rs`). Timestamps exist for humans reading a
//! trace, and are excluded from `lifecycle()`.

pub mod slo;
pub mod timeseries;

use crate::lock;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default capacity of the bounded event ring (events beyond it evict the
/// oldest and bump [`Telemetry::dropped_events`]).
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Most distinct tenant labels an exposition carries: the first this many
/// tenants a server saw keep their labels, and later ones are folded into
/// [`TENANT_OVERFLOW_LABEL`], so a tenant-id flood (a client minting a
/// fresh label per request) cannot grow the exposition without bound.
pub(crate) const MAX_TENANT_LABELS: usize = 64;

/// The aggregate label tenants are folded into once [`MAX_TENANT_LABELS`]
/// distinct labels exist.
pub(crate) const TENANT_OVERFLOW_LABEL: &str = "__overflow__";

/// Lifecycle stage of a trial (or member) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TrialStage {
    /// The session emitted a fresh trial to be measured.
    Proposed,
    /// The server handed the trial to a client (fresh, re-fetch, or a
    /// requeued trial claimed by a new owner — the cause tells which).
    Fetched,
    /// A measured cost arrived for the trial.
    Measured,
    /// The trial's cost was flushed into the history (in proposal order).
    Reported,
    /// The trial lost its owner and became claimable again (cause:
    /// `owner_left`, `owner_evicted`, or `trial_deadline`).
    Requeued,
    /// A session member was evicted for missing its liveness TTL.
    Evicted,
    /// The trial's cost was replayed rather than measured (cause:
    /// `cache_hit` for an in-session duplicate, `wal` for log replay).
    Replayed,
    /// A fault-injection plan decided this trial's fate (cause: `crash`,
    /// `lost_report`, or `straggler`).
    Faulted,
}

impl TrialStage {
    /// Stable lowercase name (used in JSON dumps and metric labels).
    pub fn name(&self) -> &'static str {
        match self {
            TrialStage::Proposed => "proposed",
            TrialStage::Fetched => "fetched",
            TrialStage::Measured => "measured",
            TrialStage::Reported => "reported",
            TrialStage::Requeued => "requeued",
            TrialStage::Evicted => "evicted",
            TrialStage::Replayed => "replayed",
            TrialStage::Faulted => "faulted",
        }
    }
}

/// Monotonic counters. Each renders as one Prometheus counter
/// `ah_<name>_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Fresh trials proposed by sessions.
    TrialsProposed,
    /// Trials handed to clients by the server (re-fetches included).
    TrialsFetched,
    /// Measured costs that reached a session.
    TrialsMeasured,
    /// Trials flushed into a history (fresh rows only).
    TrialsReported,
    /// Trials whose owner departed/expired, made claimable again.
    TrialsRequeued,
    /// Session members evicted for missing their liveness TTL.
    MembersEvicted,
    /// Reports for already-applied trials, dropped by the issued-high
    /// watermark.
    StaleReportsDropped,
    /// Duplicate proposals resolved from the in-session cache.
    CacheReplays,
    /// Non-finite costs coerced to `+inf` at the protocol boundary or in
    /// the session flush.
    NonFiniteCostsSanitized,
    /// Backoff sleeps taken by retry loops.
    RetryBackoffs,
    /// Injected worker crashes.
    FaultsCrash,
    /// Injected lost reports.
    FaultsLostReport,
    /// Injected stragglers.
    FaultsStraggler,
    /// Records appended (and fsynced) to a write-ahead log.
    WalAppends,
    /// Evaluations replayed from a write-ahead log on resume.
    WalReplayed,
    /// Torn trailing records truncated away on WAL resume.
    WalTornTails,
    /// Performance-store lookups that found a stored cost.
    StoreHits,
    /// Performance-store lookups that found nothing.
    StoreMisses,
    /// Records appended to a performance store.
    StoreInserts,
    /// Performance-store compactions (gc included).
    StoreCompactions,
    /// Torn trailing records truncated away on store open.
    StoreTornTails,
    /// TCP connections admitted by the front-end (both transports).
    ConnectionsAccepted,
    /// TCP connections refused at the connection ceiling.
    ConnectionsRefused,
    /// Connections reaped by the event loop's idle timeout.
    ConnectionsEvictedIdle,
    /// Connections the peer closed (EOF or I/O error), goodbyes included.
    ConnectionsClosedByPeer,
    /// Requests refused because a tenant hit its session or in-flight
    /// trial quota.
    QuotaRefusals,
    /// Peer records appended into the local store by a federation merge.
    StoreMergedRecords,
    /// Merge collisions on `(app, fingerprint, key)` where the peer's cost
    /// differed; the local first write won.
    StoreMergeConflicts,
    /// Lattice points excluded by space compilation: constraint
    /// propagation plus enumeration-time subtree pruning.
    SpacePointsPruned,
    /// Chunks served by compiled-space enumeration
    /// ([`CompiledSpace::next_chunk`](crate::space_compile::CompiledSpace::next_chunk)).
    SpaceChunksEnumerated,
    /// Surrogate-strategy proposals that fell back to the inner strategy
    /// (model unfit or its argmin already evaluated).
    SurrogateFallbacks,
}

/// Number of [`Counter`] variants (size of the per-handle counter array).
const COUNTER_COUNT: usize = 31;

impl Counter {
    /// Every counter, in rendering order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::TrialsProposed,
        Counter::TrialsFetched,
        Counter::TrialsMeasured,
        Counter::TrialsReported,
        Counter::TrialsRequeued,
        Counter::MembersEvicted,
        Counter::StaleReportsDropped,
        Counter::CacheReplays,
        Counter::NonFiniteCostsSanitized,
        Counter::RetryBackoffs,
        Counter::FaultsCrash,
        Counter::FaultsLostReport,
        Counter::FaultsStraggler,
        Counter::WalAppends,
        Counter::WalReplayed,
        Counter::WalTornTails,
        Counter::StoreHits,
        Counter::StoreMisses,
        Counter::StoreInserts,
        Counter::StoreCompactions,
        Counter::StoreTornTails,
        Counter::ConnectionsAccepted,
        Counter::ConnectionsRefused,
        Counter::ConnectionsEvictedIdle,
        Counter::ConnectionsClosedByPeer,
        Counter::QuotaRefusals,
        Counter::StoreMergedRecords,
        Counter::StoreMergeConflicts,
        Counter::SpacePointsPruned,
        Counter::SpaceChunksEnumerated,
        Counter::SurrogateFallbacks,
    ];

    /// Stable snake_case name (the Prometheus metric is
    /// `ah_<name>_total`).
    pub fn name(&self) -> &'static str {
        match self {
            Counter::TrialsProposed => "trials_proposed",
            Counter::TrialsFetched => "trials_fetched",
            Counter::TrialsMeasured => "trials_measured",
            Counter::TrialsReported => "trials_reported",
            Counter::TrialsRequeued => "trials_requeued",
            Counter::MembersEvicted => "members_evicted",
            Counter::StaleReportsDropped => "stale_reports_dropped",
            Counter::CacheReplays => "cache_replays",
            Counter::NonFiniteCostsSanitized => "non_finite_costs_sanitized",
            Counter::RetryBackoffs => "retry_backoffs",
            Counter::FaultsCrash => "faults_crash",
            Counter::FaultsLostReport => "faults_lost_report",
            Counter::FaultsStraggler => "faults_straggler",
            Counter::WalAppends => "wal_appends",
            Counter::WalReplayed => "wal_replayed",
            Counter::WalTornTails => "wal_torn_tails",
            Counter::StoreHits => "store_hits",
            Counter::StoreMisses => "store_misses",
            Counter::StoreInserts => "store_inserts",
            Counter::StoreCompactions => "store_compactions",
            Counter::StoreTornTails => "store_torn_tails",
            Counter::ConnectionsAccepted => "connections_accepted",
            Counter::ConnectionsRefused => "connections_refused",
            Counter::ConnectionsEvictedIdle => "connections_evicted_idle",
            Counter::ConnectionsClosedByPeer => "connections_closed_by_peer",
            Counter::QuotaRefusals => "quota_refusals",
            Counter::StoreMergedRecords => "store_merged_records",
            Counter::StoreMergeConflicts => "store_merge_conflicts",
            Counter::SpacePointsPruned => "space_points_pruned",
            Counter::SpaceChunksEnumerated => "space_chunks_enumerated",
            Counter::SurrogateFallbacks => "surrogate_fallbacks",
        }
    }

    /// Position in [`ALL`](Self::ALL), which lists the variants in
    /// declaration order.
    fn idx(&self) -> usize {
        *self as usize
    }
}

/// Latency histograms. Each renders as one Prometheus histogram
/// `ah_<name>_seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    /// Time a request waited for its session: near zero when the session
    /// was free, the wait for the member ahead of it when it was busy.
    SessionWait,
    /// TCP client `FetchBatch` round-trip.
    FetchBatchRtt,
    /// TCP client `ReportBatch` round-trip.
    ReportBatchRtt,
    /// Sleep taken before a retry attempt.
    RetryBackoffSleep,
    /// WAL record append + flush + fsync.
    WalAppendFsync,
    /// Performance-store index lookup.
    StoreLookup,
    /// Performance-store record append + fsync (observed on syncing
    /// appends only — the store batches its fsyncs).
    StoreAppendFsync,
    /// One readiness-loop iteration's work: everything between a `poll`
    /// return and the next `poll` entry (I/O, framing, dispatch — the wait
    /// itself is excluded). The tail of this histogram is the latency every
    /// multiplexed connection shares.
    EventLoopIteration,
    /// Search-space compilation (constraint propagation + stats).
    SpaceCompile,
    /// Surrogate model fit (normal-equation solve over the sample set).
    SurrogateFit,
    /// Surrogate model argmin over compiled-space candidates.
    SurrogatePredict,
}

/// Number of [`Latency`] variants (size of the per-handle histogram array).
const LATENCY_COUNT: usize = 11;

/// Log2 bucket count per histogram: upper bounds 1µs, 2µs, … 2^24µs
/// (~16.8s), plus a +Inf overflow bucket.
pub(crate) const HISTO_BUCKETS: usize = 26;

/// The hot counters that are additionally sliced per tenant, kept on each
/// tenant's [`TenantStats`](crate::server::TenantStats). Each renders as
/// one labeled Prometheus family `ah_tenant_<name>_total{tenant="..."}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantMetric {
    /// Trials evaluated (reports applied to a session history) on behalf
    /// of the tenant.
    Evaluations,
    /// Report messages (single or batch elements) received from the
    /// tenant's clients, stale duplicates included.
    Reports,
    /// Microseconds the tenant's requests waited for their sessions (a
    /// sum — divide by `reports` for a mean).
    SessionWaitUs,
    /// Requests refused because the tenant hit its session or in-flight
    /// quota.
    QuotaRefusals,
}

/// Number of [`TenantMetric`] variants (columns of the per-tenant table).
pub(crate) const TENANT_METRIC_COUNT: usize = 4;

impl TenantMetric {
    /// Every per-tenant metric, in rendering order.
    pub const ALL: [TenantMetric; TENANT_METRIC_COUNT] = [
        TenantMetric::Evaluations,
        TenantMetric::Reports,
        TenantMetric::SessionWaitUs,
        TenantMetric::QuotaRefusals,
    ];

    /// Stable snake_case name (the Prometheus family is
    /// `ah_tenant_<name>_total`).
    pub fn name(&self) -> &'static str {
        match self {
            TenantMetric::Evaluations => "evaluations",
            TenantMetric::Reports => "reports",
            TenantMetric::SessionWaitUs => "session_wait_us",
            TenantMetric::QuotaRefusals => "quota_refusals",
        }
    }

    /// Position in [`ALL`](Self::ALL), which lists the variants in
    /// declaration order.
    pub(crate) fn idx(&self) -> usize {
        *self as usize
    }
}

/// One tenant's row of an exposition: its label and its value per
/// [`TenantMetric::ALL`].
pub(crate) type TenantRow = (String, [u64; TENANT_METRIC_COUNT]);

impl Latency {
    /// Every histogram, in rendering order.
    pub const ALL: [Latency; LATENCY_COUNT] = [
        Latency::SessionWait,
        Latency::FetchBatchRtt,
        Latency::ReportBatchRtt,
        Latency::RetryBackoffSleep,
        Latency::WalAppendFsync,
        Latency::StoreLookup,
        Latency::StoreAppendFsync,
        Latency::EventLoopIteration,
        Latency::SpaceCompile,
        Latency::SurrogateFit,
        Latency::SurrogatePredict,
    ];

    /// Stable snake_case name (the Prometheus metric is
    /// `ah_<name>_seconds`).
    pub fn name(&self) -> &'static str {
        match self {
            Latency::SessionWait => "session_wait",
            Latency::FetchBatchRtt => "fetch_batch_rtt",
            Latency::ReportBatchRtt => "report_batch_rtt",
            Latency::RetryBackoffSleep => "retry_backoff_sleep",
            Latency::WalAppendFsync => "wal_append_fsync",
            Latency::StoreLookup => "store_lookup",
            Latency::StoreAppendFsync => "store_append_fsync",
            Latency::EventLoopIteration => "event_loop_iteration",
            Latency::SpaceCompile => "space_compile",
            Latency::SurrogateFit => "surrogate_fit",
            Latency::SurrogatePredict => "surrogate_predict",
        }
    }

    /// Position in [`ALL`](Self::ALL), which lists the variants in
    /// declaration order.
    fn idx(&self) -> usize {
        *self as usize
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, Serialize)]
pub struct TrialEvent {
    /// Monotonic sequence number (gaps mean ring evictions elsewhere, not
    /// lost ordering).
    pub seq: u64,
    /// Microseconds since the handle was created. Wall-clock flavoured;
    /// excluded from determinism comparisons.
    pub at_us: u64,
    /// The lifecycle transition.
    pub stage: TrialStage,
    /// Iteration token of the trial (0 for member-level events such as
    /// eviction).
    pub iteration: usize,
    /// Client id involved, when known (0 otherwise).
    pub client: u64,
    /// Why the transition happened, for stages with multiple causes.
    pub cause: Option<&'static str>,
}

impl TrialEvent {
    /// The deterministic projection of the event: everything except the
    /// timestamp and client id (which depend on wall clock and allocation
    /// order). Two runs with the same seed and fault plan produce identical
    /// lifecycle sequences.
    pub fn lifecycle(&self) -> (TrialStage, usize, Option<&'static str>) {
        (self.stage, self.iteration, self.cause)
    }
}

/// What a span measures. Each renders as one named slice on its track in
/// the Chrome trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SpanKind {
    /// Client-side fetch/`FetchBatch` round-trip.
    Fetch,
    /// One trial's measurement (objective run) on a worker.
    Measure,
    /// Client-side report/`ReportBatch` round-trip.
    Report,
    /// One request served while its caller holds its session.
    SessionServe,
    /// WAL record append + flush + fsync.
    WalAppend,
    /// Performance-store index lookup.
    StoreLookup,
}

impl SpanKind {
    /// Stable lowercase name (used as the event name in trace exports).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Fetch => "fetch",
            SpanKind::Measure => "measure",
            SpanKind::Report => "report",
            SpanKind::SessionServe => "session_serve",
            SpanKind::WalAppend => "wal_append",
            SpanKind::StoreLookup => "store_lookup",
        }
    }
}

/// One completed (or fault-terminated) span. Begin/end pairing is enforced
/// by construction: a [`SpanEvent`] only reaches the span ring once its
/// [`SpanToken`] was closed by [`Telemetry::span_end`] or
/// [`Telemetry::span_fault`]; a token never closed still counts in
/// [`Telemetry::open_spans`].
#[derive(Debug, Clone, Serialize)]
pub struct SpanEvent {
    /// Unique span id (monotonic, 1-based; 0 is the disabled token).
    pub id: u64,
    /// What the span measures.
    pub kind: SpanKind,
    /// Iteration token of the trial involved (0 for batch- or
    /// member-level spans).
    pub iteration: usize,
    /// Track family the span belongs to (`client`, `worker`, `session`,
    /// `wal`, `store`). One Chrome-trace thread per `(track, track_id)`.
    pub track: &'static str,
    /// Which member of the track family (client id, worker index, session
    /// id; 0 for singleton tracks).
    pub track_id: u64,
    /// Microseconds since the handle was created.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Set when the span was terminated by [`Telemetry::span_fault`]
    /// (cause: `crash`, `lost_report`, `straggler`, ...) instead of a
    /// normal end.
    pub cause: Option<&'static str>,
}

/// An open span, returned by [`Telemetry::span_begin`] and closed by
/// [`Telemetry::span_end`] or [`Telemetry::span_fault`], which take it by
/// value: a token is closed at most once. It carries the span's id, kind,
/// iteration, track and start; closing it stamps the duration and cause.
/// A disabled handle's token is empty, and closing it does nothing.
#[derive(Debug)]
#[must_use = "a span token should be closed with span_end or span_fault"]
pub struct SpanToken(Option<SpanEvent>);

/// A bounded FIFO that evicts its oldest item when full and counts the
/// evictions: the event ring and the span ring.
struct Ring<T> {
    capacity: usize,
    items: Mutex<VecDeque<T>>,
    dropped: AtomicU64,
}

impl<T: Clone> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            capacity,
            items: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, item: T) {
        let mut items = lock(&self.items);
        if items.len() >= self.capacity {
            items.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        items.push_back(item);
    }

    /// The items, oldest first.
    fn snapshot(&self) -> Vec<T> {
        lock(&self.items).iter().cloned().collect()
    }

    /// Items evicted because the ring was full.
    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// One log2-bucketed latency histogram (microsecond resolution).
struct Histo {
    buckets: [AtomicU64; HISTO_BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histo {
    fn new() -> Self {
        Histo {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = if us <= 1 {
            0
        } else {
            ((64 - (us - 1).leading_zeros()) as usize).min(HISTO_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistoSnapshot {
        HistoSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one latency histogram's raw state. Retaining
/// the raw buckets (rather than precomputed quantiles) is what lets the
/// time-series ring answer *windowed* percentiles: subtract two snapshots
/// and take the percentile of the difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Observation count per log2 bucket (upper bound `2^i` µs; the last
    /// bucket is +Inf overflow).
    pub buckets: [u64; HISTO_BUCKETS],
    /// Sum of all observed durations, in microseconds.
    pub sum_us: u64,
    /// Total observation count.
    pub count: u64,
}

impl HistoSnapshot {
    /// The all-zero snapshot (what a disabled handle reports).
    pub fn zero() -> Self {
        HistoSnapshot {
            buckets: [0; HISTO_BUCKETS],
            sum_us: 0,
            count: 0,
        }
    }

    /// The observations recorded between `earlier` and `self` (saturating,
    /// so a restarted handle degrades to `self` rather than panicking).
    pub fn delta(&self, earlier: &HistoSnapshot) -> HistoSnapshot {
        HistoSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds, read as the upper
    /// bound of the bucket holding the target rank. Returns `None` when the
    /// snapshot is empty and `+Inf` when the rank falls in the overflow
    /// bucket — both make SLO comparisons behave sensibly (no data is not
    /// a breach; an overflow tail always is).
    pub(crate) fn percentile_us(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Some(if i == HISTO_BUCKETS - 1 {
                    f64::INFINITY
                } else {
                    (1u64 << i) as f64
                });
            }
        }
        Some(f64::INFINITY)
    }

    /// Mean observation, in microseconds (`None` when empty).
    pub(crate) fn mean_us(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_us as f64 / self.count as f64)
    }

    /// Compact JSON summary (`p50`/`p99`/`mean` in microseconds + `count`)
    /// for history endpoints — raw buckets stay internal to the ring.
    pub(crate) fn summary_json(&self) -> serde_json::Value {
        serde_json::json!({
            "count": self.count,
            "p50_us": self.percentile_us(0.50),
            "p99_us": self.percentile_us(0.99),
            "mean_us": self.mean_us(),
        })
    }
}

struct Inner {
    start: Instant,
    seq: AtomicU64,
    counters: [AtomicU64; COUNTER_COUNT],
    latencies: [Histo; LATENCY_COUNT],
    events: Ring<TrialEvent>,
    /// Spans begun, which is the last one's id (ids are 1-based).
    spans_begun: AtomicU64,
    spans_closed: AtomicU64,
    spans: Ring<SpanEvent>,
}

impl Inner {
    /// Microseconds since the handle was created.
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A cheap, cloneable recording handle. See the [module docs](self) for
/// what it records and what it costs.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Telemetry(disabled)"),
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("events", &lock(&inner.events.items).len())
                .field("dropped", &inner.events.dropped())
                .finish_non_exhaustive(),
        }
    }
}

impl Telemetry {
    /// The no-op handle: every record call is a single branch. This is the
    /// `Default`, so telemetry is pay-for-what-you-enable.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// An enabled handle with the `DEFAULT_EVENT_CAPACITY` event ring.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled handle whose event ring holds at most `capacity` events
    /// (older events are evicted, counted by
    /// [`dropped_events`](Self::dropped_events)).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Telemetry(Some(Arc::new(Inner {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            latencies: std::array::from_fn(|_| Histo::new()),
            events: Ring::new(capacity),
            spans_begun: AtomicU64::new(0),
            spans_closed: AtomicU64::new(0),
            spans: Ring::new(capacity),
        })))
    }

    /// True when this handle actually records.
    pub(crate) fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record a lifecycle event (no-op when disabled).
    pub fn event(
        &self,
        stage: TrialStage,
        iteration: usize,
        client: u64,
        cause: Option<&'static str>,
    ) {
        let Some(inner) = &self.0 else { return };
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        inner.events.push(TrialEvent {
            seq,
            at_us: inner.now_us(),
            stage,
            iteration,
            client,
            cause,
        });
    }

    /// Increment a counter by one (no-op when disabled).
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Increment a counter by `n` (no-op when disabled).
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.0 {
            inner.counters[counter.idx()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one latency observation (no-op when disabled).
    pub fn observe(&self, latency: Latency, d: Duration) {
        if let Some(inner) = &self.0 {
            inner.latencies[latency.idx()].observe(d);
        }
    }

    /// Point-in-time copy of one latency histogram's raw buckets (the
    /// all-zero snapshot when disabled). The time-series sampler diffs
    /// successive snapshots to answer windowed percentiles.
    pub fn histogram(&self, latency: Latency) -> HistoSnapshot {
        match &self.0 {
            Some(inner) => inner.latencies[latency.idx()].snapshot(),
            None => HistoSnapshot::zero(),
        }
    }

    /// Current value of one counter (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        match &self.0 {
            Some(inner) => inner.counters[counter.idx()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Snapshot of every counter as `(name, value)` pairs, in stable order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .map(|c| (c.name(), self.counter(*c)))
            .collect()
    }

    /// Snapshot of the event ring, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<TrialEvent> {
        self.0
            .as_ref()
            .map(|inner| inner.events.snapshot())
            .unwrap_or_default()
    }

    /// Deterministic projection of the event ring: the
    /// [`TrialEvent::lifecycle`] of every event, in order.
    pub fn lifecycle(&self) -> Vec<(TrialStage, usize, Option<&'static str>)> {
        self.events().iter().map(TrialEvent::lifecycle).collect()
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped_events(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| inner.events.dropped())
    }

    /// Begin a span (no-op token when disabled). Close the returned token
    /// with [`span_end`](Self::span_end) or
    /// [`span_fault`](Self::span_fault) on any clone of this handle.
    pub fn span_begin(
        &self,
        kind: SpanKind,
        iteration: usize,
        track: &'static str,
        track_id: u64,
    ) -> SpanToken {
        let Some(inner) = &self.0 else {
            return SpanToken(None);
        };
        SpanToken(Some(SpanEvent {
            id: inner.spans_begun.fetch_add(1, Ordering::Relaxed) + 1,
            kind,
            iteration,
            track,
            track_id,
            start_us: inner.now_us(),
            dur_us: 0,
            cause: None,
        }))
    }

    /// End a span normally (no-op for a disabled handle's token).
    pub fn span_end(&self, token: SpanToken) {
        self.close_span(token, None);
    }

    /// End a span because a fault decided its fate; `cause` lands in the
    /// span record and the trace export.
    pub fn span_fault(&self, token: SpanToken, cause: &'static str) {
        self.close_span(token, Some(cause));
    }

    fn close_span(&self, token: SpanToken, cause: Option<&'static str>) {
        let (Some(inner), Some(mut span)) = (&self.0, token.0) else {
            return;
        };
        span.dur_us = inner.now_us().saturating_sub(span.start_us);
        span.cause = cause;
        inner.spans_closed.fetch_add(1, Ordering::Relaxed);
        inner.spans.push(span);
    }

    /// Snapshot of the completed-span ring, in completion order (empty when
    /// disabled).
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.0
            .as_ref()
            .map(|inner| inner.spans.snapshot())
            .unwrap_or_default()
    }

    /// Number of begun-but-not-closed spans, tokens dropped unclosed
    /// included. Zero after a well-paired run: every begin had an end or a
    /// fault cause.
    pub fn open_spans(&self) -> usize {
        self.0.as_ref().map_or(0, |inner| {
            // Closed first: every span counted closed was begun before, so
            // the difference read this way is never short of a close.
            let closed = inner.spans_closed.load(Ordering::Relaxed);
            let begun = inner.spans_begun.load(Ordering::Relaxed);
            begun.saturating_sub(closed) as usize
        })
    }

    /// Completed spans evicted from the bounded ring.
    pub fn dropped_spans(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| inner.spans.dropped())
    }

    /// Every counter as one JSON object `{name: value, ...}` in stable
    /// order — the single serialization all CLI surfaces (`metrics`,
    /// `trace`, `/status`, the fault experiment) share. Built by hand
    /// because the vendored serde has no map `Serialize` impl for
    /// `&'static str` keys.
    pub fn counters_json(&self) -> serde_json::Value {
        serde_json::Value::Object(
            self.counters()
                .into_iter()
                .map(|(name, value)| (name.to_string(), serde_json::Value::UInt(value)))
                .collect(),
        )
    }

    /// Export the completed spans as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form, loadable in Perfetto or
    /// `chrome://tracing`). See [`chrome_trace`] for the format.
    pub fn chrome_trace(&self) -> serde_json::Value {
        chrome_trace(&self.spans())
    }

    /// Render every counter and histogram in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP`/`# TYPE` comments, counters as
    /// `ah_<name>_total`, histograms as `ah_<name>_seconds` with cumulative
    /// `_bucket{le=...}` lines plus `_sum` and `_count`. After the counters
    /// come the labeled per-tenant families, one sample per row of
    /// `tenants` (a server's rows come from its tenant registry:
    /// [`ServerConfig::prometheus`](crate::server::ServerConfig::prometheus)).
    pub(crate) fn prometheus(&self, tenants: &[TenantRow]) -> String {
        let mut out = String::new();
        for c in Counter::ALL.iter() {
            let name = c.name();
            out.push_str(&format!(
                "# HELP ah_{name}_total Total {} events.\n# TYPE ah_{name}_total counter\n\
                 ah_{name}_total {}\n",
                name.replace('_', " "),
                self.counter(*c)
            ));
        }
        // Labeled per-tenant families. Emitted only when there is a tenant
        // row: a `# TYPE` with zero samples is an orphan header, which the
        // conformance validator rejects.
        if !tenants.is_empty() {
            for m in TenantMetric::ALL.iter() {
                let name = m.name();
                out.push_str(&format!(
                    "# HELP ah_tenant_{name}_total Per-tenant {} (label cardinality \
                     bounded at {MAX_TENANT_LABELS}).\n\
                     # TYPE ah_tenant_{name}_total counter\n",
                    name.replace('_', " ")
                ));
                for (tenant, row) in tenants {
                    out.push_str(&format!(
                        "ah_tenant_{name}_total{{tenant=\"{}\"}} {}\n",
                        tenant.replace('\\', "\\\\").replace('"', "\\\""),
                        row[m.idx()]
                    ));
                }
            }
        }
        out.push_str(&format!(
            "# HELP ah_events_dropped_total Events evicted from the bounded ring.\n\
             # TYPE ah_events_dropped_total counter\n\
             ah_events_dropped_total {}\n",
            self.dropped_events()
        ));
        out.push_str(&format!(
            "# HELP ah_spans_dropped_total Completed spans evicted from the bounded ring.\n\
             # TYPE ah_spans_dropped_total counter\n\
             ah_spans_dropped_total {}\n",
            self.dropped_spans()
        ));
        out.push_str(&format!(
            "# HELP ah_spans_open Spans begun but not yet ended.\n\
             # TYPE ah_spans_open gauge\n\
             ah_spans_open {}\n",
            self.open_spans()
        ));
        for l in Latency::ALL.iter() {
            let name = l.name();
            out.push_str(&format!(
                "# HELP ah_{name}_seconds Latency of {}.\n# TYPE ah_{name}_seconds histogram\n",
                name.replace('_', " ")
            ));
            let histogram = self.histogram(*l);
            let mut cumulative = 0u64;
            for (i, n) in histogram.buckets.iter().enumerate() {
                cumulative += n;
                let le = if i == HISTO_BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    // Upper bound 2^i µs, rendered in seconds.
                    format!("{}", (1u64 << i) as f64 / 1e6)
                };
                out.push_str(&format!(
                    "ah_{name}_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "ah_{name}_seconds_sum {}\nah_{name}_seconds_count {}\n",
                histogram.sum_us as f64 / 1e6,
                histogram.count
            ));
        }
        out
    }
}

/// Build a Chrome trace-event JSON document from a set of spans.
///
/// Output is the object form `{"traceEvents": [...], "displayTimeUnit":
/// "ms"}` accepted by Perfetto and `chrome://tracing`. Every span becomes a
/// complete event (`"ph": "X"`, `ts`/`dur` in microseconds) on a thread
/// derived from its `(track, track_id)` pair; thread-name metadata events
/// (`"ph": "M"`) label each track. Events are sorted by start time, so
/// timestamps are monotone globally and therefore per track. Fault-closed
/// spans carry their cause in `args`.
pub fn chrome_trace(spans: &[SpanEvent]) -> serde_json::Value {
    use serde_json::Value;
    let mut sorted: Vec<&SpanEvent> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_us, s.id));
    // Stable small thread ids per (track, track_id), in order of first
    // appearance on the sorted timeline.
    let mut tids: Vec<(&'static str, u64)> = Vec::new();
    for s in &sorted {
        if !tids.contains(&(s.track, s.track_id)) {
            tids.push((s.track, s.track_id));
        }
    }
    let tid_of = |s: &SpanEvent| -> u64 {
        tids.iter()
            .position(|t| *t == (s.track, s.track_id))
            .expect("every span's track is registered") as u64
            + 1
    };
    let mut events = Vec::with_capacity(sorted.len() + tids.len() + 1);
    events.push(serde_json::json!({
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "active-harmony"},
    }));
    for (i, (track, track_id)) in tids.iter().enumerate() {
        events.push(serde_json::json!({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": i as u64 + 1,
            "args": {"name": format!("{track}/{track_id}")},
        }));
    }
    for s in sorted {
        let mut args = vec![
            ("iteration".to_string(), Value::UInt(s.iteration as u64)),
            ("span_id".to_string(), Value::UInt(s.id)),
        ];
        if let Some(cause) = s.cause {
            args.push(("cause".to_string(), Value::String(cause.to_string())));
        }
        events.push(serde_json::json!({
            "name": s.kind.name(),
            "cat": s.track,
            "ph": "X",
            "ts": s.start_us,
            "dur": s.dur_us,
            "pid": 0,
            "tid": tid_of(s),
            "args": Value::Object(args),
        }));
    }
    serde_json::json!({
        "traceEvents": Value::Array(events),
        "displayTimeUnit": "ms",
    })
}

/// Structurally validate a Prometheus text exposition (version 0.0.4).
///
/// Enforced invariants — the conformance contract every scrape surface in
/// this codebase (and the tests) share:
///
/// * every `# HELP` and `# TYPE` names each family **exactly once**, and
///   every family has both;
/// * every declared family emits at least one sample (no orphan headers);
/// * every sample belongs to a declared family (no orphan samples) —
///   histogram `_bucket`/`_sum`/`_count` suffixes resolve to their family;
/// * every sample value parses as `f64`.
///
/// Returns the declared `(family, kind)` list in declaration order.
pub fn validate_exposition(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut helped: Vec<String> = Vec::new();
    let mut declared: Vec<(String, String)> = Vec::new();
    let mut sampled: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default().to_string();
            if helped.contains(&name) {
                return Err(format!("duplicate HELP for {name}"));
            }
            helped.push(name);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("TYPE line lacks a kind: {line}"))?;
            if declared.iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate TYPE for {name}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown kind {kind} for {name}"));
            }
            declared.push((name.to_string(), kind.to_string()));
        } else if let Some(comment) = line.strip_prefix('#') {
            return Err(format!("comment is neither HELP nor TYPE: #{comment}"));
        } else {
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("sample line lacks a value: {line}"))?;
            value
                .parse::<f64>()
                .map_err(|_| format!("unparseable value in: {line}"))?;
            let base = key.split('{').next().unwrap_or_default();
            let family = base
                .strip_suffix("_bucket")
                .or_else(|| base.strip_suffix("_sum"))
                .or_else(|| base.strip_suffix("_count"))
                .filter(|f| declared.iter().any(|(n, k)| n == f && k == "histogram"))
                .unwrap_or(base);
            if !declared.iter().any(|(n, _)| n == family) {
                return Err(format!("orphan sample (no TYPE header): {line}"));
            }
            if !sampled.contains(&family.to_string()) {
                sampled.push(family.to_string());
            }
        }
    }
    for (name, _) in &declared {
        if !helped.contains(name) {
            return Err(format!("TYPE without HELP for {name}"));
        }
        if !sampled.contains(name) {
            return Err(format!("orphan header (TYPE with no samples): {name}"));
        }
    }
    for name in &helped {
        if !declared.iter().any(|(n, _)| n == name) {
            return Err(format!("HELP without TYPE for {name}"));
        }
    }
    Ok(declared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.inc(Counter::TrialsProposed);
        t.event(TrialStage::Proposed, 1, 7, None);
        t.observe(Latency::FetchBatchRtt, Duration::from_millis(3));
        assert_eq!(t.counter(Counter::TrialsProposed), 0);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped_events(), 0);
        assert_eq!(t.histogram(Latency::FetchBatchRtt), HistoSnapshot::zero());
    }

    #[test]
    fn counters_and_events_accumulate() {
        let t = Telemetry::enabled();
        t.inc(Counter::TrialsProposed);
        t.add(Counter::TrialsProposed, 2);
        t.event(TrialStage::Proposed, 1, 0, None);
        t.event(TrialStage::Requeued, 1, 9, Some("owner_left"));
        assert_eq!(t.counter(Counter::TrialsProposed), 3);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(
            t.lifecycle(),
            vec![
                (TrialStage::Proposed, 1, None),
                (TrialStage::Requeued, 1, Some("owner_left")),
            ]
        );
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Telemetry::with_capacity(4);
        for i in 0..10 {
            t.event(TrialStage::Measured, i, 0, None);
        }
        let events = t.events();
        assert_eq!(events.len(), 4);
        assert_eq!(t.dropped_events(), 6);
        // The survivors are the newest four, in order.
        let iters: Vec<usize> = events.iter().map(|e| e.iteration).collect();
        assert_eq!(iters, vec![6, 7, 8, 9]);
    }

    #[test]
    fn histogram_buckets_are_log2_and_cumulative() {
        let t = Telemetry::enabled();
        t.observe(Latency::WalAppendFsync, Duration::from_micros(1));
        t.observe(Latency::WalAppendFsync, Duration::from_micros(3));
        t.observe(Latency::WalAppendFsync, Duration::from_secs(100)); // overflow
        let text = t.prometheus(&[]);
        // 1µs lands in the first bucket (le=1e-6 seconds = 0.000001).
        assert!(
            text.contains("ah_wal_append_fsync_seconds_bucket{le=\"0.000001\"} 1"),
            "{text}"
        );
        // The +Inf bucket is cumulative: all three observations.
        assert!(
            text.contains("ah_wal_append_fsync_seconds_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("ah_wal_append_fsync_seconds_count 3"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_text_is_parseable() {
        let t = Telemetry::enabled();
        t.inc(Counter::TrialsReported);
        t.observe(Latency::SessionWait, Duration::from_micros(50));
        for line in t.prometheus(&[]).lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            // `name{labels} value` or `name value`; the value parses as f64
            // (+Inf bucket labels live inside the braces, not the value).
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in: {line}");
        }
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.inc(Counter::WalAppends);
        assert_eq!(t.counter(Counter::WalAppends), 1);
    }

    #[test]
    fn spans_pair_begin_with_end_or_fault() {
        let t = Telemetry::enabled();
        let a = t.span_begin(SpanKind::Fetch, 3, "client", 7);
        let b = t.span_begin(SpanKind::Measure, 3, "worker", 1);
        assert_eq!(t.open_spans(), 2);
        t.span_end(a);
        t.span_fault(b, "crash");
        assert_eq!(t.open_spans(), 0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Fetch);
        assert_eq!(spans[0].cause, None);
        assert_eq!(spans[1].kind, SpanKind::Measure);
        assert_eq!(spans[1].cause, Some("crash"));
        assert!(spans.iter().all(|s| s.start_us <= s.start_us + s.dur_us));
    }

    #[test]
    fn disabled_handle_spans_are_noops() {
        let t = Telemetry::disabled();
        let tok = t.span_begin(SpanKind::Report, 1, "client", 1);
        t.span_end(tok);
        assert_eq!(t.open_spans(), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_ring_is_bounded_and_counts_drops() {
        let t = Telemetry::with_capacity(3);
        for i in 0..8 {
            let tok = t.span_begin(SpanKind::Measure, i, "worker", 0);
            t.span_end(tok);
        }
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.dropped_spans(), 5);
        let text = t.prometheus(&[]);
        assert!(text.contains("ah_spans_dropped_total 5"), "{text}");
        assert!(text.contains("ah_spans_open 0"), "{text}");
    }

    #[test]
    fn chrome_trace_has_metadata_and_monotone_tracks() {
        let t = Telemetry::enabled();
        for i in 0..4 {
            let tok = t.span_begin(SpanKind::Measure, i, "worker", (i % 2) as u64);
            std::thread::sleep(Duration::from_micros(50));
            if i == 2 {
                t.span_fault(tok, "lost_report");
            } else {
                t.span_end(tok);
            }
        }
        let trace = t.chrome_trace();
        // Valid JSON round-trip.
        let text = serde_json::to_string(&trace).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        // Process + two thread metadata events + four complete events.
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M"))
            .collect();
        assert_eq!(metas.len(), 3, "{text}");
        let slices: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(slices.len(), 4);
        // Per-track timestamps are monotone.
        let mut last_ts: HashMap<u64, u64> = HashMap::new();
        for e in &slices {
            let tid = e["tid"].as_u64().unwrap();
            let ts = e["ts"].as_u64().unwrap();
            assert!(*last_ts.get(&tid).unwrap_or(&0) <= ts, "{text}");
            last_ts.insert(tid, ts);
            assert!(e["dur"].as_u64().is_some());
        }
        // The faulted span carries its cause.
        assert!(
            slices
                .iter()
                .any(|e| e["args"]["cause"].as_str() == Some("lost_report")),
            "{text}"
        );
    }

    #[test]
    fn counters_json_matches_counter_order() {
        let t = Telemetry::enabled();
        t.add(Counter::TrialsProposed, 5);
        t.inc(Counter::StoreHits);
        let v = t.counters_json();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.len(), Counter::ALL.len());
        for ((key, val), c) in obj.iter().zip(Counter::ALL.iter()) {
            assert_eq!(key, c.name());
            assert_eq!(val.as_u64(), Some(t.counter(*c)));
        }
        assert_eq!(v["trials_proposed"].as_u64(), Some(5));
        assert_eq!(v["store_hits"].as_u64(), Some(1));
    }

    /// `idx` is the discriminant, so each `ALL` must list its enum in
    /// declaration order.
    #[test]
    fn every_all_array_is_in_declaration_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.idx(), i, "{c:?}");
        }
        for (i, l) in Latency::ALL.iter().enumerate() {
            assert_eq!(l.idx(), i, "{l:?}");
        }
        for (i, m) in TenantMetric::ALL.iter().enumerate() {
            assert_eq!(m.idx(), i, "{m:?}");
        }
    }

    /// Exposition conformance: every `# TYPE` line is matched by samples of
    /// the declared kind, histogram `+Inf` buckets equal `_count`, no
    /// metric is declared twice, and the labeled per-tenant families carry
    /// their headers exactly once.
    #[test]
    fn prometheus_exposition_is_conformant() {
        let t = Telemetry::enabled();
        t.inc(Counter::StoreHits);
        t.inc(Counter::StoreMisses);
        t.inc(Counter::StoreTornTails);
        t.inc(Counter::ConnectionsAccepted);
        t.inc(Counter::ConnectionsRefused);
        t.inc(Counter::ConnectionsEvictedIdle);
        t.inc(Counter::ConnectionsClosedByPeer);
        t.observe(Latency::StoreLookup, Duration::from_micros(12));
        t.observe(Latency::WalAppendFsync, Duration::from_secs(120));
        t.observe(Latency::EventLoopIteration, Duration::from_micros(180));
        let tok = t.span_begin(SpanKind::Fetch, 1, "client", 1);
        t.span_end(tok);
        let text = t.prometheus(&[
            ("acme".to_string(), [7, 0, 1234, 0]),
            ("globex".to_string(), [0, 0, 0, 2]),
        ]);

        let declared = validate_exposition(&text).expect("exposition validates");
        let mut samples: HashMap<String, Vec<(String, f64)>> = HashMap::new();
        for line in text.lines() {
            if !line.starts_with('#') && !line.is_empty() {
                let (key, value) = line.rsplit_once(' ').expect("sample line");
                let value: f64 = value.parse().expect("sample value parses");
                let base = key.split('{').next().unwrap();
                let family = base
                    .strip_suffix("_bucket")
                    .or_else(|| base.strip_suffix("_sum"))
                    .or_else(|| base.strip_suffix("_count"))
                    .filter(|f| declared.iter().any(|(n, k)| n == f && k == "histogram"))
                    .unwrap_or(base);
                samples
                    .entry(family.to_string())
                    .or_default()
                    .push((key.to_string(), value));
            }
        }
        // dropped-events/spans/open metrics plus one family per counter,
        // histogram, and (label-carrying) per-tenant metric.
        assert_eq!(
            declared.len(),
            Counter::ALL.len() + Latency::ALL.len() + TenantMetric::ALL.len() + 3,
            "{declared:?}"
        );
        for (name, kind) in &declared {
            let got = samples.get(name).unwrap_or_else(|| {
                panic!("TYPE {name} declared but no samples emitted");
            });
            match kind.as_str() {
                "counter" | "gauge" if name.starts_with("ah_tenant_") => {
                    // Labeled family: one sample per tenant, each labeled.
                    assert_eq!(got.len(), 2, "{name} should have one sample per tenant");
                    assert!(got.iter().all(|(k, _)| k.contains("tenant=\"")), "{got:?}");
                }
                "counter" | "gauge" => {
                    assert_eq!(got.len(), 1, "{name} should have one sample");
                    assert_eq!(&got[0].0, name);
                }
                "histogram" => {
                    let inf = got
                        .iter()
                        .find(|(k, _)| k.contains("le=\"+Inf\""))
                        .unwrap_or_else(|| panic!("{name} lacks a +Inf bucket"));
                    let count = got
                        .iter()
                        .find(|(k, _)| k == &format!("{name}_count"))
                        .unwrap_or_else(|| panic!("{name} lacks _count"));
                    assert_eq!(inf.1, count.1, "{name}: +Inf bucket != _count");
                    assert!(
                        got.iter().any(|(k, _)| k == &format!("{name}_sum")),
                        "{name} lacks _sum"
                    );
                }
                other => panic!("unexpected metric kind {other} for {name}"),
            }
        }
        // Store hit/miss/torn-tail, ring-drop, connection-churn, and
        // per-tenant counters plus the readiness-loop histogram are present.
        for needle in [
            "ah_store_hits_total 1",
            "ah_store_misses_total 1",
            "ah_store_torn_tails_total 1",
            "ah_events_dropped_total 0",
            "ah_connections_accepted_total 1",
            "ah_connections_refused_total 1",
            "ah_connections_evicted_idle_total 1",
            "ah_connections_closed_by_peer_total 1",
            "ah_event_loop_iteration_seconds_count 1",
            "ah_tenant_evaluations_total{tenant=\"acme\"} 7",
            "ah_tenant_evaluations_total{tenant=\"globex\"} 0",
            "ah_tenant_session_wait_us_total{tenant=\"acme\"} 1234",
            "ah_tenant_quota_refusals_total{tenant=\"globex\"} 2",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn exposition_without_tenants_has_no_orphan_tenant_headers() {
        let t = Telemetry::enabled();
        t.inc(Counter::TrialsReported);
        let text = t.prometheus(&[]);
        assert!(!text.contains("ah_tenant_"), "{text}");
        validate_exposition(&text).expect("tenant-free exposition validates");
    }

    #[test]
    fn validator_rejects_orphan_and_duplicated_headers() {
        // Orphan header: TYPE with no samples.
        let orphan = "# HELP ah_x_total x.\n# TYPE ah_x_total counter\n";
        assert!(validate_exposition(orphan)
            .unwrap_err()
            .contains("orphan header"));
        // Orphan sample: no TYPE at all.
        let stray = "ah_y_total 3\n";
        assert!(validate_exposition(stray)
            .unwrap_err()
            .contains("orphan sample"));
        // Duplicated TYPE header.
        let dup = "# HELP ah_x_total x.\n# TYPE ah_x_total counter\nah_x_total 1\n\
                   # TYPE ah_x_total counter\nah_x_total 2\n";
        assert!(validate_exposition(dup).unwrap_err().contains("duplicate"));
        // TYPE without HELP.
        let nohelp = "# TYPE ah_x_total counter\nah_x_total 1\n";
        assert!(validate_exposition(nohelp)
            .unwrap_err()
            .contains("TYPE without HELP"));
    }

    #[test]
    fn histogram_snapshot_percentiles_and_deltas() {
        let t = Telemetry::enabled();
        for _ in 0..99 {
            t.observe(Latency::ReportBatchRtt, Duration::from_micros(10));
        }
        let before = t.histogram(Latency::ReportBatchRtt);
        assert_eq!(before.count, 99);
        // 10µs lands in the 16µs bucket (2^4).
        assert_eq!(before.percentile_us(0.5), Some(16.0));
        t.observe(Latency::ReportBatchRtt, Duration::from_millis(200));
        let after = t.histogram(Latency::ReportBatchRtt);
        // Full-history p99: rank 99 of 100 still in the 16µs bucket.
        assert_eq!(after.percentile_us(0.99), Some(16.0));
        // Windowed delta holds exactly the one slow observation.
        let window = after.delta(&before);
        assert_eq!(window.count, 1);
        let p99 = window.percentile_us(0.99).unwrap();
        assert!(p99 >= 200_000.0, "windowed p99 {p99} should be ~200ms");
        // Empty snapshot has no percentile.
        assert_eq!(HistoSnapshot::zero().percentile_us(0.99), None);
        assert_eq!(HistoSnapshot::zero().mean_us(), None);
    }
}
