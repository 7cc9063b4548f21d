//! Persistent cross-session performance database (the paper's §II
//! "database of past performance results").
//!
//! The Harmony server in the paper never re-measures a configuration it has
//! already seen: measured costs go into a performance database that outlives
//! any single tuning session, and new sessions are seeded from it (the SC'04
//! prior-run technique). [`PerfStore`] is that database. It is keyed by
//! `(application label, search-space fingerprint, configuration)` and
//! records every measured cost together with its provenance — which session
//! measured it, at which iteration, and whether the trial had been requeued
//! by fault handling on the way.
//!
//! # On-disk format
//!
//! A durable log — the module `durable_log`, which the [WAL](crate::wal)
//! sits on too (DESIGN.md, "Durable log") — with that module's JSON lines,
//! recovery ([`Counter::StoreTornTails`], [`HarmonyError::StoreCorrupt`]),
//! append and rewrite. Line 1 is a [`StoreHeader`] (`kind` + format
//! version); each following line is one [`StoreRecord`], its fields in
//! declaration order (`RecordView` writes them). Costs are stored as `u64` bit patterns
//! (`f64::to_bits`), so a cost served from the store is *exactly* the one
//! measured — bit-identical memoization, no decimal round-trip. The bytes
//! are pinned by golden lines (`records_encode_to_their_golden_lines`) and
//! by a store file an earlier build wrote (`tests/parent_logs.rs`).
//!
//! # Fsync policy
//!
//! When to sync is where the store deliberately diverges from the WAL: the
//! WAL is a correctness log (losing a record means losing search state), so
//! it pays one fsync per record. The store is a cache — losing the unsynced
//! tail merely means a few configurations get re-measured next run — so
//! appends go to the file immediately (they reach the OS page cache,
//! surviving `abort()`/SIGKILL) but the fsync is deferred: a bare
//! [`PerfStore`] syncs inline every 512 records, a [`SharedStore`] from a
//! background thread once appends go quiet, and both on
//! [`PerfStore::flush`] / drop.
//!
//! # Merging
//!
//! Records from another log — a peer's `/store/log` body, a peer store's
//! file ([`merge_from`](PerfStore::merge_from)), the store's own file at
//! compaction — enter through the reader open uses (see "In memory"), with
//! one rule open does not have: a record whose key the store already serves
//! is skipped, and is a conflict when its cost differs. That holds for a
//! peer's superseded lines too, which are scanned and skipped. A merged
//! line the reader read in place is appended as it came, one it declined
//! is re-encoded, so every line of a store file is one the encoder could
//! have written. A merge takes a log, never a peer's memory: a record whose
//! append failed is served by its store but is in no log, so no merge takes
//! it, as no reopen or compaction does. The dry run
//! ([`merge_preview`](PerfStore::merge_preview)) merges into a copy.
//!
//! # Compaction
//!
//! The log is append-only; re-measurements of a known configuration under a
//! noisy objective append rather than rewrite. [`PerfStore::compact`]
//! rewrites it atomically with only the live (first-recorded) records, so
//! the file cannot grow without bound; [`PerfStore::gc`] keeps one
//! application's. It merges the log's own file, read afresh, into no
//! records: each key's first line is the live record's, and the kept lines
//! stream to the new file. A record whose append failed (a full disk) is
//! served from memory, but its line is not in the file, so a compaction
//! drops it, as a reopen does. A rewrite moves records to new offsets, so
//! it also starts a new `generation`: a peer pulling the log by byte mark
//! re-pulls from 0 when the generation it last saw is gone.
//!
//! # In memory
//!
//! The records are kept with no heap object per record. Each is one
//! fixed-size row: an interned app id, the fingerprint, cost and wall
//! bits, session and iteration, the `requeued`/`replayed`/`live` flags
//! packed in a byte, a shape id, and an offset into one `Vec<i64>` that
//! holds every record's cache key back to back, each followed by the
//! label ids of its `Enum` values. A *shape* is a parameter name table
//! plus each value's variant (`Int`, `Real`, `Enum`), interned once, so
//! the records of one space share one name table; app labels and enum
//! labels are interned strings. A record is written and stored from a
//! `RecordView`, its fields borrowed: the server's reports are views of
//! the trials it holds. A [`StoreRecord`] exists only at the API's edge:
//! [`insert_batch`](PerfStore::insert_batch) takes them, one is built
//! from its row for [`live_records`](PerfStore::live_records) and the
//! priors view, and the derive reads a line the store's reader declines
//! into one. A record built from a row is the one stored: a `Real` keeps
//! its bits and an `Enum` its index and label, so every line re-encodes
//! byte-identically.
//!
//! One index finds a key: a seeded digest of `(app id, fingerprint, cache
//! key)` maps to the newest live record with that digest, and a chain
//! links it to the older ones (the crate's digest index, which the
//! session's memo uses too). The seed is drawn per process, because peer
//! records are input a remote server chose; every hit is verified
//! against the row and its key, so a collision costs a compare, never a
//! wrong cost. Open streams the log (see `durable_log`) and builds the
//! rows as the lines arrive, so it never holds the file's bytes. It reads
//! each line itself, straight into a row and the value column: a reused
//! line reader takes the exact bytes the encoder writes, and the row is
//! pushed from it, so a steady open allocates nothing per line. A line in
//! any other layout — spaced, reordered, escaped, a real not in its
//! shortest form — it declines, and the derive reads that one into a
//! [`StoreRecord`] first; the reader takes only lines the derive takes,
//! into the same row. A record whose line could not be read back (a
//! non-finite `Real`, written as `null`) is never appended, and a line that
//! decodes to one is not a record.
//!
//! # Cache semantics
//!
//! Lookup is *first write wins*: the first recorded cost for a key is the
//! one served forever after, which is what makes a warm run against the
//! store replay the cold run's trajectory bit-identically. Sessions are
//! served inside their own proposal loop: the server and the off-line
//! tuner pass `lookup_after` as the memo of
//! `TuningSession::suggest_batch_with`.
//!
//! A replay asks for records in the order the cold run wrote them, so
//! `lookup_after` first checks the record after the caller's last hit and
//! serves it when it is the live record for the key — same app,
//! fingerprint and cache key (one slice compare against the row's values),
//! and not a superseded re-measurement. Only otherwise does it probe the
//! index. The position is a guess that is always verified, never a cache
//! that could go stale: after a compaction, on another application's
//! record, or where two sessions' batches interleave in the log, the guess
//! fails and the index answers.
//! [`lookup`](PerfStore::lookup) is the same body without a position.

use crate::digest_index::DigestIndex;
use crate::durable_log::{self, push_line, Committed, DurableLog, LineReader};
use crate::error::{HarmonyError, Result};
use crate::lock;
use crate::priors::PriorRunDb;
use crate::space::{Configuration, SearchSpace};
use crate::telemetry::{Counter, Latency, SpanKind, Telemetry};
use crate::value::ParamValue;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Current store format version (line 1 of every store file).
pub const STORE_VERSION: u32 = 1;

/// File-type marker in the header, so a store file can never be confused
/// with a WAL (both are JSON lines).
pub const STORE_KIND: &str = "ah-store";

/// Default number of appends between `sync_data` calls.
///
/// Sized for the hot path, not for durability: a `sync_data` costs
/// hundreds of microseconds while an appended line costs well under one,
/// so at 32 the fsync cadence would dominate every store-backed report.
/// The window only matters for power loss — records reach the OS page
/// cache on append, surviving `abort()`/SIGKILL — and losing a window of
/// cache entries merely means re-measuring them, so the cadence errs
/// toward throughput. [`PerfStore::flush`] (called on drop and on server
/// shutdown) always syncs the tail.
const DEFAULT_SYNC_EVERY: usize = 512;

/// First line of every store file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreHeader {
    /// Always [`STORE_KIND`]; refuses WAL or foreign JSON-lines files.
    pub kind: String,
    /// Format version ([`STORE_VERSION`]).
    pub version: u32,
}

/// One measured cost with its provenance. Serialized as one JSON line,
/// through its borrowed view (`RecordView`).
#[derive(Debug, Clone, Deserialize)]
pub struct StoreRecord {
    /// Application label the measurement belongs to.
    pub app: String,
    /// Fingerprint of the search space it was measured in
    /// ([`space_fingerprint`]); disambiguates identical cache keys from
    /// different spaces under one label.
    pub fingerprint: u64,
    /// The measured configuration.
    pub config: Configuration,
    /// `f64::to_bits` of the measured cost.
    pub cost_bits: u64,
    /// `f64::to_bits` of the measurement's wall-clock time.
    pub wall_bits: u64,
    /// Session that measured it (0 = off-line / standalone tuner).
    pub session: u64,
    /// Iteration token within that session (0 = preload/baseline).
    pub iteration: usize,
    /// The trial had been requeued by fault handling before its report.
    pub requeued: bool,
    /// The cost came from a replay (WAL resume), not a live measurement.
    pub replayed: bool,
}

impl StoreRecord {
    /// A record with zeroed provenance; chain
    /// [`with_provenance`](Self::with_provenance) and
    /// [`with_flags`](Self::with_flags) to fill it in.
    pub fn new(
        app: impl Into<String>,
        fingerprint: u64,
        config: Configuration,
        cost: f64,
        wall_time: f64,
    ) -> Self {
        StoreRecord {
            app: app.into(),
            fingerprint,
            config,
            cost_bits: cost.to_bits(),
            wall_bits: wall_time.to_bits(),
            session: 0,
            iteration: 0,
            requeued: false,
            replayed: false,
        }
    }

    /// Stamp the measuring session and iteration.
    pub fn with_provenance(mut self, session: u64, iteration: usize) -> Self {
        self.session = session;
        self.iteration = iteration;
        self
    }

    /// Stamp the fault/replay flags.
    pub fn with_flags(mut self, requeued: bool, replayed: bool) -> Self {
        self.requeued = requeued;
        self.replayed = replayed;
        self
    }

    /// The measured cost.
    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }

    /// The measurement's wall-clock time.
    pub fn wall_time(&self) -> f64 {
        f64::from_bits(self.wall_bits)
    }

    /// The record borrowed, as it is written and stored.
    pub(crate) fn view(&self) -> RecordView<'_> {
        RecordView {
            app: &self.app,
            fingerprint: self.fingerprint,
            config: &self.config,
            cost_bits: self.cost_bits,
            wall_bits: self.wall_bits,
            session: self.session,
            iteration: self.iteration,
            requeued: self.requeued,
            replayed: self.replayed,
        }
    }
}

impl Serialize for StoreRecord {
    fn serialize<S: serde::ser::Sink>(&self, sink: &mut S) {
        self.view().serialize(sink);
    }
}

/// A record's fields borrowed from wherever they are: the one layout of a
/// record line, and what [`Records::push`] stores. The server appends its
/// reports as views of the trials it holds, so no [`StoreRecord`] (no app
/// `String`, no copied configuration) is built per report.
#[derive(Clone, Copy)]
pub(crate) struct RecordView<'a> {
    pub(crate) app: &'a str,
    pub(crate) fingerprint: u64,
    pub(crate) config: &'a Configuration,
    pub(crate) cost_bits: u64,
    pub(crate) wall_bits: u64,
    pub(crate) session: u64,
    pub(crate) iteration: usize,
    pub(crate) requeued: bool,
    pub(crate) replayed: bool,
}

/// By hand, as the derive writes [`StoreRecord`]'s fields (the derive
/// takes no lifetimes); the golden lines pin the bytes.
impl Serialize for RecordView<'_> {
    fn serialize<S: serde::ser::Sink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.key("app");
        sink.str(self.app);
        sink.key("fingerprint");
        sink.u64(self.fingerprint);
        sink.key("config");
        self.config.serialize(sink);
        sink.key("cost_bits");
        sink.u64(self.cost_bits);
        sink.key("wall_bits");
        sink.u64(self.wall_bits);
        sink.key("session");
        sink.u64(self.session);
        sink.key("iteration");
        sink.u64(self.iteration as u64);
        sink.key("requeued");
        sink.bool(self.requeued);
        sink.key("replayed");
        sink.bool(self.replayed);
        sink.end_object();
    }
}

/// A cost served from the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredCost {
    /// The first-recorded cost for the key.
    pub cost: f64,
    /// The wall-clock time of the original measurement.
    pub wall_time: f64,
}

/// Per-application summary inside [`StoreStats`].
#[derive(Debug, Clone, Serialize)]
pub struct AppStats {
    /// Application label.
    pub app: String,
    /// Unique live configurations recorded for it.
    pub configs: usize,
}

/// Snapshot of a store's size and composition.
#[derive(Debug, Clone, Serialize)]
pub struct StoreStats {
    /// Backing file path.
    pub path: String,
    /// Backing file size in bytes.
    pub file_bytes: u64,
    /// Total log records, superseded duplicates included.
    pub records: usize,
    /// Unique live `(app, fingerprint, configuration)` keys.
    pub live_configs: usize,
    /// Per-application live config counts, sorted by label.
    pub apps: Vec<AppStats>,
    /// A torn trailing record was truncated when this store was opened.
    pub torn_tail_truncated: bool,
}

/// Outcome of a federation merge ([`PerfStore::merge_from`], a peer's
/// pull).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct MergeStats {
    /// Peer record lines examined, superseded ones included.
    pub scanned: usize,
    /// Novel records appended into the local log.
    pub merged: usize,
    /// Records skipped because the local store already serves their
    /// `(app, fingerprint, key)`.
    pub skipped: usize,
    /// Skipped records whose cost differed from the locally served cost —
    /// both sides measured the key independently and the local first
    /// write won ([`Counter::StoreMergeConflicts`]).
    pub conflicts: usize,
}

/// Outcome of a [`PerfStore::compact`] or [`PerfStore::gc`].
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CompactionStats {
    /// Log records before.
    pub records_before: usize,
    /// Log records after (= live records kept).
    pub records_after: usize,
    /// File bytes before.
    pub bytes_before: u64,
    /// File bytes after.
    pub bytes_after: u64,
}

/// Stable 64-bit fingerprint of a search space's parameter declarations
/// and constraints.
///
/// FNV-1a over the serde_json encoding of the parameter list — hand-rolled
/// and version-stable, unlike `DefaultHasher`. Each constraint's canonical
/// token (its resolved member indices and bounds) is folded in
/// *order-insensitively* (each token hashed independently, combined with a
/// commutative wrapping sum), so two spaces that differ only in constraint
/// ordering fingerprint identically. An unconstrained space hashes exactly
/// as before this scheme existed, so records written by older stores still
/// hit.
pub fn space_fingerprint(space: &SearchSpace) -> u64 {
    let blob = serde_json::to_string(&space.params()).expect("params serialize");
    let mut h = fnv1a(blob.as_bytes());
    let constraints = space.constraints();
    if !constraints.is_empty() {
        let acc = constraints.iter().fold(0u64, |acc, c| {
            acc.wrapping_add(fnv1a(c.fingerprint_token().as_bytes()))
        });
        let count = constraints.len() as u64;
        h ^= fnv1a(&acc.to_le_bytes()) ^ fnv1a(&count.to_le_bytes());
    }
    h
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Line 1 of every store file.
fn header() -> StoreHeader {
    StoreHeader {
        kind: STORE_KIND.into(),
        version: STORE_VERSION,
    }
}

/// Refuse line 1 of a file that is not a store this build reads.
fn check_header(h: &StoreHeader) -> std::result::Result<(), String> {
    match (h.kind.as_str(), h.version) {
        (STORE_KIND, STORE_VERSION) => Ok(()),
        (STORE_KIND, v) => Err(format!(
            "store version {v} (this build reads {STORE_VERSION})"
        )),
        (kind, _) => Err(format!("not a performance store (kind {kind:?})")),
    }
}

/// A log generation no other open or rewrite is likely to have drawn:
/// `RandomState` is seeded per process and steps per instance, so hashing
/// nothing with a new one yields a fresh 64-bit value without a clock or
/// an RNG dependency.
fn fresh_generation() -> u64 {
    RandomState::new().build_hasher().finish()
}

/// Strings kept once each, by a dense id.
#[derive(Clone, Default)]
struct Interner {
    strings: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl Interner {
    fn id(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(id) = self.id(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("fewer than 2^32 distinct strings");
        let s: Arc<str> = s.into();
        self.strings.push(Arc::clone(&s));
        self.ids.insert(s, id);
        id
    }

    fn get(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    fn len(&self) -> usize {
        self.strings.len()
    }

    /// Forget the strings interned after the first `len`.
    fn truncate(&mut self, len: usize) {
        for s in self.strings.drain(len..) {
            self.ids.remove(&s);
        }
    }
}

/// A value's variant, which its cache key does not tell.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Int,
    Real,
    Enum,
}

impl Kind {
    fn of(value: &ParamValue) -> Kind {
        match value {
            ParamValue::Int(_) => Kind::Int,
            ParamValue::Real(_) => Kind::Real,
            ParamValue::Enum { .. } => Kind::Enum,
        }
    }
}

/// What a configuration is beyond its cache key: the parameter names and
/// each value's variant. Records of one space share one.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Shape {
    names: Arc<[String]>,
    kinds: Box<[Kind]>,
}

/// `Row::flags` bits.
const REQUEUED: u8 = 1;
const REPLAYED: u8 = 2;
/// The index serves this record for its key; clear only for a
/// re-measurement appended for provenance.
const LIVE: u8 = 4;

/// A record's fixed-size fields. Its values are in [`Records::vals`].
#[derive(Clone, Copy, Default)]
struct Row {
    fingerprint: u64,
    cost_bits: u64,
    wall_bits: u64,
    session: u64,
    iteration: u64,
    /// Where the record's cache key starts in `vals`. The label ids of
    /// its `Enum` values follow the key.
    offset: usize,
    app: u32,
    shape: u32,
    flags: u8,
}

/// The `Row::flags` bits of a record's `requeued` and `replayed`.
fn flags(requeued: bool, replayed: bool) -> u8 {
    let flag = |on: bool, bit: u8| if on { bit } else { 0 };
    flag(requeued, REQUEUED) | flag(replayed, REPLAYED)
}

/// Where [`Records::push`] puts a record: its app's id, and the digest the
/// index finds it under when it is live.
struct Slot {
    app: u32,
    digest: u64,
}

/// The log's records in memory, in file order, with no heap object per
/// record (see the [module docs](self#in-memory)).
#[derive(Clone)]
struct Records {
    rows: Vec<Row>,
    /// Every record's cache key, then the label ids of its `Enum` values,
    /// back to back.
    vals: Vec<i64>,
    apps: Interner,
    labels: Interner,
    shapes: Vec<Shape>,
    shape_ids: HashMap<Shape, u32>,
    /// Digest of `(app id, fingerprint, key)` → the live records.
    index: DigestIndex,
    /// Live records.
    live: usize,
}

impl Records {
    fn new(index: DigestIndex) -> Self {
        Records {
            rows: Vec::new(),
            vals: Vec::new(),
            apps: Interner::default(),
            labels: Interner::default(),
            shapes: Vec::new(),
            shape_ids: HashMap::new(),
            index,
            live: 0,
        }
    }

    /// No records, and this index's digest.
    fn emptied(&self) -> Self {
        Self::new(self.index.emptied())
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    /// The cache key of the record at `pos`.
    #[inline]
    fn key(&self, pos: usize) -> &[i64] {
        let row = &self.rows[pos];
        let len = self.shapes[row.shape as usize].kinds.len();
        &self.vals[row.offset..row.offset + len]
    }

    fn digest(&self, app: u32, fingerprint: u64, key: impl Iterator<Item = i64>) -> u64 {
        let head = [app as i64, fingerprint as i64];
        self.index.digest(head.into_iter().chain(key))
    }

    /// Whether the record at `pos` has `app`, `fingerprint` and `key`.
    #[inline]
    fn holds(
        &self,
        pos: usize,
        app: u32,
        fingerprint: u64,
        key: impl Iterator<Item = i64>,
    ) -> bool {
        let row = &self.rows[pos];
        row.app == app && row.fingerprint == fingerprint && self.key(pos).iter().copied().eq(key)
    }

    /// Position of the live record for `(app, fingerprint, key)`, if any.
    /// Alloc-free: the app is probed borrowed, the key as it comes.
    fn find(
        &self,
        app: &str,
        fingerprint: u64,
        key: impl Iterator<Item = i64> + Clone,
    ) -> Option<usize> {
        let app = self.app_id(app)?;
        let digest = self.digest(app, fingerprint, key.clone());
        self.index
            .find(digest, |pos| self.holds(pos, app, fingerprint, key.clone()))
    }

    /// `app`'s id: the last record's when it is the same app, as it is
    /// along a run of one session's records, else the interned one.
    fn app_id(&self, app: &str) -> Option<u32> {
        match self.rows.last() {
            Some(row) if self.apps.get(row.app) == app => Some(row.app),
            _ => self.apps.id(app),
        }
    }

    /// Where a record with `(app, fingerprint, key)` goes, `app` interned
    /// now: its slot, and the position of the live record for that key if
    /// there is one, found under the slot's digest. A push takes the slot,
    /// so a record's digest is computed once.
    fn slot(
        &mut self,
        app: &str,
        fingerprint: u64,
        key: impl Iterator<Item = i64> + Clone,
    ) -> (Slot, Option<usize>) {
        let app = match self.app_id(app) {
            Some(app) => app,
            None => self.apps.intern(app),
        };
        let digest = self.digest(app, fingerprint, key.clone());
        let found = self
            .index
            .find(digest, |pos| self.holds(pos, app, fingerprint, key.clone()));
        (Slot { app, digest }, found)
    }

    /// [`slot`](Self::slot) for `record`'s key.
    fn slot_of(&mut self, record: RecordView) -> (Slot, Option<usize>) {
        let key = record.config.values().iter().map(ParamValue::cache_key);
        self.slot(record.app, record.fingerprint, key)
    }

    /// The position after `last_hit`, if the record there is the live one
    /// for `(app, fingerprint, key)`: then it is what [`find`](Self::find)
    /// would answer, without the hash probe.
    #[inline]
    fn next_if_live(
        &self,
        app: &str,
        fingerprint: u64,
        key: &[i64],
        last_hit: Option<usize>,
    ) -> Option<usize> {
        let next = last_hit?.checked_add(1)?;
        let row = self.rows.get(next)?;
        let served = row.flags & LIVE != 0
            && row.fingerprint == fingerprint
            && self.key(next) == key
            && self.apps.get(row.app) == app;
        served.then_some(next)
    }

    /// A shape's id: the previous record's when `agrees` says they are the
    /// same, as along a run of one space's records, else the interned one
    /// equal to `shape()`, else that shape newly interned.
    fn shape_id(&mut self, agrees: impl Fn(&Shape) -> bool, shape: impl FnOnce() -> Shape) -> u32 {
        if let Some(row) = self.rows.last() {
            if agrees(&self.shapes[row.shape as usize]) {
                return row.shape;
            }
        }
        let shape = shape();
        if let Some(&id) = self.shape_ids.get(&shape) {
            return id;
        }
        let id = u32::try_from(self.shapes.len()).expect("fewer than 2^32 shapes");
        self.shapes.push(shape.clone());
        self.shape_ids.insert(shape, id);
        id
    }

    /// Append `row` (its `offset` and `LIVE` bit are set here) with its
    /// cache key and the labels of its `Enum` values, in order. Live, and
    /// found by the index, when it has a digest.
    fn push_row<'l>(
        &mut self,
        mut row: Row,
        digest: Option<u64>,
        key: impl Iterator<Item = i64>,
        labels: impl Iterator<Item = &'l str>,
    ) {
        self.index.push(digest);
        row.offset = self.vals.len();
        self.vals.extend(key);
        for label in labels {
            let label = self.labels.intern(label);
            self.vals.push(label as i64);
        }
        if digest.is_some() {
            row.flags |= LIVE;
            self.live += 1;
        }
        self.rows.push(row);
    }

    /// Append `record` in `slot` (from [`slot_of`](Self::slot_of)), served
    /// by the index for its key when `live`.
    fn push(&mut self, record: RecordView, slot: Slot, live: bool) {
        let config = record.config;
        let kinds = || config.values().iter().map(Kind::of);
        let shape = self.shape_id(
            |shape| shape.names == *config.names_table() && shape.kinds.iter().copied().eq(kinds()),
            || Shape {
                names: Arc::clone(config.names_table()),
                kinds: kinds().collect(),
            },
        );
        let labels = config.values().iter().filter_map(ParamValue::as_enum);
        let row = Row {
            fingerprint: record.fingerprint,
            cost_bits: record.cost_bits,
            wall_bits: record.wall_bits,
            session: record.session,
            iteration: record.iteration as u64,
            offset: 0,
            app: slot.app,
            shape,
            flags: flags(record.requeued, record.replayed),
        };
        let key = config.values().iter().map(ParamValue::cache_key);
        self.push_row(row, live.then_some(slot.digest), key, labels);
    }

    /// Append the record [`Line::read`] read from `text` in `slot`, served
    /// by the index for its key when `live`.
    fn push_read(&mut self, line: &Line, text: &str, slot: Slot, live: bool) {
        let at = |(start, end): Span| &text[start..end];
        let names = || line.names.iter().map(|&span| at(span));
        let shape = self.shape_id(
            |shape| {
                *shape.kinds == *line.kinds && shape.names.iter().map(String::as_str).eq(names())
            },
            || Shape {
                names: names().map(str::to_string).collect(),
                kinds: line.kinds.as_slice().into(),
            },
        );
        let labels = line.labels.iter().map(|&span| at(span));
        let row = Row {
            app: slot.app,
            shape,
            ..line.row
        };
        let key = line.key.iter().copied();
        self.push_row(row, live.then_some(slot.digest), key, labels);
    }

    /// How far the records and what they interned reach, for a
    /// [`roll_back`](Self::roll_back) to.
    fn mark(&self) -> [usize; 4] {
        let (rows, shapes) = (self.rows.len(), self.shapes.len());
        [rows, self.apps.len(), self.labels.len(), shapes]
    }

    /// Drop what was pushed and interned since `mark`, newest first, as if
    /// it had never been.
    fn roll_back(&mut self, [len, apps, labels, shapes]: [usize; 4]) {
        while self.rows.len() > len {
            let pos = self.rows.len() - 1;
            let row = self.rows[pos];
            let live = row.flags & LIVE != 0;
            let digest =
                live.then(|| self.digest(row.app, row.fingerprint, self.key(pos).iter().copied()));
            self.index.pop(digest);
            self.live -= usize::from(live);
            self.vals.truncate(row.offset);
            self.rows.pop();
        }
        self.apps.truncate(apps);
        self.labels.truncate(labels);
        for shape in self.shapes.drain(shapes..) {
            self.shape_ids.remove(&shape);
        }
    }

    /// The record at `pos`, as it was pushed.
    fn record(&self, pos: usize) -> StoreRecord {
        let row = &self.rows[pos];
        let shape = &self.shapes[row.shape as usize];
        let (key, rest) = self.vals[row.offset..].split_at(shape.kinds.len());
        let mut labels = rest.iter();
        let values = shape.kinds.iter().zip(key).map(|(kind, &v)| match kind {
            Kind::Int => ParamValue::Int(v),
            Kind::Real => ParamValue::Real(f64::from_bits(v as u64)),
            Kind::Enum => {
                let label = *labels.next().expect("an enum value has a label");
                ParamValue::Enum {
                    index: v as usize,
                    label: self.labels.get(label as u32).to_string(),
                }
            }
        });
        StoreRecord {
            app: self.apps.get(row.app).to_string(),
            fingerprint: row.fingerprint,
            config: Configuration::with_table(Arc::clone(&shape.names), values.collect()),
            cost_bits: row.cost_bits,
            wall_bits: row.wall_bits,
            session: row.session,
            iteration: row.iteration as usize,
            requeued: row.flags & REQUEUED != 0,
            replayed: row.flags & REPLAYED != 0,
        }
    }

    /// Positions of the live records, in file order.
    fn live_positions(&self) -> impl Iterator<Item = usize> + '_ {
        let live = self.rows.iter().map(|row| row.flags & LIVE != 0);
        live.enumerate()
            .filter_map(|(pos, live)| live.then_some(pos))
    }

    /// Give back the spare capacity growth left.
    fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
        self.vals.shrink_to_fit();
        self.index.shrink_to_fit();
    }

    /// Merge the log `log` reads through the store's reader, the line of
    /// each record merged to `out`: [`durable_log::scan`]'s outcome, with
    /// the stats, and on an inner `Err` the records as they were.
    fn merge<H: Deserialize>(
        &mut self,
        log: impl BufRead,
        check: impl FnOnce(&H) -> std::result::Result<(), String>,
        out: &mut dyn Write,
    ) -> std::io::Result<std::result::Result<(H, usize, MergeStats), String>> {
        let before = self.mark();
        let mut reader = Reader::new(self, Some(out), None);
        let scanned = durable_log::scan(log, check, &mut reader);
        let stats = reader.stats;
        if !matches!(scanned, Ok(Ok(_))) {
            self.roll_back(before);
        }
        scanned.map(|scanned| scanned.map(|(header, end)| (header, end, stats)))
    }
}

/// A string's place in a line: byte offsets of its text, between the
/// quotes.
type Span = (usize, usize);

/// A record line in the layout [`push_line`] writes, read in place by
/// [`read`](Self::read): its strings as spans of the text, each value's
/// kind and cache key, and its fixed-size fields as a row. One is reused
/// from line to line, so a steady open allocates nothing per line.
#[derive(Default)]
struct Line {
    /// Every field but `offset`, `app` and `shape`, which the push sets.
    row: Row,
    app: Span,
    names: Vec<Span>,
    kinds: Vec<Kind>,
    key: Vec<i64>,
    /// The labels of the `Enum` values, in order.
    labels: Vec<Span>,
    /// The text the encoder writes a real as, to hold a real to.
    real: Vec<u8>,
}

impl Line {
    /// Read `text` if it is a record exactly as the encoder writes one —
    /// its keys in field order, no whitespace, no escape or control
    /// character in a string, no leading zero, `-0` or out-of-range
    /// integer, each real in its shortest form, as many names as values —
    /// else decline (`false`) and leave the line to the derive. A line read
    /// here is one the derive reads too, into the same record, and one the
    /// encoder writes byte for byte.
    fn read(&mut self, text: &str) -> bool {
        self.names.clear();
        self.kinds.clear();
        self.key.clear();
        self.labels.clear();
        let mut at = Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        };
        self.fields(&mut at).is_some() && at.pos == text.len() && self.names.len() == self.key.len()
    }

    fn fields(&mut self, at: &mut Cursor) -> Option<()> {
        at.expect(b"{\"app\":")?;
        self.app = at.string()?;
        at.expect(b",\"fingerprint\":")?;
        self.row.fingerprint = at.u64()?;
        at.expect(b",\"config\":{\"names\":[")?;
        if !at.eat(b"]") {
            loop {
                self.names.push(at.string()?);
                if at.eat(b"]") {
                    break;
                }
                at.expect(b",")?;
            }
        }
        at.expect(b",\"values\":[")?;
        if !at.eat(b"]") {
            loop {
                self.value(at)?;
                if at.eat(b"]") {
                    break;
                }
                at.expect(b",")?;
            }
        }
        at.expect(b"},\"cost_bits\":")?;
        self.row.cost_bits = at.u64()?;
        at.expect(b",\"wall_bits\":")?;
        self.row.wall_bits = at.u64()?;
        at.expect(b",\"session\":")?;
        self.row.session = at.u64()?;
        at.expect(b",\"iteration\":")?;
        self.row.iteration = at.usize()? as u64;
        at.expect(b",\"requeued\":")?;
        let requeued = at.bool()?;
        at.expect(b",\"replayed\":")?;
        self.row.flags = flags(requeued, at.bool()?);
        at.expect(b"}")
    }

    /// One value: its kind, and its key as [`ParamValue::cache_key`] makes
    /// it.
    fn value(&mut self, at: &mut Cursor) -> Option<()> {
        let (kind, key) = if at.eat(b"{\"Int\":") {
            (Kind::Int, at.i64()?)
        } else if at.eat(b"{\"Real\":") {
            (Kind::Real, at.f64(&mut self.real)?.to_bits() as i64)
        } else {
            at.expect(b"{\"Enum\":{\"index\":")?;
            let index = at.usize()?;
            at.expect(b",\"label\":")?;
            self.labels.push(at.string()?);
            at.expect(b"}")?;
            (Kind::Enum, index as i64)
        };
        self.kinds.push(kind);
        self.key.push(key);
        at.expect(b"}")
    }
}

/// A cursor over a line's bytes for [`Line::read`]. `None` is a decline.
struct Cursor<'t> {
    bytes: &'t [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// Step over `literal` if it comes next.
    #[inline]
    fn eat(&mut self, literal: &[u8]) -> bool {
        let found = self.bytes[self.pos..].starts_with(literal);
        if found {
            self.pos += literal.len();
        }
        found
    }

    #[inline]
    fn expect(&mut self, literal: &[u8]) -> Option<()> {
        self.eat(literal).then_some(())
    }

    /// A string without an escape or a control character, as the span of
    /// its text: the derive reads the same bytes, borrowed.
    fn string(&mut self) -> Option<Span> {
        self.expect(b"\"")?;
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        self.pos = start + len;
        self.expect(b"\"")?;
        Some((start, start + len))
    }

    /// An unsigned integer: one or more digits, the first not a `0` unless
    /// it is the only one, that fit a `u64`.
    fn u64(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(&digit @ b'0'..=b'9') = self.bytes.get(self.pos) {
            n = n.checked_mul(10)?.checked_add(u64::from(digit - b'0'))?;
            self.pos += 1;
        }
        match self.pos - start {
            0 => None,
            1 => Some(n),
            _ => (self.bytes[start] != b'0').then_some(n),
        }
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// A signed integer that fits an `i64`; `-0` declines.
    fn i64(&mut self) -> Option<i64> {
        if !self.eat(b"-") {
            return i64::try_from(self.u64()?).ok();
        }
        let magnitude = self.u64()?;
        // 2^63 becomes `i64::MIN`, which negates to itself.
        (magnitude != 0 && magnitude <= 1 << 63).then(|| (magnitude as i64).wrapping_neg())
    }

    /// A finite real as the derive reads one, the run of bytes that can
    /// make a number through the same `str::parse`, and written as the
    /// encoder writes it: `Display`'s shortest text, `.0` after a whole
    /// number (checked against that text, made in `written`).
    fn f64(&mut self, written: &mut Vec<u8>) -> Option<f64> {
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        let run = &self.bytes[start..self.pos];
        let real: f64 = std::str::from_utf8(run).ok()?.parse().ok()?;
        written.clear();
        write!(written, "{real}").expect("writing to a Vec does not fail");
        if !written.contains(&b'.') {
            written.extend_from_slice(b".0");
        }
        (real.is_finite() && *written == run).then_some(real)
    }

    fn bool(&mut self) -> Option<bool> {
        if self.eat(b"true") {
            Some(true)
        } else {
            self.expect(b"false").map(|()| false)
        }
    }
}

/// The derive's decode of a record line, for the lines the store's own
/// reader declines. A record the log could not hold (see [`storable`]) is
/// not one.
fn read_record(line: &str) -> std::result::Result<StoreRecord, String> {
    let record: StoreRecord = durable_log::derived(line)?;
    storable(record.view())?;
    Ok(record)
}

/// Whether the log can hold `record`, as a line that reads back as it, or
/// why not: names and values must be as many, and a non-finite `Real` is
/// written as `null`, which no reader takes for a number (a literal such
/// as `1e999` reads as one, and a compaction would write it back so).
fn storable(record: RecordView) -> std::result::Result<(), String> {
    let (names, values) = (record.config.names().len(), record.config.values());
    if names != values.len() {
        return Err(format!(
            "{names} parameter names for {} values",
            values.len()
        ));
    }
    if values
        .iter()
        .any(|v| matches!(v, ParamValue::Real(x) if !x.is_finite()))
    {
        return Err("a non-finite real, which a log line cannot hold".into());
    }
    Ok(())
}

/// Merge the store log at `path`, read afresh, into `records`, the line of
/// each record merged to `out`; nothing when `path` holds no log.
fn merge_file(path: &Path, records: &mut Records, out: &mut dyn Write) -> Result<MergeStats> {
    if !durable_log::has_content(path) {
        return Ok(MergeStats::default());
    }
    let shown = path.display();
    let unread = |e| HarmonyError::Io(format!("read {shown}: {e}"));
    let log = std::fs::File::open(path).map_err(unread)?;
    let merged = records.merge(BufReader::new(log), check_header, out);
    let corrupt = |what| HarmonyError::StoreCorrupt(format!("{shown}: {what}"));
    let (_, _, stats) = merged.map_err(unread)?.map_err(corrupt)?;
    Ok(stats)
}

/// The store's one [`LineReader`] (see the [module docs](self#merging)): a
/// line in the encoder's layout is read in place ([`Line::read`]), any other
/// through the derive ([`read_record`]), and the record goes into `records`.
struct Reader<'r> {
    records: &'r mut Records,
    line: Line,
    /// Whether lines are read in place; off only for the tests that hold
    /// the two paths to each other.
    in_place: bool,
    /// In a merge, where the line of each record merged goes; `None` at
    /// open.
    out: Option<&'r mut dyn Write>,
    /// The one application whose records a merge takes, when one is named.
    app: Option<&'r str>,
    stats: MergeStats,
    /// The first write to `out` that failed.
    failed: Option<std::io::Error>,
}

impl<'r> Reader<'r> {
    fn new(records: &'r mut Records, out: Option<&'r mut dyn Write>, app: Option<&'r str>) -> Self {
        Reader {
            records,
            line: Line::default(),
            in_place: true,
            out,
            app,
            stats: MergeStats::default(),
            failed: None,
        }
    }

    /// Take the record of `text`: the one the derive read from it, else the
    /// one [`Line::read`] just read.
    fn keep(&mut self, text: &str, derived: Option<StoreRecord>) {
        let line = &self.line;
        let (app, cost_bits) = match &derived {
            Some(record) => (record.app.as_str(), record.cost_bits),
            None => (&text[line.app.0..line.app.1], line.row.cost_bits),
        };
        self.stats.scanned += 1;
        if self.app.is_some_and(|kept| kept != app) {
            return;
        }
        let (slot, found) = match &derived {
            Some(record) => self.records.slot_of(record.view()),
            None => self
                .records
                .slot(app, line.row.fingerprint, line.key.iter().copied()),
        };
        if let Some(out) = &mut self.out {
            if let Some(pos) = found {
                self.stats.skipped += 1;
                self.stats.conflicts += usize::from(self.records.rows[pos].cost_bits != cost_bits);
                return;
            }
            self.stats.merged += 1;
            let encoded = derived
                .as_ref()
                .map(|r| serde_json::to_string(r).expect("encodes"));
            let wrote = writeln!(out, "{}", encoded.as_deref().unwrap_or(text));
            self.failed = self.failed.take().or(wrote.err());
        }
        match &derived {
            Some(record) => self.records.push(record.view(), slot, found.is_none()),
            None => self.records.push_read(line, text, slot, found.is_none()),
        }
    }
}

impl LineReader for Reader<'_> {
    fn read(&mut self, text: &str, keep: bool) -> std::result::Result<(), String> {
        let derived = match self.in_place && self.line.read(text) {
            true => None,
            false => Some(read_record(text)?),
        };
        if keep {
            self.keep(text, derived);
        }
        Ok(())
    }
}

/// The durable performance database: an append-only JSON-lines log plus its
/// records in memory under a first-write-wins index. See the [module
/// docs](self) for format, fsync policy, and cache semantics.
pub struct PerfStore {
    log: DurableLog,
    telemetry: Telemetry,
    /// Every log record in file order (compaction rewrites this).
    records: Records,
    /// Drawn afresh at open and at every rewrite: the byte marks a
    /// `/store/log` puller holds are offsets into this generation's file.
    generation: u64,
    /// Inline sync cadence in appends. The store is a cache, not a
    /// correctness log: an unsynced tail lost to a crash just gets
    /// re-measured.
    sync_every: usize,
    torn_tail_truncated: bool,
}

impl std::fmt::Debug for PerfStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfStore")
            .field("path", &self.log.path())
            .field("records", &self.records.len())
            .field("live_configs", &self.live_configs())
            .finish_non_exhaustive()
    }
}

impl PerfStore {
    /// Open the store at `path`, creating it (with a header line) if absent
    /// or empty. An existing file is recovered as every durable log is: a
    /// torn tail is truncated away, anything else unreadable is
    /// [`HarmonyError::StoreCorrupt`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(path, Telemetry::disabled())
    }

    /// [`open`](Self::open) recording hits/misses/inserts/compactions and
    /// lookup / append+fsync latencies on `telemetry`.
    pub fn open_with(path: impl AsRef<Path>, telemetry: Telemetry) -> Result<Self> {
        Self::open_reading(path.as_ref(), telemetry, DigestIndex::new(), true)
    }

    /// [`open_with`](Self::open_with) under `index`'s digest, reading the
    /// lines in place unless told not to (see [`Reader`]).
    fn open_reading(
        path: &Path,
        telemetry: Telemetry,
        index: DigestIndex,
        in_place: bool,
    ) -> Result<Self> {
        let mut records = Records::new(index);
        let mut reader = Reader {
            in_place,
            ..Reader::new(&mut records, None, None)
        };
        let (log, torn_tail_truncated) = if durable_log::has_content(path) {
            let (log, _, torn) =
                DurableLog::open(path, HarmonyError::StoreCorrupt, check_header, &mut reader)?;
            (log, torn)
        } else {
            (DurableLog::create(path, &header())?, false)
        };
        if torn_tail_truncated {
            telemetry.inc(Counter::StoreTornTails);
        }
        records.shrink_to_fit();
        Ok(PerfStore {
            log,
            telemetry,
            records,
            generation: fresh_generation(),
            sync_every: DEFAULT_SYNC_EVERY,
            torn_tail_truncated,
        })
    }

    /// Backing file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Total log records, superseded duplicates included.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.records.len() == 0
    }

    /// Unique live `(app, fingerprint, configuration)` keys.
    pub fn live_configs(&self) -> usize {
        self.records.live
    }

    /// Look up the first-recorded cost for a configuration. Counts a
    /// [`Counter::StoreHits`] or [`Counter::StoreMisses`] and observes
    /// [`Latency::StoreLookup`]; with telemetry disabled the clock is never
    /// read.
    pub fn lookup(&self, app: &str, fingerprint: u64, key: &[i64]) -> Option<StoredCost> {
        self.lookup_after(app, fingerprint, key, &mut None)
    }

    /// [`lookup`](Self::lookup) for a caller that reads the log in the
    /// order it was written, as a warm replay of a seeded campaign does.
    /// `last_hit` is the position of the caller's previous hit (`None`
    /// before the first). The record after it is served if it is the live
    /// record for the key; otherwise the index answers. A hit moves
    /// `last_hit` to its position, a miss leaves it. Any position is safe
    /// to pass — stale, past the end, on another key — because the guess
    /// is verified before it is served. Answers exactly what `lookup`
    /// answers, and counts and times the same.
    pub(crate) fn lookup_after(
        &self,
        app: &str,
        fingerprint: u64,
        key: &[i64],
        last_hit: &mut Option<usize>,
    ) -> Option<StoredCost> {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let span = self
            .telemetry
            .span_begin(SpanKind::StoreLookup, 0, "store", 0);
        let pos = self
            .records
            .next_if_live(app, fingerprint, key, *last_hit)
            .or_else(|| self.records.find(app, fingerprint, key.iter().copied()));
        if pos.is_some() {
            *last_hit = pos;
        }
        let hit = pos.map(|pos| {
            let row = &self.records.rows[pos];
            StoredCost {
                cost: f64::from_bits(row.cost_bits),
                wall_time: f64::from_bits(row.wall_bits),
            }
        });
        self.telemetry.span_end(span);
        if let Some(started) = started {
            self.telemetry
                .observe(Latency::StoreLookup, started.elapsed());
        }
        self.telemetry.inc(if hit.is_some() {
            Counter::StoreHits
        } else {
            Counter::StoreMisses
        });
        hit
    }

    /// Append one measured record. Returns `Ok(true)` when the record was
    /// written, `Ok(false)` when it duplicated the live entry bit-for-bit
    /// and was skipped (two deterministic runs produce identical costs — the
    /// dedup is what keeps a warm re-run from growing the log at all).
    /// A re-measurement with a *different* cost is appended for provenance,
    /// but the index still serves the first-recorded cost.
    pub fn insert(&mut self, record: StoreRecord) -> Result<bool> {
        self.insert_batch(vec![record]).map(|written| written > 0)
    }

    /// Batched [`insert`](Self::insert): every novel record of the batch is
    /// encoded into one buffer and appended with a single write, so a whole
    /// report batch costs one store lock and one syscall instead of one
    /// per trial. Dedup semantics are identical to serial inserts — a
    /// bit-for-bit duplicate of the live entry (including one earlier in
    /// this same batch) is skipped. So is a record the log cannot hold: a
    /// configuration with a non-finite `Real`, whose line would not read
    /// back. Returns how many records were written.
    pub fn insert_batch(&mut self, records: Vec<StoreRecord>) -> Result<usize> {
        self.insert_views(records.iter().map(StoreRecord::view))
    }

    /// [`insert_batch`](Self::insert_batch) from borrowed records: each is
    /// encoded into the batch's one buffer and stored, and none is copied.
    pub(crate) fn insert_views<'a>(
        &mut self,
        records: impl ExactSizeIterator<Item = RecordView<'a>>,
    ) -> Result<usize> {
        let mut blob = Vec::with_capacity(records.len() * 192);
        let before = self.records.len();
        for record in records.filter(|&r| storable(r).is_ok()) {
            // Same key, same cost: a true duplicate, skipped. Same key, new
            // cost (noisy objective): appended to the log for provenance,
            // but the index keeps serving the first-recorded cost. The
            // index is updated as we go, so a duplicate earlier in this
            // same batch is met the same way.
            let (slot, found) = self.records.slot_of(record);
            let live = match found {
                Some(pos) if self.records.rows[pos].cost_bits == record.cost_bits => continue,
                Some(_) => false,
                None => true,
            };
            push_line(&record, &mut blob);
            self.telemetry.inc(Counter::StoreInserts);
            self.records.push(record, slot, live);
        }
        let written = self.records.len() - before;
        self.append(&blob, written)?;
        Ok(written)
    }

    /// Append the lines of `records` new records, already in memory and
    /// indexed, and sync when the inline cadence says so. Memory first: if
    /// the write errors, this process still serves the records (consistent
    /// with what it measured) and only the next open loses them — cache
    /// semantics, they would simply be re-measured.
    #[inline]
    fn append(&mut self, lines: &[u8], records: usize) -> Result<()> {
        if records == 0 {
            return Ok(());
        }
        let started = self.telemetry.is_enabled().then(Instant::now);
        self.log.append(lines, records)?;
        if self.log.unsynced() >= self.sync_every {
            self.log.sync()?;
            if let Some(started) = started {
                self.telemetry
                    .observe(Latency::StoreAppendFsync, started.elapsed());
            }
        }
        Ok(())
    }

    /// Merge the store log at `peer` into this store (anti-entropy
    /// replication, `repro store merge`): the pull done in-process, the
    /// file's committed records read through the store's own reader (see
    /// the [module docs](self#merging)), with no store opened on it. A torn
    /// last line is not a record, as an open would truncate it, and a path
    /// with no log holds none.
    ///
    /// Unlike [`insert_batch`](Self::insert_batch) — which appends a
    /// re-measurement with a different cost for provenance — a merge is a
    /// pure set union under first-write-wins: a record whose
    /// `(app, fingerprint, key)` the local store already serves is
    /// *skipped entirely*, whatever its cost. That makes the operation
    /// idempotent (re-merging the same peer is a no-op), commutative, and
    /// order-insensitive: every merge order converges on the same live
    /// set, with each key served by whichever record reached this store
    /// first. A skipped record whose cost differs from the local one is
    /// counted as a conflict ([`Counter::StoreMergeConflicts`]). A peer
    /// file damaged mid-log, or one whose header is not a store's, is
    /// [`HarmonyError::StoreCorrupt`] and merges nothing.
    pub fn merge_from(&mut self, peer: impl AsRef<Path>) -> Result<MergeStats> {
        let mut lines = Vec::new();
        let stats = merge_file(peer.as_ref(), &mut self.records, &mut lines)?;
        self.merged(&lines, stats).map(|()| stats)
    }

    /// What [`merge_from`](Self::merge_from) *would* do, without writing
    /// anything (`repro store merge --dry-run`): the same merge, on a copy
    /// of the records.
    pub fn merge_preview(&self, peer: impl AsRef<Path>) -> Result<MergeStats> {
        merge_file(
            peer.as_ref(),
            &mut self.records.clone(),
            &mut std::io::sink(),
        )
    }

    /// Merge a log held in `body`, as a peer's `/store/log` serves one: a
    /// header `check` accepts, then record lines, merged as
    /// [`merge_from`](Self::merge_from) merges a peer's file. Returns the
    /// header, the offset in `body` just past the last record line merged
    /// (the records before the body's first line that is not one), the
    /// stats and the append's outcome; `None`, with nothing merged, when the
    /// header is refused or a record follows such a line.
    pub(crate) fn merge_log<H: Deserialize>(
        &mut self,
        body: &[u8],
        check: impl FnOnce(&H) -> std::result::Result<(), String>,
    ) -> Option<(H, usize, MergeStats, Result<()>)> {
        let mut lines = Vec::new();
        let merged = self.records.merge(body, check, &mut lines);
        let (header, end, stats) = merged.expect("memory reads").ok()?;
        Some((header, end, stats, self.merged(&lines, stats)))
    }

    /// Count a merge's `stats` and append the `lines` of the records it
    /// merged.
    fn merged(&mut self, lines: &[u8], stats: MergeStats) -> Result<()> {
        let (merged, conflicts) = (stats.merged as u64, stats.conflicts as u64);
        self.telemetry.add(Counter::StoreMergedRecords, merged);
        self.telemetry.add(Counter::StoreMergeConflicts, conflicts);
        self.append(lines, stats.merged)
    }

    /// The log as it stands, to read after the lock is released: its
    /// bytes up to the committed length, whatever is appended, renamed over
    /// the path or unlinked later.
    pub(crate) fn committed_log(&self) -> std::io::Result<Committed> {
        self.log.committed()
    }

    /// Which file a puller's byte mark is an offset into. Drawn afresh when
    /// the store is opened and at every compaction, so a puller that holds
    /// a mark from another generation knows to re-pull from 0. Not stored
    /// on disk.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Force `sync_data` on any unsynced appends.
    pub fn flush(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// Appends not yet covered by a sync.
    pub(crate) fn unsynced(&self) -> usize {
        self.log.unsynced()
    }

    /// The telemetry handle measurements are recorded on.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Rewrite the log with its live records, only `app`'s when one is
    /// named: a merge of the log's own file into no records, whose kept
    /// lines stream to the new file (see the [module docs](self#compaction)).
    fn rewrite(&mut self, app: Option<&str>) -> Result<CompactionStats> {
        let (records_before, bytes_before) = (self.records.len(), self.log.len());
        let mut kept = self.records.emptied();
        let path = self.log.path().display().to_string();
        let failed = |e: std::io::Error| HarmonyError::Io(format!("compact {path}: {e}"));
        let synced = self.log.rewrite(|log, out| {
            let head = serde_json::to_string(&header()).expect("a header encodes");
            writeln!(out, "{head}").map_err(failed)?;
            let mut reader = Reader::new(&mut kept, Some(out), app);
            let scanned = durable_log::scan(log, check_header, &mut reader).map_err(failed)?;
            reader.failed.map_or(Ok(()), |e| Err(failed(e)))?;
            let corrupt = |what| HarmonyError::StoreCorrupt(format!("{path}: {what}"));
            scanned.map(drop).map_err(corrupt)
        })?;
        // The new file is the log: its records, its numbering.
        self.records = kept;
        self.generation = fresh_generation();
        self.telemetry.inc(Counter::StoreCompactions);
        synced?;
        Ok(CompactionStats {
            records_before,
            records_after: self.records.len(),
            bytes_before,
            bytes_after: self.log.len(),
        })
    }

    /// Snapshot the live records to a fresh log, atomically, dropping
    /// superseded duplicates. Lookups are unchanged.
    pub fn compact(&mut self) -> Result<CompactionStats> {
        self.rewrite(None)
    }

    /// Compaction that additionally drops every record not belonging to
    /// `keep_app` (`None` keeps all applications — plain compaction).
    pub fn gc(&mut self, keep_app: Option<&str>) -> Result<CompactionStats> {
        self.rewrite(keep_app)
    }

    /// Size and composition snapshot (serializable for `repro store stats`).
    pub fn stats(&self) -> StoreStats {
        let mut per_app = vec![0; self.records.apps.len()];
        for pos in self.records.live_positions() {
            per_app[self.records.rows[pos].app as usize] += 1;
        }
        let mut apps: Vec<AppStats> = per_app
            .into_iter()
            .enumerate()
            .filter(|&(_, configs)| configs > 0)
            .map(|(id, configs)| AppStats {
                app: self.records.apps.get(id as u32).to_string(),
                configs,
            })
            .collect();
        apps.sort_by(|a, b| a.app.cmp(&b.app));
        StoreStats {
            path: self.log.path().display().to_string(),
            file_bytes: self.log.len(),
            records: self.records.len(),
            live_configs: self.live_configs(),
            apps,
            torn_tail_truncated: self.torn_tail_truncated,
        }
    }

    /// The live records, in file order (inspection / `repro store inspect`),
    /// each built from the columns.
    pub fn live_records(&self) -> Vec<StoreRecord> {
        self.records
            .live_positions()
            .map(|pos| self.records.record(pos))
            .collect()
    }

    /// Materialize the in-memory prior-run view over the live records of
    /// one application label (see [`PriorRunDb`] — since the store
    /// subsumed it, that type is the query layer and this is its
    /// constructor).
    pub(crate) fn priors_for(&self, app: &str) -> PriorRunDb {
        let mut db = PriorRunDb::new();
        let (id, live) = (self.records.apps.id(app), self.records.live_positions());
        for pos in live.filter(|&pos| Some(self.records.rows[pos].app) == id) {
            let rec = self.records.record(pos);
            let cost = rec.cost();
            db.record(rec.app, rec.config, cost);
        }
        db
    }

    /// Warm-start simplex seed for `app` in `space`, from stored best
    /// points (`StartPoint::Center` when the store knows nothing).
    pub fn seed_for(&self, app: &str, space: &SearchSpace) -> crate::strategy::StartPoint {
        self.priors_for(app).seed_for(app, space)
    }

    /// Warm-start narrowed space for `app` around the stored best point.
    pub fn narrowed_space(
        &self,
        app: &str,
        space: &SearchSpace,
        margin: f64,
    ) -> Result<SearchSpace> {
        self.priors_for(app).narrowed_space(app, space, margin)
    }
}

/// How often [`SharedStore`]'s background flusher polls for unsynced
/// appends.
const FLUSH_INTERVAL: std::time::Duration = std::time::Duration::from_millis(20);

/// How long the append path must have been quiet before the flusher
/// syncs. An `fsync` serializes with concurrent appends to the same
/// inode, so a sync issued mid-burst stalls the serving path (which
/// holds the store lock across its `write`) for the full fsync — on slow
/// filesystems that is longer than an entire quick bench scenario.
/// Waiting for a gap makes the group commit free: it runs between
/// measurement bursts, and process exit still syncs the tail when the
/// log is dropped.
const FLUSH_QUIESCENCE: std::time::Duration = std::time::Duration::from_millis(50);

/// Cheap cloneable handle sharing one [`PerfStore`] across server sessions
/// and driver threads.
///
/// Unlike a bare `PerfStore`, a `SharedStore` never runs `sync_data`
/// inline on the append path: `sync_data` can cost a millisecond or
/// more, and paying it while holding the store lock stalls every
/// session's report path (visible as p99 spikes and throughput collapse
/// in the bench regression gate). Instead a background flusher thread
/// polls every `FLUSH_INTERVAL` and group-commits once the append
/// path has been quiet for `FLUSH_QUIESCENCE`, syncing on a cloned
/// file descriptor *outside* the lock. When the last handle drops, the
/// store's log still syncs the tail synchronously.
#[derive(Clone)]
pub struct SharedStore(Arc<Mutex<PerfStore>>);

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        lock(&self.0).fmt(f)
    }
}

impl SharedStore {
    /// Wrap an opened store and start its background flusher.
    pub fn new(mut store: PerfStore) -> Self {
        // The inline count-based fsync must never fire under the
        // server; the flusher owns sync cadence from here on.
        store.sync_every = usize::MAX;
        let store = Arc::new(Mutex::new(store));
        Self::spawn_flusher(Arc::downgrade(&store));
        SharedStore(store)
    }

    /// Periodic group-commit loop. Holds only a `Weak`, so the store's
    /// lifetime is governed by the handles: once they are gone the
    /// upgrade fails and the thread exits (and dropping the log has
    /// already synced the tail). Spawn failure is tolerated — the
    /// store then just syncs on drop, never mid-run.
    fn spawn_flusher(weak: std::sync::Weak<Mutex<PerfStore>>) {
        let _ = std::thread::Builder::new()
            .name("ah-store-flusher".into())
            .spawn(move || loop {
                std::thread::sleep(FLUSH_INTERVAL);
                let Some(store) = weak.upgrade() else { break };
                // The lock is held to take the pending sync and to credit
                // it, not across it: reports and lookups keep flowing
                // during the fsync.
                let pending = lock(&store).log.pending_sync(FLUSH_QUIESCENCE);
                let started = Instant::now();
                if let Some(Ok(synced)) = pending.map(|sync| sync()) {
                    let mut store = lock(&store);
                    store
                        .telemetry
                        .observe(Latency::StoreAppendFsync, started.elapsed());
                    store.log.mark_synced(synced);
                }
            });
    }

    /// Open (or create) the store at `path`; see [`PerfStore::open`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::new(PerfStore::open(path)?))
    }

    /// Open with a telemetry handle; see [`PerfStore::open_with`].
    pub fn open_with(path: impl AsRef<Path>, telemetry: Telemetry) -> Result<Self> {
        Ok(Self::new(PerfStore::open_with(path, telemetry)?))
    }

    /// Locked [`PerfStore::lookup`].
    pub fn lookup(&self, app: &str, fingerprint: u64, key: &[i64]) -> Option<StoredCost> {
        lock(&self.0).lookup(app, fingerprint, key)
    }

    /// Locked [`PerfStore::insert`].
    pub fn insert(&self, record: StoreRecord) -> Result<bool> {
        lock(&self.0).insert(record)
    }

    /// Locked [`PerfStore::insert_batch`].
    pub fn insert_batch(&self, records: Vec<StoreRecord>) -> Result<usize> {
        lock(&self.0).insert_batch(records)
    }

    /// Locked [`PerfStore::len`] — total log records, for `/status`.
    pub fn record_count(&self) -> usize {
        lock(&self.0).len()
    }

    /// Locked [`PerfStore::flush`].
    pub fn flush(&self) -> Result<()> {
        lock(&self.0).flush()
    }

    /// Locked [`PerfStore::unsynced`]: appended records not yet fsynced —
    /// the flush-lag gauge the SLO engine watches.
    pub(crate) fn unsynced(&self) -> usize {
        lock(&self.0).unsynced()
    }

    /// Locked [`PerfStore::stats`].
    pub fn stats(&self) -> StoreStats {
        lock(&self.0).stats()
    }

    /// Run `f` under the store lock (compaction, priors queries, …).
    pub fn with<R>(&self, f: impl FnOnce(&mut PerfStore) -> R) -> R {
        f(&mut lock(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::CacheKey;
    use crate::strategy::StartPoint;
    use crate::value::ParamValue;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn temp_path(tag: &str) -> crate::TempPath {
        crate::TempPath::new(&format!("store-{tag}.store"))
    }

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .int("x", 0, 100, 1)
            .int("y", 0, 100, 1)
            .build()
            .unwrap()
    }

    fn rec(app: &str, fp: u64, x: f64, y: f64, cost: f64) -> StoreRecord {
        StoreRecord::new(app, fp, space().project(&[x, y]), cost, cost)
    }

    /// One record per way a value can be spelled: every `ParamValue` shape,
    /// escapes in labels and names, reals that are whole, negative zero,
    /// tiny, huge, and not finite.
    fn golden_records() -> Vec<(StoreRecord, &'static str)> {
        let shapes = Configuration::new(
            vec!["tile".into(), "tol".into(), "lay\"out".into()],
            vec![
                ParamValue::Int(-64),
                ParamValue::Real(0.5),
                ParamValue::Enum {
                    index: 2,
                    label: "col\nmajor \\ z\u{1}é".into(),
                },
            ],
        );
        let reals = Configuration::new(
            vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
            vec![
                ParamValue::Real(f64::NAN),
                ParamValue::Real(-0.0),
                ParamValue::Real(f64::NEG_INFINITY),
                ParamValue::Real(1e21),
                ParamValue::Real(1e-7),
            ],
        );
        vec![
            (
                StoreRecord::new("app \"x\"\n\u{7}", u64::MAX, shapes, 0.25, -0.0)
                    .with_provenance(u64::MAX, usize::MAX)
                    .with_flags(true, false),
                GOLDEN_SHAPES,
            ),
            (
                StoreRecord::new("gs2", 7, reals, f64::NAN, f64::INFINITY).with_flags(false, true),
                GOLDEN_REALS,
            ),
            (
                StoreRecord::new("", 0, Configuration::new(vec![], vec![]), 2.0, 2.0),
                GOLDEN_EMPTY,
            ),
        ]
    }

    const GOLDEN_SHAPES: &str = r#"{"app":"app \"x\"\n\u0007","fingerprint":18446744073709551615,"config":{"names":["tile","tol","lay\"out"],"values":[{"Int":-64},{"Real":0.5},{"Enum":{"index":2,"label":"col\nmajor \\ z\u0001é"}}]},"cost_bits":4598175219545276416,"wall_bits":9223372036854775808,"session":18446744073709551615,"iteration":18446744073709551615,"requeued":true,"replayed":false}"#;
    const GOLDEN_REALS: &str = r#"{"app":"gs2","fingerprint":7,"config":{"names":["a","b","c","d","e"],"values":[{"Real":null},{"Real":-0.0},{"Real":null},{"Real":1000000000000000000000.0},{"Real":0.0000001}]},"cost_bits":9221120237041090560,"wall_bits":9218868437227405312,"session":0,"iteration":0,"requeued":false,"replayed":true}"#;
    const GOLDEN_EMPTY: &str = r#"{"app":"","fingerprint":0,"config":{"names":[],"values":[]},"cost_bits":4611686018427387904,"wall_bits":4611686018427387904,"session":0,"iteration":0,"requeued":false,"replayed":false}"#;

    #[test]
    fn records_encode_to_their_golden_lines() {
        // The lines below were written by the encoder this store had
        // before it used the derive's; every path that writes a record —
        // append, merge, peer pull, compaction — must produce them. The
        // record with non-finite reals still encodes to its line, but no
        // path writes it to a log, which could not read it back.
        let path = temp_path("golden-lines");
        let peer_path = temp_path("golden-lines-peer");
        for p in [&path, &peer_path] {
            let _ = std::fs::remove_file(p);
        }
        let (records, lines): (Vec<StoreRecord>, Vec<&str>) = golden_records().into_iter().unzip();
        for (record, line) in records.iter().zip(&lines) {
            assert_eq!(self::lines([record]), format!("{line}\n").into_bytes());
        }
        let lines: Vec<&str> = lines.into_iter().filter(|&l| l != GOLDEN_REALS).collect();
        let log: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let header = "{\"kind\":\"ah-store\",\"version\":1}\n";

        let mut store = PerfStore::open(&path).unwrap();
        assert_eq!(store.insert_batch(records).unwrap(), lines.len());
        assert_eq!(rows(&store), log.as_bytes());
        store.flush().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{header}{log}")
        );

        let mut peer = PerfStore::open(&peer_path).unwrap();
        assert_eq!(peer.merge_from(store.path()).unwrap().merged, lines.len());
        peer.compact().unwrap();
        drop(peer);
        assert_eq!(
            std::fs::read_to_string(&peer_path).unwrap(),
            format!("{header}{log}")
        );
    }

    #[test]
    fn roundtrip_insert_reopen_lookup() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let sp = space();
        let fp = space_fingerprint(&sp);
        {
            let mut store = PerfStore::open(&path).unwrap();
            assert!(store.is_empty());
            assert!(store.insert(rec("app", fp, 3.0, 4.0, 25.0)).unwrap());
            assert!(store.insert(rec("app", fp, 5.0, 6.0, 61.0)).unwrap());
        }
        let store = PerfStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.live_configs(), 2);
        let key = sp.project(&[3.0, 4.0]).cache_key();
        let hit = store.lookup("app", fp, &key).unwrap();
        assert_eq!(hit.cost.to_bits(), 25.0f64.to_bits());
        assert!(store.lookup("other-app", fp, &key).is_none());
        assert!(store.lookup("app", fp ^ 1, &key).is_none());
    }

    #[test]
    fn records_of_one_space_share_one_name_table() {
        let one_table = |store: &PerfStore| {
            let first = store.records.record(0);
            (0..store.len()).all(|pos| {
                let names = store.records.record(pos).config;
                Arc::ptr_eq(names.names_table(), first.config.names_table())
            })
        };
        let path = temp_path("one-table");
        let _ = std::fs::remove_file(&path);
        let fp = space_fingerprint(&space());
        // `rec` builds its space anew, so every inserted record arrives with
        // a table of its own.
        let batch = |from: usize| -> Vec<StoreRecord> {
            (from..from + 20)
                .map(|i| rec("app", fp, i as f64, 1.0, i as f64))
                .collect()
        };
        assert!(!Arc::ptr_eq(
            batch(0)[0].config.names_table(),
            batch(0)[1].config.names_table()
        ));
        {
            let mut store = PerfStore::open(&path).unwrap();
            store.insert_batch(batch(0)).unwrap();
            merge(&mut store, &batch(20));
            assert_eq!(store.len(), 40);
            assert!(one_table(&store), "inserted and merged records");
        }
        let mut store = PerfStore::open(&path).unwrap();
        assert_eq!(store.len(), 40);
        assert!(one_table(&store), "replayed records");
        // A record over other names keeps them, and starts the next run.
        let other = SearchSpace::builder().int("z", 0, 9, 1).build().unwrap();
        let odd = StoreRecord::new("app", fp ^ 1, other.center(), 1.0, 1.0);
        store.insert(odd).unwrap();
        assert_eq!(store.records.record(40).config.names(), ["z".to_string()]);
    }

    #[test]
    fn identical_duplicate_is_skipped_different_cost_appends() {
        let path = temp_path("dedup");
        let _ = std::fs::remove_file(&path);
        let fp = 7;
        let mut store = PerfStore::open(&path).unwrap();
        assert!(store.insert(rec("a", fp, 1.0, 1.0, 9.0)).unwrap());
        // Bit-identical re-measurement: skipped, log does not grow.
        assert!(!store.insert(rec("a", fp, 1.0, 1.0, 9.0)).unwrap());
        assert_eq!(store.len(), 1);
        // Noisy re-measurement: appended for provenance, but the live
        // (served) cost stays the first-recorded one.
        assert!(store.insert(rec("a", fp, 1.0, 1.0, 9.5)).unwrap());
        assert_eq!(store.len(), 2);
        assert_eq!(store.live_configs(), 1);
        let key = space().project(&[1.0, 1.0]).cache_key();
        assert_eq!(store.lookup("a", fp, &key).unwrap().cost, 9.0);
    }

    #[test]
    fn first_write_wins_survives_reopen() {
        let path = temp_path("first-wins");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = PerfStore::open(&path).unwrap();
            store.insert(rec("a", 1, 2.0, 2.0, 5.0)).unwrap();
            store.insert(rec("a", 1, 2.0, 2.0, 7.0)).unwrap();
        }
        let store = PerfStore::open(&path).unwrap();
        let key = space().project(&[2.0, 2.0]).cache_key();
        assert_eq!(store.lookup("a", 1, &key).unwrap().cost, 5.0);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = PerfStore::open(&path).unwrap();
            for i in 0..5 {
                store.insert(rec("a", 1, i as f64, 0.0, i as f64)).unwrap();
            }
        }
        let torn_bytes = b"{\"app\":\"torn-marker\",\"finger";
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(torn_bytes).unwrap();
        }
        let t = Telemetry::enabled();
        let mut store = PerfStore::open_with(&path, t.clone()).unwrap();
        assert_eq!(store.len(), 5);
        assert_eq!(t.counter(Counter::StoreTornTails), 1);
        // The torn bytes are gone from disk: append + second reopen work.
        store.insert(rec("a", 1, 9.0, 9.0, 99.0)).unwrap();
        drop(store);
        let blob = std::fs::read(&path).unwrap();
        assert!(!blob
            .windows(torn_bytes.len())
            .any(|w| w == torn_bytes.as_slice()));
        let store = PerfStore::open(&path).unwrap();
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = PerfStore::open(&path).unwrap();
            for i in 0..4 {
                store.insert(rec("a", 1, i as f64, 0.0, i as f64)).unwrap();
            }
        }
        let blob = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = blob.lines().collect();
        lines[2] = "garbage in the middle";
        std::fs::write(&path, lines.join("\n")).unwrap();
        match PerfStore::open(&path) {
            Err(HarmonyError::StoreCorrupt(msg)) => assert!(msg.contains("line 3"), "{msg}"),
            other => panic!("expected StoreCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn wrong_kind_and_version_are_corruption() {
        let path = temp_path("kind");
        std::fs::write(&path, "{\"kind\":\"ah-wal\",\"version\":1}\n").unwrap();
        assert!(matches!(
            PerfStore::open(&path),
            Err(HarmonyError::StoreCorrupt(_))
        ));
        std::fs::write(&path, "{\"kind\":\"ah-store\",\"version\":99}\n").unwrap();
        assert!(matches!(
            PerfStore::open(&path),
            Err(HarmonyError::StoreCorrupt(_))
        ));
    }

    #[test]
    fn compaction_preserves_contents_and_shrinks() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let mut store = PerfStore::open(&path).unwrap();
        store.sync_every = 1;
        for i in 0..10 {
            store.insert(rec("a", 1, i as f64, 0.0, i as f64)).unwrap();
        }
        // Superseded duplicates with different costs bloat the log.
        for i in 0..10 {
            store
                .insert(rec("a", 1, i as f64, 0.0, i as f64 + 0.5))
                .unwrap();
        }
        assert_eq!(store.len(), 20);
        let before: Vec<(CacheKey, u64)> = store
            .live_records()
            .iter()
            .map(|r| (r.config.cache_key(), r.cost_bits))
            .collect();
        let stats = store.compact().unwrap();
        assert_eq!(stats.records_before, 20);
        assert_eq!(stats.records_after, 10);
        assert!(stats.bytes_after < stats.bytes_before);
        drop(store);
        // Round-trip: reopen serves the identical live set.
        let store = PerfStore::open(&path).unwrap();
        assert_eq!(store.len(), 10);
        let after: Vec<(CacheKey, u64)> = store
            .live_records()
            .iter()
            .map(|r| (r.config.cache_key(), r.cost_bits))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn gc_keeps_only_one_app() {
        let path = temp_path("gc");
        let _ = std::fs::remove_file(&path);
        let mut store = PerfStore::open(&path).unwrap();
        store.insert(rec("keep", 1, 1.0, 0.0, 1.0)).unwrap();
        store.insert(rec("drop", 1, 2.0, 0.0, 2.0)).unwrap();
        store.insert(rec("keep", 1, 3.0, 0.0, 3.0)).unwrap();
        store.gc(Some("keep")).unwrap();
        assert_eq!(store.len(), 2);
        let stats = store.stats();
        assert_eq!(stats.apps.len(), 1);
        assert_eq!(stats.apps[0].app, "keep");
        let key = space().project(&[2.0, 0.0]).cache_key();
        assert!(store.lookup("drop", 1, &key).is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_spaces() {
        let a = space_fingerprint(&space());
        let b = space_fingerprint(&space());
        assert_eq!(a, b, "same declarations must fingerprint identically");
        let other = SearchSpace::builder()
            .int("x", 0, 100, 1)
            .int("y", 0, 101, 1)
            .build()
            .unwrap();
        assert_ne!(a, space_fingerprint(&other));
        let renamed = SearchSpace::builder()
            .int("x", 0, 100, 1)
            .int("z", 0, 100, 1)
            .build()
            .unwrap();
        assert_ne!(a, space_fingerprint(&renamed));
        // Pinned value: the fingerprint is part of the on-disk format, so a
        // refactor that silently changes it would orphan every existing
        // store. Update this constant only with a version bump.
        let one = SearchSpace::builder().int("x", 0, 1, 1).build().unwrap();
        assert_eq!(
            space_fingerprint(&one),
            fnv1a(serde_json::to_string(&one.params()).unwrap().as_bytes())
        );
    }

    #[test]
    fn fingerprint_folds_constraints_order_insensitively() {
        use crate::constraint::{MonotoneChain, SumBound};
        let base = || {
            SearchSpace::builder()
                .int("a", 0, 9, 1)
                .int("b", 0, 9, 1)
                .int("c", 0, 9, 1)
        };
        let plain = base().build().unwrap();
        // Unconstrained spaces hash exactly as the params-only scheme did:
        // existing store records must still hit.
        assert_eq!(
            space_fingerprint(&plain),
            fnv1a(serde_json::to_string(&plain.params()).unwrap().as_bytes())
        );
        let chain_then_sum = base()
            .constraint(MonotoneChain::new(["a", "b"]))
            .constraint(SumBound::new(["b", "c"], 2.0, 12.0))
            .build()
            .unwrap();
        let sum_then_chain = base()
            .constraint(SumBound::new(["b", "c"], 2.0, 12.0))
            .constraint(MonotoneChain::new(["a", "b"]))
            .build()
            .unwrap();
        assert_eq!(
            space_fingerprint(&chain_then_sum),
            space_fingerprint(&sum_then_chain),
            "equivalent constraint orderings must fingerprint identically"
        );
        assert_ne!(
            space_fingerprint(&plain),
            space_fingerprint(&chain_then_sum),
            "constraints must distinguish otherwise-identical spaces"
        );
        let different_bounds = base()
            .constraint(MonotoneChain::new(["a", "b"]))
            .constraint(SumBound::new(["b", "c"], 2.0, 13.0))
            .build()
            .unwrap();
        assert_ne!(
            space_fingerprint(&chain_then_sum),
            space_fingerprint(&different_bounds)
        );
    }

    #[test]
    fn priors_view_matches_a_hand_built_db() {
        let path = temp_path("priors");
        let _ = std::fs::remove_file(&path);
        let sp = space();
        let fp = space_fingerprint(&sp);
        let mut store = PerfStore::open(&path).unwrap();
        let mut by_hand = PriorRunDb::new();
        for (x, y, cost) in [(10.0, 20.0, 1.0), (12.0, 22.0, 2.0), (50.0, 50.0, 9.0)] {
            let cfg = sp.project(&[x, y]);
            store
                .insert(StoreRecord::new("gs2", fp, cfg.clone(), cost, cost))
                .unwrap();
            by_hand.record("gs2", cfg, cost);
        }
        let view = store.priors_for("gs2");
        assert_eq!(view.len(), by_hand.len());
        assert_eq!(
            view.best_for("gs2", 3)
                .iter()
                .map(|r| r.cost.to_bits())
                .collect::<Vec<_>>(),
            by_hand
                .best_for("gs2", 3)
                .iter()
                .map(|r| r.cost.to_bits())
                .collect::<Vec<_>>()
        );
        // The warm-start surfaces delegate through the same view.
        match store.seed_for("gs2", &sp) {
            StartPoint::Simplex(points) => assert_eq!(points[0], vec![10.0, 20.0]),
            other => panic!("expected simplex seed, got {other:?}"),
        }
        let narrowed = store.narrowed_space("gs2", &sp, 0.1).unwrap();
        assert!(narrowed.cardinality().unwrap() < sp.cardinality().unwrap());
        assert!(matches!(store.seed_for("unknown", &sp), StartPoint::Center));
    }

    #[test]
    fn shared_store_is_usable_across_clones() {
        let path = temp_path("shared");
        let _ = std::fs::remove_file(&path);
        let shared = SharedStore::open(&path).unwrap();
        let clone = shared.clone();
        clone.insert(rec("a", 1, 4.0, 4.0, 32.0)).unwrap();
        let key = space().project(&[4.0, 4.0]).cache_key();
        assert_eq!(shared.lookup("a", 1, &key).unwrap().cost, 32.0);
        assert_eq!(shared.stats().live_configs, 1);
        shared.with(|s| s.compact()).unwrap();
    }

    #[test]
    fn merge_is_idempotent_and_first_write_wins() {
        let path_a = temp_path("merge-a");
        let path_b = temp_path("merge-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let t = Telemetry::enabled();
        let mut a = PerfStore::open_with(&path_a, t.clone()).unwrap();
        let mut b = PerfStore::open(&path_b).unwrap();
        a.insert(rec("app", 1, 1.0, 1.0, 10.0)).unwrap();
        a.insert(rec("app", 1, 2.0, 2.0, 20.0)).unwrap();
        b.insert(rec("app", 1, 2.0, 2.0, 99.0)).unwrap(); // conflicting cost
        b.insert(rec("app", 1, 3.0, 3.0, 30.0)).unwrap();
        // Dry run predicts exactly what the real merge does.
        let preview = a.merge_preview(b.path()).unwrap();
        let stats = a.merge_from(b.path()).unwrap();
        assert_eq!(stats.scanned, 2);
        assert_eq!(stats.merged, 1);
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.conflicts, 1);
        assert_eq!(
            (preview.merged, preview.skipped, preview.conflicts),
            (stats.merged, stats.skipped, stats.conflicts)
        );
        assert_eq!(t.counter(Counter::StoreMergedRecords), 1);
        assert_eq!(t.counter(Counter::StoreMergeConflicts), 1);
        // First write wins: the conflicting key still serves a's cost.
        let key = space().project(&[2.0, 2.0]).cache_key();
        assert_eq!(a.lookup("app", 1, &key).unwrap().cost, 20.0);
        // Idempotent: merging the same peer again changes nothing.
        let len = a.len();
        let again = a.merge_from(b.path()).unwrap();
        assert_eq!(again.merged, 0);
        assert_eq!(a.len(), len);
        // And the merged store survives reopen with the same live set.
        drop(a);
        let a = PerfStore::open(&path_a).unwrap();
        assert_eq!(a.live_configs(), 3);
        assert_eq!(a.lookup("app", 1, &key).unwrap().cost, 20.0);
    }

    #[test]
    fn replication_log_roundtrips_into_an_equal_store() {
        use crate::server::observe::{store_log, StoreLogHeader};
        let src_path = temp_path("log-src");
        let dst_path = temp_path("log-dst");
        let _ = std::fs::remove_file(&src_path);
        let _ = std::fs::remove_file(&dst_path);
        let src = SharedStore::open(&src_path).unwrap();
        for i in 0..6 {
            src.insert(rec("app", 1, i as f64, 0.0, i as f64 + 0.5))
                .unwrap();
        }
        let file = std::fs::read(&src_path).unwrap();
        let log = &file[HEADER.len()..];
        // Pull in increments, like the SyncPeers task does when a log
        // outgrows a reply: a header line of at most 100 bytes, and room
        // for three and a half lines after it.
        let cap = 100 + 7 * log.len() / 6 / 2;
        let mut dst = PerfStore::open(&dst_path).unwrap();
        let (mut at, mut pulls) = (0, 0);
        while at < log.len() as u64 {
            let body = store_log(&src, at, cap).unwrap();
            assert!(body.len() <= cap && body.ends_with('\n'), "{body}");
            let head = body.find('\n').unwrap() + 1;
            let merged = dst.merge_log::<StoreLogHeader>(body.as_bytes(), |_| Ok(()));
            let (header, end, stats, appended) = merged.unwrap();
            appended.unwrap();
            assert_eq!((header.start, stats.merged), (at, 3));
            at += (end - head) as u64;
            pulls += 1;
        }
        assert_eq!((at, pulls), (log.len() as u64, 2));
        drop(dst);
        assert_eq!(std::fs::read(&dst_path).unwrap(), file);
        // A mark past the end, or inside a line, re-serves the whole log.
        for at in [at + 10, 1] {
            let body = store_log(&src, at, usize::MAX).unwrap();
            let (header, records) = body.split_once('\n').unwrap();
            assert!(header.contains("\"start\":0,"), "{header}");
            assert_eq!(records.as_bytes(), log);
        }
    }

    /// A record over two apps × two fingerprints × four keys of three
    /// shapes, one in four with a cost the key's first record may not have:
    /// small enough that the record after any position is often a
    /// neighbour of the key looked up — same key under another app or
    /// fingerprint, or a superseded re-measurement of it. Bits 0–1 pick the
    /// app and fingerprint, 2–3 the key, 4–5 the shape, 6 the label, 7 the
    /// noise. The shapes are two ints; a real and an enum; three ints, so
    /// one fingerprint holds keys of two lengths. The enum's index is the
    /// key's low bit and its label bit 6: two labels for one index, of
    /// which the first recorded is the one kept.
    fn record_from(bits: u64) -> StoreRecord {
        let app = ["a", "b"][(bits & 1) as usize];
        let fingerprint = 1 + (bits >> 1 & 1);
        let x = (bits >> 2 & 3) as i64;
        let cost = x as f64 + if bits >> 7 & 1 == 1 { 0.5 } else { 0.0 };
        let (names, values): (&[&str], Vec<ParamValue>) = match bits >> 4 & 3 {
            0 | 1 => (&["x", "y"], vec![ParamValue::Int(x), ParamValue::Int(0)]),
            2 => (
                &["tol", "layout"],
                vec![
                    ParamValue::Real(-0.25 * x as f64),
                    ParamValue::Enum {
                        index: (x & 1) as usize,
                        label: ["row", "col\nmajor é"][(bits >> 6 & 1) as usize].into(),
                    },
                ],
            ),
            _ => (
                &["x", "y", "z"],
                vec![ParamValue::Int(x), ParamValue::Int(0), ParamValue::Int(0)],
            ),
        };
        let names = names.iter().map(|n| n.to_string()).collect();
        StoreRecord::new(
            app,
            fingerprint,
            Configuration::new(names, values),
            cost,
            cost,
        )
        .with_provenance(bits >> 8 & 3, (bits >> 10 & 3) as usize)
        .with_flags(bits >> 12 & 1 == 1, bits >> 13 & 1 == 1)
    }

    /// What the store must behave as: its log as a list of records, and a
    /// first-write-wins map from `(app, fingerprint, cache key)` to the
    /// position of the record served for it.
    #[derive(Default)]
    struct Model {
        log: Vec<StoreRecord>,
        served: HashMap<(String, u64, CacheKey), usize>,
    }

    impl Model {
        fn key_of(r: &StoreRecord) -> (String, u64, CacheKey) {
            (r.app.clone(), r.fingerprint, r.config.cache_key())
        }

        fn append(&mut self, r: &StoreRecord) {
            self.served.entry(Self::key_of(r)).or_insert(self.log.len());
            self.log.push(r.clone());
        }

        fn insert(&mut self, r: &StoreRecord) {
            match self.served.get(&Self::key_of(r)) {
                Some(&pos) if self.log[pos].cost_bits == r.cost_bits => {}
                _ => self.append(r),
            }
        }

        fn merge(&mut self, r: &StoreRecord) {
            if !self.served.contains_key(&Self::key_of(r)) {
                self.append(r);
            }
        }

        fn live(&self) -> Vec<&StoreRecord> {
            let mut live: Vec<usize> = self.served.values().copied().collect();
            live.sort_unstable();
            live.into_iter().map(|pos| &self.log[pos]).collect()
        }

        fn rewrite(&mut self, keep: impl Fn(&StoreRecord) -> bool) {
            let kept: Vec<StoreRecord> = self
                .live()
                .into_iter()
                .filter(|r| keep(r))
                .cloned()
                .collect();
            *self = Model::default();
            kept.iter().for_each(|r| self.append(r));
        }
    }

    /// A store file's line 1.
    const HEADER: &[u8] = b"{\"kind\":\"ah-store\",\"version\":1}\n";

    /// Records as their log lines, which must be byte-identical.
    fn lines<'a>(records: impl IntoIterator<Item = &'a StoreRecord>) -> Vec<u8> {
        let mut blob = Vec::new();
        records.into_iter().for_each(|r| push_line(r, &mut blob));
        blob
    }

    /// Every record the store holds, superseded ones included, built from
    /// its row and encoded: the lines of its log.
    fn rows(store: &PerfStore) -> Vec<u8> {
        let records = (0..store.len()).map(|pos| store.records.record(pos));
        lines(&records.collect::<Vec<_>>())
    }

    /// Merge `records` as a peer's body of their lines, which must merge.
    fn merge(store: &mut PerfStore, records: &[StoreRecord]) -> MergeStats {
        let body = [HEADER, &lines(records)].concat();
        let (_, _, stats, appended) = store.merge_log(&body, check_header).unwrap();
        appended.unwrap();
        stats
    }

    /// Apply one random operation to the store and the model: bits 0–2
    /// pick it, bits 3–4 a batch size of 1–4, and each record of the batch
    /// takes 14 more bits. A reopen reopens under `index`'s digest.
    fn apply(store: &mut PerfStore, model: &mut Model, path: &Path, op: u64) {
        let batch: Vec<StoreRecord> = (0..1 + (op >> 3 & 3))
            .map(|i| record_from(op >> (5 + 14 * i)))
            .collect();
        match op & 7 {
            0..=2 => {
                batch.iter().for_each(|r| model.insert(r));
                store.insert_batch(batch).unwrap();
            }
            3 => {
                batch.iter().for_each(|r| model.merge(r));
                merge(store, &batch);
            }
            4 => {
                // The pull done in-process, from a store of the batch.
                batch.iter().for_each(|r| model.merge(r));
                let peer_path = path.with_extension("peer");
                let mut peer = PerfStore::open(&peer_path).unwrap();
                peer.insert_batch(batch).unwrap();
                store.merge_from(peer.path()).unwrap();
                drop(peer);
                std::fs::remove_file(&peer_path).unwrap();
            }
            5 => {
                model.rewrite(|_| true);
                store.compact().unwrap();
            }
            6 => {
                let app = ["a", "b"][(op >> 3 & 1) as usize];
                model.rewrite(|r| r.app == app);
                store.gc(Some(app)).unwrap();
            }
            _ => {
                store.flush().unwrap();
                let index = store.records.index.emptied();
                *store = PerfStore::open_reading(path, Telemetry::disabled(), index, true).unwrap();
            }
        }
    }

    /// Every answer the store gives, against the model's.
    fn assert_answers_as_the_model(store: &PerfStore, model: &Model) {
        assert_eq!(lines(&store.live_records()), lines(model.live()));
        assert_eq!(rows(store), lines(&model.log));
        // The file holds every line the encoder writes for the model's log:
        // its live records' alone after a compaction, which leaves the
        // model's log as its live records.
        let mut file = HEADER.to_vec();
        file.extend(lines(&model.log));
        assert_eq!(std::fs::read(store.path()).unwrap(), file);
        let stats = store.stats();
        assert_eq!(
            (stats.records, stats.live_configs),
            (model.log.len(), model.served.len())
        );
        let mut per_app: Vec<(String, usize)> = Vec::new();
        for r in model.live() {
            match per_app.iter_mut().find(|(app, _)| *app == r.app) {
                Some((_, configs)) => *configs += 1,
                None => per_app.push((r.app.clone(), 1)),
            }
        }
        per_app.sort();
        let apps: Vec<(String, usize)> =
            stats.apps.into_iter().map(|a| (a.app, a.configs)).collect();
        assert_eq!(apps, per_app);
        // Every key the generator makes, under every app and fingerprint
        // and one of neither, from every position a caller can hold: none,
        // each record (the next may be another app's, another
        // fingerprint's, a superseded duplicate), the last, past the end.
        let mut keys: Vec<CacheKey> = (0..16u64)
            .map(|bits| record_from(bits << 2).config.cache_key())
            .collect();
        keys.sort();
        keys.dedup();
        let positions = std::iter::once(None)
            .chain((0..store.len() + 2).map(Some))
            .chain([Some(usize::MAX)]);
        for last_hit in positions {
            for app in ["a", "b", "c"] {
                for fingerprint in 1..=3 {
                    for key in &keys {
                        let want = model
                            .served
                            .get(&(app.to_string(), fingerprint, key.clone()));
                        let cost = want.map(|&pos| model.log[pos].cost_bits);
                        let mut at = last_hit;
                        let got = store.lookup_after(app, fingerprint, key, &mut at);
                        assert_eq!(got.map(|c| c.cost.to_bits()), cost);
                        assert_eq!(at, want.copied().or(last_hit));
                        if last_hit.is_none() {
                            assert_eq!(store.lookup(app, fingerprint, key), got);
                        }
                    }
                }
            }
        }
    }

    /// Run `ops` against a store opened under `index`'s digest and the
    /// model, comparing every answer after each.
    fn store_answers_as_the_model(ops: &[u64], index: DigestIndex, tag: &str) {
        let path = temp_path(tag);
        let _ = std::fs::remove_file(&path);
        let mut store = PerfStore::open_reading(&path, Telemetry::disabled(), index, true).unwrap();
        let mut model = Model::default();
        for &op in ops {
            apply(&mut store, &mut model, &path, op);
            assert_answers_as_the_model(&store, &model);
        }
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn lookup_after_answers_what_the_index_answers_from_any_position(
            ops in proptest::collection::vec(0u64..u64::MAX, 1..24)
        ) {
            store_answers_as_the_model(&ops, DigestIndex::new(), "model");
        }

        #[test]
        fn a_store_whose_every_digest_collides_answers_what_the_model_answers(
            ops in proptest::collection::vec(0u64..u64::MAX, 1..24)
        ) {
            store_answers_as_the_model(&ops, DigestIndex::colliding(), "model-colliding");
        }
    }

    #[test]
    fn a_record_with_a_non_finite_real_is_not_written() {
        let path = temp_path("non-finite");
        let peer_path = temp_path("non-finite-peer");
        for p in [&path, &peer_path] {
            let _ = std::fs::remove_file(p);
        }
        let real = |r: f64, cost: f64| {
            let config = Configuration::new(vec!["r".into()], vec![ParamValue::Real(r)]);
            StoreRecord::new("a", 1, config, cost, cost)
        };
        let batch = vec![
            real(0.5, 1.0),
            real(f64::NAN, 2.0),
            real(f64::NEG_INFINITY, 3.0),
            real(f64::INFINITY, 4.0),
            real(-0.25, 5.0),
        ];
        let mut store = PerfStore::open(&path).unwrap();
        assert_eq!(store.insert_batch(batch.clone()).unwrap(), 2);
        assert_eq!((store.len(), store.live_configs()), (2, 2));
        let mut peer = PerfStore::open(&peer_path).unwrap();
        let preview = peer.merge_preview(store.path()).unwrap();
        let merged = peer.merge_from(store.path()).unwrap();
        assert_eq!((merged.scanned, merged.merged, merged.skipped), (2, 2, 0));
        assert_eq!(
            (preview.scanned, preview.merged, preview.skipped),
            (2, 2, 0)
        );
        // In a peer's body, such a record's line (`null` for the real) is
        // not a record: with records after it, the body merges nothing.
        let body = [HEADER, &lines(&batch)].concat();
        assert!(peer.merge_log::<StoreHeader>(&body, check_header).is_none());
        for (store, p) in [(store, &path), (peer, &peer_path)] {
            let written = rows(&store);
            drop(store);
            let store = PerfStore::open(p).unwrap();
            assert!(!store.stats().torn_tail_truncated);
            let costs: Vec<f64> = store.live_records().iter().map(StoreRecord::cost).collect();
            assert_eq!(costs, [1.0, 5.0]);
            assert_eq!(rows(&store), written);
        }
        // A literal too large for an `f64` reads as an infinity, which a
        // compaction would write back as `null`: not a record either.
        let huge = "{\"app\":\"a\",\"fingerprint\":1,\"config\":{\"names\":[\"r\"],\"values\":[{\"Real\":1e999}]},\
                    \"cost_bits\":0,\"wall_bits\":0,\"session\":0,\"iteration\":0,\"requeued\":false,\"replayed\":false}\n";
        let mut log = std::fs::read(&path).unwrap();
        log.extend_from_slice(huge.as_bytes());
        std::fs::write(&path, &log).unwrap();
        let mut store = PerfStore::open(&path).unwrap();
        assert_eq!((store.len(), store.stats().torn_tail_truncated), (2, true));
        store.compact().unwrap();
        drop(store);
        assert_eq!(PerfStore::open(&path).unwrap().len(), 2);
    }

    /// A line in the encoder's layout with one name and two values.
    const NAMES_FOR_VALUES: &str = r#"{"app":"a","fingerprint":1,"config":{"names":["x"],"values":[{"Int":1},{"Int":2}]},"cost_bits":0,"wall_bits":0,"session":0,"iteration":0,"requeued":false,"replayed":false}"#;

    #[test]
    fn a_line_whose_names_and_values_differ_in_number_is_not_a_record() {
        assert!(!Line::default().read(NAMES_FOR_VALUES));
        assert_eq!(
            read_record(NAMES_FOR_VALUES).unwrap_err(),
            "1 parameter names for 2 values"
        );
        let path = temp_path("names-for-values");
        let good = lines(&[rec("a", 1, 1.0, 1.0, 1.0), rec("a", 1, 2.0, 2.0, 2.0)]);
        let (first, second) = good.split_at(good.iter().position(|&b| b == b'\n').unwrap() + 1);
        let odd = format!("{NAMES_FOR_VALUES}\n").into_bytes();
        for in_place in [true, false] {
            let open = || {
                PerfStore::open_reading(&path, Telemetry::disabled(), DigestIndex::new(), in_place)
            };
            // As the tail: truncated.
            std::fs::write(&path, [HEADER, &good, &odd].concat()).unwrap();
            let store = open().unwrap();
            assert_eq!((store.len(), store.stats().torn_tail_truncated), (2, true));
            drop(store);
            assert_eq!(std::fs::read(&path).unwrap(), [HEADER, &good].concat());
            // Followed by a record: refused by its line number.
            std::fs::write(&path, [HEADER, first, &odd, second].concat()).unwrap();
            match open() {
                Err(HarmonyError::StoreCorrupt(msg)) => assert!(
                    msg.ends_with("unreadable record at line 3: 1 parameter names for 2 values"),
                    "{msg}"
                ),
                other => panic!("expected StoreCorrupt, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// splitmix64: the differential test's records and mutations.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Clone>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())].clone()
        }

        /// Up to three pieces of text that need escapes, or are not ASCII,
        /// or look like JSON.
        fn text(&mut self) -> String {
            let pieces = [
                "x",
                "tile",
                "é",
                "ü✓😀",
                "a\"b",
                "c\\d",
                "\n",
                "\u{1}",
                "\u{7f}",
                "/",
                ",:{}[]",
                "0",
                "007",
                " ",
            ];
            (0..self.below(4)).map(|_| self.pick(&pieces)).collect()
        }

        fn record(&mut self) -> StoreRecord {
            let big = self.next();
            let n = self.below(4);
            let names = (0..n).map(|_| self.text()).collect();
            let values = (0..n)
                .map(|_| match self.below(3) {
                    0 => {
                        ParamValue::Int(self.pick(&[0, 1, -1, -64, i64::MIN, i64::MAX, big as i64]))
                    }
                    1 => ParamValue::Real(self.pick(&[
                        0.0,
                        -0.0,
                        0.5,
                        -0.25,
                        1e21,
                        1e-7,
                        1e300,
                        5e-324,
                        f64::MAX,
                        f64::from_bits(big >> 2),
                        f64::NAN,
                    ])),
                    _ => ParamValue::Enum {
                        index: self.pick(&[0, 1, 2, usize::MAX, 1 << 63, big as usize]),
                        label: self.text(),
                    },
                })
                .collect();
            let wide = [0, 1, u64::MAX, 1 << 63, big];
            StoreRecord {
                app: self.text(),
                fingerprint: self.pick(&wide),
                config: Configuration::new(names, values),
                cost_bits: self.pick(&wide),
                wall_bits: self.pick(&wide),
                session: self.pick(&wide),
                iteration: self.pick(&wide) as usize,
                requeued: self.below(2) == 1,
                replayed: self.below(2) == 1,
            }
        }

        /// `record`'s line as the encoder writes it, or as a hand or
        /// another writer might: spaced, reordered, with a key twice or one
        /// unknown, a leading zero, a number past `u64` or `i64`, a real
        /// without its fraction, text after the object.
        fn line(&mut self, record: &StoreRecord) -> String {
            let text = String::from_utf8(lines([record]))
                .unwrap()
                .trim_end()
                .to_string();
            fn at(text: &str, what: impl Fn(usize, char) -> bool, g: &mut Gen) -> Option<usize> {
                let places: Vec<usize> = text
                    .char_indices()
                    .filter(|&(i, c)| what(i, c))
                    .map(|(i, _)| i)
                    .collect();
                (!places.is_empty()).then(|| places[g.below(places.len())])
            }
            // The top-level object or the configuration's.
            type Members = Vec<(String, serde_json::Value)>;
            let object = |g: &mut Gen, f: &mut dyn FnMut(&mut Members, &mut Gen)| {
                let mut value = serde_json::to_value(record).unwrap();
                let serde_json::Value::Object(members) = &mut value else {
                    unreachable!()
                };
                if g.below(2) == 0 {
                    f(members, g);
                } else if let serde_json::Value::Object(config) = &mut members[2].1 {
                    f(config, g);
                }
                serde_json::to_string(&value).unwrap()
            };
            let digits_start = |i: usize, c: char| {
                c.is_ascii_digit() && !text[..i].ends_with(|p: char| p.is_ascii_digit())
            };
            match self.below(10) {
                0 => {
                    let Some(i) = at(&text, |_, c| c == ':' || c == ',', self) else {
                        return text;
                    };
                    format!("{} {}", &text[..=i], &text[i + 1..])
                }
                1 => object(self, &mut |m, g| {
                    let (i, j) = (g.below(m.len()), g.below(m.len()));
                    m.swap(i, j);
                }),
                2 => object(self, &mut |m, g| {
                    let copy = m[g.below(m.len())].clone();
                    m.insert(g.below(m.len() + 1), copy);
                }),
                3 => object(self, &mut |m, g| {
                    let unknown = ("zz".to_string(), serde_json::Value::Int(1));
                    m.insert(g.below(m.len() + 1), unknown);
                }),
                4 => match at(&text, digits_start, self) {
                    Some(i) => format!("{}0{}", &text[..i], &text[i..]),
                    None => text,
                },
                5 => match at(&text, digits_start, self) {
                    Some(i) => {
                        let end = text[i..]
                            .find(|c: char| !c.is_ascii_digit())
                            .map_or(text.len(), |n| i + n);
                        let wide = self.pick(&[
                            "99999999999999999999",
                            "18446744073709551615",
                            "9223372036854775808",
                        ]);
                        format!("{}{wide}{}", &text[..i], &text[end..])
                    }
                    None => text,
                },
                6 => match at(
                    &text,
                    |i, c| c == '.' && text[i + 1..].starts_with(|d: char| d.is_ascii_digit()),
                    self,
                ) {
                    Some(i) => {
                        let end = text[i + 1..]
                            .find(|c: char| !c.is_ascii_digit())
                            .map_or(text.len(), |n| i + 1 + n);
                        format!("{}{}", &text[..i], &text[end..])
                    }
                    None => text,
                },
                7 => format!("{text}}}"),
                _ => text,
            }
        }
    }

    /// Everything a `Records` holds that an answer reads, comparably.
    #[derive(Debug, PartialEq)]
    struct Contents<'r> {
        /// Each row's fields, ids and offset included.
        rows: Vec<[u64; 9]>,
        vals: &'r [i64],
        apps: Vec<&'r str>,
        labels: Vec<&'r str>,
        shapes: Vec<(&'r [String], Vec<u8>)>,
        live: usize,
        /// What the index finds for each row's key.
        found: Vec<Option<usize>>,
    }

    fn contents(records: &Records) -> Contents<'_> {
        fn strings(i: &Interner) -> Vec<&str> {
            (0..i.len() as u32).map(|id| i.get(id)).collect()
        }
        let rows = records.rows.iter().map(|r| {
            let (offset, app, shape, flags) = (
                r.offset as u64,
                r.app.into(),
                r.shape.into(),
                r.flags.into(),
            );
            [
                r.fingerprint,
                r.cost_bits,
                r.wall_bits,
                r.session,
                r.iteration,
                offset,
                app,
                shape,
                flags,
            ]
        });
        let shapes = records.shapes.iter();
        let found = (0..records.len()).map(|pos| {
            let row = &records.rows[pos];
            let key = records.key(pos).iter().copied();
            records.find(records.apps.get(row.app), row.fingerprint, key)
        });
        Contents {
            rows: rows.collect(),
            vals: &records.vals,
            apps: strings(&records.apps),
            labels: strings(&records.labels),
            shapes: shapes
                .map(|s| (&s.names[..], s.kinds.iter().map(|&k| k as u8).collect()))
                .collect(),
            live: records.live,
            found: found.collect(),
        }
    }

    /// Read `lines` through the store's reader and through the derive
    /// alone, line by line in step: the same verdict on every line, and the
    /// same records after every kept one; the reader takes only what the
    /// derive takes.
    fn reads_as_the_derive(lines: &[&str]) {
        let (mut fast, mut derive) = (
            Records::new(DigestIndex::new()),
            Records::new(DigestIndex::new()),
        );
        let mut fast = Reader::new(&mut fast, None, None);
        let mut derive = Reader {
            in_place: false,
            ..Reader::new(&mut derive, None, None)
        };
        for &text in lines {
            let verdict = fast.read(text, true);
            assert_eq!(verdict, derive.read(text, true), "{text}");
            if verdict.is_ok() {
                assert_eq!(contents(fast.records), contents(derive.records), "{text}");
            }
        }
    }

    /// Open a log of `lines` in place and through the derive alone: the
    /// same log, stats and torn verdict, or the same error.
    fn opens_as_the_derive(lines: &[&str], tag: &str) {
        let path = temp_path(tag);
        let mut log = HEADER.to_vec();
        for line in lines {
            log.extend_from_slice(line.as_bytes());
            log.push(b'\n');
        }
        let open = |in_place| {
            std::fs::write(&path, &log).unwrap();
            let opened =
                PerfStore::open_reading(&path, Telemetry::disabled(), DigestIndex::new(), in_place);
            opened
                .map(|store| {
                    let stats = store.stats();
                    let apps: Vec<(String, usize)> =
                        stats.apps.into_iter().map(|a| (a.app, a.configs)).collect();
                    let counts = (
                        stats.records,
                        stats.live_configs,
                        stats.torn_tail_truncated,
                        stats.file_bytes,
                    );
                    (rows(&store), apps, counts)
                })
                .map_err(|e| e.to_string())
        };
        assert_eq!(open(true), open(false));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_line_reader_reads_every_number_as_the_derive_does() {
        let numbers = [
            "0",
            "-0",
            "00",
            "007",
            "1",
            "-1",
            "-.5",
            ".5",
            ".5e1",
            "+1",
            "+1.5",
            "-",
            "1-",
            "1.0",
            "-0.0",
            "1e3",
            "1E-3",
            "1.5e+2",
            "1e999",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "00000000000000000000001",
        ];
        let template = r#"{"app":"a","fingerprint":#F,"config":{"names":["i","r","e"],"values":[{"Int":#I},{"Real":#R},{"Enum":{"index":#E,"label":"l"}}]},"cost_bits":#C,"wall_bits":0,"session":0,"iteration":#N,"requeued":false,"replayed":true}"#;
        let mut read_in_place = 0;
        for field in ["#F", "#I", "#R", "#E", "#C", "#N"] {
            for number in numbers {
                let mut text = template.replace(field, number);
                for (other, ok) in [
                    ("#F", "7"),
                    ("#I", "-3"),
                    ("#R", "0.5"),
                    ("#E", "2"),
                    ("#C", "9"),
                    ("#N", "4"),
                ] {
                    text = text.replace(other, ok);
                }
                read_in_place += usize::from(Line::default().read(&text));
                reads_as_the_derive(&[&text, &text]);
            }
        }
        // Five of the texts are integers each integer field holds, and two
        // (`1.0`, `-0.0`) are reals as the encoder writes them; the four
        // other finite reals (`-.5`, `1e3`, `1E-3`, `1.5e+2`) and the rest
        // are left to the derive.
        assert_eq!(read_in_place, 5 * 5 + 2);
    }

    /// [`StoreRecord`] as the derive wrote it before its fields were
    /// written by hand: the oracle of [`RecordView`]'s encoder.
    #[derive(Serialize)]
    struct DerivedRecord {
        app: String,
        fingerprint: u64,
        config: Configuration,
        cost_bits: u64,
        wall_bits: u64,
        session: u64,
        iteration: usize,
        requeued: bool,
        replayed: bool,
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn a_view_appends_the_line_the_derive_writes(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            // Distinct fingerprints make every key new, so every record the
            // log can hold is appended; `requeued` alternates.
            let records: Vec<StoreRecord> = (0..1 + g.below(8))
                .map(|i| StoreRecord {
                    fingerprint: i as u64,
                    requeued: i % 2 == 0,
                    ..g.record()
                })
                .collect();
            let derived = |r: &StoreRecord| {
                let mut line = Vec::new();
                let StoreRecord { app, fingerprint, config, cost_bits, wall_bits, session, iteration, requeued, replayed } = r.clone();
                let oracle = DerivedRecord { app, fingerprint, config, cost_bits, wall_bits, session, iteration, requeued, replayed };
                push_line(&oracle, &mut line);
                line
            };
            for r in &records {
                assert_eq!(lines([r]), derived(r));
            }
            let path = temp_path("view-lines");
            let mut store = PerfStore::open(&path).unwrap();
            let storable: Vec<&StoreRecord> =
                records.iter().filter(|r| storable(r.view()).is_ok()).collect();
            let written = store.insert_views(records.iter().map(StoreRecord::view)).unwrap();
            assert_eq!(written, storable.len());
            let log = std::fs::read(&*path).unwrap();
            let want: Vec<u8> = storable.into_iter().flat_map(derived).collect();
            assert_eq!(&log[HEADER.len()..], &want[..]);
        }

        #[test]
        fn the_line_reader_reads_what_the_derive_reads(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let records: Vec<StoreRecord> = (0..1 + g.below(6)).map(|_| g.record()).collect();
            // Half the cases repeat the first record's app and shape, as a
            // campaign's records do.
            let records: Vec<StoreRecord> = if seed % 2 == 0 {
                let first = records[0].clone();
                records
                    .into_iter()
                    .map(|r| StoreRecord {
                        app: first.app.clone(),
                        config: first.config.clone(),
                        ..r
                    })
                    .collect()
            } else {
                records
            };
            // Every line in the encoder's layout is read in place, unless a
            // string in it has an escape or a real is not finite.
            for r in &records {
                let text = String::from_utf8(lines([r])).unwrap();
                let text = text.trim_end();
                let in_place = !text.contains('\\') && storable(r.view()).is_ok();
                assert_eq!(Line::default().read(text), in_place, "{text}");
            }
            let texts: Vec<String> = records.iter().map(|r| g.line(r)).collect();
            let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
            reads_as_the_derive(&texts);
            opens_as_the_derive(&texts, "differential");
            // Cut after every byte (every character, as a torn tail that is
            // text), last in a log.
            let last = texts[texts.len() - 1];
            for (cut, _) in last.char_indices().skip(1) {
                let mut cut_log = texts.clone();
                *cut_log.last_mut().unwrap() = &last[..cut];
                reads_as_the_derive(&cut_log);
            }
            // Cut half way: as the tail, and before the lines again.
            let half = last.char_indices().nth(last.chars().count() / 2).map_or(0, |(i, _)| i);
            let cut: &[&str] = &[&last[..half]];
            let torn = [&texts[..texts.len() - 1], cut].concat();
            opens_as_the_derive(&torn, "differential-torn");
            let damaged = [&texts[..], cut, &texts[..]].concat();
            opens_as_the_derive(&damaged, "differential-damaged");
        }
    }

    #[test]
    fn a_sequential_replay_is_served_by_the_record_after_each_hit() {
        let path = temp_path("sequential-replay");
        let _ = std::fs::remove_file(&path);
        let mut store = PerfStore::open(&path).unwrap();
        // Two campaigns written one after the other, as seeded sessions
        // write them.
        for app in ["a", "b"] {
            let campaign = (0..50).map(|i| rec(app, 1, i as f64, 1.0, i as f64));
            store.insert_batch(campaign.collect()).unwrap();
        }
        let replay = |store: &PerfStore| {
            let mut last_hit = None;
            let mut guessed = Vec::new();
            for pos in 0..store.len() {
                let r = store.records.record(pos);
                let key = store.records.key(pos);
                let guess = store
                    .records
                    .next_if_live(&r.app, r.fingerprint, key, last_hit);
                assert!(store
                    .lookup_after(&r.app, r.fingerprint, key, &mut last_hit)
                    .is_some());
                assert_eq!(last_hit, Some(pos));
                guessed.push(guess);
            }
            guessed
        };
        // Only the very first lookup, before any hit, needs the index.
        let guessed = replay(&store);
        assert_eq!(guessed[0], None);
        assert!((1..100).all(|pos| guessed[pos] == Some(pos)), "{guessed:?}");
        // Batches of two sessions interleaved in runs of four: one session
        // reads its records with a gap at every run of the other's, so the
        // guess misses once per run and hits inside it.
        let path = temp_path("interleaved-replay");
        let _ = std::fs::remove_file(&path);
        let mut store = PerfStore::open(&path).unwrap();
        for run in 0..10 {
            for app in ["a", "b"] {
                let batch = (4 * run..4 * run + 4).map(|i| rec(app, 1, i as f64, 1.0, i as f64));
                store.insert_batch(batch.collect()).unwrap();
            }
        }
        let mut last_hit = None;
        let mut misses = 0;
        for pos in (0..store.len()).filter(|&pos| store.records.record(pos).app == "a") {
            let key = store.records.key(pos);
            misses += store
                .records
                .next_if_live("a", 1, key, last_hit)
                .map_or(1, |_| 0);
            store.lookup_after("a", 1, key, &mut last_hit).unwrap();
        }
        assert_eq!(misses, 10, "one index probe per run of four");
    }

    #[test]
    fn opens_and_rewrites_start_a_new_generation() {
        let path = temp_path("generation");
        let _ = std::fs::remove_file(&path);
        let mut store = PerfStore::open(&path).unwrap();
        let opened = store.generation();
        store.insert(rec("a", 1, 1.0, 0.0, 1.0)).unwrap();
        store.insert(rec("a", 1, 1.0, 0.0, 2.0)).unwrap();
        merge(&mut store, &[rec("a", 1, 2.0, 0.0, 2.0)]);
        assert_eq!(store.generation(), opened, "appends keep the numbering");
        store.compact().unwrap();
        let compacted = store.generation();
        assert_ne!(compacted, opened);
        store.gc(Some("a")).unwrap();
        assert_ne!(store.generation(), compacted);
        drop(store);
        assert_ne!(PerfStore::open(&path).unwrap().generation(), opened);
    }

    #[test]
    fn telemetry_counts_hits_misses_inserts() {
        let path = temp_path("telemetry");
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::enabled();
        let mut store = PerfStore::open_with(&path, t.clone()).unwrap();
        store.insert(rec("a", 1, 1.0, 1.0, 2.0)).unwrap();
        let key = space().project(&[1.0, 1.0]).cache_key();
        assert!(store.lookup("a", 1, &key).is_some());
        assert!(store.lookup("a", 1, &[999, 999]).is_none());
        store.compact().unwrap();
        assert_eq!(t.counter(Counter::StoreInserts), 1);
        assert_eq!(t.counter(Counter::StoreHits), 1);
        assert_eq!(t.counter(Counter::StoreMisses), 1);
        assert_eq!(t.counter(Counter::StoreCompactions), 1);
    }

    /// A store's log as a peer serves it: line 1 a store header, then
    /// every record line.
    fn peer_body(store: &PerfStore) -> Vec<u8> {
        std::fs::read(store.path()).unwrap()
    }

    #[test]
    fn merging_a_body_allocates_nothing_per_record() {
        let (source, dst) = (temp_path("body-source"), temp_path("body-dst"));
        let mut peer = PerfStore::open(&source).unwrap();
        let records =
            (0..10_000).map(|i| rec("a", 1, (i % 100) as f64, (i / 100) as f64, i as f64));
        peer.insert_batch(records.collect()).unwrap();
        let body = peer_body(&peer);
        let mut store = PerfStore::open(&dst).unwrap();
        let before = crate::counting::calls();
        let (_, _, stats, _) = store.merge_log(&body, check_header).unwrap();
        let calls = crate::counting::calls() - before;
        assert_eq!((stats.scanned, stats.merged), (10_000, 10_000));
        // The vectors' and tables' growth, and nothing per line: the pull
        // that decoded each line into a `StoreRecord` and merged those made
        // 60 080 calls here.
        assert!(
            calls <= 200,
            "{calls} allocator calls to merge 10 000 lines"
        );
        assert_eq!(std::fs::read(&dst).unwrap(), body);
    }

    #[test]
    fn merging_a_peer_store_allocates_nothing_per_record() {
        let (source, dst) = (temp_path("peer-source"), temp_path("peer-dst"));
        let mut peer = PerfStore::open(&source).unwrap();
        let records =
            (0..10_000).map(|i| rec("a", 1, (i % 100) as f64, (i / 100) as f64, i as f64));
        peer.insert_batch(records.collect()).unwrap();
        let mut store = PerfStore::open(&dst).unwrap();
        let before = crate::counting::calls();
        let preview = store.merge_preview(peer.path()).unwrap();
        let previewed = crate::counting::calls() - before;
        let stats = store.merge_from(peer.path()).unwrap();
        let merged = crate::counting::calls() - before - previewed;
        assert_eq!((stats.scanned, stats.merged), (10_000, 10_000));
        assert_eq!((preview.scanned, preview.merged), (10_000, 10_000));
        // The reader's buffer and the vectors' and tables' growth, and
        // nothing per record: the merge that built the peer's live records
        // as `StoreRecord`s and merged those made 20 100 calls here, its dry
        // run 20 085.
        for (what, calls) in [("dry run", previewed), ("merge", merged)] {
            assert!(
                calls <= 200,
                "{calls} allocator calls for the {what} of 10 000 records"
            );
        }
        drop(store);
        assert_eq!(
            std::fs::read(&dst).unwrap(),
            std::fs::read(&source).unwrap()
        );
    }

    #[test]
    fn a_damaged_body_merges_nothing_and_leaves_the_store_as_it_was() {
        let (source, dst) = (temp_path("damaged-source"), temp_path("damaged-dst"));
        let mut peer = PerfStore::open(&source).unwrap();
        // First a record of a new app, shape and label, then four of the
        // store's app and shape, one a key the store serves at another cost.
        let label = ParamValue::Enum {
            index: 1,
            label: "col".into(),
        };
        let config = Configuration::new(vec!["layout".into()], vec![label]);
        peer.insert(StoreRecord::new("b", 2, config, 7.0, 7.0))
            .unwrap();
        let keys = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)];
        let records = keys.iter().map(|&(x, y)| rec("a", 1, x, y, x + y + 0.5));
        peer.insert_batch(records.collect()).unwrap();
        let t = Telemetry::enabled();
        let mut store = PerfStore::open_with(&dst, t.clone()).unwrap();
        store.insert(rec("a", 1, 1.0, 1.0, 9.0)).unwrap();
        let seen = |store: &PerfStore| format!("{:?}", contents(&store.records));
        let before = seen(&store);
        // A line that is not a record, with a record after it.
        let body = peer_body(&peer);
        let mut ends = body.iter().enumerate().filter(|&(_, &b)| b == b'\n');
        let cut = ends.nth(3).unwrap().0 + 1;
        let damaged = [&body[..cut], b"not a record\n", &body[cut..]].concat();
        assert!(store
            .merge_log::<StoreHeader>(&damaged, check_header)
            .is_none());
        let refused = |h: &StoreHeader| Err(format!("not {}", h.kind));
        assert!(store.merge_log::<StoreHeader>(&body, refused).is_none());
        assert_eq!(seen(&store), before);
        assert_eq!(t.counter(Counter::StoreMergedRecords), 0);
        assert_eq!(t.counter(Counter::StoreMergeConflicts), 0);
        // The index forgot the records it was shown: the whole body merges.
        let (_, _, stats, _) = store.merge_log::<StoreHeader>(&body, check_header).unwrap();
        assert_eq!((stats.merged, stats.skipped, stats.conflicts), (4, 1, 1));
        assert_eq!(store.live_configs(), 5);
        let key = space().project(&[1.0, 1.0]).cache_key();
        assert_eq!(store.lookup("a", 1, &key).unwrap().cost, 9.0);
        assert_eq!(t.counter(Counter::StoreMergedRecords), 4);
    }
}
