//! What an opened performance store holds on the heap, and what opening it
//! costs on top.
//!
//! A global allocator counts live and peak heap bytes. The test writes a
//! log of 10 000 records over four int parameters (≈ 2.7 MB, the
//! `store-warm` record shape), drops the store and opens the log again.
//!
//! - **Live heap per record after `open`** must stay at most half of what
//!   the record-per-heap-object store held: 407 B per record, measured with
//!   this test before the store kept its records in columns.
//! - **Peak heap during `open`** may exceed the live heap after it by at
//!   most 1 MiB. An open that reads the whole file into memory first holds
//!   the log's ≈ 2.7 MB while it builds the records, and fails: that store
//!   peaked 1.8 MB above what it kept.
//! - **Allocator calls during `open`** (`alloc`, `alloc_zeroed` and
//!   `realloc`) may number at most 200: the growth of the store's vectors
//!   and tables, and nothing per line. The open that decoded every line
//!   into a whole `StoreRecord` made 80 070 calls here, ≈ 8 per line.
//! - **Allocator calls during `compact`** of that store may number at most
//!   200 too: a compaction streams the log's lines to the new file. The
//!   compaction that built a `StoreRecord` per live record and encoded the
//!   new log into one buffer made 20 064 calls here.
//!
//! The tests take turns: the counters see every thread of the process, so
//! a test running beside another would be counted too.

mod common;

use ah_core::space::SearchSpace;
use ah_core::store::{space_fingerprint, PerfStore, StoreRecord};
use common::Scratch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Relaxed);
                }
            }
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const RECORDS: usize = 10_000;

/// Live heap bytes per record the record-per-heap-object store held after
/// `open`, measured by this test on that store.
const BEFORE_COLUMNS_BYTES_PER_RECORD: usize = 407;

/// Allocator calls an open of the log may make: the vectors' and tables'
/// growth. The open that built a `StoreRecord` per line made 80 070.
const MAX_OPEN_ALLOCATIONS: usize = 200;

/// Allocator calls a compaction of the log may make. The compaction that
/// built a `StoreRecord` per live record made 20 064.
const MAX_COMPACT_ALLOCATIONS: usize = 200;

/// Held by each test for its whole run, so that no other is counted.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Write a log of `RECORDS` records over four int parameters at `path`.
fn write_log(path: &Path) {
    let space = SearchSpace::builder()
        .int("a", 0, 9, 1)
        .int("b", 0, 9, 1)
        .int("c", 0, 9, 1)
        .int("d", 0, 9, 1)
        .build()
        .unwrap();
    let fingerprint = space_fingerprint(&space);
    let mut store = PerfStore::open(path).unwrap();
    let records = (0..RECORDS).map(|i| {
        let digits = [i % 10, i / 10 % 10, i / 100 % 10, i / 1000 % 10].map(|d| d as f64);
        let cost = i as f64 * 0.25;
        StoreRecord::new("footprint", fingerprint, space.project(&digits), cost, cost)
            .with_provenance(1 + i as u64 % 4, i)
    });
    assert_eq!(store.insert_batch(records.collect()).unwrap(), RECORDS);
}

#[test]
fn an_opened_store_holds_half_the_heap_and_never_the_whole_file() {
    let _turn = one_at_a_time();
    let path = Scratch::new("footprint.store");
    write_log(&path);
    let file_bytes = std::fs::metadata(&path).unwrap().len() as usize;

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let calls_before = CALLS.load(Relaxed);
    let store = PerfStore::open(&path).unwrap();
    let calls = CALLS.load(Relaxed) - calls_before;
    let after = LIVE.load(Relaxed);
    let peak = PEAK.load(Relaxed);
    assert_eq!(store.len(), RECORDS);

    let per_record = (after - before) / RECORDS;
    let overshoot = peak - after;
    eprintln!(
        "log {file_bytes} B; after open {per_record} B per record live, \
         peak {overshoot} B above it, {calls} allocator calls"
    );
    assert!(
        per_record <= BEFORE_COLUMNS_BYTES_PER_RECORD / 2,
        "{per_record} B per record live after open (at most {} B)",
        BEFORE_COLUMNS_BYTES_PER_RECORD / 2
    );
    assert!(
        overshoot <= 1 << 20,
        "open peaked {overshoot} B above what it kept ({file_bytes} B log)"
    );
    assert!(
        calls <= MAX_OPEN_ALLOCATIONS,
        "open made {calls} allocator calls for {RECORDS} records (at most {MAX_OPEN_ALLOCATIONS})"
    );
}

#[test]
fn a_compaction_allocates_nothing_per_record() {
    let _turn = one_at_a_time();
    let path = Scratch::new("footprint-compact.store");
    write_log(&path);
    let before = std::fs::read(&path).unwrap();
    let mut store = PerfStore::open(&path).unwrap();
    let calls_before = CALLS.load(Relaxed);
    let compacted = store.compact().unwrap();
    let calls = CALLS.load(Relaxed) - calls_before;
    assert_eq!(compacted.records_after, RECORDS);
    eprintln!("compaction of {RECORDS} records: {calls} allocator calls");
    assert!(
        calls <= MAX_COMPACT_ALLOCATIONS,
        "compaction made {calls} allocator calls for {RECORDS} records (at most {MAX_COMPACT_ALLOCATIONS})"
    );
    assert_eq!(std::fs::read(&path).unwrap(), before, "nothing to drop");
}
