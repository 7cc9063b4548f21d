//! Cut-everywhere recovery over both durable-log schemas, through their
//! public APIs only.
//!
//! A crash can end a log after any byte. For a small performance store and
//! a small write-ahead log — labels and names with multi-byte characters,
//! so that some cuts land inside one — every prefix from the end of the
//! header to the end of the file must open to exactly its
//! newline-terminated lines, be truncated to the end of the last of them,
//! count one torn tail iff bytes were dropped, open a second time to the
//! same state, and then take an append that the next open reads back. And
//! damage to any one line that has a readable line after it must be refused
//! by name, whatever the damage is.

mod common;

use ah_core::prelude::*;
use ah_core::session::Trial;
use common::Scratch;
use std::path::Path;

fn scratch(name: &str) -> Scratch {
    Scratch::new(&format!("log-recovery-{name}"))
}

/// The byte offset just past each `\n` of `bytes`.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    let newlines = bytes.iter().enumerate().filter(|(_, b)| **b == b'\n');
    newlines.map(|(i, _)| i + 1).collect()
}

/// What a log cut to `k` bytes must recover to: how many record lines, and
/// the length it is truncated to. `ends[0]` is the end of the header.
fn expected(ends: &[usize], k: usize) -> (usize, usize) {
    let whole = ends.iter().filter(|end| **end <= k).count();
    (whole - 1, ends[whole - 1])
}

/// `bytes` with line `line` (1-based) damaged in one of three ways, its
/// newline kept.
fn damaged(bytes: &[u8], ends: &[usize], line: usize, how: usize) -> Vec<u8> {
    let (start, end) = (ends[line - 2], ends[line - 1] - 1);
    let mut out = bytes.to_vec();
    match how {
        0 => out[start] = b'x',             // not JSON
        1 => out[(start + end) / 2] = 0xff, // not UTF-8
        _ => drop(out.drain(end - 1..end)), // its closing brace lost
    }
    out
}

// ---------------------------------------------------------------------------
// The performance store
// ---------------------------------------------------------------------------

const STORE_APP: &str = "café";

fn store_record(i: i64) -> StoreRecord {
    let config = Configuration::new(
        vec!["größe".into(), "layout".into()],
        vec![
            ParamValue::Int(i),
            ParamValue::Enum {
                index: (i % 2) as usize,
                label: ["zeilen→", "spalten↓"][(i % 2) as usize].into(),
            },
        ],
    );
    StoreRecord::new(STORE_APP, 7, config, i as f64 + 0.5, 1.0).with_provenance(1, i as usize)
}

/// Write a store of four records at `path`; returns its bytes.
fn store_bytes(path: &Path) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let mut store = PerfStore::open(path).unwrap();
    let records: Vec<StoreRecord> = (0..4).map(store_record).collect();
    assert_eq!(store.insert_batch(records).unwrap(), 4);
    drop(store);
    std::fs::read(path).unwrap()
}

/// The store's records, each built from its row and encoded: its log, as
/// every record here is live.
fn encoded(store: &PerfStore) -> String {
    let records = store.live_records();
    assert_eq!(records.len(), store.len(), "every record is live");
    let line = |r: &StoreRecord| serde_json::to_string(r).unwrap() + "\n";
    records.iter().map(line).collect()
}

fn open_store(path: &Path) -> (PerfStore, u64) {
    let telemetry = Telemetry::enabled();
    let store = PerfStore::open_with(path, telemetry.clone())
        .unwrap_or_else(|e| panic!("{} must open: {e}", path.display()));
    let torn = telemetry.counter(Counter::StoreTornTails);
    assert_eq!(store.stats().torn_tail_truncated, torn == 1);
    (store, torn)
}

#[test]
fn a_store_cut_after_any_byte_recovers_its_whole_lines() {
    let path = scratch("cut.store");
    let bytes = store_bytes(&path);
    let ends = line_ends(&bytes);
    assert_eq!(ends.len(), 5);
    assert!(
        bytes.iter().any(|b| *b >= 0x80),
        "multi-byte characters to cut inside"
    );
    for k in ends[0]..=bytes.len() {
        std::fs::write(&path, &bytes[..k]).unwrap();
        let (records, good_end) = expected(&ends, k);
        let want_log = String::from_utf8(bytes[ends[0]..good_end].to_vec()).unwrap();

        let (store, torn) = open_store(&path);
        assert_eq!(encoded(&store), want_log, "cut at {k}");
        assert_eq!(torn, (good_end < k) as u64, "cut at {k}");
        drop(store);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            &bytes[..good_end],
            "cut at {k}"
        );

        // A second open finds nothing to repair.
        let (mut store, torn) = open_store(&path);
        assert_eq!((store.len(), torn), (records, 0), "cut at {k}, reopened");
        assert_eq!(store.stats().file_bytes, good_end as u64);

        // And the log takes an append the next open reads back.
        assert!(store.insert(store_record(9)).unwrap());
        drop(store);
        let (store, torn) = open_store(&path);
        assert_eq!(
            (store.len(), torn),
            (records + 1, 0),
            "cut at {k}, appended"
        );
        let log = encoded(&store);
        assert!(log.starts_with(&want_log) && log.ends_with("\"replayed\":false}\n"));
    }
}

#[test]
fn a_damaged_store_line_with_a_readable_one_after_it_is_refused_by_name() {
    let path = scratch("damaged.store");
    let bytes = store_bytes(&path);
    let ends = line_ends(&bytes);
    for line in 2..ends.len() {
        for how in 0..3 {
            std::fs::write(&path, damaged(&bytes, &ends, line, how)).unwrap();
            match PerfStore::open(&path) {
                Err(HarmonyError::StoreCorrupt(msg)) => {
                    assert!(msg.contains(&format!("at line {line}: ")), "{msg}")
                }
                other => panic!("line {line}, damage {how}: expected StoreCorrupt, got {other:?}"),
            }
        }
    }
    // The last line has nothing after it: damaged, it is a torn tail.
    for how in 0..3 {
        std::fs::write(&path, damaged(&bytes, &ends, ends.len(), how)).unwrap();
        let (store, torn) = open_store(&path);
        assert_eq!((store.len(), torn), (3, 1), "damage {how}");
    }
}

// ---------------------------------------------------------------------------
// The write-ahead log
// ---------------------------------------------------------------------------

const WAL_LOGGED: usize = 6;

fn wal_header() -> WalHeader {
    WalHeader::new(
        "café",
        vec![
            Param::int("größe", 0, 40, 1),
            Param::enumeration("layout", ["zeilen→", "spalten↓"]),
        ],
        vec![],
        StrategyKind::NelderMead,
        SessionOptions {
            max_evaluations: 14,
            seed: 5,
            ..Default::default()
        },
    )
}

fn cost_of(t: &Trial) -> f64 {
    let size = t.config.int("größe").unwrap() as f64;
    (size - 23.0).powi(2) + t.config.choice("layout").unwrap().len() as f64
}

/// Measure the outstanding trials, then the rest of the search; its history.
fn finish(mut wal: WalSession, outstanding: Vec<Trial>) -> String {
    for t in outstanding {
        let c = cost_of(&t);
        wal.report(t, c).unwrap();
    }
    while let Some(t) = wal.suggest().unwrap() {
        let c = cost_of(&t);
        wal.report(t, c).unwrap();
    }
    serde_json::to_string(wal.session().history()).unwrap()
}

/// The same search with no log under it.
fn baseline() -> String {
    let mut session = wal_header().build_session().unwrap();
    while let Some(t) = session.suggest_batch(1).pop() {
        let c = cost_of(&t);
        session.report_timed(t, c, c).unwrap();
    }
    serde_json::to_string(session.history()).unwrap()
}

/// Write a log of [`WAL_LOGGED`] evaluations at `path`; returns its bytes.
fn wal_bytes(path: &Path) -> Vec<u8> {
    let mut wal = WalSession::create(path, &wal_header()).unwrap();
    for _ in 0..WAL_LOGGED {
        let t = wal.suggest().unwrap().unwrap();
        let c = cost_of(&t);
        wal.report(t, c).unwrap();
    }
    drop(wal);
    std::fs::read(path).unwrap()
}

fn resume(path: &Path) -> (WalSession, Vec<Trial>, u64) {
    let telemetry = Telemetry::enabled();
    let (wal, outstanding) = WalSession::resume_with(path, telemetry.clone())
        .unwrap_or_else(|e| panic!("{} must resume: {e}", path.display()));
    (wal, outstanding, telemetry.counter(Counter::WalTornTails))
}

#[test]
fn a_wal_cut_after_any_byte_resumes_and_runs_to_the_baseline() {
    let want = baseline();
    let path = scratch("cut.wal");
    let bytes = wal_bytes(&path);
    let ends = line_ends(&bytes);
    assert_eq!(ends.len(), 1 + WAL_LOGGED);
    for k in ends[0]..=bytes.len() {
        std::fs::write(&path, &bytes[..k]).unwrap();
        let (records, good_end) = expected(&ends, k);

        let (wal, _, torn) = resume(&path);
        assert_eq!(wal.replayed(), records, "cut at {k}");
        assert_eq!(torn, (good_end < k) as u64, "cut at {k}");
        drop(wal);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            &bytes[..good_end],
            "cut at {k}"
        );

        // A second resume finds nothing to repair; the search then runs on
        // to where it would have got with no crash and no log.
        let (wal, outstanding, torn) = resume(&path);
        assert_eq!(
            (wal.replayed(), torn),
            (records, 0),
            "cut at {k}, resumed again"
        );
        assert_eq!(finish(wal, outstanding), want, "cut at {k}");

        // Everything it appended reads back.
        let (wal, outstanding, torn) = resume(&path);
        assert_eq!((wal.replayed(), torn), (14, 0), "cut at {k}, finished");
        assert!(outstanding.is_empty());
        assert_eq!(
            serde_json::to_string(wal.session().history()).unwrap(),
            want
        );
    }
}

#[test]
fn a_damaged_wal_line_with_a_readable_one_after_it_is_refused_by_name() {
    let path = scratch("damaged.wal");
    let bytes = wal_bytes(&path);
    let ends = line_ends(&bytes);
    for line in 2..ends.len() {
        for how in 0..3 {
            std::fs::write(&path, damaged(&bytes, &ends, line, how)).unwrap();
            match WalSession::resume(&path) {
                Err(HarmonyError::WalCorrupt(msg)) => {
                    assert!(msg.contains(&format!("at line {line}: ")), "{msg}")
                }
                other => panic!("line {line}, damage {how}: expected WalCorrupt, got {other:?}"),
            }
        }
    }
    for how in 0..3 {
        std::fs::write(&path, damaged(&bytes, &ends, ends.len(), how)).unwrap();
        let (wal, _, torn) = resume(&path);
        assert_eq!((wal.replayed(), torn), (WAL_LOGGED - 1, 1), "damage {how}");
    }
}

// ---------------------------------------------------------------------------
// The two defects both logs had, one case each
// ---------------------------------------------------------------------------

#[test]
fn a_record_that_lost_only_its_newline_is_a_torn_tail() {
    // Counted as a record, the next append would share its line and the
    // open after that would find `{…}{…}` in the middle of the log. So the
    // reopen comes first here, and what the first open recovered after it.
    let path = scratch("newline.store");
    let bytes = store_bytes(&path);
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    let (mut store, torn) = open_store(&path);
    let recovered = (store.len(), torn);
    let more: Vec<StoreRecord> = (3..6).map(store_record).collect();
    store.insert_batch(more).unwrap();
    drop(store);
    assert_eq!(open_store(&path).0.len(), 6);
    assert_eq!(recovered, (3, 1));

    let path = scratch("newline.wal");
    let bytes = wal_bytes(&path);
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    let (mut wal, outstanding, torn) = resume(&path);
    let recovered = (wal.replayed(), torn);
    assert!(outstanding.is_empty());
    for _ in 0..3 {
        let t = wal.suggest().unwrap().unwrap();
        let c = cost_of(&t);
        wal.report(t, c).unwrap();
    }
    drop(wal);
    let (wal, outstanding, _) = resume(&path);
    assert_eq!(wal.replayed(), WAL_LOGGED + 2);
    assert_eq!(finish(wal, outstanding), baseline());
    assert_eq!(recovered, (WAL_LOGGED - 1, 1));
}

#[test]
fn a_torn_tail_need_not_be_utf8() {
    let append = |path: &Path, tail: &[u8]| {
        let mut bytes = std::fs::read(path).unwrap();
        bytes.extend_from_slice(tail);
        std::fs::write(path, bytes).unwrap();
    };
    // Cut inside the `é` of the label, and plain garbage.
    for (i, tail) in [&b"{\"app\":\"caf\xc3"[..], b"\x00\xff\xfe\n\x9f"]
        .iter()
        .enumerate()
    {
        let path = scratch(&format!("utf8-{i}.store"));
        store_bytes(&path);
        append(&path, tail);
        let (store, torn) = open_store(&path);
        assert_eq!((store.len(), torn), (4, 1));

        let path = scratch(&format!("utf8-{i}.wal"));
        wal_bytes(&path);
        append(&path, tail);
        let (wal, _, torn) = resume(&path);
        assert_eq!((wal.replayed(), torn), (WAL_LOGGED, 1));
    }
}
