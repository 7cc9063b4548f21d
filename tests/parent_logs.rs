//! Logs written before `Configuration`'s names became a shared table still
//! read, and read to the same records.
//!
//! `tests/fixtures/pr15.*` were written by the `repro` binary of the parent
//! commit (b2d74ab): `repro store demo --quick` (the store and its result)
//! and `repro fault-wal --quick` (the WAL and its result). This build must
//! reopen both to what that build held: the store re-encodes to its own
//! bytes and serves a re-run to the byte-identical result; the WAL resumes
//! to the byte-identical result without a single new measurement.

use ah_core::store::{PerfStore, StoreRecord};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// A scratch copy of a fixture, in a directory of its own: opening a log
/// may truncate or append.
fn scratch_copy(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ah-parent-logs-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let to = dir.join(name);
    std::fs::copy(fixture(name), &to).expect("copy fixture");
    to
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn a_store_written_by_the_parent_reopens_to_equal_records() {
    let path = scratch_copy("pr15.store");
    let written = std::fs::read_to_string(&path).unwrap();
    let (header, records) = written.split_once('\n').unwrap();
    assert!(header.contains("ah-store"));
    {
        let store = PerfStore::open(&path).expect("reopen the parent's store");
        assert_eq!(store.len(), records.lines().count());
        // Every record of it is live: its records, re-encoded, are its log.
        let live = store.live_records();
        assert_eq!(live.len(), store.len());
        let line = |r: &StoreRecord| serde_json::to_string(r).unwrap() + "\n";
        assert_eq!(live.iter().map(line).collect::<String>(), records);
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), written);

    // And it serves a campaign to the parent's result, every cost a hit.
    let out = path.with_file_name("store.out.json");
    let cache = path.with_file_name("store.cache.json");
    let status = repro()
        .args(["store", "demo", "--quick", "--store"])
        .arg(&path)
        .arg("--out")
        .arg(&out)
        .arg("--cache-out")
        .arg(&cache)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "{status}");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        std::fs::read(fixture("pr15.store.result.json")).unwrap()
    );
    let accounting: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&cache).unwrap()).unwrap();
    assert_eq!(
        accounting["store_misses"].as_u64(),
        Some(0),
        "{accounting:?}"
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), written);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn a_wal_written_by_the_parent_resumes_to_the_same_result() {
    let wal = scratch_copy("pr15.wal");
    let out = wal.with_file_name("wal.out.json");
    let status = repro()
        .args(["fault-wal", "--quick", "--resume", "--wal"])
        .arg(&wal)
        .arg("--out")
        .arg(&out)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "{status}");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        std::fs::read(fixture("pr15.wal.result.json")).unwrap()
    );
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        std::fs::read(fixture("pr15.wal")).unwrap(),
        "a finished log is replayed, not extended"
    );
    std::fs::remove_dir_all(wal.parent().unwrap()).ok();
}
