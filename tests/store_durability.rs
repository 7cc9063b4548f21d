//! Durability acceptance tests for the persistent performance store: a
//! `repro store demo` campaign killed mid-run leaves a database that, on
//! reopen, (a) recovers — truncating any torn trailing record — and
//! (b) serves a re-run to the byte-identical result of an uninterrupted
//! campaign, with the surviving measurements answered from the store.
//!
//! Same two kill mechanisms as the WAL suite: cooperative
//! `--crash-after N` (`std::process::abort()` — no unwinding, no Drop
//! flush) and an external SIGKILL landing at an arbitrary point of a
//! slowed-down run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ah-store-durable-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Uninterrupted reference demo against a fresh store; returns the
/// deterministic result bytes.
fn clean_run(dir: &Path) -> Vec<u8> {
    let out = dir.join("clean.json");
    let status = repro()
        .args(["store", "demo", "--quick"])
        .arg("--store")
        .arg(dir.join("clean.store"))
        .arg("--out")
        .arg(&out)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "clean demo failed: {status}");
    std::fs::read(&out).expect("clean results")
}

/// Re-run the demo against a crashed store and assert recovery: exit 0,
/// byte-identical result, and the surviving records answered as hits.
fn recover_and_check(dir: &Path, store: &Path, want: &[u8]) {
    let out = dir.join("recovered.json");
    let cache = dir.join("recovered-cache.json");
    let status = repro()
        .args(["store", "demo", "--quick"])
        .arg("--store")
        .arg(store)
        .arg("--out")
        .arg(&out)
        .arg("--cache-out")
        .arg(&cache)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "recovery demo failed: {status}");
    let got = std::fs::read(&out).expect("recovered results");
    assert_eq!(
        got, want,
        "post-crash results differ from uninterrupted run"
    );
    let accounting: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&cache).expect("cache accounting")).unwrap();
    assert!(
        accounting["store_hits"].as_u64().unwrap() > 0,
        "recovery run got no store hits: {accounting:?}"
    );
}

#[test]
fn abort_mid_campaign_then_reopen_serves_the_survivors() {
    let dir = tmp_dir("abort");
    let want = clean_run(&dir);

    let store = dir.join("crash.store");
    let out = dir.join("crash.json");
    let status = repro()
        .args(["store", "demo", "--quick", "--crash-after", "20"])
        .arg("--store")
        .arg(&store)
        .arg("--out")
        .arg(&out)
        .status()
        .expect("spawn repro");
    assert!(!status.success(), "crash-after run must die, got {status}");
    assert!(!out.exists(), "crashed run must not have written results");
    assert!(store.exists(), "crashed run left no store behind");

    recover_and_check(&dir, &store, &want);

    // Once recovered and fully populated, a compaction must not change
    // what the store serves: compact, re-run, byte-identical again.
    let status = repro()
        .args(["store", "compact"])
        .arg("--store")
        .arg(&store)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "compaction failed: {status}");
    recover_and_check(&dir, &store, &want);

    std::fs::remove_dir_all(&dir).ok();
}

/// Live `(cache_key, cost bits)` content of a store, for equality checks
/// that ignore append order and torn tails.
fn live_map(path: &Path) -> std::collections::BTreeMap<ah_core::space::CacheKey, u64> {
    let store = ah_core::store::PerfStore::open(path).expect("reopen store");
    store
        .live_records()
        .into_iter()
        .map(|r| (r.config.cache_key(), r.cost_bits))
        .collect()
}

#[test]
fn abort_mid_merge_then_clean_remerge_converges() {
    let dir = tmp_dir("merge-crash");

    // Source database: one uninterrupted demo campaign's records.
    let src = dir.join("src.store");
    let status = repro()
        .args(["store", "demo", "--quick"])
        .arg("--store")
        .arg(&src)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "source demo failed: {status}");

    // Reference: merge into a fresh store, never crashed.
    let reference = dir.join("reference.store");
    let status = repro()
        .args(["store", "merge"])
        .arg("--store")
        .arg(&reference)
        .arg("--from")
        .arg(&src)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "reference merge failed: {status}");
    let want = live_map(&reference);
    assert!(!want.is_empty(), "demo campaign left an empty source store");

    // Crash path: abort after 5 records, leaving a partial destination.
    let crashed = dir.join("crashed.store");
    let status = repro()
        .args(["store", "merge", "--crash-after", "5"])
        .arg("--store")
        .arg(&crashed)
        .arg("--from")
        .arg(&src)
        .status()
        .expect("spawn repro");
    assert!(
        !status.success(),
        "crash-after merge must die, got {status}"
    );
    let partial = live_map(&crashed);
    assert!(
        !partial.is_empty() && partial.len() < want.len(),
        "crashed merge should leave a strict subset ({} of {})",
        partial.len(),
        want.len()
    );

    // Idempotent re-merge over the partial state converges to the
    // never-crashed result.
    let status = repro()
        .args(["store", "merge"])
        .arg("--store")
        .arg(&crashed)
        .arg("--from")
        .arg(&src)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "recovery merge failed: {status}");
    assert_eq!(
        live_map(&crashed),
        want,
        "re-merge after crash diverged from the uninterrupted merge"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkill_mid_campaign_then_reopen_serves_the_survivors() {
    let dir = tmp_dir("sigkill");
    let want = clean_run(&dir);

    let store = dir.join("killed.store");
    // Slow each evaluation down so the kill lands mid-campaign, then
    // SIGKILL (`Child::kill` on unix: no handler, no cleanup, possibly a
    // torn half-written record at the store's tail).
    let mut child = repro()
        .args(["store", "demo", "--quick", "--eval-delay-ms", "25"])
        .arg("--store")
        .arg(&store)
        .arg("--out")
        .arg(dir.join("killed.json"))
        .spawn()
        .expect("spawn repro");
    let mut saw_progress = false;
    for _ in 0..200 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        if let Ok(blob) = std::fs::read_to_string(&store) {
            if blob.lines().count() >= 4 {
                saw_progress = true;
                break;
            }
        }
    }
    child.kill().expect("kill repro");
    let status = child.wait().expect("wait repro");
    assert!(!status.success(), "killed run must not exit cleanly");
    assert!(
        saw_progress,
        "run never appended store records before the kill"
    );

    recover_and_check(&dir, &store, &want);
    std::fs::remove_dir_all(&dir).ok();
}
