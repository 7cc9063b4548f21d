//! Property tests for the federation merge algebra.
//!
//! Anti-entropy only converges if merging is a semilattice join: merging
//! the same peer twice must be a no-op (idempotent), the order two fleets
//! sync in must not matter (commutative/associative), and a peer's log
//! arriving in shuffled or torn batches must land on the same live store
//! as one clean pull. Where two servers measured the same
//! `(app, fingerprint, key)` independently, the local first write wins —
//! deterministically, so replaying any merge order keeps a server's
//! answers stable.

use ah_core::space::{CacheKey, SearchSpace};
use ah_core::store::{PerfStore, StoreRecord};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// The directory of one test case's stores, removed with them when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "ah-merge-prop-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, tag: &str) -> PathBuf {
        self.0.join(format!("{tag}.store"))
    }

    fn open(&self, tag: &str) -> PerfStore {
        PerfStore::open(self.path(tag)).unwrap()
    }

    fn store_with(&self, tag: &str, keys: &[(i64, i64)]) -> PerfStore {
        let mut s = self.open(tag);
        for &k in keys {
            s.insert(record(k, cost_of(k))).unwrap();
        }
        s
    }

    /// A peer store holding `records`, written as one batch: a duplicate of
    /// a key at another cost is in its log, superseded.
    fn peer(&self, tag: &str, records: &[StoreRecord]) -> PerfStore {
        let mut s = self.open(tag);
        s.insert_batch(records.to_vec()).unwrap();
        s
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn space() -> SearchSpace {
    SearchSpace::builder()
        .int("x", 0, 63, 1)
        .int("y", 0, 63, 1)
        .build()
        .unwrap()
}

/// Deterministic cost, a pure function of the key: two servers that both
/// measured a configuration agree, so merges in any order must commute.
fn cost_of(key: (i64, i64)) -> f64 {
    (key.0 * 100 + key.1) as f64 + 0.25
}

fn record(key: (i64, i64), cost: f64) -> StoreRecord {
    let cfg = space().project(&[key.0 as f64, key.1 as f64]);
    StoreRecord::new("merge-prop", 7, cfg, cost, cost)
}

/// The live mapping a store serves: cache key → first-recorded cost bits.
fn live_map(store: &PerfStore) -> BTreeMap<CacheKey, u64> {
    store
        .live_records()
        .iter()
        .map(|r| (r.config.cache_key(), r.cost_bits))
        .collect()
}

/// Keys packed as `x * 64 + y` so the vendored strategy surface (plain
/// integer ranges) can generate them; [`unpack`] splits them back out.
fn key_strategy() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..4096, 0..40)
}

fn unpack(packed: &[i64]) -> Vec<(i64, i64)> {
    packed.iter().map(|&k| (k / 64, k % 64)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merge_is_idempotent(a in key_strategy(), b in key_strategy()) {
        let dir = Scratch::new();
        let (a, b) = (unpack(&a), unpack(&b));
        let mut dst = dir.store_with("idem-dst", &a);
        let peer = dir.store_with("idem-peer", &b);
        dst.merge_from(peer.path()).unwrap();
        let once = live_map(&dst);
        let len_once = dst.len();
        let again = dst.merge_from(peer.path()).unwrap();
        // A re-merge must append nothing.
        prop_assert_eq!(again.merged, 0);
        prop_assert_eq!(dst.len(), len_once);
        prop_assert_eq!(live_map(&dst), once);
    }

    #[test]
    fn merge_is_commutative_and_associative(
        a in key_strategy(),
        b in key_strategy(),
        c in key_strategy(),
    ) {
        let dir = Scratch::new();
        let (a, b, c) = (unpack(&a), unpack(&b), unpack(&c));
        // With agreeing costs, every grouping and order of the three
        // fleets' stores converges to the identical live mapping.
        let orders: Vec<[&[(i64, i64)]; 3]> = vec![
            [&a, &b, &c],
            [&c, &b, &a],
            [&b, &a, &c],
        ];
        let mut maps = Vec::new();
        for (i, order) in orders.iter().enumerate() {
            let mut dst = dir.store_with(&format!("comm-{i}"), order[0]);
            dst.merge_from(dir.store_with(&format!("comm-{i}-1"), order[1]).path()).unwrap();
            dst.merge_from(dir.store_with(&format!("comm-{i}-2"), order[2]).path()).unwrap();
            maps.push(live_map(&dst));
        }
        // Associativity: pre-merge (b ⊕ c), then fold into a.
        let mut bc = dir.store_with("assoc-bc", &b);
        bc.merge_from(dir.store_with("assoc-c", &c).path()).unwrap();
        let mut grouped = dir.store_with("assoc-a", &a);
        grouped.merge_from(bc.path()).unwrap();
        maps.push(live_map(&grouped));
        for m in &maps[1..] {
            prop_assert_eq!(m, &maps[0]);
        }
    }

    #[test]
    fn shuffled_batches_converge_to_one_clean_pull(
        keys in key_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let dir = Scratch::new();
        let keys = unpack(&keys);
        let mut records: Vec<StoreRecord> =
            keys.iter().map(|&k| record(k, cost_of(k))).collect();
        // Deterministic Fisher-Yates off a splitmix-style stream.
        let mut state = seed | 1;
        for i in (1..records.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            records.swap(i, (state >> 33) as usize % (i + 1));
        }
        let in_order: Vec<StoreRecord> = keys.iter().map(|&k| record(k, cost_of(k))).collect();
        let mut clean = dir.open("shuffle-clean");
        clean.merge_from(dir.peer("shuffle-all", &in_order).path()).unwrap();
        let mut chunked = dir.open("shuffle-chunked");
        for (i, chunk) in records.chunks(3).enumerate() {
            chunked.merge_from(dir.peer(&format!("shuffle-{i}"), chunk).path()).unwrap();
        }
        prop_assert_eq!(live_map(&chunked), live_map(&clean));
    }

    #[test]
    fn conflicting_costs_resolve_first_write_wins(
        keys in key_strategy(),
        delta in 1.0f64..100.0,
    ) {
        let dir = Scratch::new();
        let keys = unpack(&keys);
        let mut dst = dir.store_with("fww-dst", &keys);
        let mut peer = dir.open("fww-peer");
        for &k in &keys {
            peer.insert(record(k, cost_of(k) + delta)).unwrap();
        }
        let before = live_map(&dst);
        let unique = before.len();
        let stats = dst.merge_from(peer.path()).unwrap();
        // Every peer record collides; the local first write survives.
        prop_assert_eq!(stats.merged, 0);
        prop_assert_eq!(stats.conflicts, unique);
        prop_assert_eq!(live_map(&dst), before.clone());
        // The losing side is deterministic in the other direction too: a
        // store built from the peer keeps the *peer's* costs when dst's
        // records arrive second.
        let mut other = dir.open("fww-other");
        other.merge_from(peer.path()).unwrap();
        let peer_view = live_map(&other);
        other.merge_from(dst.path()).unwrap();
        prop_assert_eq!(live_map(&other), peer_view);
    }

    #[test]
    fn the_dry_run_counts_what_the_merge_does(
        local in proptest::collection::vec(0i64..8, 0..6),
        incoming in proptest::collection::vec(0i64..24, 0..40),
    ) {
        let dir = Scratch::new();
        // Eight keys, three possible costs each: a raw peer log, with
        // superseded duplicates, conflicting costs and keys already here.
        let local: Vec<(i64, i64)> = local.iter().map(|&k| (k, 0)).collect();
        let records: Vec<StoreRecord> = incoming
            .iter()
            .map(|&k| record((k % 8, 0), cost_of((k % 8, 0)) + (k / 8) as f64))
            .collect();
        let mut dst = dir.store_with("preview", &local);
        let peer = dir.peer("preview-peer", &records);
        let p = dst.merge_preview(peer.path()).unwrap();
        let m = dst.merge_from(peer.path()).unwrap();
        prop_assert_eq!(
            (p.scanned, p.merged, p.skipped, p.conflicts),
            (m.scanned, m.merged, m.skipped, m.conflicts)
        );
    }
}

#[test]
fn a_peers_superseded_lines_are_scanned_skipped_and_counted_as_conflicts() {
    let dir = Scratch::new();
    // Two live records, and a re-measurement of the first at another cost
    // that the peer's log keeps for provenance.
    let records = [
        record((1, 1), 1.0),
        record((2, 2), 2.0),
        record((1, 1), 9.0),
    ];
    let peer = dir.peer("superseded-peer", &records);
    assert_eq!((peer.len(), peer.live_configs()), (3, 2));
    let mut dst = dir.open("superseded-dst");
    let stats = dst.merge_from(peer.path()).unwrap();
    let counts = (stats.scanned, stats.merged, stats.skipped, stats.conflicts);
    assert_eq!(counts, (3, 2, 1, 1));
    assert_eq!(live_map(&dst), live_map(&peer));
    assert_eq!(dst.len(), 2, "the superseded line is not copied");
}

#[test]
fn torn_tail_peer_merges_its_intact_prefix() {
    let dir = Scratch::new();
    let path = dir.path("torn-peer");
    let mut peer = PerfStore::open(&path).unwrap();
    for i in 0..5 {
        peer.insert(record((i, i), cost_of((i, i)))).unwrap();
    }
    peer.flush().unwrap();
    drop(peer);
    // Tear the trailing record mid-line, like a crash during replication.
    let blob = std::fs::read(&path).unwrap();
    std::fs::write(&path, &blob[..blob.len() - 7]).unwrap();
    let peer = PerfStore::open(&path).unwrap();
    assert_eq!(peer.live_configs(), 4, "torn tail truncates one record");
    let mut dst = dir.open("torn-dst");
    let stats = dst.merge_from(peer.path()).unwrap();
    assert_eq!(stats.merged, 4);
    assert_eq!(live_map(&dst).len(), 4);
    // The re-measured tail arrives on a later pull and merges cleanly.
    let mut again = dir.open("torn-again");
    again.insert(record((4, 4), cost_of((4, 4)))).unwrap();
    dst.merge_from(again.path()).unwrap();
    assert_eq!(live_map(&dst).len(), 5);
}
