//! Property tests: driving a session through `suggest_batch`/`report`
//! produces the *bit-identical* trajectory of the serial
//! `suggest`/`report` loop, for any seed and batch size. This is the
//! contract that lets the server hand a whole round of candidates to a
//! client in one `Configs` frame without changing what gets explored.
//!
//! The same holds one layer up: every client request that moves trials is
//! an `Exchange`, and a serial `fetch`/`report` is its batch of one, so a
//! session driven by `fetch`/`report`, by `fetch_batch(1)`/`report_batch`
//! and a bare [`TuningSession`] must agree row for row, with or without a
//! performance store answering some trials.

use ah_core::prelude::*;
use ah_core::server::protocol::TrialReport;
use ah_core::strategy::SearchStrategy;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn space() -> SearchSpace {
    SearchSpace::builder()
        .int("x", 0, 120, 1)
        .int("y", -20, 20, 1)
        .build()
        .expect("valid space")
}

fn objective(cfg: &Configuration) -> f64 {
    let x = cfg.int("x").expect("x") as f64;
    let y = cfg.int("y").expect("y") as f64;
    (x - 37.0).powi(2) * 0.25 + (y + 3.0).abs()
}

fn session(strategy: Box<dyn SearchStrategy>, seed: u64) -> TuningSession {
    TuningSession::new(
        space(),
        strategy,
        SessionOptions {
            max_evaluations: 60,
            seed,
            ..Default::default()
        },
    )
}

fn run_serial(mut s: TuningSession) -> TuningResult {
    while let Some(trial) = s.suggest() {
        let cost = objective(&trial.config);
        s.report(trial, cost).expect("serial report");
    }
    s.result()
}

fn run_batched(mut s: TuningSession, batch: usize) -> TuningResult {
    loop {
        let trials = s.suggest_batch(batch);
        if trials.is_empty() {
            break;
        }
        for t in trials {
            let cost = objective(&t.config);
            // The session may stop mid-batch; later trials of the batch
            // were dropped and reporting them is a harmless error.
            let _ = s.report(t, cost);
        }
    }
    s.result()
}

fn assert_identical(serial: &TuningResult, batched: &TuningResult, label: &str) {
    assert_eq!(
        serial.history.len(),
        batched.history.len(),
        "{label}: history length"
    );
    for (a, b) in serial
        .history
        .evaluations()
        .iter()
        .zip(batched.history.evaluations())
    {
        assert_eq!(a.iteration, b.iteration, "{label}: iteration");
        assert_eq!(
            a.config.cache_key(),
            b.config.cache_key(),
            "{label}: config at iteration {}",
            a.iteration
        );
        assert_eq!(
            a.cost.to_bits(),
            b.cost.to_bits(),
            "{label}: cost at iteration {}",
            a.iteration
        );
        assert_eq!(a.cached, b.cached, "{label}: cached at {}", a.iteration);
    }
    assert_eq!(
        serial.best_cost.to_bits(),
        batched.best_cost.to_bits(),
        "{label}: best cost"
    );
    assert_eq!(
        serial.best_config.cache_key(),
        batched.best_config.cache_key(),
        "{label}: best config"
    );
}

/// Store label of the server-driven sessions below.
const APP: &str = "fold";

/// `(iteration, configuration, cost bits)` per history row: what a store may
/// not change (the `cached` flag and the charged wall time it may).
type Rows = Vec<(usize, CacheKey, u64)>;

fn rows(history: &History) -> Rows {
    history
        .evaluations()
        .iter()
        .map(|e| (e.iteration, e.config.cache_key(), e.cost.to_bits()))
        .collect()
}

/// A fresh store holding the first `known` measurements of `reference`.
fn prefilled_store(reference: &History, known: usize) -> (SharedStore, std::path::PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "ah-fold-{}-{}.store",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    let store = SharedStore::open(&path).expect("open store");
    let fingerprint = space_fingerprint(&space());
    let records = reference.evaluations()[..known]
        .iter()
        .map(|e| StoreRecord::new(APP, fingerprint, e.config.clone(), e.cost, 0.0))
        .collect();
    store.insert_batch(records).expect("prefill");
    (store, path)
}

/// One session on a server, driven either by the serial requests
/// or by batches of one. Returns its history and how many trials the client
/// measured.
fn run_server(
    strategy: StrategyKind,
    seed: u64,
    store: Option<SharedStore>,
    serial: bool,
) -> (History, usize) {
    let server = HarmonyServer::start_with_config(ServerConfig {
        store,
        ..Default::default()
    });
    let c = server.connect(APP).unwrap();
    c.add_param(Param::int("x", 0, 120, 1)).unwrap();
    c.add_param(Param::int("y", -20, 20, 1)).unwrap();
    c.seal(
        SessionOptions {
            max_evaluations: 60,
            seed,
            ..Default::default()
        },
        strategy,
    )
    .unwrap();
    let mut measured = 0;
    loop {
        if serial {
            let f = c.fetch().unwrap();
            if f.finished {
                break;
            }
            c.report(objective(&f.config)).unwrap();
        } else {
            let (trials, finished) = c.fetch_batch(1).unwrap();
            if finished {
                break;
            }
            assert_eq!(trials.len(), 1, "a lone member is never kept waiting");
            let cost = objective(&trials[0].config);
            c.report_batch(vec![TrialReport {
                iteration: trials[0].iteration,
                cost,
                wall_time: cost,
            }])
            .unwrap();
        }
        measured += 1;
    }
    let (history, finished) = c.history().unwrap();
    assert!(finished);
    server.shutdown();
    (history, measured)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serial requests, batches of one and a bare session walk the same
    /// trajectory; a store that already knows the first rows only moves
    /// them from the client to the server.
    #[test]
    fn server_serial_and_batch_of_one_equal_a_bare_session(
        seed in 0u64..1_000_000,
        kind in 0usize..3,
    ) {
        let strategy =
            [StrategyKind::Random, StrategyKind::NelderMead, StrategyKind::Pro][kind].clone();
        let bare = run_serial(session(strategy.build(), seed)).history;
        let want = rows(&bare);
        let fresh = bare.evaluations().iter().filter(|e| !e.cached).count();
        for serial in [true, false] {
            let (history, measured) = run_server(strategy.clone(), seed, None, serial);
            assert_eq!(rows(&history), want, "{strategy:?} serial={serial} without a store");
            assert_eq!(measured, fresh);

            let (store, path) = prefilled_store(&bare, bare.len() / 2);
            let (history, measured) = run_server(strategy.clone(), seed, Some(store), serial);
            let _ = std::fs::remove_file(&path);
            assert_eq!(rows(&history), want, "{strategy:?} serial={serial} on a filled store");
            assert!(measured < fresh, "the store answered nothing ({measured} measured)");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random search: proposals depend only on the rng stream, so any
    /// batch size must replay the serial trajectory exactly.
    #[test]
    fn random_batched_equals_serial(seed in 0u64..1_000_000, batch in 1usize..32) {
        let serial = run_serial(session(Box::new(RandomSearch::new()), seed));
        let batched = run_batched(session(Box::new(RandomSearch::new()), seed), batch);
        assert_identical(&serial, &batched, "random");
    }

    /// Nelder–Mead: every proposal depends on the previous result, so
    /// batches degrade to size one — and the trajectory still must not
    /// drift by a bit.
    #[test]
    fn nelder_mead_batched_equals_serial(seed in 0u64..1_000_000, batch in 1usize..32) {
        let serial = run_serial(session(Box::new(NelderMead::default()), seed));
        let batched = run_batched(session(Box::new(NelderMead::default()), seed), batch);
        assert_identical(&serial, &batched, "nelder-mead");
    }
}
