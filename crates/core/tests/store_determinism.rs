//! Property tests: a warm-started run answered from the persistent
//! performance store is bit-identical to the cold run that populated it —
//! even when the cold run was measured by a *faulty* worker pool.
//!
//! This is the store's correctness contract: a stored cost is
//! indistinguishable from a fresh measurement of the same configuration,
//! so serving from the database can change how long a campaign takes but
//! never what it explores or concludes. The fault half matters because the
//! store records first-reported costs under requeues, duplicates, and
//! stragglers; whatever mess produced the database, replaying it must
//! reproduce the fault-free trajectory.
//!
//! The same holds however the campaign is fetched — serially, sixteen
//! trials a request, against a store that knows only part of the campaign,
//! or past the cap on hits one request may serve — however the log is laid
//! out — two sessions' batches interleaved, or compacted in the middle of
//! the replay — and for the off-line tuner, which serves its store through
//! the same session hook.

use ah_clustersim::{FaultKind, FaultPlan};
use ah_core::offline::OfflineOutcome;
use ah_core::prelude::*;
use ah_core::server::protocol::{FetchedTrial, TrialReport};
use ah_core::server::{HarmonyClient, ServerConfig};
use ah_core::store::SharedStore;
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ah-store-det-{}-{}-{tag}.store",
        std::process::id(),
        STORE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn declare(c: &HarmonyClient) {
    c.add_param(Param::int("x", 0, 80, 1)).unwrap();
    c.add_param(Param::int("y", -30, 30, 1)).unwrap();
}

fn objective(cfg: &Configuration) -> f64 {
    let x = cfg.int("x").expect("x") as f64;
    let y = cfg.int("y").expect("y") as f64;
    (x - 52.0).powi(2) * 0.5 + (y - 7.0).powi(2)
}

fn options(seed: u64) -> SessionOptions {
    SessionOptions {
        max_evaluations: 40,
        seed,
        ..Default::default()
    }
}

fn store_server(store: &SharedStore) -> HarmonyServer {
    HarmonyServer::start_with_config(ServerConfig {
        store: Some(store.clone()),
        ..Default::default()
    })
}

/// What determinism means here: the cost sequence in proposal order plus
/// the best point. Deliberately *not* the serialized `History` — cached
/// flags and cumulative time are supposed to differ between a measured and
/// a served run; the search trajectory is not.
type Trajectory = (Vec<(usize, u64)>, CacheKey, u64);

fn trajectory(c: &HarmonyClient) -> Trajectory {
    let (h, finished) = c.history().unwrap();
    assert!(finished);
    let (best_config, best_cost) = c.best().unwrap().expect("nonempty");
    (
        h.evaluations()
            .iter()
            .map(|e| (e.iteration, e.cost.to_bits()))
            .collect(),
        best_config.cache_key(),
        best_cost.to_bits(),
    )
}

/// Ground truth: one client, no faults, no store.
fn serial_reference(strategy: StrategyKind, seed: u64) -> Trajectory {
    serial_reference_with(strategy, options(seed))
}

fn serial_reference_with(strategy: StrategyKind, options: SessionOptions) -> Trajectory {
    let server = HarmonyServer::start();
    let c = server.connect("det").unwrap();
    declare(&c);
    c.seal(options, strategy).unwrap();
    loop {
        let f = c.fetch().unwrap();
        if f.finished {
            break;
        }
        c.report(objective(&f.config)).unwrap();
    }
    let t = trajectory(&c);
    server.shutdown();
    t
}

/// A store-backed run driven serially; returns the trajectory and whether
/// every history row was served from the store.
fn store_run(strategy: StrategyKind, seed: u64, store: &SharedStore) -> (Trajectory, bool) {
    let server = store_server(store);
    let c = server.connect("det").unwrap();
    declare(&c);
    c.seal(options(seed), strategy).unwrap();
    loop {
        let f = c.fetch().unwrap();
        if f.finished {
            break;
        }
        c.report(objective(&f.config)).unwrap();
    }
    let (h, _) = c.history().unwrap();
    let all_cached = h.evaluations().iter().all(|e| e.cached);
    let t = trajectory(&c);
    server.shutdown();
    store.flush().unwrap();
    (t, all_cached)
}

/// A straggler's report, parked until `ticks` driver rounds have passed.
struct Held {
    ticks: u32,
    report: TrialReport,
}

/// The cold run at its worst: a faulty worker pool (crashes, lost reports,
/// stragglers — same driver as the fault-tolerance suite) measuring into
/// the store.
fn faulty_store_run(
    strategy: StrategyKind,
    seed: u64,
    plan: &FaultPlan,
    workers: usize,
    store: &SharedStore,
) -> Trajectory {
    let server = store_server(store);
    let founder = server.connect("det").unwrap();
    declare(&founder);
    founder.seal(options(seed), strategy).unwrap();
    let session = founder.session_id();
    let mut members: Vec<HarmonyClient> = (0..workers)
        .map(|_| server.attach(session).unwrap())
        .collect();

    let mut held: Vec<Held> = Vec::new();
    let mut faulted: HashSet<usize> = HashSet::new();
    let mut finished = false;
    let mut rounds = 0u32;
    while !finished {
        rounds += 1;
        assert!(rounds < 10_000, "faulty driver is not converging");
        for h in held.iter_mut() {
            h.ticks -= 1;
        }
        let mut due = Vec::new();
        held.retain_mut(|h| {
            if h.ticks == 0 {
                due.push(h.report.clone());
                false
            } else {
                true
            }
        });
        if !due.is_empty() {
            founder.report_batch(due).unwrap();
        }
        for member in members.iter_mut() {
            let (trials, fin) = member.fetch_batch(1).unwrap();
            if fin {
                finished = true;
                break;
            }
            let Some(t) = trials.into_iter().next() else {
                continue;
            };
            if held.iter().any(|h| h.report.iteration == t.iteration) {
                continue;
            }
            let report = TrialReport {
                iteration: t.iteration,
                cost: objective(&t.config),
                wall_time: objective(&t.config),
            };
            let fault = if faulted.insert(t.iteration) {
                plan.at(t.iteration as u64)
            } else {
                FaultKind::None
            };
            match fault {
                FaultKind::None => member.report_batch(vec![report]).unwrap(),
                FaultKind::Crash => {
                    member.leave().unwrap();
                    *member = server.attach(session).unwrap();
                }
                FaultKind::LostReport => {
                    held.push(Held { ticks: 4, report });
                    member.leave().unwrap();
                    *member = server.attach(session).unwrap();
                }
                FaultKind::Straggler { factor } => {
                    held.push(Held {
                        ticks: (factor as u32).clamp(2, 8),
                        report,
                    });
                }
            }
        }
    }
    let t = trajectory(&founder);
    server.shutdown();
    store.flush().unwrap();
    t
}

fn check(strategy: StrategyKind, seed: u64, fault_seed: u64) {
    let want = serial_reference(strategy.clone(), seed);
    let path = temp_store("prop");
    let store = SharedStore::open(&path).unwrap();

    // Cold, store-backed, measured by a faulty pool: same trajectory.
    let plan = FaultPlan::new(fault_seed, 0.15, 0.10, 0.20);
    let cold = faulty_store_run(strategy.clone(), seed, &plan, 3, &store);
    assert_eq!(cold, want, "{strategy:?} cold store run diverged");

    // Warm: the whole campaign is answered from the database the faulty
    // run left behind, and the trajectory is still bit-identical.
    let (warm, all_cached) = store_run(strategy.clone(), seed, &store);
    assert_eq!(warm, want, "{strategy:?} warm run diverged");
    assert!(all_cached, "{strategy:?} warm run re-measured something");

    // And a *reopened* store (fresh process state, recovery scan) serves
    // the identical run again.
    drop(store);
    let reopened = SharedStore::open(&path).unwrap();
    let (rewarm, all_cached) = store_run(strategy.clone(), seed, &reopened);
    assert_eq!(rewarm, want, "{strategy:?} reopened-store run diverged");
    assert!(all_cached, "{strategy:?} reopened store missed lookups");
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn warm_runs_replay_cold_runs_for_random(
        seed in 0u64..1_000_000, fs in 0u64..1_000_000
    ) {
        check(StrategyKind::Random, seed, fs);
    }

    #[test]
    fn warm_runs_replay_cold_runs_for_nelder_mead(
        seed in 0u64..1_000_000, fs in 0u64..1_000_000
    ) {
        check(StrategyKind::NelderMead, seed, fs);
    }

    #[test]
    fn warm_runs_replay_cold_runs_for_pro(
        seed in 0u64..1_000_000, fs in 0u64..1_000_000
    ) {
        check(StrategyKind::Pro, seed, fs);
    }
}

fn budget(seed: u64, max_evaluations: usize) -> SessionOptions {
    SessionOptions {
        max_evaluations,
        seed,
        ..Default::default()
    }
}

/// A store-backed run driven `batch` trials per request; returns the
/// trajectory and how many history rows the client measured.
fn batched_store_run(
    strategy: StrategyKind,
    options: SessionOptions,
    batch: usize,
    store: &SharedStore,
) -> (Trajectory, usize) {
    let server = store_server(store);
    let c = server.connect("det").unwrap();
    declare(&c);
    c.seal(options, strategy).unwrap();
    loop {
        let (trials, finished) = c.fetch_batch(batch).unwrap();
        if finished {
            break;
        }
        assert!(!trials.is_empty(), "nothing outstanding, yet no trial");
        let reports = trials
            .iter()
            .map(|t| TrialReport {
                iteration: t.iteration,
                cost: objective(&t.config),
                wall_time: objective(&t.config),
            })
            .collect();
        c.report_batch(reports).unwrap();
    }
    let (h, _) = c.history().unwrap();
    let measured = h.evaluations().iter().filter(|e| !e.cached).count();
    let t = trajectory(&c);
    server.shutdown();
    store.flush().unwrap();
    (t, measured)
}

/// Cold and warm runs fetched sixteen at a time replay the serial run.
fn check_batched(strategy: StrategyKind, seed: u64) {
    let want = serial_reference(strategy.clone(), seed);
    let path = temp_store("batched");
    let store = SharedStore::open(&path).unwrap();
    let (cold, measured) = batched_store_run(strategy.clone(), options(seed), 16, &store);
    assert_eq!(cold, want, "{strategy:?} cold batched run diverged");
    assert!(measured > 0, "{strategy:?} cold run measured nothing");
    let (warm, measured) = batched_store_run(strategy.clone(), options(seed), 16, &store);
    assert_eq!(warm, want, "{strategy:?} warm batched run diverged");
    assert_eq!(measured, 0, "{strategy:?} warm batched run re-measured");
    let _ = std::fs::remove_file(&path);
}

/// A store seeded by a 20-evaluation run serves the first part of a
/// 40-evaluation one: the first request serves those hits and hands out
/// misses, and the client measures exactly what the store lacks.
fn check_partly_warm(strategy: StrategyKind, seed: u64) {
    let want = serial_reference_with(strategy.clone(), budget(seed, 40));
    let cold_path = temp_store("partly-cold");
    let (cold, total) = batched_store_run(
        strategy.clone(),
        budget(seed, 40),
        16,
        &SharedStore::open(&cold_path).unwrap(),
    );
    assert_eq!(cold, want, "{strategy:?} cold batched run diverged");
    let path = temp_store("partly");
    let store = SharedStore::open(&path).unwrap();
    let (_, seeded) = batched_store_run(strategy.clone(), budget(seed, 20), 16, &store);
    let (warm, measured) = batched_store_run(strategy.clone(), budget(seed, 40), 16, &store);
    assert_eq!(warm, want, "{strategy:?} partly warm run diverged");
    assert_eq!(
        measured,
        total - seeded,
        "{strategy:?} measured what the store knew"
    );
    for p in [cold_path, path] {
        let _ = std::fs::remove_file(p);
    }
}

/// Every strategy a session can be sealed with.
fn server_roster() -> [StrategyKind; 7] {
    [
        StrategyKind::Random,
        StrategyKind::NelderMead,
        StrategyKind::Pro,
        StrategyKind::Grid { target: 40 },
        StrategyKind::Annealing,
        StrategyKind::Genetic,
        StrategyKind::Surrogate,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn warm_runs_replay_cold_runs_for_annealing(
        seed in 0u64..1_000_000, fs in 0u64..1_000_000
    ) {
        check(StrategyKind::Annealing, seed, fs);
    }

    #[test]
    fn warm_runs_replay_cold_runs_for_genetic(
        seed in 0u64..1_000_000, fs in 0u64..1_000_000
    ) {
        check(StrategyKind::Genetic, seed, fs);
    }

    #[test]
    fn warm_runs_replay_cold_runs_for_grid(
        seed in 0u64..1_000_000, fs in 0u64..1_000_000
    ) {
        check(StrategyKind::Grid { target: 40 }, seed, fs);
    }

    #[test]
    fn warm_runs_replay_cold_runs_for_surrogate(
        seed in 0u64..1_000_000, fs in 0u64..1_000_000
    ) {
        check(StrategyKind::Surrogate, seed, fs);
    }

    #[test]
    fn batched_warm_runs_replay_the_serial_run(seed in 0u64..1_000_000) {
        for strategy in server_roster() {
            check_batched(strategy, seed);
        }
    }

    #[test]
    fn partly_warm_batches_mix_hits_and_misses(seed in 0u64..1_000_000) {
        for strategy in server_roster() {
            check_partly_warm(strategy, seed);
        }
    }
}

#[test]
fn a_long_random_campaign_crosses_the_served_cap_mid_request() {
    let long = budget(77, 1_500);
    let want = serial_reference_with(StrategyKind::Random, long.clone());
    let path = temp_store("long");
    let store = SharedStore::open(&path).unwrap();
    let (cold, measured) = batched_store_run(StrategyKind::Random, long.clone(), 16, &store);
    assert_eq!(cold, want, "cold long run diverged");
    assert_eq!(measured, 1_500);
    // The first request serves 1 024 hits (`MAX_SERVED_PER_REQUEST` in
    // `ah_core::server`) and then hands out one batch; the second serves
    // the remaining 460 and finishes.
    let (warm, measured) = batched_store_run(StrategyKind::Random, long, 16, &store);
    assert_eq!(warm, want, "warm long run diverged");
    assert_eq!(measured, 16, "trials handed out past the served cap");
    let _ = std::fs::remove_file(&path);
}

/// Measure a fetched batch with the objective.
fn measure(trials: &[FetchedTrial]) -> Vec<TrialReport> {
    trials
        .iter()
        .map(|t| TrialReport {
            iteration: t.iteration,
            cost: objective(&t.config),
            wall_time: objective(&t.config),
        })
        .collect()
}

/// Two sessions under two labels, sixteen trials a request in turn on one
/// server, so that a cold pair writes the store's log as interleaved runs
/// of one batch each. Returns both trajectories and how many history rows
/// the clients measured.
fn interleaved_store_run(
    strategy: StrategyKind,
    seeds: [u64; 2],
    store: &SharedStore,
) -> (Vec<Trajectory>, usize) {
    let server = store_server(store);
    let clients: Vec<HarmonyClient> = ["det", "det-other"]
        .into_iter()
        .zip(seeds)
        .map(|(app, seed)| {
            let c = server.connect(app).unwrap();
            declare(&c);
            c.seal(budget(seed, 200), strategy.clone()).unwrap();
            c
        })
        .collect();
    let mut finished = [false; 2];
    while finished.contains(&false) {
        for (c, finished) in clients.iter().zip(finished.iter_mut()) {
            if *finished {
                continue;
            }
            let (trials, fin) = c.fetch_batch(16).unwrap();
            *finished = fin;
            if !fin {
                c.report_batch(measure(&trials)).unwrap();
            }
        }
    }
    let measured = clients
        .iter()
        .map(|c| c.history().unwrap().0)
        .map(|h| h.evaluations().iter().filter(|e| !e.cached).count())
        .sum();
    let trajectories = clients.iter().map(trajectory).collect();
    server.shutdown();
    store.flush().unwrap();
    (trajectories, measured)
}

/// A warm pair replays a log whose two campaigns interleave batch by batch.
fn check_interleaved(strategy: StrategyKind, seed: u64) {
    let seeds = [seed, seed ^ 0x5eed];
    let want: Vec<Trajectory> = seeds
        .iter()
        .map(|&s| serial_reference_with(strategy.clone(), budget(s, 200)))
        .collect();
    let path = temp_store("interleaved");
    let store = SharedStore::open(&path).unwrap();
    let (cold, measured) = interleaved_store_run(strategy.clone(), seeds, &store);
    assert_eq!(cold, want, "{strategy:?} cold interleaved pair diverged");
    assert!(measured > 0, "{strategy:?} cold pair measured nothing");
    let (warm, measured) = interleaved_store_run(strategy.clone(), seeds, &store);
    assert_eq!(warm, want, "{strategy:?} warm interleaved pair diverged");
    assert_eq!(
        measured, 0,
        "{strategy:?} warm interleaved pair re-measured"
    );
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn warm_pairs_replay_a_log_of_interleaved_batches(seed in 0u64..1_000_000) {
        for strategy in server_roster() {
            check_interleaved(strategy, seed);
        }
    }
}

#[test]
fn a_warm_replay_across_a_compaction_replays_the_cold_run() {
    let long = budget(78, 1_500);
    let want = serial_reference_with(StrategyKind::Random, long.clone());
    let path = temp_store("compacted");
    let store = SharedStore::open(&path).unwrap();
    // Ahead of the campaign, another application's records, each followed
    // by a superseded re-measurement: compacting drops the forty
    // re-measurements and moves every record of the campaign down by forty.
    let space = Bowl { runs: 0 }.space();
    let fp = space_fingerprint(&space);
    let other: Vec<StoreRecord> = (0..40)
        .flat_map(|x| {
            let cfg = space.project(&[x as f64, 0.0]);
            [1.0, 2.0].map(|cost| StoreRecord::new("other", fp, cfg.clone(), cost, cost))
        })
        .collect();
    assert_eq!(store.insert_batch(other).unwrap(), 80);
    let (cold, measured) = batched_store_run(StrategyKind::Random, long.clone(), 16, &store);
    assert_eq!(cold, want, "cold long run diverged");
    assert_eq!(measured, 1_500);

    // The first request serves 1 024 hits; the compaction then moves the
    // records the other 476 are served from.
    let server = store_server(&store);
    let c = server.connect("det").unwrap();
    declare(&c);
    c.seal(long, StrategyKind::Random).unwrap();
    let (mut measured, mut compactions) = (0, 0);
    loop {
        let (trials, finished) = c.fetch_batch(16).unwrap();
        if finished {
            break;
        }
        if compactions == 0 {
            let stats = store.with(|s| s.compact()).unwrap();
            assert_eq!(stats.records_before - stats.records_after, 40);
            compactions += 1;
        }
        measured += trials.len();
        c.report_batch(measure(&trials)).unwrap();
    }
    assert_eq!(compactions, 1);
    assert_eq!(
        trajectory(&c),
        want,
        "warm run across the compaction diverged"
    );
    assert_eq!(measured, 16, "trials handed out past the served cap");
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// The off-line tuner's short-run application over the same space and
/// objective.
struct Bowl {
    runs: usize,
}

impl ShortRunApp for Bowl {
    fn space(&self) -> SearchSpace {
        SearchSpace::builder()
            .int("x", 0, 80, 1)
            .int("y", -30, 30, 1)
            .build()
            .unwrap()
    }

    fn default_config(&self) -> Configuration {
        self.space().center()
    }

    fn run_short(&mut self, config: &Configuration) -> RunMeasurement {
        self.runs += 1;
        RunMeasurement {
            exec_time: objective(config),
            warmup_time: 1.0,
            restart_cost: 0.5,
        }
    }
}

type Build = fn(&SearchSpace) -> Box<dyn SearchStrategy>;

/// The nine strategies `repro leaderboard` races, each built fresh. Greedy
/// and exhaustive have no `StrategyKind`, so the server cannot seal them;
/// the off-line tuner serves its store through the same session hook.
const ROSTER: [(&str, Build); 9] = [
    ("random", |_| Box::new(RandomSearch::new())),
    ("grid", |_| Box::new(GridSearch::new(40))),
    ("exhaustive", |_| Box::new(Exhaustive::new(10_000))),
    ("greedy", |sp| {
        Box::new(GreedyFrom::new(
            sp.embed(&sp.center()).expect("the centre embeds"),
            GreedyOptions::default(),
        ))
    }),
    ("nelder-mead", |_| Box::new(NelderMead::default())),
    ("pro", |_| Box::new(ParallelRankOrder::default())),
    ("annealing", |_| Box::new(Annealing::default())),
    ("genetic", |_| Box::new(Genetic::default())),
    ("surrogate", |_| Box::new(Surrogate::default())),
];

/// `(iteration, cache key, cost bits)` of every history row.
fn rows(outcome: &OfflineOutcome) -> Vec<(usize, CacheKey, u64)> {
    outcome
        .result
        .history
        .evaluations()
        .iter()
        .map(|e| (e.iteration, e.config.cache_key(), e.cost.to_bits()))
        .collect()
}

#[test]
fn offline_warm_campaigns_replay_cold_ones_for_the_whole_roster() {
    let space = Bowl { runs: 0 }.space();
    for (name, build) in ROSTER {
        let tuner = || OfflineTuner::new(options(41));
        let want = rows(&tuner().tune(&mut Bowl { runs: 0 }, build(&space)));
        let path = temp_store("offline");
        let store = SharedStore::open(&path).unwrap();
        let cold = tuner()
            .with_store(store.clone(), "det")
            .tune(&mut Bowl { runs: 0 }, build(&space));
        assert_eq!(
            rows(&cold),
            want,
            "{name}: cold store-backed campaign diverged"
        );
        let mut app = Bowl { runs: 0 };
        let warm = tuner()
            .with_store(store, "det")
            .tune(&mut app, build(&space));
        assert_eq!(rows(&warm), want, "{name}: warm campaign diverged");
        assert_eq!(app.runs, 0, "{name}: warm campaign ran the application");
        assert_eq!(warm.tuning_time, 0.0);
        assert_eq!(warm.store_hits, warm.result.evaluations + 1);
        assert!(warm
            .result
            .history
            .evaluations()
            .iter()
            .all(|e| e.cached && e.cumulative_time == 0.0));
        let _ = std::fs::remove_file(&path);
    }
}
