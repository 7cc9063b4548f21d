//! Property tests: a shared tuning session driven by a *faulty* worker
//! pool — crashes, lost reports, stragglers, with eviction and requeue —
//! produces the bit-identical trajectory of a fault-free serial client.
//!
//! This is the fault-tolerance contract of the server: costs are
//! deterministic functions of the configuration, trials are requeued by
//! iteration token, and the session flushes reports in proposal order, so
//! *who* measures a trial, *how many times* it is measured, and *when* the
//! report lands cannot change what the search explores.

use ah_clustersim::{FaultKind, FaultPlan};
use ah_core::prelude::*;
use ah_core::server::protocol::TrialReport;
use ah_core::server::HarmonyClient;
use proptest::prelude::*;
use std::collections::HashSet;

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

/// Ground truth: one client, no faults, strictly serial fetch/report.
fn serial_history(strategy: StrategyKind, seed: u64) -> String {
    let server = HarmonyServer::start();
    let c = server.connect("serial").unwrap();
    declare(&c);
    c.seal(options(seed), strategy).unwrap();
    loop {
        let f = c.fetch().unwrap();
        if f.finished {
            break;
        }
        c.report(objective(&f.config)).unwrap();
    }
    let (h, finished) = c.history().unwrap();
    assert!(finished);
    server.shutdown();
    serde_json::to_string(&h).unwrap()
}

/// A straggler's report, parked until `ticks` driver rounds have passed.
struct Held {
    ticks: u32,
    report: TrialReport,
}

/// The same search, tuned by a pool of faulty workers. Each trial's fate is
/// decided by the fault plan at its iteration token (first attempt only —
/// a requeued trial is re-measured normally, like a fresh worker would):
///
/// * `Crash` — the worker departs without reporting; a replacement joins.
///   The trial is requeued and re-measured by whoever claims it.
/// * `LostReport` — the measurement finishes but never reaches the server;
///   the worker departs (its connection is gone as far as the server can
///   tell) and the stale report surfaces later as a duplicate.
/// * `Straggler` — the report arrives, but several rounds late and out of
///   order with everyone else's.
fn faulty_history(strategy: StrategyKind, seed: u64, plan: FaultPlan, workers: usize) -> String {
    let server = HarmonyServer::start();
    let founder = server.connect("faulty").unwrap();
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
        // Deliver straggler/lost reports whose delay expired. The founder
        // relays them: reports are matched by iteration token, not sender.
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
                // Strategy is waiting on an outstanding report.
                continue;
            };
            if held.iter().any(|h| h.report.iteration == t.iteration) {
                // This worker is still "measuring" its straggling trial
                // (the server re-serves it until reported); skip its turn.
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
    let (h, finished) = founder.history().unwrap();
    assert!(finished);
    server.shutdown();
    serde_json::to_string(&h).unwrap()
}

fn check(strategy: StrategyKind, seed: u64, fault_seed: u64) {
    let plan = FaultPlan::new(fault_seed, 0.15, 0.10, 0.20);
    let want = serial_history(strategy.clone(), seed);
    let got = faulty_history(strategy.clone(), seed, plan, 3);
    assert_eq!(got, want, "{strategy:?} trajectory diverged under faults");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_survives_any_fault_schedule(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::Random, seed, fs);
    }

    #[test]
    fn nelder_mead_survives_any_fault_schedule(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::NelderMead, seed, fs);
    }

    #[test]
    fn pro_survives_any_fault_schedule(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::Pro, seed, fs);
    }
}

/// Edge case: a worker dies holding a *whole PRO round* fetched in one
/// batch. The round must be requeued wholesale and the trajectory still
/// match the serial run.
#[test]
fn crash_holding_a_full_batch_requeues_the_round() {
    let want = serial_history(StrategyKind::Pro, 77);
    let server = HarmonyServer::start();
    let founder = server.connect("batchy").unwrap();
    declare(&founder);
    founder.seal(options(77), StrategyKind::Pro).unwrap();
    let worker = server.attach(founder.session_id()).unwrap();
    let (round, _) = worker.fetch_batch(16).unwrap();
    assert!(round.len() > 2, "expected a multi-candidate PRO round");
    worker.leave().unwrap(); // dies holding every candidate
    loop {
        let (trials, finished) = founder.fetch_batch(16).unwrap();
        if finished {
            break;
        }
        let reports = trials
            .iter()
            .map(|t| TrialReport {
                iteration: t.iteration,
                cost: objective(&t.config),
                wall_time: objective(&t.config),
            })
            .collect();
        founder.report_batch(reports).unwrap();
    }
    let (h, _) = founder.history().unwrap();
    assert_eq!(serde_json::to_string(&h).unwrap(), want);
    server.shutdown();
}

/// Edge case: a departed worker's report arrives *after* its trials were
/// requeued and re-measured — the duplicate batch must be ignored, not
/// double-applied or treated as a protocol violation.
#[test]
fn duplicate_report_batch_after_eviction_is_ignored() {
    let want = serial_history(StrategyKind::Random, 13);
    let server = HarmonyServer::start();
    let founder = server.connect("dupes").unwrap();
    declare(&founder);
    founder.seal(options(13), StrategyKind::Random).unwrap();
    let worker = server.attach(founder.session_id()).unwrap();
    let (batch, _) = worker.fetch_batch(3).unwrap();
    assert_eq!(batch.len(), 3);
    let stale: Vec<TrialReport> = batch
        .iter()
        .map(|t| TrialReport {
            iteration: t.iteration,
            cost: objective(&t.config),
            wall_time: objective(&t.config),
        })
        .collect();
    worker.leave().unwrap(); // requeues the 3 trials
                             // Founder re-measures everything, including the requeued 3.
    for _ in 0..3 {
        let (trials, _) = founder.fetch_batch(1).unwrap();
        let t = &trials[0];
        founder
            .report_batch(vec![TrialReport {
                iteration: t.iteration,
                cost: objective(&t.config),
                wall_time: objective(&t.config),
            }])
            .unwrap();
    }
    // The dead worker's reports finally "arrive" (relayed via a member):
    // all three are stale duplicates now and must be dropped silently.
    founder.report_batch(stale).unwrap();
    loop {
        let (trials, finished) = founder.fetch_batch(4).unwrap();
        if finished {
            break;
        }
        let reports = trials
            .iter()
            .map(|t| TrialReport {
                iteration: t.iteration,
                cost: objective(&t.config),
                wall_time: objective(&t.config),
            })
            .collect();
        founder.report_batch(reports).unwrap();
    }
    let (h, _) = founder.history().unwrap();
    assert_eq!(serde_json::to_string(&h).unwrap(), want);
    server.shutdown();
}
