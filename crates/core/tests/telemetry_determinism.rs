//! Property test for the telemetry contract: observation is deterministic
//! and complete.
//!
//! Running the same faulty tuning session twice — same strategy, session
//! seed, and fault plan — must record the identical lifecycle event
//! sequence and identical counter totals. Telemetry is a pure observer: it
//! cannot perturb the trajectory, and a faulted run's trace is exactly
//! reproducible from its seeds. Wall-clock fields (event timestamps,
//! latency histograms) are excluded from the comparison; everything else
//! is covered.

use ah_clustersim::{FaultKind, FaultPlan};
use ah_core::prelude::*;
use ah_core::server::protocol::TrialReport;
use ah_core::server::{HarmonyClient, ServerConfig};
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

/// A straggler's report, parked until `ticks` driver rounds have passed.
struct Held {
    ticks: u32,
    report: TrialReport,
}

/// One full faulty run (the `fault_tolerance.rs` harness) observed through
/// an enabled telemetry handle. Returns everything deterministic about the
/// observation: the lifecycle event sequence, the counter totals, and the
/// history JSON.
type Observation = (
    Vec<(TrialStage, usize, Option<&'static str>)>,
    Vec<(&'static str, u64)>,
    String,
);

fn observed_faulty_run(strategy: StrategyKind, seed: u64, plan: FaultPlan) -> Observation {
    let telemetry = Telemetry::enabled();
    let server = HarmonyServer::start_with_config(ServerConfig {
        telemetry: telemetry.clone(),
        ..Default::default()
    });
    let founder = server.connect("observed").unwrap();
    declare(&founder);
    founder
        .seal(
            SessionOptions {
                max_evaluations: 40,
                seed,
                ..Default::default()
            },
            strategy,
        )
        .unwrap();
    let session = founder.session_id();
    let mut members: Vec<HarmonyClient> = (0..3).map(|_| server.attach(session).unwrap()).collect();

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
                plan.at_observed(t.iteration as u64, &telemetry)
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
    (
        telemetry.lifecycle(),
        telemetry.counters(),
        serde_json::to_string(&h).unwrap(),
    )
}

fn check(strategy: StrategyKind, seed: u64, fault_seed: u64) {
    let plan = FaultPlan::new(fault_seed, 0.15, 0.10, 0.20);
    let (events_a, counters_a, history_a) = observed_faulty_run(strategy.clone(), seed, plan);
    let (events_b, counters_b, history_b) = observed_faulty_run(strategy.clone(), seed, plan);
    assert_eq!(
        events_a, events_b,
        "{strategy:?}: lifecycle event sequence diverged between identical runs"
    );
    assert_eq!(
        counters_a, counters_b,
        "{strategy:?}: counter totals diverged between identical runs"
    );
    assert_eq!(history_a, history_b, "{strategy:?}: trajectory diverged");

    // Completeness: every proposed trial must eventually be reported, and
    // every recorded requeue/eviction/fault must carry a cause.
    let proposed: HashSet<usize> = events_a
        .iter()
        .filter(|(s, _, _)| *s == TrialStage::Proposed)
        .map(|&(_, i, _)| i)
        .collect();
    let reported: HashSet<usize> = events_a
        .iter()
        .filter(|(s, _, _)| *s == TrialStage::Reported)
        .map(|&(_, i, _)| i)
        .collect();
    assert_eq!(
        proposed, reported,
        "{strategy:?}: some proposed trials were never reported"
    );
    for (stage, iteration, cause) in &events_a {
        if matches!(
            stage,
            TrialStage::Requeued | TrialStage::Evicted | TrialStage::Faulted
        ) {
            assert!(
                cause.is_some(),
                "{strategy:?}: {stage:?} of trial {iteration} has no cause"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_observation_is_deterministic(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::Random, seed, fs);
    }

    #[test]
    fn nelder_mead_observation_is_deterministic(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::NelderMead, seed, fs);
    }

    #[test]
    fn pro_observation_is_deterministic(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::Pro, seed, fs);
    }
}
