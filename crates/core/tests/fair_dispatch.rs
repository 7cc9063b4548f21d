//! Property test for tenant fairness.
//!
//! The dispatch contract: whatever other tenants do to a server, a
//! tenant's own tuning trajectory is exactly what it would have been on an
//! idle server. A small tenant's campaign runs once solo and once while a
//! noisy tenant keeps the same server saturated with concurrent sessions;
//! the two histories must match bit for bit, and the contended run must
//! actually finish (each session is its own lock, so the small tenant
//! never waits behind the noisy tenant's backlog).

use ah_core::prelude::*;
use ah_core::server::protocol::{StrategyKind, TrialReport};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn run_campaign(server: &HarmonyServer, app: &str, tenant: &str, seed: u64) -> History {
    let c = server.connect_as(app, tenant).unwrap();
    c.add_param(Param::int("x", 0, 90, 1)).unwrap();
    c.seal(
        SessionOptions {
            max_evaluations: 25,
            seed,
            ..Default::default()
        },
        StrategyKind::NelderMead,
    )
    .unwrap();
    loop {
        let (trials, finished) = c.fetch_batch(3).unwrap();
        if finished {
            break;
        }
        let reports = trials
            .iter()
            .map(|t| TrialReport {
                iteration: t.iteration,
                cost: (t.config.int("x").unwrap() as f64 - 31.0).powi(2),
                wall_time: 0.0,
            })
            .collect();
        c.report_batch(reports).unwrap();
    }
    let (h, finished) = c.history().unwrap();
    assert!(finished);
    c.leave().unwrap();
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tenant_trajectory_is_bit_identical_to_its_solo_run(
        seed in 1u64..10_000,
        noisy in 2usize..7,
    ) {
        // Solo reference: the small tenant alone on the server.
        let solo_server = HarmonyServer::start();
        let solo = run_campaign(&solo_server, "victim", "small", seed);
        solo_server.shutdown();

        // Contended run: `noisy` clients of a big tenant hammer the same
        // server with endless fetch/report traffic the whole time.
        let server = HarmonyServer::start();
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..noisy)
            .map(|i| {
                let c = server
                    .connect_as(format!("noise-{i}"), "big")
                    .unwrap();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    c.add_param(Param::int("x", 0, 1000, 1)).unwrap();
                    c.seal(
                        SessionOptions {
                            max_evaluations: usize::MAX / 4,
                            seed: i as u64 + 1,
                            ..Default::default()
                        },
                        StrategyKind::Random,
                    )
                    .unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        let (trials, _) = c.fetch_batch(4).unwrap();
                        let reports = trials
                            .iter()
                            .map(|t| TrialReport {
                                iteration: t.iteration,
                                cost: 1.0,
                                wall_time: 0.0,
                            })
                            .collect();
                        c.report_batch(reports).unwrap();
                    }
                    c.leave().unwrap();
                })
            })
            .collect();
        let contended = run_campaign(&server, "victim", "small", seed);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();

        prop_assert_eq!(solo.len(), contended.len());
        for (a, b) in solo.evaluations().iter().zip(contended.evaluations()) {
            prop_assert_eq!(a.iteration, b.iteration);
            prop_assert_eq!(a.config.cache_key(), b.config.cache_key());
            prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
    }
}
