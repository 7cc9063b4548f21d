//! Property tests: the TCP front-end is *semantically invisible* — a
//! seeded campaign driven through the readiness event loop under a fault
//! schedule (worker sockets dying mid-iteration, replacements attaching
//! back in) produces the bit-identical tuning trajectory of a fault-free
//! serial in-process run. Multiplexing is a throughput optimisation, never
//! a behavioural change. So is the serial client's exchange, which reports
//! a trial and fetches the next in one round trip: driven through
//! `fetch`/`report`, alone or handing over to another member mid-campaign,
//! every strategy retraces the in-process run.

use ah_clustersim::{FaultKind, FaultPlan};
use ah_core::prelude::*;
use ah_core::server::protocol::TrialReport;
use ah_core::server::{TcpHarmonyClient, TcpHarmonyServer};
use proptest::prelude::*;

fn objective(cfg: &Configuration) -> f64 {
    let x = cfg.int("x").expect("x") as f64;
    let y = cfg.int("y").expect("y") as f64;
    (x - 52.0).powi(2) * 0.5 + (y - 7.0).powi(2)
}

fn options(seed: u64) -> SessionOptions {
    SessionOptions {
        max_evaluations: 30,
        seed,
        ..Default::default()
    }
}

/// Ground truth: one in-process client, no sockets, no faults.
fn serial_history(strategy: StrategyKind, seed: u64) -> String {
    let server = HarmonyServer::start();
    let c = server.connect("serial").unwrap();
    c.add_param(Param::int("x", 0, 80, 1)).unwrap();
    c.add_param(Param::int("y", -30, 30, 1)).unwrap();
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

/// A TCP server and the client that founded the campaign's session on it.
fn founded(strategy: StrategyKind, seed: u64) -> (TcpHarmonyServer, TcpHarmonyClient) {
    let server = TcpHarmonyServer::bind_with_limit("127.0.0.1:0", 64).expect("bind");
    let mut founder = TcpHarmonyClient::connect(server.local_addr(), "equiv").unwrap();
    founder.add_param(Param::int("x", 0, 80, 1)).unwrap();
    founder.add_param(Param::int("y", -30, 30, 1)).unwrap();
    founder.seal(options(seed), strategy).unwrap();
    (server, founder)
}

/// The same campaign over TCP: a founder plus three workers fetching one
/// trial at a time. The fault plan picks iterations whose worker *crashes*
/// — the socket is dropped with no goodbye, the server front-end notices
/// the dead connection and departs its client, which requeues the held
/// trial, and a replacement worker attaches to the session.
fn tcp_history(strategy: StrategyKind, seed: u64, plan: &FaultPlan) -> String {
    let (server, mut founder) = founded(strategy, seed);
    let addr = server.local_addr();
    let session = founder.session_id();
    let mut workers: Vec<TcpHarmonyClient> = (0..3)
        .map(|_| TcpHarmonyClient::attach(addr, session).unwrap())
        .collect();

    let mut crashed = std::collections::HashSet::new();
    let mut finished = false;
    let mut rounds = 0u32;
    while !finished {
        rounds += 1;
        assert!(rounds < 10_000, "tcp driver is not converging");
        for worker in workers.iter_mut() {
            let (trials, fin) = worker.fetch_batch(1).unwrap();
            if fin {
                finished = true;
                break;
            }
            let Some(t) = trials.into_iter().next() else {
                continue; // strategy waiting on an outstanding report
            };
            // Only the *first* attempt at an iteration can crash; the
            // requeued trial is re-measured normally.
            let crash = matches!(plan.at(t.iteration as u64), FaultKind::Crash)
                && crashed.insert(t.iteration);
            if crash {
                // Dead socket, no goodbye: the transport must depart the
                // client and requeue the held trial.
                let dead =
                    std::mem::replace(worker, TcpHarmonyClient::attach(addr, session).unwrap());
                drop(dead);
            } else {
                worker
                    .report_batch(vec![TrialReport {
                        iteration: t.iteration,
                        cost: objective(&t.config),
                        wall_time: objective(&t.config),
                    }])
                    .unwrap();
            }
        }
    }
    let (h, fin) = founder.history().unwrap();
    assert!(fin);
    founder.close();
    for w in workers {
        w.close();
    }
    server.shutdown();
    serde_json::to_string(&h).unwrap()
}

/// The strategies a serial client drives, PRO's rounds included.
const SERIAL_ROSTER: [StrategyKind; 6] = [
    StrategyKind::Random,
    StrategyKind::NelderMead,
    StrategyKind::Annealing,
    StrategyKind::Genetic,
    StrategyKind::Surrogate,
    StrategyKind::Pro,
];

/// The same campaign through the serial TCP calls: `fetch`, then `report`,
/// which carries the next fetch in its exchange. With `handover = Some(k)`
/// an attached member measures the first `k` trials and leaves holding the
/// trial its last report brought back; the server requeues it and the
/// founder's first fetch claims it.
fn tcp_serial_history(strategy: StrategyKind, seed: u64, handover: Option<usize>) -> String {
    let (server, mut founder) = founded(strategy, seed);
    if let Some(k) = handover {
        let mut worker =
            TcpHarmonyClient::attach(server.local_addr(), founder.session_id()).unwrap();
        for _ in 0..k {
            let (config, finished) = worker.fetch().unwrap();
            assert!(!finished, "the handover comes before the budget is spent");
            worker.report(objective(&config)).unwrap();
        }
        worker.leave().unwrap();
    }
    loop {
        let (config, finished) = founder.fetch().unwrap();
        if finished {
            break;
        }
        founder.report(objective(&config)).unwrap();
    }
    let (h, finished) = founder.history().unwrap();
    assert!(finished);
    founder.close();
    server.shutdown();
    serde_json::to_string(&h).unwrap()
}

fn check(strategy: StrategyKind, seed: u64, fault_seed: u64) {
    let plan = FaultPlan::new(fault_seed, 0.2, 0.0, 0.0);
    let want = serial_history(strategy.clone(), seed);
    let event_loop = tcp_history(strategy.clone(), seed, &plan);
    assert_eq!(
        event_loop, want,
        "{strategy:?} TCP trajectory diverged from the serial run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_is_transport_invariant(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::Random, seed, fs);
    }

    #[test]
    fn nelder_mead_is_transport_invariant(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::NelderMead, seed, fs);
    }

    #[test]
    fn annealing_is_transport_invariant(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::Annealing, seed, fs);
    }

    #[test]
    fn genetic_is_transport_invariant(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        check(StrategyKind::Genetic, seed, fs);
    }

    #[test]
    fn surrogate_is_transport_invariant(seed in 0u64..1_000_000, fs in 0u64..1_000_000) {
        // Surrogate interleaves model-argmin proposals with its fallback
        // inner strategy; both sides must replay identically over sockets.
        check(StrategyKind::Surrogate, seed, fs);
    }

    #[test]
    fn serial_fetch_and_report_are_transport_invariant(seed in 0u64..1_000_000) {
        for strategy in SERIAL_ROSTER {
            let want = serial_history(strategy.clone(), seed);
            let got = tcp_serial_history(strategy.clone(), seed, None);
            assert_eq!(got, want, "{strategy:?}: serial TCP diverged");
        }
    }

    #[test]
    fn a_member_leaving_with_a_prefetched_trial_is_transport_invariant(
        seed in 0u64..1_000_000,
        k in 1usize..10,
    ) {
        for strategy in SERIAL_ROSTER {
            let want = serial_history(strategy.clone(), seed);
            let got = tcp_serial_history(strategy.clone(), seed, Some(k));
            assert_eq!(got, want, "{strategy:?}: handover after {k} diverged");
        }
    }
}

#[test]
fn pro_batches_are_transport_invariant() {
    // PRO serves whole rounds through one `Exchange` — the largest frames the
    // protocol produces, a good workout for the incremental decoder and
    // the event loop's write buffering.
    let want = serial_history(StrategyKind::Pro, 4242);
    let plan = FaultPlan::new(99, 0.2, 0.0, 0.0);
    let event_loop = tcp_history(StrategyKind::Pro, 4242, &plan);
    assert_eq!(event_loop, want);
}

/// Load imbalance of a four-way split of 40 rows at the boundaries
/// `b0 ≤ b1 ≤ b2`: the slowest part's weighted row count.
fn imbalance(cfg: &Configuration) -> f64 {
    let b: Vec<i64> = ["b0", "b1", "b2"]
        .iter()
        .map(|n| cfg.int(n).expect("boundary"))
        .collect();
    let edges = [0, b[0], b[1], b[2], 40];
    let weights = [1.0, 1.5, 0.8, 1.2];
    (0..4)
        .map(|i| weights[i] * (edges[i + 1] - edges[i]) as f64)
        .fold(0.0, f64::max)
}

fn boundaries() -> Vec<Param> {
    ["b0", "b1", "b2"]
        .iter()
        .map(|n| Param::int(*n, 1, 39, 1))
        .collect()
}

fn chained(cfg: &Configuration) -> bool {
    let b = |n| cfg.int(n).expect("boundary");
    b("b0") <= b("b1") && b("b1") <= b("b2")
}

/// `(iteration, configuration, cost bits, cached)` per evaluation.
fn rows(h: &History) -> Vec<(usize, Vec<i64>, u64, bool)> {
    h.evaluations()
        .iter()
        .map(|e| {
            (
                e.iteration,
                e.config.cache_key(),
                e.cost.to_bits(),
                e.cached,
            )
        })
        .collect()
}

/// A monotone chain declared through either client is the chain a local
/// session tunes under: every fetched configuration satisfies it and the
/// history is the local one to the bit. A chain naming a parameter the
/// session does not have is refused at `Seal` with a typed error, and the
/// session answers later requests with errors, not a panic.
#[test]
fn a_declared_monotone_chain_is_served_as_a_local_session_tunes_it() {
    for strategy in [StrategyKind::NelderMead, StrategyKind::Genetic] {
        let space = boundaries()
            .into_iter()
            .fold(SearchSpace::builder(), |b, p| b.param(p))
            .constraint(MonotoneChain::new(["b0", "b1", "b2"]))
            .build()
            .unwrap();
        let want = rows(
            &TuningSession::new(space, strategy.build(), options(17))
                .run(imbalance)
                .history,
        );

        let server = HarmonyServer::start();
        let c = server.connect("chain").unwrap();
        for p in boundaries() {
            c.add_param(p).unwrap();
        }
        c.add_monotone_chain(["b0", "b1", "b2"]).unwrap();
        c.seal(options(17), strategy.clone()).unwrap();
        loop {
            let f = c.fetch().unwrap();
            assert!(chained(&f.config), "{strategy:?} fetched {}", f.config);
            if f.finished {
                break;
            }
            c.report(imbalance(&f.config)).unwrap();
        }
        assert_eq!(
            rows(&c.history().unwrap().0),
            want,
            "{strategy:?} in-process"
        );
        server.shutdown();

        let server = TcpHarmonyServer::bind_with_limit("127.0.0.1:0", 4).expect("bind");
        let mut c = TcpHarmonyClient::connect(server.local_addr(), "chain").unwrap();
        for p in boundaries() {
            c.add_param(p).unwrap();
        }
        c.add_monotone_chain(["b0", "b1", "b2"]).unwrap();
        c.seal(options(17), strategy.clone()).unwrap();
        loop {
            let (config, finished) = c.fetch().unwrap();
            assert!(chained(&config), "{strategy:?} fetched {config} over TCP");
            if finished {
                break;
            }
            c.report(imbalance(&config)).unwrap();
        }
        assert_eq!(rows(&c.history().unwrap().0), want, "{strategy:?} over TCP");
        c.close();
        server.shutdown();
    }

    let refused = |e: HarmonyError| match e {
        HarmonyError::Protocol(m) => assert!(m.contains("b9"), "{m}"),
        other => panic!("expected a protocol error naming b9, got {other:?}"),
    };
    let server = HarmonyServer::start();
    let c = server.connect("bad-chain").unwrap();
    for p in boundaries() {
        c.add_param(p).unwrap();
    }
    c.add_monotone_chain(["b0", "b9"]).unwrap();
    refused(c.seal(options(17), StrategyKind::NelderMead).unwrap_err());
    refused(c.seal(options(17), StrategyKind::NelderMead).unwrap_err());
    assert!(matches!(c.fetch(), Err(HarmonyError::Protocol(_))));
    server.shutdown();

    let server = TcpHarmonyServer::bind_with_limit("127.0.0.1:0", 4).expect("bind");
    let mut c = TcpHarmonyClient::connect(server.local_addr(), "bad-chain").unwrap();
    for p in boundaries() {
        c.add_param(p).unwrap();
    }
    c.add_monotone_chain(["b0", "b9"]).unwrap();
    refused(c.seal(options(17), StrategyKind::NelderMead).unwrap_err());
    refused(c.seal(options(17), StrategyKind::NelderMead).unwrap_err());
    assert!(matches!(c.fetch(), Err(HarmonyError::Protocol(_))));
    c.close();
    server.shutdown();
}
