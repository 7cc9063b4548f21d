//! Integration test: the event loop's idle-timeout reaper. A worker that
//! goes silent while holding trials is indistinguishable from a hung node
//! on the paper's clusters — the loop must reap its connection, its
//! departure must requeue the held trials through the existing eviction
//! path, and the churn must be visible in telemetry.

use ah_core::prelude::*;
use ah_core::server::protocol::TrialReport;
use ah_core::server::{
    EventLoopConfig, ServerConfig, TcpHarmonyClient, TcpHarmonyServer, TcpTransport,
};
use ah_core::telemetry::{Counter, Telemetry};
use std::time::Duration;

#[test]
fn silent_connection_is_reaped_and_its_trials_requeue() {
    let telemetry = Telemetry::enabled();
    let server = TcpHarmonyServer::bind_with_transport(
        "127.0.0.1:0",
        64,
        ServerConfig {
            telemetry: telemetry.clone(),
            ..Default::default()
        },
        TcpTransport::EventLoop(EventLoopConfig {
            idle_timeout: Some(Duration::from_millis(80)),
            ..Default::default()
        }),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut founder = TcpHarmonyClient::connect(addr, "evict").unwrap();
    founder.add_param(Param::int("x", 0, 100, 1)).unwrap();
    founder
        .seal(
            SessionOptions {
                max_evaluations: 6,
                seed: 8,
                ..Default::default()
            },
            StrategyKind::Random,
        )
        .unwrap();
    let session = founder.session_id();

    // The victim fetches three trials, then goes completely silent — the
    // socket stays open (it is *not* dropped), so only the idle timeout
    // can get rid of it.
    let mut silent = TcpHarmonyClient::attach(addr, session).unwrap();
    let (held, _) = silent.fetch_batch(3).unwrap();
    assert_eq!(held.len(), 3);
    let held_iters: Vec<usize> = held.iter().map(|t| t.iteration).collect();

    // The founder keeps polling (which keeps its own connection warm) and
    // must eventually inherit exactly the requeued trials.
    let mut inherited = Vec::new();
    let mut stash = Vec::new();
    for _ in 0..400 {
        let (trials, _) = founder.fetch_batch(6).unwrap();
        for t in trials {
            if held_iters.contains(&t.iteration) {
                inherited.push(t);
            } else {
                stash.push(t);
            }
        }
        if inherited.len() == held_iters.len() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut got: Vec<usize> = inherited.iter().map(|t| t.iteration).collect();
    got.sort_unstable();
    let mut want = held_iters.clone();
    want.sort_unstable();
    assert_eq!(got, want, "requeued trials did not reach the survivor");
    assert_eq!(
        telemetry.counter(Counter::ConnectionsEvictedIdle),
        1,
        "exactly the silent connection must be reaped"
    );

    // The campaign still completes cleanly from here.
    let reports: Vec<TrialReport> = inherited
        .iter()
        .chain(stash.iter())
        .map(|t| TrialReport {
            iteration: t.iteration,
            cost: t.config.int("x").unwrap() as f64,
            wall_time: 0.0,
        })
        .collect();
    founder.report_batch(reports).unwrap();
    loop {
        let (trials, finished) = founder.fetch_batch(6).unwrap();
        if finished {
            break;
        }
        let reports = trials
            .iter()
            .map(|t| TrialReport {
                iteration: t.iteration,
                cost: t.config.int("x").unwrap() as f64,
                wall_time: 0.0,
            })
            .collect();
        founder.report_batch(reports).unwrap();
    }
    let (h, finished) = founder.history().unwrap();
    assert!(finished);
    assert_eq!(h.evaluations().iter().filter(|e| !e.cached).count(), 6);

    // The victim's socket was closed server-side; using it now surfaces a
    // disconnect (its client reconnects via Attach under a new id).
    let _ = silent.heartbeat();
    founder.close();
    server.shutdown();
}
