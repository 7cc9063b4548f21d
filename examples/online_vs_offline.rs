//! On-line vs. off-line tuning of the same parameter (paper §IX future
//! work: "The experiment will compare the results when tuning the
//! parameters online and off-line separately").
//!
//! The application is the driven-cavity solve on a heterogeneous cluster;
//! the tunable is the grid-point distribution. The same parameter is tuned
//! two ways:
//!
//! * **off-line** — each iteration is a fresh representative short run
//!   (20 sweeps) plus restart and warm-up overheads;
//! * **on-line** — the distribution is re-chosen between 2-sweep intervals
//!   of one continuous run: no restart cost, but each measurement is
//!   shorter (noisier in reality, cheaper here).
//!
//! ```text
//! cargo run --release --example online_vs_offline
//! ```

use ah_clustersim::machines::hetero_p4_p2;
use ah_core::prelude::*;
use ah_core::session::SessionOptions;
use ah_petsc::tunable::{boundary_space, partition_from_config, CavityDistributionApp};
use ah_petsc::DrivenCavity;

const RESTART_COST: f64 = 5.0;
const WARMUP: f64 = 2.0;

fn main() {
    let ny = 50;
    let evals = 60;

    // --- Off-line: representative short runs with restart overheads. ---
    let cavity = DrivenCavity::new(50, ny, hetero_p4_p2(), 20);
    let default_time = cavity.run_time(&cavity.default_distribution());
    let mut app = CavityDistributionApp::new(cavity).with_overheads(WARMUP, RESTART_COST);
    let tuner = OfflineTuner::new(SessionOptions {
        max_evaluations: evals,
        seed: 90,
        ..Default::default()
    });
    let offline = tuner.tune(&mut app, Box::new(NelderMead::default()));

    // --- On-line: continuous run, distribution re-chosen per interval. ---
    // The application registers the boundaries and their ordering with the
    // Harmony server, then fetches and reports between intervals.
    let cavity = DrivenCavity::new(50, ny, hetero_p4_p2(), 2); // 2-sweep intervals
    let server = HarmonyServer::start();
    let client = server.connect("cavity").expect("server reachable");
    let space = boundary_space(ny, 4);
    for param in space.params() {
        client.add_param(param.clone()).expect("declare boundary");
    }
    client
        .add_monotone_chain(space.params().iter().map(Param::name))
        .expect("declare boundary order");
    client
        .seal(
            SessionOptions {
                max_evaluations: evals,
                seed: 91,
                ..Default::default()
            },
            StrategyKind::NelderMead,
        )
        .expect("start tuning");
    let mut online_wall = WARMUP; // started once, warmed up once
    loop {
        let fetched = client.fetch().expect("server reachable");
        if fetched.finished {
            break;
        }
        let t = cavity.run_time(&partition_from_config(&fetched.config, ny, 4));
        online_wall += t;
        client.report(t).expect("server reachable");
    }
    let (online_best_cfg, _) = client
        .best()
        .expect("server reachable")
        .expect("online produced measurements");
    server.shutdown();
    // Score both winners on the same 20-sweep yardstick.
    let yardstick = DrivenCavity::new(50, ny, hetero_p4_p2(), 20);
    let online_final = yardstick.run_time(&partition_from_config(&online_best_cfg, ny, 4));
    let offline_final =
        yardstick.run_time(&partition_from_config(&offline.result.best_config, ny, 4));

    println!("Tuning the cavity distribution two ways ({evals} evaluations each):\n");
    println!("default (equal split)        : {default_time:.4}s per 20 sweeps");
    println!(
        "off-line tuned               : {offline_final:.4}s  \
         (tuning cost {:.0}s wall: every iteration restarts the app)",
        offline.tuning_time
    );
    println!(
        "on-line tuned                : {online_final:.4}s  \
         (tuning cost {online_wall:.0}s wall: one run, parameters adjusted live)"
    );
    println!(
        "\nSame final quality ({}), but the on-line campaign avoided {:.0}s of \
         restart/warm-up overhead —\nthe paper's criterion for choosing on-line \
         tuning when a parameter can change at runtime (§VII).",
        if (online_final - offline_final).abs() < 0.15 * offline_final {
            "within 15%"
        } else {
            "differing"
        },
        (RESTART_COST + WARMUP) * evals as f64
    );
}
