//! Parallel Rank Ordering: batch-parallel tuning.
//!
//! Nelder–Mead evaluates one configuration at a time; PRO (the parallel
//! simplex developed in the Active Harmony project after this paper)
//! reflects every non-best simplex vertex through the best point each
//! round, so a whole batch of configurations can be measured
//! simultaneously — here on scoped threads, on a cluster one candidate
//! per node.
//!
//! ```text
//! cargo run --release --example parallel_search
//! ```

use ah_core::prelude::*;
use ah_core::session::SessionOptions;
use ah_core::strategy::pro::tune_parallel;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An objective expensive enough that parallel evaluation matters.
fn expensive_bowl(cfg: &Configuration) -> f64 {
    let x = cfg.int("x").unwrap() as f64;
    let y = cfg.int("y").unwrap() as f64;
    // Simulate a measurement taking ~2ms.
    std::thread::sleep(std::time::Duration::from_millis(2));
    (x - 37.0).powi(2) + 1.7 * (y + 21.0).powi(2)
}

fn space() -> SearchSpace {
    SearchSpace::builder()
        .int("x", -100, 100, 1)
        .int("y", -100, 100, 1)
        .build()
        .expect("valid space")
}

fn main() {
    let evaluations = AtomicUsize::new(0);
    let counted = |cfg: &Configuration| {
        evaluations.fetch_add(1, Ordering::Relaxed);
        expensive_bowl(cfg)
    };

    // PRO with thread-parallel batches.
    let start = std::time::Instant::now();
    let pro = tune_parallel(&space(), counted, ProOptions::default(), 40, 1);
    let pro_wall = start.elapsed();
    println!(
        "PRO         : best {:>8.1} at {} after {} evaluations in {} rounds ({:.2}s wall)",
        pro.best_cost,
        pro.best_config,
        evaluations.load(Ordering::Relaxed),
        40,
        pro_wall.as_secs_f64()
    );

    // Serial Nelder-Mead with the same total evaluation budget.
    let budget = evaluations.load(Ordering::Relaxed);
    let start = std::time::Instant::now();
    let mut session = TuningSession::new(
        space(),
        Box::new(NelderMead::default()),
        SessionOptions {
            max_evaluations: budget,
            seed: 1,
            ..Default::default()
        },
    );
    let nm = session.run(expensive_bowl);
    let nm_wall = start.elapsed();
    println!(
        "Nelder-Mead : best {:>8.1} at {} after {} evaluations ({:.2}s wall)",
        nm.best_cost,
        nm.best_config,
        nm.evaluations,
        nm_wall.as_secs_f64()
    );

    println!(
        "\nSame evaluation budget; PRO finished in {:.1}x less wall time because \
         each round's\ncandidates ran concurrently — on a cluster deployment that \
         ratio approaches the batch width.",
        nm_wall.as_secs_f64() / pro_wall.as_secs_f64().max(1e-9)
    );
}
