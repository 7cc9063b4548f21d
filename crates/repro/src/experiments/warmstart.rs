//! Warm-started re-tuning through the persistent performance database
//! (paper §II: "a database of past performance results" — known
//! configurations are never re-measured).
//!
//! Two identical tuning campaigns run back to back against one store file:
//! the cold campaign measures everything and populates the database; the
//! warm campaign asks the same questions and the server answers them from
//! the database without dispatching trials. The checks are the paper's
//! promise made precise: the warm run re-measures (almost) nothing and
//! still lands on the bit-identical result.
//!
//! With `repro warmstart --store PATH` the database persists across
//! process invocations, so a *second* invocation starts warm — its "cold"
//! campaign already hits the store (CI exercises exactly this).

use crate::experiment::{ExpReport, Experiment, Finding, RunCtx};
use ah_core::param::Param;
use ah_core::server::protocol::{StrategyKind, TrialReport};
use ah_core::server::{HarmonyServer, ServerConfig};
use ah_core::session::SessionOptions;
use ah_core::space::Configuration;
use ah_core::store::SharedStore;
use ah_core::telemetry::{Counter, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The experiment.
pub struct Warmstart;

/// Application label campaigns tune under (the store key's first half).
const APP: &str = "warmstart-stencil";

/// Deterministic synthetic objective: costs must be functions of the
/// configuration alone for stored costs to be interchangeable with fresh
/// measurements.
fn cost_of(cfg: &Configuration) -> f64 {
    let bx = cfg.int("bx").unwrap() as f64;
    let by = cfg.int("by").unwrap() as f64;
    10.0 + 0.3 * (bx - 37.0).powi(2) + 0.7 * (by - 11.0).powi(2) + 0.01 * bx * by
}

struct Campaign {
    measured: usize,
    store_hits: u64,
    evaluations: usize,
    best_key: Vec<i64>,
    best_cost: f64,
    trajectory: Vec<(usize, u64)>,
}

fn campaign(path: &Path, evals: usize) -> Campaign {
    let telemetry = Telemetry::enabled();
    let store = SharedStore::open_with(path, telemetry.clone()).expect("open store");
    let server = HarmonyServer::start_with_config(ServerConfig {
        store: Some(store.clone()),
        ..Default::default()
    });
    let client = server.connect(APP).expect("connect");
    client.add_param(Param::int("bx", 1, 96, 1)).expect("param");
    client.add_param(Param::int("by", 1, 96, 1)).expect("param");
    client
        .seal(
            SessionOptions {
                max_evaluations: evals,
                seed: 4242,
                ..Default::default()
            },
            StrategyKind::NelderMead,
        )
        .expect("seal");
    let mut measured = 0usize;
    loop {
        let (trials, finished) = client.fetch_batch(4).expect("fetch_batch");
        if finished {
            break;
        }
        let reports: Vec<TrialReport> = trials
            .iter()
            .map(|t| {
                measured += 1;
                TrialReport {
                    iteration: t.iteration,
                    cost: cost_of(&t.config),
                    wall_time: 1.0,
                }
            })
            .collect();
        client.report_batch(reports).expect("report_batch");
    }
    let (history, _) = client.history().expect("history");
    let (best_config, best_cost) = client.best().expect("best").expect("nonempty");
    server.shutdown();
    store.flush().expect("flush store");
    Campaign {
        measured,
        store_hits: telemetry.counter(Counter::StoreHits),
        evaluations: history.evaluations().len(),
        best_key: best_config.cache_key(),
        best_cost,
        trajectory: history
            .evaluations()
            .iter()
            .map(|e| (e.iteration, e.cost.to_bits()))
            .collect(),
    }
}

impl Experiment for Warmstart {
    fn id(&self) -> &'static str {
        "warmstart"
    }

    fn title(&self) -> &'static str {
        "Performance database: warm-started re-tuning serves cached measurements"
    }

    fn run(&self, ctx: &RunCtx) -> ExpReport {
        let quick = ctx.quick;
        let evals = if quick { 60 } else { 200 };
        // With an explicit --store the database persists across
        // invocations (the file is never cleared here); otherwise use a
        // throwaway file, start genuinely cold and remove it after.
        let path: PathBuf = match &ctx.store {
            Some(p) => p.clone(),
            None => {
                static RUNS: AtomicUsize = AtomicUsize::new(0);
                let run = RUNS.fetch_add(1, Ordering::Relaxed);
                let name = format!("ah-warmstart-{}-{run}.store", std::process::id());
                let p = std::env::temp_dir().join(name);
                let _ = std::fs::remove_file(&p);
                p
            }
        };
        let cold = campaign(&path, evals);
        let warm = campaign(&path, evals);
        let store = match &ctx.store {
            Some(p) => p.display().to_string(),
            None => {
                let _ = std::fs::remove_file(&path);
                "a throwaway store".to_string()
            }
        };

        let served = warm.evaluations.saturating_sub(warm.measured);
        let served_fraction = served as f64 / warm.evaluations.max(1) as f64;
        let identical = cold.best_key == warm.best_key
            && cold.best_cost.to_bits() == warm.best_cost.to_bits()
            && cold.trajectory == warm.trajectory;

        let narrative = format!(
            "App `{APP}`, {evals}-evaluation Nelder-Mead campaigns, store: {}\n\
             cold: measured {}/{} evaluations ({} store hits)\n\
             warm: measured {}/{} evaluations ({} store hits, {:.1}% served)\n",
            store,
            cold.measured,
            cold.evaluations,
            cold.store_hits,
            warm.measured,
            warm.evaluations,
            warm.store_hits,
            served_fraction * 100.0,
        );
        let findings = vec![
            Finding::check(
                "warm run is served from the database",
                "known configurations are not re-measured (§II)",
                format!("{:.1}% of evaluations served", served_fraction * 100.0),
                served_fraction >= 0.9,
            ),
            Finding::check(
                "stored costs replay the cold trajectory",
                "bit-identical best point and history",
                if identical { "identical" } else { "diverged" }.to_string(),
                identical,
            ),
        ];
        ExpReport {
            id: self.id().into(),
            title: self.title().into(),
            narrative,
            findings,
            data: serde_json::json!({
                // Deterministic across invocations (CI byte-compares it);
                // volatile counters live outside this object.
                "result": {
                    "evaluations": cold.evaluations,
                    "best_cost_bits": cold.best_cost.to_bits(),
                    "best_cost": cold.best_cost,
                    "best_config_key": cold.best_key,
                    "trajectory": cold.trajectory.iter().map(|(i, bits)| {
                        serde_json::json!({"iteration": i, "cost_bits": bits})
                    }).collect::<Vec<_>>(),
                },
                "cold_store_hits": cold.store_hits,
                "warm_store_hits": warm.store_hits,
                "warm_served_fraction": served_fraction,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_matches_paper_shape() {
        let r = Warmstart.run(&RunCtx::quick(true));
        assert!(r.all_ok(), "{}", r.render());
        assert_eq!(r.data["cold_store_hits"].as_u64(), Some(0));
        assert!(r.data["warm_store_hits"].as_u64().unwrap() > 0);
    }

    #[test]
    fn explicit_store_path_persists_between_runs() {
        let path =
            std::env::temp_dir().join(format!("ah-warmstart-persist-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ctx = RunCtx {
            quick: true,
            store: Some(path.clone()),
        };
        let first = Warmstart.run(&ctx);
        let second = Warmstart.run(&ctx);
        std::fs::remove_file(&path).unwrap();
        // Second invocation starts warm: even its first campaign hits.
        assert_eq!(first.data["cold_store_hits"].as_u64(), Some(0));
        assert!(second.data["cold_store_hits"].as_u64().unwrap() > 0);
        assert_eq!(first.data["result"], second.data["result"]);
    }
}
