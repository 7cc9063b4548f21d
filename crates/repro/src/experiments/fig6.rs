//! Figure 6: performance distribution over the GS2 production search space
//! from systematic sampling, compared with Active Harmony's result.
//!
//! Paper facts: O(10^5) possible configurations; O(10^4) sampled
//! systematically; sampling best (negrid, ntheta, nodes) = (8,16,32) at
//! 125.8s; fewer than 2% of configurations run under 200s; the Harmony
//! configuration lands within the top 5% of the sampled distribution.

use super::common::{nm_from, tune};
use crate::experiment::{ExpReport, Experiment, Finding, RunCtx};
use crate::{chart, table};
use ah_core::report::{histogram, percentile_rank};
use ah_core::session::{SessionOptions, TuningSession};
use ah_core::strategy::GridSearch;
use ah_gs2::{CollisionModel, Gs2Config, Gs2Model, Gs2ResolutionApp};

/// Drive the systematic-sampling session to completion, measuring chunks
/// of samples on scoped threads.
///
/// Systematic samples are mutually independent: GridSearch proposals are
/// feedback-free, so a whole chunk can be fetched up front
/// ([`TuningSession::suggest_batch`]), split into contiguous index ranges
/// across `workers` threads, merged back in index order, and reported in
/// proposal order. The resulting history — and therefore every downstream
/// percentile — is bit-identical to the serial sweep for a given seed,
/// regardless of worker count or scheduling.
fn parallel_sweep(session: &mut TuningSession, app: &Gs2ResolutionApp, workers: usize) {
    let workers = workers.max(1);
    let chunk_len = (workers * 32).max(64);
    let objective = |cfg: &ah_core::space::Configuration| {
        let negrid = cfg.int("negrid").expect("negrid") as usize;
        let ntheta = cfg.int("ntheta").expect("ntheta") as usize;
        let nodes = cfg.int("nodes").expect("nodes") as usize;
        app.time_of(negrid, ntheta, nodes)
    };
    loop {
        let trials = session.suggest_batch(chunk_len);
        if trials.is_empty() {
            break;
        }
        let span = trials.len().div_ceil(workers).max(1);
        let costs: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = trials
                .chunks(span)
                .map(|part| {
                    let objective = &objective;
                    s.spawn(move || {
                        part.iter()
                            .map(|t| objective(&t.config))
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sampling worker panicked"))
                .collect()
        });
        for (t, cost) in trials.into_iter().zip(costs) {
            // The session may stop mid-chunk (budget edge); remaining
            // reports belong to dropped trials and are simply ignored.
            let _ = session.report(t, cost);
        }
    }
}

/// The experiment.
pub struct Fig6;

impl Experiment for Fig6 {
    fn id(&self) -> &'static str {
        "fig6"
    }

    fn title(&self) -> &'static str {
        "Figure 6: GS2 configuration-space distribution vs Harmony's result"
    }

    fn run(&self, ctx: &RunCtx) -> ExpReport {
        let quick = ctx.quick;
        let model = if quick {
            let mut m = Gs2Model::on_linux_cluster(16);
            m.nx = 16;
            m.ny = 8;
            m.nl = 16;
            m
        } else {
            Gs2Model::on_linux_cluster(32)
        };
        let steps = 1000;
        let base = Gs2Config {
            nodes: if quick { 16 } else { 32 },
            collision: CollisionModel::None,
            ..Gs2Config::paper_default()
        };
        let app = Gs2ResolutionApp::new(model.clone(), base, steps);
        let space = ah_core::offline::ShortRunApp::space(&app);
        let space_size = space.cardinality().unwrap_or(0);

        // Systematic sampling of the whole space.
        let samples_target = if quick { 400 } else { 10_000 };
        let mut session = TuningSession::new(
            space.clone(),
            Box::new(GridSearch::new(samples_target)),
            SessionOptions {
                max_evaluations: samples_target,
                seed: 6,
                ..Default::default()
            },
        );
        // The sweep dominates this experiment's wall time; run it chunked
        // across scoped worker threads.
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        parallel_sweep(&mut session, &app, workers);
        let sampled = session.result();
        let costs: Vec<f64> = sampled
            .history
            .evaluations()
            .iter()
            .filter(|e| !e.cached)
            .map(|e| e.cost)
            .collect();
        let sampling_best = sampled.best_cost;
        let best_cfg = &sampled.best_config;

        // Harmony's own search on the same space.
        let mut h_app = Gs2ResolutionApp::new(model, base, steps);
        let evals = if quick { 30 } else { 40 };
        let harmony = tune(&mut h_app, nm_from(vec![16.0, 26.0, 32.0]), evals, 600);
        let harmony_best = harmony.result.best_cost;
        let harmony_pctile = percentile_rank(&costs, harmony_best);

        // "Under 200s" threshold scaled to our units: the paper's 200s is
        // ~1.6x its sampling best (125.8s).
        let threshold = sampling_best * 1.6;
        let under = percentile_rank(&costs, threshold);

        let (bounds, hist_counts) = histogram(&costs, 20);
        let narrative = format!(
            "Search space: {space_size} configurations; sampled {} systematically.\n\
             Sampling best: {} at (negrid,ntheta,nodes)=({},{},{}).\n\
             Harmony best: {} ({} evaluations), percentile {:.1}%.\n\n{}",
            costs.len(),
            table::secs(sampling_best),
            best_cfg.int("negrid").expect("negrid"),
            best_cfg.int("ntheta").expect("ntheta"),
            best_cfg.int("nodes").expect("nodes"),
            table::secs(harmony_best),
            harmony.result.evaluations,
            harmony_pctile,
            chart::histogram(&bounds, &hist_counts, 50),
        );

        let findings = vec![
            Finding::check(
                "Harmony lands in the top of the distribution",
                "within the top 5% of configurations",
                format!("percentile {harmony_pctile:.1}%"),
                harmony_pctile <= if quick { 25.0 } else { 5.0 },
            ),
            Finding::check(
                "fast configurations are rare",
                "<2% of configurations under 200s (1.6x sampling best)",
                format!("{under:.1}% under 1.6x best"),
                under <= 8.0,
            ),
            Finding::check(
                "exhaustive-ish sampling finds a slightly better point",
                "sampling best 125.8s beats Harmony's 244.2s",
                format!(
                    "sampling {} <= harmony {}",
                    table::secs(sampling_best),
                    table::secs(harmony_best)
                ),
                sampling_best <= harmony_best,
            ),
            Finding::info(
                "sampling cost vs tuning cost",
                "months of CPU for exhaustive exploration",
                format!(
                    "{} sampled runs vs {} Harmony runs",
                    costs.len(),
                    harmony.result.evaluations
                ),
            ),
        ];
        ExpReport {
            id: self.id().into(),
            title: self.title().into(),
            narrative,
            findings,
            data: serde_json::json!({
                "space_size": space_size,
                "samples": costs.len(),
                "sampling_best": sampling_best,
                "harmony_best": harmony_best,
                "harmony_percentile": harmony_pctile,
                "pct_under_threshold": under,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_matches_paper_shape() {
        let r = Fig6.run(&RunCtx::quick(true));
        assert!(r.all_ok(), "{}", r.render());
        assert!(r.data["samples"].as_u64().unwrap() > 100);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let mut model = Gs2Model::on_linux_cluster(16);
        model.nx = 16;
        model.ny = 8;
        model.nl = 16;
        let base = Gs2Config {
            nodes: 16,
            collision: CollisionModel::None,
            ..Gs2Config::paper_default()
        };
        let app = Gs2ResolutionApp::new(model, base, 1000);
        let space = ah_core::offline::ShortRunApp::space(&app);
        let mk = || {
            TuningSession::new(
                space.clone(),
                Box::new(GridSearch::new(200)),
                SessionOptions {
                    max_evaluations: 200,
                    seed: 6,
                    ..Default::default()
                },
            )
        };
        let mut serial = mk();
        let serial_result = serial.run(|cfg| {
            let negrid = cfg.int("negrid").expect("negrid") as usize;
            let ntheta = cfg.int("ntheta").expect("ntheta") as usize;
            let nodes = cfg.int("nodes").expect("nodes") as usize;
            app.time_of(negrid, ntheta, nodes)
        });
        for workers in [1, 3, 8] {
            let mut par = mk();
            parallel_sweep(&mut par, &app, workers);
            let r = par.result();
            assert_eq!(r.history.len(), serial_result.history.len());
            for (a, b) in r
                .history
                .evaluations()
                .iter()
                .zip(serial_result.history.evaluations())
            {
                assert_eq!(a.iteration, b.iteration);
                assert_eq!(a.config.cache_key(), b.config.cache_key());
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "workers={workers}");
            }
            assert_eq!(
                r.best_cost.to_bits(),
                serial_result.best_cost.to_bits(),
                "workers={workers}"
            );
        }
    }
}
