//! Meta-tuning: tuning the tuner.
//!
//! The paper's tuning runs expose a second-order problem: the search
//! strategies themselves have hyper-parameters (simplex scale, annealing
//! schedule, population size, surrogate refit cadence) and a poorly chosen
//! setting can double the number of application runs needed to reach an
//! acceptable configuration. This module closes the loop: an *outer*
//! Harmony session searches a strategy's hyper-parameter space, scoring
//! each hyper-configuration by **evaluations-to-target** — the number of
//! fresh short runs the *inner* campaign spends before its best cost
//! reaches a target (penalised when it never does).
//!
//! Inner campaigns are deterministic (seeded) and their scores are
//! memoized in the [`SharedStore`] under a `meta/<strategy>/<problem>`
//! label keyed by the hyper-space fingerprint and the hyper-configuration
//! cache key. A second meta run against the same store replays every
//! campaign from the store and spends **zero** fresh inner evaluations —
//! the same cross-invocation warm start the first-order tuner gets from
//! its performance store.
//!
//! ```
//! use ah_core::meta::{MetaAnnealing, MetaOptions, MetaTuner};
//! use ah_core::offline::{RunMeasurement, ShortRunApp};
//! use ah_core::prelude::*;
//!
//! struct Bowl;
//! impl ShortRunApp for Bowl {
//!     fn space(&self) -> SearchSpace {
//!         SearchSpace::builder()
//!             .int("x", 0, 40, 1)
//!             .int("y", 0, 40, 1)
//!             .build()
//!             .unwrap()
//!     }
//!     fn default_config(&self) -> Configuration {
//!         self.space().center()
//!     }
//!     fn run_short(&mut self, cfg: &Configuration) -> RunMeasurement {
//!         let x = cfg.int("x").unwrap() as f64;
//!         let y = cfg.int("y").unwrap() as f64;
//!         RunMeasurement::pure((x - 31.0).powi(2) + (y - 7.0).powi(2) + 1.0)
//!     }
//! }
//!
//! let opts = MetaOptions {
//!     outer_evaluations: 6,
//!     inner_budget: 60,
//!     target_cost: 3.0,
//!     ..MetaOptions::default()
//! };
//! let outcome = MetaTuner::new(opts).tune(&mut Bowl, "bowl", &MetaAnnealing);
//! assert!(outcome.best_score <= outcome.default_score);
//! ```

use crate::offline::ShortRunApp;
use crate::session::{SessionOptions, StopReason, TuningSession};
use crate::space::{Configuration, SearchSpace};
use crate::store::{space_fingerprint, SharedStore, StoreRecord};
use crate::strategy::{
    Annealing, AnnealingOptions, Genetic, GeneticOptions, NelderMead, NelderMeadOptions,
    SearchStrategy, StartPoint, Surrogate, SurrogateOptions,
};
use serde::Serialize;

/// A strategy whose hyper-parameters can themselves be tuned.
///
/// Implementations expose their hyper-parameters as an ordinary
/// [`SearchSpace`] (integer-scaled, so hyper-configurations have exact
/// cache keys for memoization) and build a fresh strategy instance from
/// any hyper-configuration in it.
pub trait MetaTunable {
    /// Identifier used in reports and store labels (e.g. `"annealing"`).
    fn name(&self) -> &'static str;

    /// The hyper-parameter search space.
    fn hyper_space(&self) -> SearchSpace;

    /// The strategy's shipped default hyper-configuration (the baseline
    /// the meta-tuner must beat), expressed in `space`.
    fn default_hyper(&self, space: &SearchSpace) -> Configuration;

    /// Instantiate the inner strategy from a hyper-configuration.
    fn build(&self, hyper: &Configuration) -> Box<dyn SearchStrategy>;
}

/// Meta-tunes [`NelderMead`]: initial simplex scale and reflection weight.
pub struct MetaNelderMead;

impl MetaTunable for MetaNelderMead {
    fn name(&self) -> &'static str {
        "nelder-mead"
    }

    fn hyper_space(&self) -> SearchSpace {
        SearchSpace::builder()
            .int("init_scale_pct", 5, 50, 5)
            .int("alpha_pct", 50, 150, 25)
            .build()
            .expect("static hyper space")
    }

    fn default_hyper(&self, space: &SearchSpace) -> Configuration {
        let d = NelderMeadOptions::default();
        hyper_config(
            space,
            &[
                ("init_scale_pct", (d.init_scale * 100.0).round() as i64),
                ("alpha_pct", (d.alpha * 100.0).round() as i64),
            ],
        )
    }

    fn build(&self, hyper: &Configuration) -> Box<dyn SearchStrategy> {
        Box::new(NelderMead::new(NelderMeadOptions {
            init_scale: pct(hyper, "init_scale_pct"),
            alpha: pct(hyper, "alpha_pct"),
            ..NelderMeadOptions::default()
        }))
    }
}

/// Meta-tunes [`Annealing`]: initial temperature scale, cooling rate, and
/// the stagnation window before a reheat.
pub struct MetaAnnealing;

impl MetaTunable for MetaAnnealing {
    fn name(&self) -> &'static str {
        "annealing"
    }

    fn hyper_space(&self) -> SearchSpace {
        SearchSpace::builder()
            .int("t0_scale_pct", 25, 400, 25)
            .int("cooling_pct", 80, 98, 2)
            .int("reheat_after", 5, 25, 5)
            .build()
            .expect("static hyper space")
    }

    fn default_hyper(&self, space: &SearchSpace) -> Configuration {
        let d = AnnealingOptions::default();
        hyper_config(
            space,
            &[
                ("t0_scale_pct", (d.t0_scale * 100.0).round() as i64),
                ("cooling_pct", (d.cooling * 100.0).round() as i64),
                ("reheat_after", d.reheat_after as i64),
            ],
        )
    }

    fn build(&self, hyper: &Configuration) -> Box<dyn SearchStrategy> {
        Box::new(Annealing::new(AnnealingOptions {
            t0_scale: pct(hyper, "t0_scale_pct"),
            cooling: pct(hyper, "cooling_pct"),
            reheat_after: hyper.int("reheat_after").expect("hyper param") as usize,
            ..AnnealingOptions::default()
        }))
    }
}

/// Meta-tunes [`Genetic`]: population size, mutation rate, and how hard
/// the synergy pairs bias crossover.
pub struct MetaGenetic;

impl MetaTunable for MetaGenetic {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn hyper_space(&self) -> SearchSpace {
        SearchSpace::builder()
            .int("population", 6, 20, 2)
            .int("mutation_pct", 5, 40, 5)
            .int("synergy_pct", 0, 80, 20)
            .build()
            .expect("static hyper space")
    }

    fn default_hyper(&self, space: &SearchSpace) -> Configuration {
        let d = GeneticOptions::default();
        hyper_config(
            space,
            &[
                ("population", d.population as i64),
                ("mutation_pct", (d.mutation * 100.0).round() as i64),
                ("synergy_pct", (d.synergy_bias * 100.0).round() as i64),
            ],
        )
    }

    fn build(&self, hyper: &Configuration) -> Box<dyn SearchStrategy> {
        Box::new(Genetic::new(GeneticOptions {
            population: hyper.int("population").expect("hyper param") as usize,
            mutation: pct(hyper, "mutation_pct"),
            synergy_bias: pct(hyper, "synergy_pct"),
            ..GeneticOptions::default()
        }))
    }
}

/// Meta-tunes [`Surrogate`]: refit cadence and the trust threshold below
/// which model proposals replace the inner strategy.
pub struct MetaSurrogate;

impl MetaTunable for MetaSurrogate {
    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn hyper_space(&self) -> SearchSpace {
        SearchSpace::builder()
            .int("refit_every", 2, 8, 2)
            .int("fit_threshold_pct", 10, 50, 10)
            .build()
            .expect("static hyper space")
    }

    fn default_hyper(&self, space: &SearchSpace) -> Configuration {
        let d = SurrogateOptions::default();
        hyper_config(
            space,
            &[
                ("refit_every", d.refit_every as i64),
                (
                    "fit_threshold_pct",
                    (d.fit_threshold * 100.0).round() as i64,
                ),
            ],
        )
    }

    fn build(&self, hyper: &Configuration) -> Box<dyn SearchStrategy> {
        Box::new(Surrogate::new(SurrogateOptions {
            refit_every: hyper.int("refit_every").expect("hyper param") as usize,
            fit_threshold: pct(hyper, "fit_threshold_pct"),
            ..SurrogateOptions::default()
        }))
    }
}

fn hyper_config(space: &SearchSpace, values: &[(&str, i64)]) -> Configuration {
    let mut coords = space
        .embed(&space.center())
        .expect("center embeds into its own space");
    for (i, param) in space.params().iter().enumerate() {
        if let Some((_, v)) = values.iter().find(|(n, _)| *n == param.name()) {
            coords[i] = *v as f64;
        }
    }
    space.project(&coords)
}

fn pct(hyper: &Configuration, name: &str) -> f64 {
    hyper.int(name).expect("hyper param") as f64 / 100.0
}

/// Options for a [`MetaTuner`] run.
#[derive(Debug, Clone)]
pub struct MetaOptions {
    /// Hyper-configurations the outer search may score (fresh outer
    /// evaluations; memoized scores are replayed for free).
    pub outer_evaluations: usize,
    /// Fresh-evaluation budget of each inner campaign.
    pub inner_budget: usize,
    /// The inner campaign stops (successfully) when its best cost reaches
    /// this target; campaigns that exhaust the budget first are scored
    /// `2 * inner_budget`.
    pub target_cost: f64,
    /// Independent seeded campaigns averaged per hyper-configuration.
    pub campaigns_per_score: usize,
    /// Master seed; outer search and every inner campaign derive from it.
    pub seed: u64,
}

impl Default for MetaOptions {
    fn default() -> Self {
        MetaOptions {
            outer_evaluations: 12,
            inner_budget: 100,
            target_cost: 0.0,
            campaigns_per_score: 3,
            seed: 7,
        }
    }
}

/// One scored hyper-configuration in a meta run's trace.
#[derive(Debug, Clone, Serialize)]
pub struct MetaTrial {
    /// Cache key of the hyper-configuration in the hyper space.
    pub hyper_key: Vec<i64>,
    /// Mean evaluations-to-target across the seeded campaigns.
    pub score: f64,
    /// The score was replayed from the store (no inner campaigns ran).
    pub memoized: bool,
}

/// Result of one meta-tuning run.
#[derive(Debug, Clone, Serialize)]
pub struct MetaOutcome {
    /// The tuned strategy's name.
    pub tunable: String,
    /// The problem label the campaigns ran against.
    pub problem: String,
    /// Evaluations-to-target of the shipped default hyper-configuration.
    pub default_score: f64,
    /// Best hyper-configuration found by the outer search.
    pub best_hyper: Configuration,
    /// Its evaluations-to-target (≤ `default_score`; the default is the
    /// outer search's start point, so it can never regress).
    pub best_score: f64,
    /// Hyper-configurations whose campaigns actually ran this invocation.
    pub fresh_campaigns: usize,
    /// Hyper-configurations replayed from the store.
    pub memoized_campaigns: usize,
    /// Total fresh inner evaluations (application short runs) spent.
    pub inner_evaluations: usize,
    /// Every hyper-configuration scored, in evaluation order.
    pub trace: Vec<MetaTrial>,
}

impl MetaOutcome {
    /// Whether meta-tuning strictly beat the default hyper-parameters.
    pub fn improved(&self) -> bool {
        self.best_score < self.default_score
    }
}

/// Tunes a strategy's hyper-parameters with an outer Harmony session.
///
/// The outer search is a [`NelderMead`] simplex over the integer-scaled
/// hyper space, seeded at the strategy's default hyper-configuration so
/// the reported [`MetaOutcome::best_score`] can never be worse than the
/// default's. See the [module docs](self) for the scoring and memoization
/// contract.
pub struct MetaTuner {
    opts: MetaOptions,
    store: Option<SharedStore>,
}

impl MetaTuner {
    /// Create a meta-tuner with the given options and no store.
    pub fn new(opts: MetaOptions) -> Self {
        MetaTuner { opts, store: None }
    }

    /// Memoize campaign scores in (and replay them from) `store`.
    pub fn with_store(mut self, store: SharedStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Run the meta-tuning loop for `tunable` against `app`.
    pub fn tune(
        &mut self,
        app: &mut dyn ShortRunApp,
        problem: &str,
        tunable: &dyn MetaTunable,
    ) -> MetaOutcome {
        let hyper_space = tunable.hyper_space();
        let fingerprint = space_fingerprint(&hyper_space);
        let label = format!("meta/{}/{}", tunable.name(), problem);
        let default_hyper = tunable.default_hyper(&hyper_space);

        let mut trace: Vec<MetaTrial> = Vec::new();
        let mut fresh_campaigns = 0usize;
        let mut memoized_campaigns = 0usize;
        let mut inner_evaluations = 0usize;

        let score_hyper = |hyper: &Configuration,
                           trace: &mut Vec<MetaTrial>,
                           fresh: &mut usize,
                           memoized: &mut usize,
                           inner_evals: &mut usize,
                           app: &mut dyn ShortRunApp| {
            let key = hyper.cache_key();
            if let Some(hit) = self
                .store
                .as_ref()
                .and_then(|s| s.lookup(&label, fingerprint, &key))
            {
                *memoized += 1;
                trace.push(MetaTrial {
                    hyper_key: key,
                    score: hit.cost,
                    memoized: true,
                });
                return hit.cost;
            }
            let mut total = 0.0;
            let mut spent = 0usize;
            for campaign in 0..self.opts.campaigns_per_score.max(1) {
                let inner_seed = self
                    .opts
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(campaign as u64 + 1);
                let mut session = TuningSession::new(
                    app.space(),
                    tunable.build(hyper),
                    SessionOptions {
                        max_evaluations: self.opts.inner_budget,
                        seed: inner_seed,
                        target_cost: Some(self.opts.target_cost),
                        ..SessionOptions::default()
                    },
                );
                let result = session.run(|cfg| app.run_short(cfg).exec_time);
                spent += result.history.runs();
                total += if result.stop_reason == StopReason::TargetReached {
                    result.history.runs() as f64
                } else {
                    2.0 * self.opts.inner_budget as f64
                };
            }
            let score = total / self.opts.campaigns_per_score.max(1) as f64;
            *fresh += 1;
            *inner_evals += spent;
            if let Some(store) = &self.store {
                let _ = store.insert(StoreRecord::new(
                    label.clone(),
                    fingerprint,
                    hyper.clone(),
                    score,
                    spent as f64,
                ));
            }
            trace.push(MetaTrial {
                hyper_key: key,
                score,
                memoized: false,
            });
            score
        };

        // Score the shipped defaults first: the baseline to beat, and the
        // simplex's start vertex (so the outer search replays it for free).
        let default_score = score_hyper(
            &default_hyper,
            &mut trace,
            &mut fresh_campaigns,
            &mut memoized_campaigns,
            &mut inner_evaluations,
            app,
        );

        let start = hyper_space
            .embed(&default_hyper)
            .expect("default hyper embeds into hyper space");
        let outer = NelderMead::new(NelderMeadOptions {
            start: StartPoint::Coords(start),
            ..NelderMeadOptions::default()
        });
        let mut outer_session = TuningSession::new(
            hyper_space.clone(),
            Box::new(outer),
            SessionOptions {
                max_evaluations: self.opts.outer_evaluations,
                seed: self.opts.seed,
                ..SessionOptions::default()
            },
        );
        let outer_result = outer_session.run(|hyper| {
            score_hyper(
                hyper,
                &mut trace,
                &mut fresh_campaigns,
                &mut memoized_campaigns,
                &mut inner_evaluations,
                app,
            )
        });

        let (best_hyper, best_score) = if outer_result.best_cost < default_score {
            (outer_result.best_config, outer_result.best_cost)
        } else {
            (default_hyper, default_score)
        };

        MetaOutcome {
            tunable: tunable.name().to_string(),
            problem: problem.to_string(),
            default_score,
            best_hyper,
            best_score,
            fresh_campaigns,
            memoized_campaigns,
            inner_evaluations,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::RunMeasurement;

    /// A shifted bowl whose optimum sits away from the centre, so default
    /// strategies spend real evaluations finding it.
    struct Bowl;

    impl ShortRunApp for Bowl {
        fn space(&self) -> SearchSpace {
            SearchSpace::builder()
                .int("x", 0, 40, 1)
                .int("y", 0, 40, 1)
                .build()
                .unwrap()
        }

        fn default_config(&self) -> Configuration {
            self.space().center()
        }

        fn run_short(&mut self, cfg: &Configuration) -> RunMeasurement {
            let x = cfg.int("x").unwrap() as f64;
            let y = cfg.int("y").unwrap() as f64;
            RunMeasurement::pure((x - 31.0).powi(2) + (y - 7.0).powi(2) + 1.0)
        }
    }

    fn opts() -> MetaOptions {
        MetaOptions {
            outer_evaluations: 8,
            inner_budget: 60,
            target_cost: 5.0,
            campaigns_per_score: 2,
            seed: 11,
        }
    }

    #[test]
    fn default_hypers_round_trip_through_their_spaces() {
        let tunables: Vec<Box<dyn MetaTunable>> = vec![
            Box::new(MetaNelderMead),
            Box::new(MetaAnnealing),
            Box::new(MetaGenetic),
            Box::new(MetaSurrogate),
        ];
        for t in &tunables {
            let space = t.hyper_space();
            let d = t.default_hyper(&space);
            assert!(space.is_valid(&d), "{} default invalid", t.name());
            // Building from the default must succeed and carry the name's
            // strategy (smoke: it proposes something).
            let mut s = t.build(&d);
            let mut rng = rand::SeedableRng::seed_from_u64(0);
            let inner_space = Bowl.space();
            s.init(&inner_space, &mut rng);
            assert!(s.propose(&inner_space, &mut rng).is_some());
        }
    }

    #[test]
    fn best_score_never_regresses_below_the_default() {
        let outcome = MetaTuner::new(opts()).tune(&mut Bowl, "bowl", &MetaAnnealing);
        assert!(outcome.best_score <= outcome.default_score);
        assert!(outcome.fresh_campaigns >= 1);
        assert_eq!(outcome.memoized_campaigns, 0);
        assert!(!outcome.trace.is_empty());
    }

    #[test]
    fn meta_runs_are_deterministic_under_a_fixed_seed() {
        let a = MetaTuner::new(opts()).tune(&mut Bowl, "bowl", &MetaNelderMead);
        let b = MetaTuner::new(opts()).tune(&mut Bowl, "bowl", &MetaNelderMead);
        assert_eq!(a.default_score, b.default_score);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(x.hyper_key, y.hyper_key);
            assert_eq!(x.score, y.score);
        }
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ah-meta-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.store"))
    }

    #[test]
    fn second_run_replays_every_campaign_from_the_store() {
        let path = temp_store("replay");
        let _ = std::fs::remove_file(&path);
        let store = SharedStore::open(&path).unwrap();
        let first = MetaTuner::new(opts()).with_store(store.clone()).tune(
            &mut Bowl,
            "bowl",
            &MetaAnnealing,
        );
        assert!(first.fresh_campaigns > 0);
        assert!(first.inner_evaluations > 0);

        let second =
            MetaTuner::new(opts())
                .with_store(store)
                .tune(&mut Bowl, "bowl", &MetaAnnealing);
        // Identical trajectory, all memoized: strictly fewer fresh evals.
        assert_eq!(second.fresh_campaigns, 0);
        assert_eq!(second.inner_evaluations, 0);
        assert!(second.inner_evaluations < first.inner_evaluations);
        assert_eq!(second.memoized_campaigns, first.trace.len());
        assert_eq!(second.best_score, first.best_score);
    }

    #[test]
    fn meta_tuning_improves_a_mistuned_annealer() {
        // Make the target tight enough that schedule quality matters.
        let o = MetaTuner::new(MetaOptions {
            outer_evaluations: 14,
            inner_budget: 80,
            target_cost: 2.0,
            campaigns_per_score: 3,
            seed: 5,
        })
        .tune(&mut Bowl, "bowl", &MetaAnnealing);
        assert!(
            o.best_score <= o.default_score,
            "meta made it worse: {} > {}",
            o.best_score,
            o.default_score
        );
    }
}
