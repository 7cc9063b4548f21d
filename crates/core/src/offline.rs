//! Off-line, iterative tuning with representative short runs (paper §III).
//!
//! "We added the ability to use multiple representative short runs (e.g.,
//! benchmarking runs) and make tuning modifications between runs. […] Our
//! experiments take all costs of parameter changes (including applications
//! needed to be re-run and their warm up time) into consideration."
//!
//! An application that can be configured, restarted, and run for a short
//! representative period implements [`ShortRunApp`]; the [`OfflineTuner`]
//! drives one short run per tuning iteration and charges run + restart +
//! warm-up time to the tuning budget.

use crate::report::TuningReport;
use crate::session::{SessionOptions, TuningResult, TuningSession};
use crate::space::{Configuration, SearchSpace};
use crate::store::{space_fingerprint, SharedStore, StoreRecord};
use crate::strategy::SearchStrategy;

/// What one representative short run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMeasurement {
    /// The objective: execution time of the representative section, in
    /// seconds. This is what the search minimises.
    pub exec_time: f64,
    /// Warm-up time before the representative section (charged to tuning
    /// time, not to the objective).
    pub warmup_time: f64,
    /// Cost of stopping, reconfiguring, and restarting the application
    /// (charged to tuning time).
    pub restart_cost: f64,
}

impl RunMeasurement {
    /// A measurement with no overheads.
    pub fn pure(exec_time: f64) -> Self {
        RunMeasurement {
            exec_time,
            warmup_time: 0.0,
            restart_cost: 0.0,
        }
    }

    /// Total wall-clock the tuning process paid for this run.
    pub fn total_time(&self) -> f64 {
        self.exec_time + self.warmup_time + self.restart_cost
    }
}

/// An application that can be run briefly under a given configuration.
pub trait ShortRunApp {
    /// The tunable parameters this application exposes.
    fn space(&self) -> SearchSpace;

    /// The application's shipped default configuration.
    fn default_config(&self) -> Configuration;

    /// Reconfigure, restart, and execute one representative short run.
    fn run_short(&mut self, config: &Configuration) -> RunMeasurement;
}

/// Drives off-line iterative tuning of a [`ShortRunApp`].
///
/// # Example
///
/// ```
/// use ah_core::prelude::*;
///
/// struct App;
/// impl ShortRunApp for App {
///     fn space(&self) -> SearchSpace {
///         SearchSpace::builder().int("n", 1, 64, 1).build().unwrap()
///     }
///     fn default_config(&self) -> Configuration {
///         self.space().project(&[1.0])
///     }
///     fn run_short(&mut self, cfg: &Configuration) -> RunMeasurement {
///         let n = cfg.int("n").unwrap() as f64;
///         RunMeasurement::pure(10.0 + (n - 40.0).powi(2) * 0.05)
///     }
/// }
///
/// let tuner = OfflineTuner::new(SessionOptions {
///     max_evaluations: 60,
///     seed: 1,
///     ..Default::default()
/// });
/// let out = tuner.tune(&mut App, Box::new(NelderMead::default()));
/// assert!(out.improvement_pct() > 50.0);
/// ```
pub struct OfflineTuner {
    opts: SessionOptions,
    /// When false, warm-up and restart overheads are ignored in the tuning
    /// time accounting (used by the ablation bench to show why the paper
    /// includes them).
    pub charge_overheads: bool,
    /// Performance store and application label to tune against; see
    /// [`with_store`](Self::with_store).
    store: Option<(SharedStore, String)>,
}

impl OfflineTuner {
    /// Create a tuner with the given session options.
    pub fn new(opts: SessionOptions) -> Self {
        OfflineTuner {
            opts,
            charge_overheads: true,
            store: None,
        }
    }

    /// Tune against a persistent performance store under `app`'s label:
    /// configurations already on record are served from the store — no
    /// short run, no restart, *nothing* charged to the tuning budget — and
    /// every fresh measurement is recorded for future campaigns.
    pub fn with_store(mut self, store: SharedStore, app: impl Into<String>) -> Self {
        self.store = Some((store, app.into()));
        self
    }

    /// Tune the application with the given strategy. The default
    /// configuration is always measured first (iteration 0 in the paper's
    /// tables) so improvement is reported against a measured baseline.
    pub fn tune<A: ShortRunApp + ?Sized>(
        &self,
        app: &mut A,
        strategy: Box<dyn SearchStrategy>,
    ) -> OfflineOutcome {
        let space = app.space();
        let fingerprint = space_fingerprint(&space);
        let default_cfg = app.default_config();
        let mut store_hits = 0usize;
        let mut last_hit = None;
        let mut lookup = |key: &[i64]| -> Option<f64> {
            let (store, label) = self.store.as_ref()?;
            let hit = store.with(|s| s.lookup_after(label, fingerprint, key, &mut last_hit))?;
            store_hits += 1;
            Some(hit.cost)
        };
        let record = |cfg: &Configuration, cost: f64, charged: f64, iteration: usize| {
            if let Some((store, label)) = self.store.as_ref() {
                // Advisory write: never fail the campaign over it.
                let _ = store.insert(
                    StoreRecord::new(label.clone(), fingerprint, cfg.clone(), cost, charged)
                        .with_provenance(0, iteration),
                );
            }
        };
        // Stored default: skip the baseline short run entirely — a restart
        // the tuning budget never pays for.
        let (default_cost, mut tuning_time) = match lookup(&default_cfg.cache_key()) {
            Some(cost) => (cost, 0.0),
            None => {
                let m = app.run_short(&default_cfg);
                let charged = if self.charge_overheads {
                    m.total_time()
                } else {
                    m.exec_time
                };
                record(&default_cfg, m.exec_time, charged, 0);
                (m.exec_time, charged)
            }
        };
        let mut session = TuningSession::new(space, strategy, self.opts.clone());
        session.preload(&default_cfg, default_cost);
        // Stored configurations are served inside the session; only what
        // the store does not know comes back as a trial to run.
        while let Some(trial) = session.suggest_batch_with(1, |_, key| lookup(key)).pop() {
            let m = app.run_short(&trial.config);
            let charged = if self.charge_overheads {
                m.total_time()
            } else {
                m.exec_time
            };
            tuning_time += charged;
            record(&trial.config, m.exec_time, charged, trial.iteration);
            session
                .report_timed(trial, m.exec_time, charged)
                .expect("session accepts report for its own trial");
        }
        let result = session.result();
        OfflineOutcome {
            default_config: default_cfg,
            default_cost,
            tuning_time,
            store_hits,
            result,
        }
    }
}

/// Everything an off-line tuning campaign produced.
#[derive(Debug, Clone)]
pub struct OfflineOutcome {
    /// The application's default configuration (iteration 0).
    pub default_config: Configuration,
    /// Measured cost of the default configuration.
    pub default_cost: f64,
    /// Total wall-clock spent tuning (all runs + overheads). Evaluations
    /// served from the performance store charge nothing here.
    pub tuning_time: f64,
    /// Evaluations answered by the performance store (0 without a store).
    pub store_hits: usize,
    /// The session result (best configuration, history, stop reason).
    pub result: TuningResult,
}

impl OfflineOutcome {
    /// Paper-style improvement percentage over the default.
    pub fn improvement_pct(&self) -> f64 {
        100.0 * (self.default_cost - self.result.best_cost) / self.default_cost
    }

    /// Paper-style speedup factor over the default.
    pub fn speedup(&self) -> f64 {
        self.default_cost / self.result.best_cost
    }

    /// Condense into a [`TuningReport`] row.
    pub fn report(&self, label: impl Into<String>) -> TuningReport {
        TuningReport {
            label: label.into(),
            default_cost: self.default_cost,
            tuned_cost: self.result.best_cost,
            iterations: self.result.evaluations,
            tuning_time: self.tuning_time,
        }
    }

    /// Improvement after only the first `n` fresh iterations (the paper's
    /// "12.1% improvement after trying just 12 configurations").
    pub fn improvement_pct_after(&self, n: usize) -> f64 {
        let best_after = self
            .result
            .history
            .evaluations()
            .iter()
            .filter(|e| !e.cached)
            .take(n)
            .map(|e| e.cost)
            .fold(self.default_cost, f64::min);
        100.0 * (self.default_cost - best_after) / self.default_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::NelderMead;

    /// A fake application whose runtime is a quadratic bowl plus fixed
    /// restart/warm-up overheads.
    struct FakeApp {
        runs: usize,
    }

    impl ShortRunApp for FakeApp {
        fn space(&self) -> SearchSpace {
            SearchSpace::builder()
                .int("buf", 1, 100, 1)
                .int("threads", 1, 32, 1)
                .build()
                .unwrap()
        }

        fn default_config(&self) -> Configuration {
            self.space()
                .configuration_from_strs([("buf", "1"), ("threads", "1")])
                .unwrap()
        }

        fn run_short(&mut self, config: &Configuration) -> RunMeasurement {
            self.runs += 1;
            let buf = config.int("buf").unwrap() as f64;
            let threads = config.int("threads").unwrap() as f64;
            let exec = 10.0 + 0.02 * (buf - 64.0).powi(2) + 0.5 * (threads - 16.0).powi(2);
            RunMeasurement {
                exec_time: exec,
                warmup_time: 2.0,
                restart_cost: 1.0,
            }
        }
    }

    #[test]
    fn offline_tuning_beats_default_and_counts_overheads() {
        let mut app = FakeApp { runs: 0 };
        let tuner = OfflineTuner::new(SessionOptions {
            max_evaluations: 60,
            seed: 11,
            ..Default::default()
        });
        let out = tuner.tune(&mut app, Box::new(NelderMead::default()));
        assert!(out.improvement_pct() > 50.0, "{}", out.improvement_pct());
        // One default run + at most 60 tuning runs.
        assert!(app.runs <= 61);
        // Overheads: every run charged at least 3s on top of exec time.
        let min_time = app.runs as f64 * 3.0;
        assert!(out.tuning_time > min_time);
        assert_eq!(out.result.evaluations + 1, app.runs);
    }

    #[test]
    fn improvement_after_prefix_is_monotone() {
        let mut app = FakeApp { runs: 0 };
        let tuner = OfflineTuner::new(SessionOptions {
            max_evaluations: 40,
            seed: 12,
            ..Default::default()
        });
        let out = tuner.tune(&mut app, Box::new(NelderMead::default()));
        let a = out.improvement_pct_after(5);
        let b = out.improvement_pct_after(20);
        let c = out.improvement_pct_after(40);
        assert!(a <= b + 1e-12 && b <= c + 1e-12, "{a} {b} {c}");
        assert!((c - out.improvement_pct()).abs() < 1e-9);
    }

    #[test]
    fn disabling_overhead_charging_reduces_tuning_time() {
        let mut app1 = FakeApp { runs: 0 };
        let mut app2 = FakeApp { runs: 0 };
        let opts = SessionOptions {
            max_evaluations: 20,
            seed: 13,
            ..Default::default()
        };
        let with = OfflineTuner::new(opts.clone()).tune(&mut app1, Box::new(NelderMead::default()));
        let mut without_tuner = OfflineTuner::new(opts);
        without_tuner.charge_overheads = false;
        let without = without_tuner.tune(&mut app2, Box::new(NelderMead::default()));
        assert!(with.tuning_time > without.tuning_time);
        assert_eq!(with.result.best_cost, without.result.best_cost);
    }

    #[test]
    fn store_backed_retune_serves_everything_and_charges_nothing() {
        let path = crate::TempPath::new("offline-retune.store");
        let _ = std::fs::remove_file(&path);
        let store = SharedStore::open(&path).unwrap();
        let opts = SessionOptions {
            max_evaluations: 30,
            seed: 21,
            ..Default::default()
        };
        let mut app1 = FakeApp { runs: 0 };
        let cold = OfflineTuner::new(opts.clone())
            .with_store(store.clone(), "fake")
            .tune(&mut app1, Box::new(NelderMead::default()));
        assert_eq!(cold.store_hits, 0);
        assert!(app1.runs > 0 && cold.tuning_time > 0.0);

        let mut app2 = FakeApp { runs: 0 };
        let warm = OfflineTuner::new(opts)
            .with_store(store, "fake")
            .tune(&mut app2, Box::new(NelderMead::default()));
        // Nothing re-ran: no short runs, no restarts, zero tuning time, and
        // the campaign lands on the bit-identical result.
        assert_eq!(app2.runs, 0, "warm campaign re-ran the application");
        assert_eq!(warm.tuning_time, 0.0);
        assert_eq!(warm.store_hits, warm.result.evaluations + 1);
        assert_eq!(cold.result.evaluations, warm.result.evaluations);
        assert_eq!(
            cold.result.best_cost.to_bits(),
            warm.result.best_cost.to_bits()
        );
        assert_eq!(cold.default_cost.to_bits(), warm.default_cost.to_bits());
        assert!(warm
            .result
            .history
            .evaluations()
            .iter()
            .all(|e| e.cached && e.cumulative_time == 0.0));
    }

    #[test]
    fn report_row_matches_outcome() {
        let mut app = FakeApp { runs: 0 };
        let tuner = OfflineTuner::new(SessionOptions {
            max_evaluations: 15,
            seed: 14,
            ..Default::default()
        });
        let out = tuner.tune(&mut app, Box::new(NelderMead::default()));
        let row = out.report("fake");
        assert_eq!(row.tuned_cost, out.result.best_cost);
        assert_eq!(row.iterations, out.result.evaluations);
        assert!((row.improvement_pct() - out.improvement_pct()).abs() < 1e-12);
    }
}
