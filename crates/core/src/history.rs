//! Evaluation history: the per-iteration record a tuning session keeps.
//!
//! Table I of the paper is exactly such a trace (which parameter changed at
//! which iteration); [`History::parameter_change_trace`] regenerates it.

use crate::space::Configuration;
use serde::{Deserialize, Serialize};

/// One measured configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Evaluation {
    /// 1-based tuning iteration (one application run in off-line mode).
    pub iteration: usize,
    /// The configuration that was measured.
    pub config: Configuration,
    /// The measured cost (execution time in seconds for the paper's apps).
    pub cost: f64,
    /// Whether this evaluation was served from the cache (no new run).
    pub cached: bool,
    /// Cumulative tuning time spent up to and including this evaluation
    /// (run time + restart + warm-up overheads in off-line mode).
    pub cumulative_time: f64,
}

/// Chronological record of every evaluation in a session.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct History {
    evals: Vec<Evaluation>,
}

impl History {
    /// Create an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an evaluation.
    pub fn push(&mut self, eval: Evaluation) {
        self.evals.push(eval);
    }

    /// All evaluations in order.
    pub fn evaluations(&self) -> &[Evaluation] {
        &self.evals
    }

    /// Number of evaluations (including cached replays).
    pub fn len(&self) -> usize {
        self.evals.len()
    }

    /// True if no evaluations were recorded.
    pub fn is_empty(&self) -> bool {
        self.evals.is_empty()
    }

    /// Number of *fresh* evaluations — actual application runs.
    pub fn runs(&self) -> usize {
        self.evals.iter().filter(|e| !e.cached).count()
    }

    /// Best evaluation so far (ties go to the earliest). `total_cmp` keeps
    /// the ordering a real total order even if a NaN cost slips in: NaN
    /// sorts above `+inf`, so it can never shadow a genuine best.
    pub fn best(&self) -> Option<&Evaluation> {
        self.evals.iter().min_by(|a, b| a.cost.total_cmp(&b.cost))
    }

    /// First iteration (1-based) whose cost is within `factor` of the final
    /// best (e.g. `1.05` = within 5%).
    pub fn iterations_to_within(&self, factor: f64) -> Option<usize> {
        let best = self.best()?.cost;
        let threshold = best * factor;
        self.evals
            .iter()
            .find(|e| e.cost <= threshold)
            .map(|e| e.iteration)
    }

    /// The sequence of *best-so-far* configurations with, for each
    /// improvement step, the parameters whose values changed relative to the
    /// previous best. Regenerates the shape of the paper's Table I
    /// ("each row shows only the parameter that changes").
    pub fn parameter_change_trace(&self) -> Vec<TraceRow> {
        let mut rows = Vec::new();
        let mut current_best: Option<&Evaluation> = None;
        for e in &self.evals {
            let improved = match current_best {
                None => true,
                Some(b) => e.cost < b.cost,
            };
            if !improved {
                continue;
            }
            let changes = match current_best {
                None => Vec::new(),
                Some(prev) => e
                    .config
                    .iter()
                    .filter_map(|(name, value)| {
                        let old = prev.config.get(name)?;
                        if old != value {
                            Some(ParamChange {
                                name: name.to_string(),
                                from: old.to_string(),
                                to: value.to_string(),
                            })
                        } else {
                            None
                        }
                    })
                    .collect(),
            };
            rows.push(TraceRow {
                iteration: e.iteration,
                cost: e.cost,
                changes,
            });
            current_best = Some(e);
        }
        rows
    }

    /// The per-iteration parameter diffs against the *previous iteration*
    /// (the exact semantics of the paper's Table I footnote: "each row shows
    /// only the parameter that changes; all the rest of parameters remain
    /// the same compared to the previous iteration"). Cached replays are
    /// skipped — they are not application runs.
    pub fn step_change_trace(&self) -> Vec<TraceRow> {
        let mut rows = Vec::new();
        let mut prev: Option<&Evaluation> = None;
        for e in self.evals.iter().filter(|e| !e.cached) {
            let changes = match prev {
                None => Vec::new(),
                Some(p) => e
                    .config
                    .iter()
                    .filter_map(|(name, value)| {
                        let old = p.config.get(name)?;
                        if old != value {
                            Some(ParamChange {
                                name: name.to_string(),
                                from: old.to_string(),
                                to: value.to_string(),
                            })
                        } else {
                            None
                        }
                    })
                    .collect(),
            };
            rows.push(TraceRow {
                iteration: e.iteration,
                cost: e.cost,
                changes,
            });
            prev = Some(e);
        }
        rows
    }
}

/// One improvement step in a [`History::parameter_change_trace`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRow {
    /// Iteration at which the improvement happened.
    pub iteration: usize,
    /// Cost of the new best configuration.
    pub cost: f64,
    /// Parameters whose values differ from the previous best (empty for the
    /// first row, which is the starting configuration).
    pub changes: Vec<ParamChange>,
}

/// A single parameter's before/after values in a trace row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamChange {
    /// Parameter name.
    pub name: String,
    /// Previous value (rendered).
    pub from: String,
    /// New value (rendered).
    pub to: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .int("x", 0, 10, 1)
            .enumeration("m", ["a", "b"])
            .build()
            .unwrap()
    }

    fn eval(it: usize, x: i64, m: f64, cost: f64) -> Evaluation {
        let s = space();
        Evaluation {
            iteration: it,
            config: s.project(&[x as f64, m]),
            cost,
            cached: false,
            cumulative_time: it as f64,
        }
    }

    #[test]
    fn best_and_curve() {
        let mut h = History::new();
        h.push(eval(1, 5, 0.0, 10.0));
        h.push(eval(2, 6, 0.0, 12.0));
        h.push(eval(3, 3, 1.0, 7.0));
        assert_eq!(h.best().unwrap().cost, 7.0);
        assert_eq!(h.runs(), 3);
    }

    #[test]
    fn trace_reports_only_changes() {
        let mut h = History::new();
        h.push(eval(1, 5, 0.0, 10.0));
        h.push(eval(2, 5, 1.0, 8.0)); // only m changed
        h.push(eval(3, 2, 1.0, 6.0)); // only x changed
        let trace = h.parameter_change_trace();
        assert_eq!(trace.len(), 3);
        assert!(trace[0].changes.is_empty());
        assert_eq!(trace[1].changes.len(), 1);
        assert_eq!(trace[1].changes[0].name, "m");
        assert_eq!(trace[2].changes[0].name, "x");
        assert_eq!(trace[2].changes[0].from, "5");
        assert_eq!(trace[2].changes[0].to, "2");
    }

    #[test]
    fn step_trace_diffs_consecutive_iterations() {
        let mut h = History::new();
        h.push(eval(1, 5, 0.0, 10.0));
        h.push(eval(2, 6, 1.0, 12.0)); // both params changed, cost worse
        let mut cached = eval(3, 6, 1.0, 12.0);
        cached.cached = true;
        h.push(cached); // replay: skipped
        h.push(eval(4, 6, 0.0, 11.0)); // only m changed vs iteration 2
        let trace = h.step_change_trace();
        assert_eq!(trace.len(), 3);
        assert!(trace[0].changes.is_empty());
        assert_eq!(trace[1].changes.len(), 2);
        assert_eq!(trace[2].changes.len(), 1);
        assert_eq!(trace[2].changes[0].name, "m");
    }

    #[test]
    fn iterations_to_within_finds_first_good_iteration() {
        let mut h = History::new();
        h.push(eval(1, 5, 0.0, 100.0));
        h.push(eval(2, 4, 0.0, 52.0));
        h.push(eval(3, 3, 0.0, 50.0));
        assert_eq!(h.iterations_to_within(1.05), Some(2));
        assert_eq!(h.iterations_to_within(1.0), Some(3));
    }

    #[test]
    fn empty_history_is_safe() {
        let h = History::new();
        assert!(h.best().is_none());
        assert!(h.is_empty());
        assert!(h.parameter_change_trace().is_empty());
        assert_eq!(h.iterations_to_within(1.1), None);
    }
}
