//! Information from prior runs (the SC'04 technique referenced in §II/§IV).
//!
//! For very large spaces (the paper's 90,601×90,601 PETSc decomposition has
//! O(10¹⁰⁰) points) a cold-started simplex wastes iterations. The prior-run
//! database remembers good configurations from earlier, related tuning
//! sessions and turns them into (a) an initial simplex seed and (b) a
//! narrowed search range around the historically good region.
//!
//! Since the persistent performance database landed, [`PriorRunDb`] is the
//! in-memory *query layer* over it rather than a storage format of its own:
//! `PerfStore::priors_for` materializes one from the store's live records
//! of one application, and the warm-start surfaces
//! ([`PerfStore::seed_for`](crate::store::PerfStore::seed_for),
//! [`PerfStore::narrowed_space`](crate::store::PerfStore::narrowed_space))
//! delegate through it. Hand-built databases (e.g. from a
//! [`History`](crate::history::History) via
//! [`PriorRunDb::record_history`]) keep working unchanged.

use crate::space::{Configuration, SearchSpace};
use crate::strategy::StartPoint;

/// A remembered `(configuration, cost)` outcome of a prior tuning run.
#[derive(Debug, Clone)]
pub struct PriorRun {
    /// Label of the application/problem the run belongs to.
    pub app: String,
    /// The configuration that was measured.
    pub config: Configuration,
    /// Measured cost.
    pub cost: f64,
}

/// A small database of prior tuning results, queryable by application label.
#[derive(Debug, Clone, Default)]
pub struct PriorRunDb {
    runs: Vec<PriorRun>,
}

impl PriorRunDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one run.
    pub fn record(&mut self, app: impl Into<String>, config: Configuration, cost: f64) {
        self.runs.push(PriorRun {
            app: app.into(),
            config,
            cost,
        });
    }

    /// Import every evaluation of a finished session.
    pub fn record_history(&mut self, app: &str, history: &crate::history::History) {
        for e in history.evaluations() {
            if !e.cached {
                self.record(app, e.config.clone(), e.cost);
            }
        }
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The `k` best prior configurations for `app`, best first.
    pub(crate) fn best_for(&self, app: &str, k: usize) -> Vec<&PriorRun> {
        let mut matches: Vec<&PriorRun> = self.runs.iter().filter(|r| r.app == app).collect();
        matches.sort_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        matches.truncate(k);
        matches
    }

    /// Build a simplex seed for a *new* space from the best prior runs:
    /// prior configurations are re-embedded by parameter name, values for
    /// parameters absent from the prior run default to the space centre, and
    /// values out of the new range are clamped by projection.
    ///
    /// Returns `StartPoint::Center` when no prior information exists.
    pub fn seed_for(&self, app: &str, space: &SearchSpace) -> StartPoint {
        let best = self.best_for(app, space.dims() + 1);
        if best.is_empty() {
            return StartPoint::Center;
        }
        let center = space
            .embed(&space.center())
            .expect("center embeds into its own space");
        let mut points = Vec::with_capacity(best.len());
        for run in best {
            let mut coords = center.clone();
            for (i, p) in space.params().iter().enumerate() {
                if let Some(v) = run.config.get(p.name()) {
                    if let Ok(c) = p.embed(v) {
                        coords[i] = c;
                    } else {
                        // Out-of-range prior value: clamp into the new box.
                        let approx = match v {
                            crate::value::ParamValue::Int(x) => *x as f64,
                            crate::value::ParamValue::Real(x) => *x,
                            crate::value::ParamValue::Enum { index, .. } => *index as f64,
                        };
                        coords[i] = approx.clamp(p.embed_min(), p.embed_max());
                    }
                }
            }
            space.repair(&mut coords);
            points.push(coords);
        }
        StartPoint::Simplex(points)
    }

    /// Narrow an integer/real space around the prior-good region: for every
    /// parameter seen in prior runs, shrink its range to
    /// `[best−margin·range, best+margin·range]` (categoricals are left
    /// untouched). Returns a new space preserving constraints.
    pub fn narrowed_space(
        &self,
        app: &str,
        space: &SearchSpace,
        margin: f64,
    ) -> crate::error::Result<SearchSpace> {
        let best = self.best_for(app, 1);
        let Some(best) = best.first() else {
            return Ok(space.clone());
        };
        let mut builder = SearchSpace::builder();
        for p in space.params() {
            let narrowed = match (p, best.config.get(p.name())) {
                (
                    crate::param::Param::Int {
                        name,
                        min,
                        max,
                        step,
                    },
                    Some(v),
                ) => {
                    if let Some(b) = v.as_int() {
                        let range = (*max - *min) as f64;
                        let half = (range * margin).max(*step as f64);
                        let lo = ((b as f64 - half).floor() as i64).max(*min);
                        let hi = ((b as f64 + half).ceil() as i64).min(*max);
                        crate::param::Param::int(name.clone(), lo, hi.max(lo), *step)
                    } else {
                        p.clone()
                    }
                }
                (crate::param::Param::Real { name, min, max }, Some(v)) => {
                    if let Some(b) = v.as_real() {
                        let half = (max - min) * margin;
                        crate::param::Param::real(
                            name.clone(),
                            (b - half).max(*min),
                            (b + half).min(*max),
                        )
                    } else {
                        p.clone()
                    }
                }
                _ => p.clone(),
            };
            builder = builder.param(narrowed);
        }
        for c in space.constraints() {
            builder = builder.shared_constraint(c.clone());
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StartPoint;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .int("x", 0, 100, 1)
            .int("y", 0, 100, 1)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_db_gives_center_start() {
        let db = PriorRunDb::new();
        assert!(matches!(db.seed_for("app", &space()), StartPoint::Center));
    }

    #[test]
    fn best_for_sorts_and_filters() {
        let s = space();
        let mut db = PriorRunDb::new();
        db.record("a", s.project(&[1.0, 1.0]), 5.0);
        db.record("a", s.project(&[2.0, 2.0]), 3.0);
        db.record("b", s.project(&[3.0, 3.0]), 1.0);
        let best = db.best_for("a", 10);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].cost, 3.0);
    }

    #[test]
    fn seed_uses_prior_points() {
        let s = space();
        let mut db = PriorRunDb::new();
        db.record("a", s.project(&[10.0, 20.0]), 1.0);
        db.record("a", s.project(&[12.0, 22.0]), 2.0);
        match db.seed_for("a", &s) {
            StartPoint::Simplex(points) => {
                assert_eq!(points.len(), 2);
                assert_eq!(points[0], vec![10.0, 20.0]);
            }
            other => panic!("expected simplex seed, got {other:?}"),
        }
    }

    #[test]
    fn seed_survives_space_with_extra_params() {
        let small = space();
        let mut db = PriorRunDb::new();
        db.record("a", small.project(&[10.0, 20.0]), 1.0);
        let bigger = SearchSpace::builder()
            .int("x", 0, 100, 1)
            .int("y", 0, 100, 1)
            .int("z", 0, 10, 1)
            .build()
            .unwrap();
        match db.seed_for("a", &bigger) {
            StartPoint::Simplex(points) => {
                assert_eq!(points[0][0], 10.0);
                assert_eq!(points[0][1], 20.0);
                assert_eq!(points[0][2], 5.0); // z defaults to centre
            }
            other => panic!("expected simplex, got {other:?}"),
        }
    }

    #[test]
    fn narrowed_space_shrinks_ranges_around_best() {
        let s = space();
        let mut db = PriorRunDb::new();
        db.record("a", s.project(&[50.0, 50.0]), 1.0);
        let narrow = db.narrowed_space("a", &s, 0.1).unwrap();
        let p = &narrow.params()[0];
        assert_eq!(p.embed_min(), 40.0);
        assert_eq!(p.embed_max(), 60.0);
        assert!(narrow.cardinality().unwrap() < s.cardinality().unwrap());
    }

    #[test]
    fn narrowed_space_keeps_its_constraints_specs() {
        use crate::constraint::MonotoneChain;
        use crate::store::space_fingerprint;
        let chained = SearchSpace::builder()
            .int("x", 0, 100, 1)
            .int("y", 0, 100, 1)
            .constraint(MonotoneChain::new(["x", "y"]))
            .build()
            .unwrap();
        let mut db = PriorRunDb::new();
        db.record("a", chained.project(&[40.0, 60.0]), 1.0);
        let narrow = db.narrowed_space("a", &chained, 0.1).unwrap();
        let specs = |s: &SearchSpace| {
            s.constraints()
                .iter()
                .map(|c| c.spec(s))
                .collect::<Vec<_>>()
        };
        assert_eq!(specs(&narrow), specs(&chained));
        assert_eq!(
            specs(&narrow),
            [crate::constraint::ConstraintSpec::Chain(vec![0, 1])]
        );
        // The store keys records by fingerprint: the narrowed space must
        // not read as the unconstrained space over the same parameters.
        let unconstrained = SearchSpace::new(narrow.params().to_vec()).unwrap();
        assert_ne!(
            space_fingerprint(&narrow),
            space_fingerprint(&unconstrained)
        );
        // And it compiles with its constraint propagated, not checked point
        // by point through a callback.
        let stats = narrow.compiled().expect("discrete").stats();
        assert_eq!((stats.constraints, stats.compiled_constraints), (1, 1));
    }

    #[test]
    fn narrowed_space_without_priors_is_unchanged() {
        let s = space();
        let db = PriorRunDb::new();
        let same = db.narrowed_space("a", &s, 0.1).unwrap();
        assert_eq!(same.cardinality(), s.cardinality());
    }

    #[test]
    fn record_history_imports_fresh_evals_only() {
        let s = space();
        let mut h = crate::history::History::new();
        h.push(crate::history::Evaluation {
            iteration: 1,
            config: s.project(&[1.0, 1.0]),
            cost: 9.0,
            cached: false,
            cumulative_time: 9.0,
        });
        h.push(crate::history::Evaluation {
            iteration: 2,
            config: s.project(&[1.0, 1.0]),
            cost: 9.0,
            cached: true,
            cumulative_time: 9.0,
        });
        let mut db = PriorRunDb::new();
        db.record_history("a", &h);
        assert_eq!(db.len(), 1);
    }
}
