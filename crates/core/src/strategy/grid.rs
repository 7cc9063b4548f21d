//! Systematic sampling over the whole search space (paper §VI, Figure 6).
//!
//! "We also explore the whole search space using systematic sampling (i.e.,
//! using configurations that are evenly distributed in the whole search
//! space)." [`GridSearch`] picks `lᵢ` evenly spaced levels per dimension so
//! that `∏ lᵢ` approaches a target sample budget, and enumerates the
//! Cartesian product.

use super::SearchStrategy;
use crate::space::SearchSpace;
use rand::rngs::StdRng;
use std::collections::HashSet;

/// Evenly distributed systematic sampling with a sample budget.
///
/// On a constrained space, grid points that violate a constraint are
/// *skipped* (and points whose per-dimension lattice snap collides with an
/// already-proposed point are deduplicated) rather than repaired into
/// duplicate configurations; the number of proposals may therefore fall
/// short of the planned `∏ lᵢ`. Unconstrained spaces keep the exact
/// historical stream.
#[derive(Debug)]
pub struct GridSearch {
    target: usize,
    levels: Vec<Vec<f64>>,
    /// Mixed-radix counter over the levels.
    counter: Vec<usize>,
    /// Cache keys already proposed (constrained spaces only).
    proposed: HashSet<Vec<i64>>,
    done: bool,
    started: bool,
}

impl GridSearch {
    /// Sample approximately `target` evenly distributed configurations.
    pub fn new(target: usize) -> Self {
        GridSearch {
            target: target.max(1),
            levels: Vec::new(),
            counter: Vec::new(),
            proposed: HashSet::new(),
            done: false,
            started: false,
        }
    }

    fn plan(&mut self, space: &SearchSpace) {
        let k = space.dims();
        // Start with floor(target^(1/k)) levels per dimension and grow
        // greedily while under budget.
        let mut per_dim = (self.target as f64).powf(1.0 / k as f64).floor() as usize;
        per_dim = per_dim.max(1);
        self.levels = space.params().iter().map(|p| p.levels(per_dim)).collect();
        // Greedy growth: add a level to the dimension with the fewest levels
        // while the total stays within the budget.
        loop {
            let total: usize = self.levels.iter().map(Vec::len).product();
            let mut best: Option<(usize, usize)> = None; // (levels, dim)
            for (d, p) in space.params().iter().enumerate() {
                let cur = self.levels[d].len();
                let cap = p.cardinality().map(|c| c as usize).unwrap_or(usize::MAX);
                if cur >= cap {
                    continue;
                }
                let grown = total / cur * (cur + 1);
                if grown <= self.target && best.map(|(l, _)| cur < l).unwrap_or(true) {
                    best = Some((cur, d));
                }
            }
            match best {
                Some((_, d)) => {
                    let n = self.levels[d].len() + 1;
                    self.levels[d] = space.params()[d].levels(n);
                }
                None => break,
            }
        }
        self.counter = vec![0; k];
        self.proposed.clear();
        self.done = false;
        self.started = true;
    }

    fn advance(&mut self) {
        for d in (0..self.counter.len()).rev() {
            self.counter[d] += 1;
            if self.counter[d] < self.levels[d].len() {
                return;
            }
            self.counter[d] = 0;
        }
        self.done = true;
    }
}

impl SearchStrategy for GridSearch {
    fn name(&self) -> &'static str {
        "systematic-sampling"
    }

    fn init(&mut self, space: &SearchSpace, _rng: &mut StdRng) {
        self.plan(space);
    }

    fn propose(&mut self, space: &SearchSpace, _rng: &mut StdRng) -> Option<Vec<f64>> {
        if !self.started {
            self.plan(space);
        }
        loop {
            if self.done {
                return None;
            }
            let mut p: Vec<f64> = self
                .counter
                .iter()
                .zip(&self.levels)
                .map(|(&i, lv)| lv[i])
                .collect();
            self.advance();
            if space.constraints().is_empty() {
                // Historical stream, bit-identical: repair is a no-op
                // without constraints, and every grid point is proposed.
                space.repair(&mut p);
                return Some(p);
            }
            // Constrained: snap each coordinate to its lattice *without*
            // constraint repair, then skip the point unless it is valid
            // and new — repairing would collapse many grid points onto
            // the same feasible configuration and inflate evaluation
            // counts with duplicates.
            match space.snap(&p) {
                Some(cfg) if self.proposed.insert(cfg.cache_key()) => {
                    return space.embed(&cfg).ok();
                }
                _ => continue,
            }
        }
    }

    fn feedback(&mut self, _coords: &[f64], _cost: f64, _space: &SearchSpace, _rng: &mut StdRng) {}

    fn converged(&self) -> bool {
        self.done
    }

    /// The sample plan is fixed up front and feedback is a no-op, so the
    /// whole remaining plan may be outstanding at once.
    fn can_propose_unanswered(&self, _unanswered: usize) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .int("a", 0, 9, 1)
            .int("b", 0, 9, 1)
            .build()
            .unwrap()
    }

    /// Every proposal of a grid over `s`, counted to exhaustion.
    fn proposals(s: &SearchSpace, target: usize) -> usize {
        let mut g = GridSearch::new(target);
        let mut rng = StdRng::seed_from_u64(0);
        g.init(s, &mut rng);
        std::iter::from_fn(|| g.propose(s, &mut rng)).count()
    }

    #[test]
    fn planned_samples_close_to_target() {
        let n = proposals(&space(), 36);
        assert!((25..=36).contains(&n), "planned={n}");
    }

    #[test]
    fn enumerates_without_duplicates_and_terminates() {
        let s = space();
        let mut g = GridSearch::new(25);
        let mut rng = StdRng::seed_from_u64(0);
        g.init(&s, &mut rng);
        let mut seen = HashSet::new();
        let mut count = 0;
        while let Some(p) = g.propose(&s, &mut rng) {
            let cfg = s.project(&p);
            seen.insert(cfg.cache_key());
            count += 1;
            assert!(count <= 25, "grid overshot its budget");
        }
        assert_eq!(count, 25, "a 5×5 grid");
        assert_eq!(seen.len(), count, "grid points projected onto duplicates");
        assert!(g.converged());
    }

    #[test]
    fn respects_small_cardinality_dimensions() {
        let s = SearchSpace::builder()
            .enumeration("mode", ["x", "y"]) // only 2 points
            .int("n", 0, 99, 1)
            .build()
            .unwrap();
        // 2 levels max on the enum; remaining budget goes to `n`.
        let n = proposals(&s, 1000);
        assert!(n <= 1000);
        assert!(n >= 2 * 100); // n fully expands to 100 levels
    }

    #[test]
    fn constrained_grid_skips_instead_of_repairing_into_duplicates() {
        let s = SearchSpace::builder()
            .int("b1", 0, 9, 1)
            .int("b2", 0, 9, 1)
            .constraint(crate::constraint::MonotoneChain::new(["b1", "b2"]))
            .build()
            .unwrap();
        let mut g = GridSearch::new(100);
        let mut rng = StdRng::seed_from_u64(0);
        g.init(&s, &mut rng);
        let mut seen = HashSet::new();
        while let Some(p) = g.propose(&s, &mut rng) {
            let cfg = s.project(&p);
            assert!(s.is_valid(&cfg), "{cfg}");
            assert!(seen.insert(cfg.cache_key()), "duplicate proposal {cfg}");
        }
        // The feasible half of the 10×10 grid (incl. the diagonal).
        assert_eq!(seen.len(), 55);
        assert!(g.converged());
    }

    #[test]
    fn single_point_budget_yields_center() {
        let s = space();
        let mut g = GridSearch::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        g.init(&s, &mut rng);
        let p = g.propose(&s, &mut rng).unwrap();
        let cfg = s.project(&p);
        assert_eq!(cfg.int("a"), Some(5));
        assert!(g.propose(&s, &mut rng).is_none());
    }
}
