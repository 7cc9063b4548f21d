//! Exhaustive enumeration of every *valid* lattice point.
//!
//! Only feasible for small spaces (the paper notes exhaustive exploration
//! "can take months of CPU time" for real applications) but invaluable as
//! ground truth in tests and small experiments such as Figure 2(b).
//!
//! The strategy enumerates the [`CompiledSpace`](crate::space_compile) —
//! constraint-infeasible points are skipped during the walk, never proposed
//! and repaired into duplicates of their neighbours. On a constrained space
//! the safety valve therefore keys off the *feasible* count: a space with a
//! huge raw product but few valid points is still enumerable.

use super::SearchStrategy;
use crate::space::SearchSpace;
use crate::space_compile::{FeasibleCount, PointCursor};
use rand::rngs::StdRng;

/// Enumerates all valid lattice points of a fully discrete space, in
/// mixed-radix (lexicographic) order, skipping constraint-infeasible
/// points. Proposes nothing for spaces with continuous dimensions or more
/// valid points than `limit`.
#[derive(Debug)]
pub struct Exhaustive {
    limit: u64,
    cursor: Option<PointCursor>,
    done: bool,
    started: bool,
}

impl Default for Exhaustive {
    fn default() -> Self {
        Self::new(1_000_000)
    }
}

impl Exhaustive {
    /// Enumerate at most `limit` valid points (safety valve).
    pub fn new(limit: u64) -> Self {
        Exhaustive {
            limit,
            cursor: None,
            done: false,
            started: false,
        }
    }

    fn plan(&mut self, space: &SearchSpace) {
        self.started = true;
        let Some(cs) = space.compiled() else {
            // Continuous dimensions: nothing to enumerate.
            self.done = true;
            return;
        };
        // Refuse unless the feasible count is provably within the limit.
        // The count is the space's own, shared with every clone: a space
        // already counted answers at once. Otherwise the node budget
        // bounds the counting walk, so a hostile space (huge raw product,
        // opaque constraints) answers quickly with `AtLeast` instead of
        // hanging here.
        let budget = self.limit.saturating_mul(64).saturating_add(4096);
        match cs.valid_count(&mut cs.start(), self.limit, budget) {
            FeasibleCount::Exact(n) if n <= self.limit => {
                self.cursor = Some(cs.start());
                self.done = false;
            }
            _ => {
                self.done = true;
            }
        }
    }
}

impl SearchStrategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn init(&mut self, space: &SearchSpace, _rng: &mut StdRng) {
        self.plan(space);
    }

    fn propose(&mut self, space: &SearchSpace, _rng: &mut StdRng) -> Option<Vec<f64>> {
        if !self.started {
            self.plan(space);
        }
        if self.done {
            return None;
        }
        let (cs, cur) = (space.compiled()?, self.cursor.as_mut()?);
        if cs.next_point(cur) {
            Some(cs.coords(cur.indices()))
        } else {
            self.done = true;
            None
        }
    }

    fn feedback(&mut self, _coords: &[f64], _cost: f64, _space: &SearchSpace, _rng: &mut StdRng) {}

    fn converged(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::MonotoneChain;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn visits_every_point_exactly_once() {
        let s = SearchSpace::builder()
            .int("a", 2, 6, 2) // 2, 4, 6
            .enumeration("m", ["p", "q"])
            .build()
            .unwrap();
        let mut e = Exhaustive::default();
        let mut rng = StdRng::seed_from_u64(0);
        e.init(&s, &mut rng);
        let mut seen = HashSet::new();
        while let Some(p) = e.propose(&s, &mut rng) {
            assert!(seen.insert(s.project(&p).cache_key()));
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn constrained_space_yields_no_duplicates_and_only_valid_points() {
        let s = SearchSpace::builder()
            .int("b1", 0, 9, 1)
            .int("b2", 0, 9, 1)
            .int("b3", 0, 9, 1)
            .constraint(MonotoneChain::new(["b1", "b2", "b3"]))
            .build()
            .unwrap();
        let mut e = Exhaustive::default();
        let mut rng = StdRng::seed_from_u64(0);
        e.init(&s, &mut rng);
        let mut seen = HashSet::new();
        while let Some(p) = e.propose(&s, &mut rng) {
            let cfg = s.project(&p);
            assert!(s.is_valid(&cfg), "{cfg}");
            assert!(seen.insert(cfg.cache_key()), "duplicate proposal {cfg}");
        }
        // C(10+2, 3) = 220 non-decreasing triples over 10 values.
        assert_eq!(seen.len(), 220);
    }

    #[test]
    fn limit_applies_to_the_feasible_count_not_the_raw_product() {
        // Raw product 10^4, only 715 valid points: enumerable under a
        // limit of 1000 now that infeasible points are skipped.
        let s = SearchSpace::builder()
            .int("b1", 0, 9, 1)
            .int("b2", 0, 9, 1)
            .int("b3", 0, 9, 1)
            .int("b4", 0, 9, 1)
            .constraint(MonotoneChain::new(["b1", "b2", "b3", "b4"]))
            .build()
            .unwrap();
        let mut e = Exhaustive::new(1000);
        let mut rng = StdRng::seed_from_u64(0);
        e.init(&s, &mut rng);
        let mut n = 0;
        while e.propose(&s, &mut rng).is_some() {
            n += 1;
        }
        assert_eq!(n, 715); // C(10+3, 4)
    }

    #[test]
    fn refuses_oversized_spaces() {
        let s = SearchSpace::builder()
            .int("a", 0, 1_000_000, 1)
            .int("b", 0, 1_000_000, 1)
            .build()
            .unwrap();
        let mut e = Exhaustive::new(1000);
        let mut rng = StdRng::seed_from_u64(0);
        e.init(&s, &mut rng);
        assert!(e.propose(&s, &mut rng).is_none());
    }

    #[test]
    fn refuses_continuous_spaces() {
        let s = SearchSpace::builder().real("r", 0.0, 1.0).build().unwrap();
        let mut e = Exhaustive::default();
        let mut rng = StdRng::seed_from_u64(0);
        e.init(&s, &mut rng);
        assert!(e.propose(&s, &mut rng).is_none());
    }
}
