//! Simulated annealing with a coupled, data-driven temperature schedule
//! (the PATSMA recipe adapted to Active Harmony's ask–tell loop).
//!
//! Classic annealing needs a hand-picked initial temperature, and on tuning
//! surfaces whose cost scale is unknown up front that choice dominates the
//! outcome. This implementation *couples* the schedule to the observed
//! surface: the first [`AnnealingOptions::warmup`] evaluations sample the
//! space and the initial temperature is estimated from the mean |Δcost|
//! actually observed, so acceptance probabilities start in a sane band
//! whether costs are microseconds or hours. Neighbor proposals are
//! lattice-aware — whole parameter steps, never sub-lattice dithers that
//! project back onto the incumbent — and the schedule reheats when the
//! search stagnates instead of freezing in a local basin.

use super::{AnnealingSnapshot, SearchStrategy, StrategySnapshot};
use crate::space::SearchSpace;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// Width of the sliding window the acceptance-rate diagnostic averages
/// over.
const ACCEPT_WINDOW: usize = 20;

/// Neighbor-draw attempts before giving up on feasibility/novelty and
/// falling back to a plain repaired candidate.
const DRAW_ATTEMPTS: usize = 24;

/// Tunable knobs of [`Annealing`] — the hyperparameter surface the
/// meta-tuner searches.
#[derive(Debug, Clone)]
pub struct AnnealingOptions {
    /// Multiplier on the adaptive initial temperature estimated from the
    /// warm-up cost deltas.
    pub t0_scale: f64,
    /// Geometric cooling factor applied after every annealed feedback
    /// (`0 < cooling < 1`).
    pub cooling: f64,
    /// Random warm-up samples used to estimate the cost scale before
    /// annealing starts.
    pub warmup: usize,
    /// Feedbacks without a new global best before the schedule reheats.
    pub reheat_after: usize,
    /// Fraction of the initial temperature a reheat restores.
    pub reheat_factor: f64,
    /// Maximum lattice steps a neighbor move takes in one dimension at
    /// full temperature (cools toward single steps as T drops).
    pub max_step: usize,
}

impl Default for AnnealingOptions {
    fn default() -> Self {
        AnnealingOptions {
            t0_scale: 1.0,
            cooling: 0.92,
            warmup: 6,
            reheat_after: 15,
            reheat_factor: 0.5,
            max_step: 4,
        }
    }
}

/// Coupled simulated annealing over the continuous embedding's lattice.
pub struct Annealing {
    opts: AnnealingOptions,
    /// Incumbent the walk perturbs: `(coords, cost)`.
    current: Option<(Vec<f64>, f64)>,
    /// Best point ever observed: `(coords, cost)`.
    best: Option<(Vec<f64>, f64)>,
    /// Costs observed during warm-up, in order.
    warmup_costs: Vec<f64>,
    /// Adaptive initial temperature (set once warm-up completes).
    t0: Option<f64>,
    temperature: f64,
    accepts: VecDeque<bool>,
    stagnant: usize,
    reheats: usize,
    evals: usize,
}

impl Default for Annealing {
    fn default() -> Self {
        Annealing::new(AnnealingOptions::default())
    }
}

impl Annealing {
    /// Create an annealer with the given schedule options.
    pub fn new(opts: AnnealingOptions) -> Self {
        Annealing {
            opts: AnnealingOptions {
                warmup: opts.warmup.max(2),
                max_step: opts.max_step.max(1),
                cooling: opts.cooling.clamp(0.5, 0.999),
                ..opts
            },
            current: None,
            best: None,
            warmup_costs: Vec::new(),
            t0: None,
            temperature: 0.0,
            accepts: VecDeque::new(),
            stagnant: 0,
            reheats: 0,
            evals: 0,
        }
    }

    /// `coords` on its lattice point ([`SearchSpace::snap`]); `None` if
    /// that point violates a constraint.
    fn snap(space: &SearchSpace, coords: &[f64]) -> Option<Vec<f64>> {
        space.snap(coords).and_then(|cfg| space.embed(&cfg).ok())
    }

    /// A feasible lattice-snapped random sample (warm-up proposals).
    fn sample(space: &SearchSpace, rng: &mut StdRng) -> Vec<f64> {
        for _ in 0..DRAW_ATTEMPTS {
            let cand = space.sample_coords(rng);
            if let Some(snapped) = Self::snap(space, &cand) {
                return snapped;
            }
        }
        let mut cand = space.sample_coords(rng);
        space.repair(&mut cand);
        cand
    }

    /// One lattice-aware neighbor of the incumbent: perturb one (sometimes
    /// two) dimensions by whole lattice steps, more steps while hot.
    fn neighbor(&self, space: &SearchSpace, rng: &mut StdRng) -> Vec<f64> {
        let (incumbent, _) = self
            .current
            .as_ref()
            .expect("neighbor() requires an incumbent");
        let dims = incumbent.len();
        let heat = match self.t0 {
            Some(t0) if t0 > 0.0 => (self.temperature / t0).clamp(0.0, 1.0),
            _ => 1.0,
        };
        let max_step = 1 + ((self.opts.max_step - 1) as f64 * heat).round() as usize;
        for _ in 0..DRAW_ATTEMPTS {
            let mut cand = incumbent.clone();
            let move_two = dims > 1 && rng.gen_bool(0.25);
            let picks = if move_two { 2 } else { 1 };
            for _ in 0..picks {
                let d = rng.gen_range(0..dims);
                let p = &space.params()[d];
                let (lo, hi) = (p.embed_min(), p.embed_max());
                // Lattice pitch: whole parameter steps where the lattice is
                // finite, a 1/64th-range stride for real parameters.
                let pitch = match p.cardinality() {
                    Some(card) if card > 1 => (hi - lo) / (card - 1) as f64,
                    _ => (hi - lo) / 64.0,
                };
                if pitch <= 0.0 {
                    continue;
                }
                let steps = rng.gen_range(1..=max_step) as f64;
                let dir = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                cand[d] = (cand[d] + dir * steps * pitch).clamp(lo, hi);
            }
            if let Some(snapped) = Self::snap(space, &cand) {
                if &snapped != incumbent {
                    return snapped;
                }
            }
        }
        // Every draw landed back on the incumbent (or infeasible): jump.
        Self::sample(space, rng)
    }

    fn acceptance_rate(&self) -> f64 {
        if self.accepts.is_empty() {
            return 0.0;
        }
        self.accepts.iter().filter(|&&a| a).count() as f64 / self.accepts.len() as f64
    }

    fn record_accept(&mut self, accepted: bool) {
        if self.accepts.len() == ACCEPT_WINDOW {
            self.accepts.pop_front();
        }
        self.accepts.push_back(accepted);
    }

    /// Adaptive initial temperature: mean |Δcost| between consecutive
    /// warm-up samples, so `exp(-Δ/T0)` starts in a useful band for the
    /// surface's actual scale.
    fn couple_temperature(&mut self) {
        let deltas: Vec<f64> = self
            .warmup_costs
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .filter(|d| d.is_finite())
            .collect();
        let t0 = if deltas.is_empty() {
            1.0
        } else {
            (deltas.iter().sum::<f64>() / deltas.len() as f64).max(1e-12)
        };
        let t0 = t0 * self.opts.t0_scale.max(1e-6);
        self.t0 = Some(t0);
        self.temperature = t0;
    }
}

impl SearchStrategy for Annealing {
    fn name(&self) -> &'static str {
        "annealing"
    }

    fn init(&mut self, _space: &SearchSpace, _rng: &mut StdRng) {
        self.current = None;
        self.best = None;
        self.warmup_costs.clear();
        self.t0 = None;
        self.temperature = 0.0;
        self.accepts.clear();
        self.stagnant = 0;
        self.reheats = 0;
        self.evals = 0;
    }

    fn propose(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Option<Vec<f64>> {
        if self.evals < self.opts.warmup || self.current.is_none() {
            return Some(Self::sample(space, rng));
        }
        Some(self.neighbor(space, rng))
    }

    fn feedback(&mut self, coords: &[f64], cost: f64, _space: &SearchSpace, rng: &mut StdRng) {
        self.evals += 1;
        let improved_best = self.best.as_ref().is_none_or(|(_, b)| cost < *b);
        if improved_best {
            self.best = Some((coords.to_vec(), cost));
        }
        if self.t0.is_none() {
            // Warm-up: greedy incumbent, collect the cost scale.
            self.warmup_costs.push(cost);
            let better = self.current.as_ref().is_none_or(|(_, c)| cost < *c);
            if better {
                self.current = Some((coords.to_vec(), cost));
            }
            if self.evals >= self.opts.warmup {
                self.couple_temperature();
            }
            return;
        }
        // Annealing: Metropolis acceptance against the incumbent.
        let current_cost = self.current.as_ref().map_or(f64::INFINITY, |(_, c)| *c);
        let delta = cost - current_cost;
        let accepted = if delta <= 0.0 {
            true
        } else {
            let t = self.temperature.max(1e-300);
            rng.gen::<f64>() < (-delta / t).exp()
        };
        self.record_accept(accepted);
        if accepted {
            self.current = Some((coords.to_vec(), cost));
        }
        if improved_best {
            self.stagnant = 0;
        } else {
            self.stagnant += 1;
            if self.stagnant >= self.opts.reheat_after.max(1) {
                let t0 = self.t0.unwrap_or(1.0);
                self.temperature = self
                    .temperature
                    .max(t0 * self.opts.reheat_factor.clamp(0.0, 1.0));
                // Restart the walk from the best point seen.
                self.current = self.best.clone();
                self.reheats += 1;
                self.stagnant = 0;
            }
        }
        self.temperature *= self.opts.cooling;
    }

    fn snapshot(&self) -> StrategySnapshot {
        StrategySnapshot {
            phase: if self.t0.is_none() {
                "warmup"
            } else {
                "anneal"
            },
            annealing: Some(AnnealingSnapshot {
                temperature: self.temperature,
                acceptance_rate: self.acceptance_rate(),
                reheats: self.reheats,
                best_cost: self.best.as_ref().map_or(f64::INFINITY, |(_, c)| *c),
            }),
            ..StrategySnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::MonotoneChain;
    use crate::strategy::test_util::drive;
    use rand::SeedableRng;

    fn bowl_space() -> SearchSpace {
        SearchSpace::builder()
            .int("x", 0, 80, 1)
            .int("y", -30, 30, 1)
            .build()
            .unwrap()
    }

    fn bowl(cfg: &crate::space::Configuration) -> f64 {
        let x = cfg.int("x").unwrap() as f64;
        let y = cfg.int("y").unwrap() as f64;
        (x - 57.0).powi(2) + 2.0 * (y + 11.0).powi(2)
    }

    #[test]
    fn finds_the_bowl_minimum_region() {
        let space = bowl_space();
        let mut s = Annealing::default();
        let best = drive(&mut s, &space, 150, bowl);
        assert!(best < 30.0, "annealing stuck at {best}");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let space = bowl_space();
        let run = || {
            let mut s = Annealing::default();
            let mut rng = StdRng::seed_from_u64(99);
            s.init(&space, &mut rng);
            let mut stream = Vec::new();
            for _ in 0..60 {
                let coords = s.propose(&space, &mut rng).unwrap();
                let cost = bowl(&space.project(&coords));
                stream.push((coords.clone(), cost.to_bits()));
                s.feedback(&coords, cost, &space, &mut rng);
            }
            stream
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn temperature_couples_to_cost_scale() {
        let space = bowl_space();
        let t0_at_scale = |scale: f64| {
            let mut s = Annealing::default();
            let mut rng = StdRng::seed_from_u64(7);
            s.init(&space, &mut rng);
            for _ in 0..10 {
                let coords = s.propose(&space, &mut rng).unwrap();
                let cost = scale * bowl(&space.project(&coords));
                s.feedback(&coords, cost, &space, &mut rng);
            }
            s.t0.expect("warm-up completed")
        };
        let small = t0_at_scale(1.0);
        let big = t0_at_scale(1000.0);
        assert!(big > 100.0 * small, "t0 not adaptive: {small} vs {big}");
    }

    #[test]
    fn reheats_on_stagnation() {
        let space = bowl_space();
        let mut s = Annealing::new(AnnealingOptions {
            reheat_after: 5,
            ..Default::default()
        });
        // A flat surface never improves the best, so the schedule must
        // reheat repeatedly.
        drive(&mut s, &space, 80, |_| 42.0);
        assert!(s.reheats >= 2, "only {} reheats", s.reheats);
    }

    #[test]
    fn constrained_proposals_are_feasible_lattice_points() {
        let space = SearchSpace::builder()
            .int("b1", 0, 9, 1)
            .int("b2", 0, 9, 1)
            .constraint(MonotoneChain::new(["b1", "b2"]))
            .build()
            .unwrap();
        let mut s = Annealing::default();
        let mut rng = StdRng::seed_from_u64(3);
        s.init(&space, &mut rng);
        for _ in 0..60 {
            let coords = s.propose(&space, &mut rng).unwrap();
            let cfg = space
                .snap(&coords)
                .unwrap_or_else(|| panic!("infeasible proposal {coords:?}"));
            let cost = bowl_like(&cfg);
            s.feedback(&coords, cost, &space, &mut rng);
        }
    }

    fn bowl_like(cfg: &crate::space::Configuration) -> f64 {
        let a = cfg.int("b1").unwrap() as f64;
        let b = cfg.int("b2").unwrap() as f64;
        (a - 3.0).powi(2) + (b - 7.0).powi(2)
    }

    #[test]
    fn snapshot_reports_schedule_state() {
        let space = bowl_space();
        let mut s = Annealing::default();
        assert_eq!(s.snapshot().phase, "warmup");
        drive(&mut s, &space, 40, bowl);
        let snap = s.snapshot();
        assert_eq!(snap.phase, "anneal");
        let a = snap.annealing.expect("annealing section");
        assert!(a.temperature > 0.0);
        assert!(a.best_cost.is_finite());
        assert!((0.0..=1.0).contains(&a.acceptance_rate));
    }
}
