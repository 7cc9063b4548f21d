//! Composite objective functions.
//!
//! §VII of the paper: "The tradeoff between accuracy and performance
//! improvement is an important issue in performance tuning. […] If these
//! tradeoffs can be quantified, other metrics such as fidelity and
//! scheduling policy can also be specified and integrated into the
//! objective function so the system can automate this tradeoff."
//!
//! [`TradeoffObjective`] implements exactly that: a time measure combined
//! with a quantified fidelity loss, so tuning stops at the resolution the
//! user is willing to pay for instead of racing to the coarsest allowed
//! grid.

use crate::space::Configuration;

/// Anything that scores a configuration (lower is better).
pub trait Objective {
    /// Evaluate the configuration.
    fn evaluate(&mut self, cfg: &Configuration) -> f64;
}

impl<F: FnMut(&Configuration) -> f64> Objective for F {
    fn evaluate(&mut self, cfg: &Configuration) -> f64 {
        self(cfg)
    }
}

/// Combine execution time with a fidelity penalty:
/// `score = time(cfg) · (1 + weight · loss(cfg))`.
///
/// `loss` should be `0.0` at full fidelity and grow as quality degrades
/// (e.g. `1.0` = "half the resolution I wanted"). `weight` expresses how
/// many *relative seconds* one unit of fidelity loss is worth: with
/// `weight = 0.5`, a configuration that halves fidelity must be at least
/// 33% faster to win.
pub struct TradeoffObjective<T, L> {
    time: T,
    loss: L,
    weight: f64,
}

impl<T, L> TradeoffObjective<T, L>
where
    T: FnMut(&Configuration) -> f64,
    L: FnMut(&Configuration) -> f64,
{
    /// Build a time/fidelity tradeoff objective.
    pub fn new(time: T, loss: L, weight: f64) -> Self {
        assert!(weight >= 0.0, "fidelity weight must be non-negative");
        TradeoffObjective { time, loss, weight }
    }
}

impl<T, L> Objective for TradeoffObjective<T, L>
where
    T: FnMut(&Configuration) -> f64,
    L: FnMut(&Configuration) -> f64,
{
    fn evaluate(&mut self, cfg: &Configuration) -> f64 {
        let t = (self.time)(cfg);
        let l = (self.loss)(cfg);
        t * (1.0 + self.weight * l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    fn space() -> SearchSpace {
        SearchSpace::builder().int("res", 1, 16, 1).build().unwrap()
    }

    #[test]
    fn closures_are_objectives() {
        let mut f = |cfg: &Configuration| cfg.int("res").unwrap() as f64;
        let cfg = space().project(&[4.0]);
        assert_eq!(Objective::evaluate(&mut f, &cfg), 4.0);
    }

    #[test]
    fn zero_weight_ignores_fidelity() {
        let mut obj = TradeoffObjective::new(
            |cfg: &Configuration| 100.0 / cfg.int("res").unwrap() as f64,
            |cfg: &Configuration| (16 - cfg.int("res").unwrap()) as f64,
            0.0,
        );
        let coarse = space().project(&[1.0]);
        let fine = space().project(&[16.0]);
        assert!(obj.evaluate(&coarse) > obj.evaluate(&fine) * 15.0);
    }

    #[test]
    fn weighted_tradeoff_moves_the_optimum_inward() {
        // time ∝ res (finer = slower); loss grows sharply as the grid
        // coarsens (discretisation error ∝ (h/h₀)² = (16/res)²).
        let make = |weight| {
            TradeoffObjective::new(
                |cfg: &Configuration| cfg.int("res").unwrap() as f64,
                |cfg: &Configuration| (16.0 / cfg.int("res").unwrap() as f64).powi(2),
                weight,
            )
        };
        let best_res = |weight| {
            let s = space();
            let mut obj = make(weight);
            (1..=16)
                .min_by(|&a, &b| {
                    let ca = obj.evaluate(&s.project(&[a as f64]));
                    let cb = obj.evaluate(&s.project(&[b as f64]));
                    ca.partial_cmp(&cb).unwrap()
                })
                .unwrap()
        };
        // Pure time: coarsest wins. Heavier fidelity weight pushes the
        // optimum toward finer resolutions (analytic optimum 16·√w).
        assert_eq!(best_res(0.0), 1);
        assert_eq!(best_res(0.04), 3);
        assert_eq!(best_res(0.25), 8);
        assert!(best_res(1.0) >= 15);
    }

    #[test]
    fn score_parts_decompose() {
        let mut obj =
            TradeoffObjective::new(|_: &Configuration| 10.0, |_: &Configuration| 0.5, 1.0);
        let cfg = space().project(&[8.0]);
        // time 10 s, loss 0.5, weight 1: 10 · (1 + 1 · 0.5).
        assert_eq!(obj.evaluate(&cfg), 15.0);
    }
}
