//! Search strategies (the adaptation controller's tuning algorithms).
//!
//! The kernel of Active Harmony's adaptation controller is the Nelder–Mead
//! simplex method adapted to discrete spaces ([`NelderMead`]); the other
//! strategies are the baselines the paper compares against or uses to map
//! the search space ([`RandomSearch`], systematic sampling [`GridSearch`],
//! and [`Exhaustive`] enumeration).
//!
//! All strategies implement an *ask–tell* interface over continuous
//! coordinates: [`SearchStrategy::propose`] yields a candidate point in the
//! continuous embedding, the session projects it to the nearest valid
//! configuration and measures it, then [`SearchStrategy::feedback`] reports
//! the measured cost (of the projected point — the paper's "resulting values
//! from the nearest integer point" approximation).
//!
//! How a candidate meets the lattice is the space's business, not a
//! strategy's: none of them snaps, validates, compiles or jitters for
//! itself. The samplers and the grid ask [`SearchSpace::snap`] (validate,
//! never repair), the simplex moves and greedy probes ask
//! [`SearchSpace::snap_feasible`] (nearest feasible point), the
//! enumerators and the surrogate's argmin walk [`SearchSpace::compiled`],
//! and the session applies [`SearchSpace::project`] (repair, then snap) to
//! whatever comes out.

mod annealing;
mod exhaustive;
mod genetic;
mod greedy;
mod grid;
mod nelder_mead;
pub mod pro;
mod random;
mod surrogate;

pub use annealing::{Annealing, AnnealingOptions};
pub use exhaustive::Exhaustive;
pub use genetic::{Genetic, GeneticOptions};
pub use greedy::{GreedyFrom, GreedyOneParam, GreedyOptions};
pub use grid::GridSearch;
pub use nelder_mead::{NelderMead, NelderMeadOptions, StartPoint};
pub use pro::{ParallelRankOrder, ProOptions};
pub use random::RandomSearch;
pub use surrogate::{Surrogate, SurrogateOptions};

use crate::space::SearchSpace;
use crate::telemetry::Telemetry;
use rand::rngs::StdRng;
use serde::Serialize;

/// Live snapshot of a simplex-family strategy's geometry and move history.
///
/// Exposed through [`SearchStrategy::snapshot`] for the observability
/// plane (`/status`, `repro watch`): the paper's authors steer their tuning
/// runs by watching how the simplex moves, and this is that signal, live.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SimplexSnapshot {
    /// Cost at every simplex vertex, sorted best-first. Vertices not yet
    /// evaluated are absent.
    pub vertex_costs: Vec<f64>,
    /// Convergence diagnostic: `(worst - best) / max(|best|, 1)` over the
    /// evaluated vertices — the relative cost spread the collapse test
    /// compares against its threshold. `0.0` until two vertices exist.
    pub spread: f64,
    /// Accepted reflection moves.
    pub reflections: usize,
    /// Accepted expansion moves.
    pub expansions: usize,
    /// Accepted contraction moves (outside and inside).
    pub contractions: usize,
    /// Shrink steps (every vertex pulled toward the best).
    pub shrinks: usize,
    /// Simplex restarts after a collapse.
    pub restarts: usize,
    /// Completed proposal rounds (PRO) — 0 for sequential simplexes.
    pub rounds: usize,
}

/// Live snapshot of a simulated-annealing strategy's schedule state.
#[derive(Debug, Clone, Default, Serialize)]
pub struct AnnealingSnapshot {
    /// Current temperature of the cooling schedule.
    pub temperature: f64,
    /// Fraction of recent proposals that were accepted as the new
    /// incumbent (Metropolis acceptances included).
    pub acceptance_rate: f64,
    /// Reheats triggered by stagnation.
    pub reheats: usize,
    /// Best cost observed so far (`+inf` before the first feedback).
    pub best_cost: f64,
}

/// Live snapshot of a genetic strategy's population state.
#[derive(Debug, Clone, Default, Serialize)]
pub struct GeneticSnapshot {
    /// Completed generations.
    pub generation: usize,
    /// Best fitness (lowest cost) observed so far (`+inf` before the first
    /// feedback).
    pub best_fitness: f64,
    /// Population size (individuals per generation).
    pub population: usize,
    /// Synergy pairs currently mined from low-cost configurations.
    pub synergy_pairs: usize,
}

/// Live snapshot of a surrogate-assisted strategy's model state.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SurrogateSnapshot {
    /// Relative fit error of the last model fit (`inf` before any fit).
    pub fit_error: f64,
    /// Proposals that fell back to the inner strategy.
    pub fallbacks: usize,
    /// Proposals taken from the model's argmin.
    pub model_proposals: usize,
    /// Samples the model was last fitted on.
    pub samples: usize,
}

/// What a strategy reports about its internal search state.
///
/// The default ([`StrategySnapshot::default`]) is what non-simplex
/// strategies return: a phase label and nothing else.
#[derive(Debug, Clone, Default, Serialize)]
pub struct StrategySnapshot {
    /// Human-readable label of the strategy's current internal phase
    /// (e.g. `"init"`, `"reflect"`, `"shrink"`, `"search"`).
    pub phase: &'static str,
    /// Simplex geometry and move counts, for simplex-family strategies.
    pub simplex: Option<SimplexSnapshot>,
    /// Annealing schedule state, for [`Annealing`].
    pub annealing: Option<AnnealingSnapshot>,
    /// Population state, for [`Genetic`].
    pub genetic: Option<GeneticSnapshot>,
    /// Model state, for [`Surrogate`].
    pub surrogate: Option<SurrogateSnapshot>,
}

/// Ask–tell interface implemented by every tuning algorithm.
pub trait SearchStrategy: Send {
    /// Short identifier for reports (e.g. `"nelder-mead"`).
    fn name(&self) -> &'static str;

    /// Called once before the first proposal.
    fn init(&mut self, space: &SearchSpace, rng: &mut StdRng);

    /// Next candidate point in the continuous embedding, or `None` when the
    /// strategy has exhausted its plan (finite strategies only).
    fn propose(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Option<Vec<f64>>;

    /// Report the measured cost of the most recent proposal.
    ///
    /// `coords` are the continuous coordinates that were proposed (not the
    /// projected lattice point): the simplex keeps moving in continuous
    /// space while costs come from the nearest valid configuration.
    fn feedback(&mut self, coords: &[f64], cost: f64, space: &SearchSpace, rng: &mut StdRng);

    /// Whether the strategy considers itself converged (optional).
    fn converged(&self) -> bool {
        false
    }

    /// Whether the strategy can produce another proposal while `unanswered`
    /// earlier proposals still await [`feedback`](Self::feedback).
    ///
    /// This is the contract behind batched fetching: a strategy may only
    /// permit unanswered proposals if its trajectory is invariant to the
    /// batched interleaving — i.e. `propose, propose, feedback, feedback`
    /// (in proposal order) reaches exactly the same state as the serial
    /// `propose, feedback, propose, feedback`. That holds when proposals
    /// within the window draw on no feedback (PRO inside one round) or when
    /// feedback is a no-op (random/systematic sampling). Sequential
    /// strategies keep the default: one proposal at a time.
    fn can_propose_unanswered(&self, unanswered: usize) -> bool {
        unanswered == 0
    }

    /// Introspection snapshot of the strategy's internal state (optional).
    ///
    /// Must be cheap — the observability plane calls it while a session
    /// lock is held. The default reports a bare `"search"` phase with no
    /// simplex; simplex-family strategies override it.
    fn snapshot(&self) -> StrategySnapshot {
        StrategySnapshot {
            phase: "search",
            ..StrategySnapshot::default()
        }
    }

    /// Attach a telemetry handle (optional). Strategies that record their
    /// own counters or latencies (e.g. [`Surrogate`]) override this;
    /// recording is a pure observer and never influences the trajectory.
    /// The session forwards its own handle here on
    /// [`set_telemetry`](crate::session::TuningSession::set_telemetry).
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}
}

/// Relative cost spread of a set of evaluated vertex costs:
/// `(worst - best) / max(|best|, 1)`, the convergence diagnostic simplex
/// collapse tests use. Non-finite costs are ignored; fewer than two finite
/// costs give `0.0`.
pub(crate) fn cost_spread(costs: &[f64]) -> f64 {
    let finite: Vec<f64> = costs.iter().copied().filter(|c| c.is_finite()).collect();
    if finite.len() < 2 {
        return 0.0;
    }
    let best = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (worst - best) / best.abs().max(1.0)
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::space::SearchSpace;
    use rand::SeedableRng;

    /// Drive a strategy against a closed-form objective; returns best cost.
    pub fn drive<F>(
        strategy: &mut dyn SearchStrategy,
        space: &SearchSpace,
        max_evals: usize,
        mut f: F,
    ) -> f64
    where
        F: FnMut(&crate::space::Configuration) -> f64,
    {
        let mut rng = StdRng::seed_from_u64(12345);
        strategy.init(space, &mut rng);
        let mut best = f64::INFINITY;
        for _ in 0..max_evals {
            let Some(coords) = strategy.propose(space, &mut rng) else {
                break;
            };
            let cfg = space.project(&coords);
            let cost = f(&cfg);
            best = best.min(cost);
            strategy.feedback(&coords, cost, space, &mut rng);
        }
        best
    }
}
