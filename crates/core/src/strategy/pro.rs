//! Parallel Rank Ordering (PRO) — the parallel simplex search developed for
//! Active Harmony after the paper (Ţăpuş/Tiwari/Hollingsworth line of
//! work). Where Nelder–Mead moves one vertex per step, PRO reflects *every*
//! non-best vertex through the best point each round, so all candidate
//! evaluations of a round are independent and can run simultaneously — one
//! candidate per processor on a parallel machine.
//!
//! Round structure:
//! 1. **Reflect** all non-best vertices through the best.
//! 2. If the round produced a new global best, try **expansion** (double
//!    step); keep the pointwise better of reflected/expanded.
//! 3. Otherwise **contract** every vertex toward the best.
//!
//! Two drivers are provided: the [`SearchStrategy`] impl (serial ask–tell,
//! usable anywhere Nelder–Mead is) and [`tune_parallel`], which evaluates
//! each round's batch on scoped threads.

use super::{cost_spread, SearchStrategy, SimplexSnapshot, StartPoint, StrategySnapshot};
use crate::history::{Evaluation, History};
use crate::session::TuningResult;
use crate::space::{CacheKey, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// PRO knobs.
#[derive(Debug, Clone)]
pub struct ProOptions {
    /// Simplex size (number of vertices). Defaults to `dims + 1`, but PRO
    /// benefits from larger simplexes when more processors are available.
    pub size: Option<usize>,
    /// Reflection coefficient.
    pub alpha: f64,
    /// Expansion coefficient (> alpha).
    pub gamma: f64,
    /// Contraction coefficient in (0, 1).
    pub beta: f64,
    /// Fraction of each dimension's range used for the initial spread.
    pub init_scale: f64,
    /// Initial point policy.
    pub start: StartPoint,
}

impl Default for ProOptions {
    fn default() -> Self {
        ProOptions {
            size: None,
            alpha: 1.0,
            gamma: 2.0,
            beta: 0.5,
            init_scale: 0.25,
            start: StartPoint::Center,
        }
    }
}

#[derive(Debug, Clone)]
struct Vertex {
    coords: Vec<f64>,
    cost: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Init,
    Reflect,
    Expand,
    Contract,
}

/// The PRO search strategy.
pub struct ParallelRankOrder {
    opts: ProOptions,
    points: Vec<Vertex>,
    phase: Phase,
    /// Candidates of the current round (parallel-evaluable batch).
    batch: Vec<Vec<f64>>,
    /// Which vertex each batch entry replaces.
    batch_targets: Vec<usize>,
    /// Vertex positions at the start of the round (reflection/expansion
    /// both measure from these, not from intermediate updates).
    origin: Vec<Vertex>,
    /// Reflected candidates stashed while expansion runs.
    reflected: Vec<(Vec<f64>, f64)>,
    results: Vec<f64>,
    proposed: usize,
    answered: usize,
    rounds: usize,
    /// Consecutive contraction rounds that failed to move any vertex. The
    /// reflect→contract cycle is fully deterministic, so two failures in a
    /// row mean the simplex is in a limit cycle and needs a respread.
    stagnant: usize,
    // Per-kind round counts and respread count, surfaced by `snapshot()`.
    reflect_rounds: usize,
    expand_rounds: usize,
    contract_rounds: usize,
    respreads: usize,
}

impl Default for ParallelRankOrder {
    fn default() -> Self {
        Self::new(ProOptions::default())
    }
}

impl ParallelRankOrder {
    /// Create a PRO search with the given options.
    pub fn new(opts: ProOptions) -> Self {
        ParallelRankOrder {
            opts,
            points: Vec::new(),
            phase: Phase::Init,
            batch: Vec::new(),
            batch_targets: Vec::new(),
            origin: Vec::new(),
            reflected: Vec::new(),
            results: Vec::new(),
            proposed: 0,
            answered: 0,
            rounds: 0,
            stagnant: 0,
            reflect_rounds: 0,
            expand_rounds: 0,
            contract_rounds: 0,
            respreads: 0,
        }
    }

    /// Completed rounds (each a parallel batch on a real deployment).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The current batch of candidates, for parallel drivers.
    fn current_batch(&self) -> &[Vec<f64>] {
        &self.batch
    }

    fn best_index(&self) -> usize {
        self.points
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
            .map(|(i, _)| i)
            .expect("nonempty simplex")
    }

    fn seed(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        let k = space.dims();
        // PRO is built for wide simplexes (one vertex per processor);
        // default to 2k so every round carries a useful parallel batch.
        let n = self.opts.size.unwrap_or_else(|| (2 * k).max(4)).max(2);
        let base = self.opts.start.base(space, rng);
        let mut batch: Vec<Vec<f64>> = Vec::with_capacity(n);
        if let StartPoint::Simplex(points) = &self.opts.start {
            batch.extend(points.iter().take(n).cloned());
        } else {
            batch.push(base.clone());
        }
        let mut keys: Vec<CacheKey> = batch
            .iter()
            .map(|p| {
                let mut q = p.clone();
                space.repair(&mut q);
                space.key_of(&q)
            })
            .collect();
        while batch.len() < n {
            // Random spread around the base, retried for distinctness.
            let mut candidate = None;
            for _ in 0..32 {
                let scale = self.opts.init_scale;
                let mut p = space.jitter(&base, |range| (range * scale).max(1.0), rng);
                space.repair(&mut p);
                let key = space.key_of(&p);
                if !keys.contains(&key) {
                    candidate = Some((p, key));
                    break;
                }
            }
            match candidate {
                Some((p, key)) => {
                    batch.push(p);
                    keys.push(key);
                }
                None => batch.push(base.clone()),
            }
        }
        self.batch_targets = (0..batch.len()).collect();
        self.points = batch
            .iter()
            .map(|coords| Vertex {
                coords: coords.clone(),
                cost: f64::INFINITY,
            })
            .collect();
        self.origin = self.points.clone();
        self.batch = batch;
        self.results = Vec::new();
        self.proposed = 0;
        self.answered = 0;
        self.phase = Phase::Init;
    }

    fn combine(best: &[f64], other: &[f64], t: f64, space: &SearchSpace) -> Vec<f64> {
        // best + t * (best - other)
        let mut p: Vec<f64> = best
            .iter()
            .zip(other)
            .map(|(&b, &o)| b + t * (b - o))
            .collect();
        space.repair(&mut p);
        p
    }

    /// Build the next round's batch after all answers arrived.
    fn advance_round(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        self.rounds += 1;
        match self.phase {
            Phase::Init => {}
            Phase::Reflect => self.reflect_rounds += 1,
            Phase::Expand => self.expand_rounds += 1,
            Phase::Contract => self.contract_rounds += 1,
        }
        match self.phase {
            Phase::Init => {
                for (slot, &target) in self.batch_targets.iter().enumerate() {
                    self.points[target].cost = self.results[slot];
                }
                self.stagnant = 0;
                self.make_reflection(space, rng);
            }
            Phase::Reflect => {
                let best_cost = self.points[self.best_index()].cost;
                let round_best = self.results.iter().cloned().fold(f64::INFINITY, f64::min);
                if round_best < best_cost {
                    // Stash the reflected candidates and probe further out;
                    // expansion measures from the round origin, not from the
                    // reflected image.
                    self.reflected = self
                        .batch
                        .iter()
                        .cloned()
                        .zip(self.results.iter().cloned())
                        .collect();
                    self.make_expansion(space);
                } else {
                    self.make_contraction(space);
                }
            }
            Phase::Expand => {
                let reflected = std::mem::take(&mut self.reflected);
                for (slot, &target) in self.batch_targets.iter().enumerate() {
                    let (r_coords, r_cost) = &reflected[slot];
                    let e_cost = self.results[slot];
                    // Pointwise best of original / reflected / expanded.
                    let (coords, cost) = if e_cost < *r_cost {
                        (self.batch[slot].clone(), e_cost)
                    } else {
                        (r_coords.clone(), *r_cost)
                    };
                    if cost < self.points[target].cost {
                        self.points[target] = Vertex { coords, cost };
                    }
                }
                // Expansion only runs after a round improved on the global
                // best, so the simplex is making progress.
                self.stagnant = 0;
                self.make_reflection(space, rng);
            }
            Phase::Contract => {
                let mut moved = false;
                for (slot, &target) in self.batch_targets.iter().enumerate() {
                    if self.results[slot] < self.points[target].cost {
                        self.points[target] = Vertex {
                            coords: self.batch[slot].clone(),
                            cost: self.results[slot],
                        };
                        moved = true;
                    }
                }
                if moved {
                    self.stagnant = 0;
                } else {
                    self.stagnant += 1;
                }
                self.make_reflection(space, rng);
            }
        }
        self.results.clear();
        self.proposed = 0;
        self.answered = 0;
    }

    /// Candidates `best + t·(best − origin_i)` for every non-best vertex of
    /// the round origin.
    fn make_batch_through_best(&mut self, space: &SearchSpace, t: f64, phase: Phase) {
        let best = self.best_index();
        let best_coords = self.points[best].coords.clone();
        self.batch.clear();
        self.batch_targets.clear();
        for (i, v) in self.origin.iter().enumerate() {
            if i == best {
                continue;
            }
            self.batch
                .push(Self::combine(&best_coords, &v.coords, t, space));
            self.batch_targets.push(i);
        }
        self.phase = phase;
    }

    fn make_reflection(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        // New round: snapshot the origin.
        self.origin = self.points.clone();
        let alpha = self.opts.alpha;
        self.make_batch_through_best(space, alpha, Phase::Reflect);
        // Collapse guard: if every candidate projects onto the best point's
        // configuration, the simplex has converged in the lattice — respread
        // randomly around the best to keep exploring (as the paper's
        // discrete adaptation demands). The same respread also breaks the
        // deterministic reflect→contract limit cycle that arises when no
        // contraction improves its vertex two rounds running.
        let best_key = space.key_of(&self.points[self.best_index()].coords);
        let collapsed = self.batch.iter().all(|p| space.key_of(p) == best_key);
        if collapsed || self.stagnant >= 2 {
            self.stagnant = 0;
            self.respreads += 1;
            let best_coords = &self.points[self.best_index()].coords;
            let scale = self.opts.init_scale;
            for p in &mut self.batch {
                *p = space.jitter(best_coords, |range| (range * scale * 0.3).max(1.0), rng);
                space.repair(p);
            }
        }
    }

    fn make_expansion(&mut self, space: &SearchSpace) {
        let gamma = self.opts.gamma;
        self.make_batch_through_best(space, gamma, Phase::Expand);
    }

    fn make_contraction(&mut self, space: &SearchSpace) {
        // Contraction pulls vertices toward the best: best + β(v − best)
        // = best − β(best − v), i.e. t = −β in the shared helper.
        let beta = self.opts.beta;
        self.make_batch_through_best(space, -beta, Phase::Contract);
    }
}

impl SearchStrategy for ParallelRankOrder {
    fn name(&self) -> &'static str {
        "parallel-rank-order"
    }

    fn init(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        self.seed(space, rng);
    }

    fn propose(&mut self, _space: &SearchSpace, _rng: &mut StdRng) -> Option<Vec<f64>> {
        debug_assert!(
            self.proposed < self.batch.len(),
            "round must advance before over-proposing"
        );
        let p = self.batch[self.proposed].clone();
        self.proposed += 1;
        Some(p)
    }

    fn feedback(&mut self, _coords: &[f64], cost: f64, space: &SearchSpace, rng: &mut StdRng) {
        self.results.push(cost);
        self.answered += 1;
        if self.answered == self.batch.len() {
            self.advance_round(space, rng);
        }
    }

    /// A whole round is fixed before any of its results are used, so every
    /// not-yet-proposed candidate of the current round may go out while
    /// earlier ones are still being measured. Once the round is exhausted
    /// the simplex must wait for all answers to build the next batch.
    fn can_propose_unanswered(&self, _unanswered: usize) -> bool {
        self.proposed < self.batch.len()
    }

    fn snapshot(&self) -> StrategySnapshot {
        let mut vertex_costs: Vec<f64> = self
            .points
            .iter()
            .map(|v| v.cost)
            .filter(|c| c.is_finite())
            .collect();
        vertex_costs.sort_by(|a, b| a.total_cmp(b));
        let spread = cost_spread(&vertex_costs);
        StrategySnapshot {
            phase: match self.phase {
                Phase::Init => "init",
                Phase::Reflect => "reflect",
                Phase::Expand => "expand",
                Phase::Contract => "contract",
            },
            simplex: Some(SimplexSnapshot {
                vertex_costs,
                spread,
                reflections: self.reflect_rounds,
                expansions: self.expand_rounds,
                contractions: self.contract_rounds,
                shrinks: 0,
                restarts: self.respreads,
                rounds: self.rounds,
            }),
            ..StrategySnapshot::default()
        }
    }
}

/// Evaluate one PRO round's batch on scoped threads and drive the search to
/// completion — the deployment mode PRO was designed for, where each
/// candidate runs on its own processor.
///
/// `objective` must be thread-safe; results are cached by configuration so
/// revisited lattice points are free, and a configuration that appears
/// twice in one batch is evaluated once.
pub fn tune_parallel<F>(
    space: &SearchSpace,
    objective: F,
    opts: ProOptions,
    max_rounds: usize,
    seed: u64,
) -> TuningResult
where
    F: Fn(&crate::space::Configuration) -> f64 + Sync,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pro = ParallelRankOrder::new(opts);
    pro.seed(space, &mut rng);
    let mut cache: HashMap<CacheKey, f64> = HashMap::new();
    let mut history = History::new();
    let mut iteration = 0;

    for _ in 0..max_rounds {
        let batch = pro.current_batch().to_vec();
        let configs: Vec<crate::space::Configuration> =
            batch.iter().map(|p| space.project(p)).collect();
        // Evaluate uncached configurations concurrently, each once: later
        // copies within the batch take the first copy's cost.
        let mut fresh_idx = Vec::new();
        let mut claimed = HashSet::new();
        for (i, cfg) in configs.iter().enumerate() {
            let key = cfg.cache_key();
            if !cache.contains_key(&key) && claimed.insert(key) {
                fresh_idx.push(i);
            }
        }
        let fresh_costs: Vec<(usize, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = fresh_idx
                .iter()
                .map(|&i| {
                    let cfg = &configs[i];
                    let obj = &objective;
                    s.spawn(move || (i, obj(cfg)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("objective worker panicked"))
                .collect()
        });
        for &(i, cost) in &fresh_costs {
            cache.insert(configs[i].cache_key(), cost);
        }
        // Feed every result back in batch order.
        for (i, cfg) in configs.iter().enumerate() {
            let cost = cache[&cfg.cache_key()];
            let cached = !fresh_costs.iter().any(|&(j, _)| j == i);
            iteration += 1;
            history.push(Evaluation {
                iteration,
                config: cfg.clone(),
                cost,
                cached,
                cumulative_time: 0.0,
            });
            pro.feedback(&batch[i], cost, space, &mut rng);
        }
    }

    let best = history
        .best()
        .expect("at least one round evaluated")
        .clone();
    TuningResult {
        best_config: best.config,
        best_cost: best.cost,
        evaluations: history.runs(),
        stop_reason: crate::session::StopReason::MaxEvaluations,
        history,
        strategy: "parallel-rank-order",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_util::drive;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .int("x", -60, 60, 1)
            .int("y", -60, 60, 1)
            .build()
            .unwrap()
    }

    fn bowl(cfg: &crate::space::Configuration) -> f64 {
        let x = cfg.int("x").unwrap() as f64;
        let y = cfg.int("y").unwrap() as f64;
        (x - 11.0).powi(2) + (y + 29.0).powi(2)
    }

    #[test]
    fn pro_finds_the_bowl_minimum_serially() {
        let s = space();
        let mut pro = ParallelRankOrder::default();
        let best = drive(&mut pro, &s, 200, bowl);
        assert!(best <= 9.0, "best={best}");
        assert!(pro.rounds() > 3);
    }

    #[test]
    fn larger_simplexes_use_more_parallelism_per_round() {
        let s = space();
        let mut pro = ParallelRankOrder::new(ProOptions {
            size: Some(9),
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        pro.init(&s, &mut rng);
        assert_eq!(pro.current_batch().len(), 9); // init round
        let best = drive(&mut pro, &s, 250, bowl);
        assert!(best <= 9.0, "best={best}");
    }

    #[test]
    fn parallel_driver_matches_quality_of_serial() {
        let s = space();
        let result = tune_parallel(&s, bowl, ProOptions::default(), 60, 5);
        assert!(result.best_cost <= 9.0, "best={}", result.best_cost);
        assert_eq!(result.strategy, "parallel-rank-order");
        assert!(result.history.runs() > 10);
    }

    #[test]
    fn tune_parallel_evaluates_each_configuration_once() {
        // At seed 1 one round's batch holds the same lattice point twice.
        let s = SearchSpace::builder()
            .int("x", -100, 100, 1)
            .int("y", -100, 100, 1)
            .build()
            .unwrap();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let counted = |cfg: &crate::space::Configuration| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            bowl(cfg)
        };
        let result = tune_parallel(&s, counted, ProOptions::default(), 40, 1);
        let distinct: HashSet<CacheKey> = result
            .history
            .evaluations()
            .iter()
            .map(|e| e.config.cache_key())
            .collect();
        assert_eq!(calls.into_inner(), result.history.runs());
        assert_eq!(result.history.runs(), distinct.len());
    }

    #[test]
    fn parallel_driver_is_deterministic() {
        let s = space();
        let a = tune_parallel(&s, bowl, ProOptions::default(), 30, 9);
        let b = tune_parallel(&s, bowl, ProOptions::default(), 30, 9);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.best_config, b.best_config);
    }

    #[test]
    fn contraction_rescues_a_bad_start() {
        // Start far away with a huge spread: the first reflections will
        // mostly fail, forcing contractions; the search must still converge.
        let s = space();
        let mut pro = ParallelRankOrder::new(ProOptions {
            start: StartPoint::Coords(vec![-60.0, 60.0]),
            init_scale: 0.9,
            ..Default::default()
        });
        let best = drive(&mut pro, &s, 250, bowl);
        assert!(best <= 25.0, "best={best}");
    }
}
