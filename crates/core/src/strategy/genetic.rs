//! Generation-batched genetic search with synergy-pair seeding.
//!
//! A plain GA treats parameters independently; compiler-flag and runtime
//! tuning surfaces are full of *pairwise* interactions (a block size that
//! only pays off with a matching prefetch depth). Following the CFSAT
//! idea, this strategy mines the evaluations it has already paid for (and
//! any prior-run records it was seeded with) for parameter-value **pairs
//! that co-occur in low-cost configurations**, and biases crossover toward
//! re-asserting those pairs in offspring.
//!
//! The GA is generation-batched exactly like [`super::pro`]: every
//! individual of a generation is proposed before any feedback is consumed,
//! so a server can farm a whole generation out to parallel clients
//! and the trajectory stays bit-identical to serial execution.

use super::{GeneticSnapshot, SearchStrategy, StrategySnapshot};
use crate::space::SearchSpace;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// Offspring-draw attempts before accepting a duplicate individual.
const BREED_ATTEMPTS: usize = 20;

/// Tunable knobs of [`Genetic`] — the hyperparameter surface the
/// meta-tuner searches.
#[derive(Debug, Clone)]
pub struct GeneticOptions {
    /// Individuals per generation.
    pub population: usize,
    /// Best evaluated individuals kept as parents without re-evaluation.
    pub elite: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-gene mutation probability.
    pub mutation: f64,
    /// Probability an offspring has one mined synergy pair stamped onto
    /// it (no-op until pairs have been mined).
    pub synergy_bias: f64,
    /// Fraction of the evaluated archive treated as "low-cost" when
    /// mining synergy pairs.
    pub low_cost_frac: f64,
    /// Maximum synergy pairs kept per mining pass.
    pub max_synergy_pairs: usize,
}

impl Default for GeneticOptions {
    fn default() -> Self {
        GeneticOptions {
            population: 12,
            elite: 3,
            tournament: 3,
            mutation: 0.2,
            synergy_bias: 0.4,
            low_cost_frac: 0.3,
            max_synergy_pairs: 8,
        }
    }
}

/// One mined parameter-pair interaction: dimensions and the embedded
/// coordinate values that co-occur in low-cost configurations.
#[derive(Debug, Clone)]
struct SynergyPair {
    dim_a: usize,
    coord_a: f64,
    dim_b: usize,
    coord_b: f64,
}

/// Genetic algorithm with synergy-pair seeding.
pub struct Genetic {
    opts: GeneticOptions,
    /// Current generation's batch, proposed in order.
    batch: Vec<Vec<f64>>,
    proposed: usize,
    answered: usize,
    results: Vec<f64>,
    /// Every evaluated individual: `(lattice key, coords, cost)`.
    archive: Vec<(Vec<i64>, Vec<f64>, f64)>,
    /// Lattice keys ever batched (dedup across generations).
    seen: HashSet<Vec<i64>>,
    synergy: Vec<SynergyPair>,
    generation: usize,
    best: f64,
    started: bool,
}

impl Default for Genetic {
    fn default() -> Self {
        Genetic::new(GeneticOptions::default())
    }
}

impl Genetic {
    /// Create a GA with the given options.
    pub fn new(opts: GeneticOptions) -> Self {
        Genetic {
            opts: GeneticOptions {
                population: opts.population.max(4),
                elite: opts.elite.max(1),
                tournament: opts.tournament.max(2),
                ..opts
            },
            batch: Vec::new(),
            proposed: 0,
            answered: 0,
            results: Vec::new(),
            archive: Vec::new(),
            seen: HashSet::new(),
            synergy: Vec::new(),
            generation: 0,
            best: f64::INFINITY,
            started: false,
        }
    }

    /// The lattice point of `coords` ([`SearchSpace::snap`]) as its cache
    /// key and embedded coordinates; `None` when it violates a constraint.
    fn snap(space: &SearchSpace, coords: &[f64]) -> Option<(Vec<i64>, Vec<f64>)> {
        let cfg = space.snap(coords)?;
        Some((cfg.cache_key(), space.embed(&cfg).ok()?))
    }

    /// Push a candidate into `batch` if it snaps feasibly and is novel.
    fn admit(&mut self, space: &SearchSpace, coords: &[f64]) -> bool {
        let Some((key, snapped)) = Self::snap(space, coords) else {
            return false;
        };
        if !self.seen.insert(key) {
            return false;
        }
        self.batch.push(snapped);
        true
    }

    /// Random feasible individual (bounded retries, then force-admit a
    /// possibly-duplicate repaired sample so a tiny space can't stall the
    /// generation).
    fn admit_random(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        for _ in 0..BREED_ATTEMPTS {
            let cand = space.sample_coords(rng);
            if self.admit(space, &cand) {
                return;
            }
        }
        let mut cand = space.sample_coords(rng);
        space.repair(&mut cand);
        if let Some((_, snapped)) = Self::snap(space, &cand) {
            self.batch.push(snapped);
        } else {
            self.batch.push(cand);
        }
    }

    fn seed_generation(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        self.batch.clear();
        while self.batch.len() < self.opts.population {
            self.admit_random(space, rng);
        }
        self.proposed = 0;
        self.answered = 0;
        self.results = vec![f64::INFINITY; self.batch.len()];
    }

    /// Mine the archive for parameter-value pairs that co-occur in the
    /// low-cost tail. Values are bucketed into coarse per-dimension bins
    /// (distinct configurations never share an exact pair — the batch is
    /// deduplicated — but they do share *regions*); the representative
    /// coordinates kept for a pair come from its lowest-cost occurrence.
    /// Deterministic: candidates are sorted, never taken from
    /// hash-iteration order.
    fn mine_synergy(&mut self, space: &SearchSpace) {
        const BINS: f64 = 8.0;
        if self.archive.len() < 4 {
            return;
        }
        let mut ranked: Vec<&(Vec<i64>, Vec<f64>, f64)> = self.archive.iter().collect();
        ranked.sort_by(|a, b| a.2.total_cmp(&b.2));
        let take = ((ranked.len() as f64 * self.opts.low_cost_frac).ceil() as usize).max(2);
        let low = &ranked[..take.min(ranked.len())];
        let dims = low[0].1.len();
        let bin = |d: usize, c: f64| -> i64 {
            let p = &space.params()[d];
            let (lo, hi) = (p.embed_min(), p.embed_max());
            if hi <= lo {
                return 0;
            }
            (((c - lo) / (hi - lo) * BINS) as i64).min(BINS as i64 - 1)
        };
        // Count co-occurrences of (dim bin, dim bin) pairs in the tail;
        // `low` is ascending by cost, so the first occurrence recorded for
        // a pair is its best representative.
        type PairId = (usize, i64, usize, i64);
        let mut counts: Vec<(PairId, usize, f64, f64)> = Vec::new();
        for (_, coords, _) in low {
            for a in 0..dims {
                for b in (a + 1)..dims {
                    let id = (a, bin(a, coords[a]), b, bin(b, coords[b]));
                    match counts.iter_mut().find(|(k, ..)| *k == id) {
                        Some((_, n, ..)) => *n += 1,
                        None => counts.push((id, 1, coords[a], coords[b])),
                    }
                }
            }
        }
        counts.retain(|(_, n, ..)| *n >= 2);
        counts.sort_by(|(ka, na, ..), (kb, nb, ..)| nb.cmp(na).then(ka.cmp(kb)));
        self.synergy = counts
            .into_iter()
            .take(self.opts.max_synergy_pairs)
            .map(|((a, _, b, _), _, ca, cb)| SynergyPair {
                dim_a: a,
                coord_a: ca,
                dim_b: b,
                coord_b: cb,
            })
            .collect();
    }

    /// Tournament-select a parent index into `parents`.
    fn select(&self, parents: &[(Vec<f64>, f64)], rng: &mut StdRng) -> usize {
        let mut winner = rng.gen_range(0..parents.len());
        for _ in 1..self.opts.tournament {
            let challenger = rng.gen_range(0..parents.len());
            if parents[challenger].1 < parents[winner].1 {
                winner = challenger;
            }
        }
        winner
    }

    fn breed_generation(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        // Fold the finished batch into the archive.
        for (coords, &cost) in self.batch.iter().zip(&self.results) {
            if let Some((key, snapped)) = Self::snap(space, coords) {
                self.archive.push((key, snapped, cost));
            }
        }
        self.mine_synergy(space);
        // Parent pool: the best `population` individuals ever evaluated
        // (elites persist without re-evaluation).
        let mut pool: Vec<(Vec<f64>, f64)> = self
            .archive
            .iter()
            .map(|(_, c, cost)| (c.clone(), *cost))
            .collect();
        pool.sort_by(|a, b| a.1.total_cmp(&b.1));
        pool.truncate(self.opts.population.max(self.opts.elite));
        self.generation += 1;
        self.batch.clear();
        while self.batch.len() < self.opts.population {
            let mut admitted = false;
            for _ in 0..BREED_ATTEMPTS {
                let cand = self.offspring(&pool, space, rng);
                if self.admit(space, &cand) {
                    admitted = true;
                    break;
                }
            }
            if !admitted {
                self.admit_random(space, rng);
            }
        }
        self.proposed = 0;
        self.answered = 0;
        self.results = vec![f64::INFINITY; self.batch.len()];
    }

    /// One offspring: tournament parents, uniform crossover, synergy-pair
    /// stamping, lattice-step mutation.
    fn offspring(
        &self,
        parents: &[(Vec<f64>, f64)],
        space: &SearchSpace,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        if parents.is_empty() {
            return space.sample_coords(rng);
        }
        let pa = &parents[self.select(parents, rng)].0;
        let pb = &parents[self.select(parents, rng)].0;
        let mut child: Vec<f64> = pa
            .iter()
            .zip(pb)
            .map(|(&a, &b)| if rng.gen_bool(0.5) { a } else { b })
            .collect();
        if !self.synergy.is_empty() && rng.gen_bool(self.opts.synergy_bias.clamp(0.0, 1.0)) {
            let pair = &self.synergy[rng.gen_range(0..self.synergy.len())];
            if pair.dim_a < child.len() && pair.dim_b < child.len() {
                child[pair.dim_a] = pair.coord_a;
                child[pair.dim_b] = pair.coord_b;
            }
        }
        for (d, param) in space.params().iter().enumerate() {
            if rng.gen_bool(self.opts.mutation.clamp(0.0, 1.0)) {
                let (lo, hi) = (param.embed_min(), param.embed_max());
                child[d] = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
            }
        }
        child
    }
}

impl SearchStrategy for Genetic {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn init(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        self.batch.clear();
        self.archive.clear();
        self.seen.clear();
        self.synergy.clear();
        self.generation = 0;
        self.best = f64::INFINITY;
        self.seed_generation(space, rng);
        self.started = true;
    }

    fn propose(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Option<Vec<f64>> {
        if !self.started {
            self.init(space, rng);
        }
        if self.proposed >= self.batch.len() {
            return None;
        }
        let coords = self.batch[self.proposed].clone();
        self.proposed += 1;
        Some(coords)
    }

    fn feedback(&mut self, _coords: &[f64], cost: f64, space: &SearchSpace, rng: &mut StdRng) {
        if self.answered >= self.results.len() {
            return;
        }
        self.results[self.answered] = cost;
        self.answered += 1;
        if cost < self.best {
            self.best = cost;
        }
        if self.answered == self.batch.len() {
            self.breed_generation(space, rng);
        }
    }

    /// A whole generation is fixed before any of its feedback arrives, so
    /// every still-unproposed individual of the current batch may be
    /// outstanding at once — the same contract as PRO rounds.
    fn can_propose_unanswered(&self, _unanswered: usize) -> bool {
        self.proposed < self.batch.len()
    }

    fn snapshot(&self) -> StrategySnapshot {
        StrategySnapshot {
            phase: if self.generation == 0 {
                "init"
            } else {
                "evolve"
            },
            genetic: Some(GeneticSnapshot {
                generation: self.generation,
                best_fitness: self.best,
                population: self.opts.population,
                synergy_pairs: self.synergy.len(),
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

    fn space2d() -> SearchSpace {
        SearchSpace::builder()
            .int("x", 0, 63, 1)
            .int("y", 0, 63, 1)
            .build()
            .unwrap()
    }

    /// A surface with a strong pairwise interaction: good only when
    /// x and y land in the same narrow band together.
    fn synergy_surface(cfg: &crate::space::Configuration) -> f64 {
        let x = cfg.int("x").unwrap() as f64;
        let y = cfg.int("y").unwrap() as f64;
        (x - y).abs() * 10.0 + (x - 40.0).powi(2) * 0.1
    }

    #[test]
    fn improves_on_an_interacting_surface() {
        let space = space2d();
        let mut s = Genetic::default();
        let best = drive(&mut s, &space, 120, synergy_surface);
        assert!(best < 30.0, "GA stuck at {best}");
        assert!(s.generation >= 3);
    }

    #[test]
    fn mines_synergy_pairs_from_low_cost_tail() {
        let space = space2d();
        let mut s = Genetic::default();
        drive(&mut s, &space, 100, synergy_surface);
        assert!(
            !s.synergy.is_empty(),
            "no pairs mined after {} generations",
            s.generation
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let space = space2d();
        let run = || {
            let mut s = Genetic::default();
            let mut rng = StdRng::seed_from_u64(4242);
            s.init(&space, &mut rng);
            let mut stream = Vec::new();
            for _ in 0..80 {
                let Some(coords) = s.propose(&space, &mut rng) else {
                    break;
                };
                let cost = synergy_surface(&space.project(&coords));
                stream.push((coords.clone(), cost.to_bits()));
                s.feedback(&coords, cost, &space, &mut rng);
            }
            stream
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batched_interleaving_matches_serial() {
        // Propose a whole generation before feeding back: the contract
        // behind `can_propose_unanswered`.
        let space = space2d();
        let serial = {
            let mut s = Genetic::default();
            let mut rng = StdRng::seed_from_u64(5);
            s.init(&space, &mut rng);
            let mut stream = Vec::new();
            for _ in 0..36 {
                let coords = s.propose(&space, &mut rng).unwrap();
                let cost = synergy_surface(&space.project(&coords));
                stream.push(coords.clone());
                s.feedback(&coords, cost, &space, &mut rng);
            }
            stream
        };
        let batched = {
            let mut s = Genetic::default();
            let mut rng = StdRng::seed_from_u64(5);
            s.init(&space, &mut rng);
            let mut stream = Vec::new();
            while stream.len() < 36 {
                let mut window = Vec::new();
                while s.can_propose_unanswered(window.len()) && stream.len() + window.len() < 36 {
                    let coords = s.propose(&space, &mut rng).unwrap();
                    window.push(coords);
                }
                for coords in window {
                    let cost = synergy_surface(&space.project(&coords));
                    stream.push(coords.clone());
                    s.feedback(&coords, cost, &space, &mut rng);
                }
            }
            stream
        };
        assert_eq!(serial, batched);
    }

    #[test]
    fn constrained_batches_are_feasible() {
        let space = SearchSpace::builder()
            .int("b1", 0, 9, 1)
            .int("b2", 0, 9, 1)
            .constraint(MonotoneChain::new(["b1", "b2"]))
            .build()
            .unwrap();
        let mut s = Genetic::new(GeneticOptions {
            population: 6,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(8);
        s.init(&space, &mut rng);
        for _ in 0..30 {
            let coords = s.propose(&space, &mut rng).unwrap();
            let cfg = space
                .snap(&coords)
                .unwrap_or_else(|| panic!("infeasible individual {coords:?}"));
            let c = cfg.int("b1").unwrap() as f64;
            s.feedback(&coords, c, &space, &mut rng);
        }
    }

    #[test]
    fn snapshot_reports_population_state() {
        let space = space2d();
        let mut s = Genetic::default();
        drive(&mut s, &space, 60, synergy_surface);
        let snap = s.snapshot();
        assert_eq!(snap.phase, "evolve");
        let g = snap.genetic.expect("genetic section");
        assert!(g.generation >= 1);
        assert!(g.best_fitness.is_finite());
        assert_eq!(g.population, 12);
    }
}
