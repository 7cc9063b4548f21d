//! Greedy one-parameter-at-a-time search (OAT).
//!
//! The classic manual-tuning procedure the paper's experts performed by
//! hand, and the shape Table I's trace suggests: hold everything fixed,
//! sweep one parameter's values, keep the best, move to the next parameter,
//! and cycle until a full round makes no progress. A strong baseline on
//! separable spaces (like POP's namelist) and a foil for the simplex on
//! coupled ones (like decomposition boundaries, where single-parameter
//! moves cannot cross the minimax plateaus).

use super::SearchStrategy;
use crate::space::SearchSpace;
use rand::rngs::StdRng;

/// Options for [`GreedyOneParam`].
#[derive(Debug, Clone)]
pub struct GreedyOptions {
    /// Maximum lattice values probed per parameter per visit (larger
    /// integer ranges are subsampled evenly).
    pub max_probes_per_param: usize,
    /// Stop after this many consecutive full cycles without improvement.
    pub max_stale_cycles: usize,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            max_probes_per_param: 8,
            max_stale_cycles: 1,
        }
    }
}

/// Greedy coordinate sweep over the lattice.
pub struct GreedyOneParam {
    opts: GreedyOptions,
    /// Current best coordinates (the incumbent configuration).
    current: Vec<f64>,
    current_cost: f64,
    /// Dimension currently being swept.
    dim: usize,
    /// Values queued for the sweep of `dim`.
    probes: Vec<f64>,
    probe_idx: usize,
    improved_this_cycle: bool,
    stale_cycles: usize,
    done: bool,
    started: bool,
}

impl Default for GreedyOneParam {
    fn default() -> Self {
        Self::new(GreedyOptions::default())
    }
}

impl GreedyOneParam {
    /// Create a greedy sweep with the given options.
    pub fn new(opts: GreedyOptions) -> Self {
        GreedyOneParam {
            opts,
            current: Vec::new(),
            current_cost: f64::INFINITY,
            dim: 0,
            probes: Vec::new(),
            probe_idx: 0,
            improved_this_cycle: false,
            stale_cycles: 0,
            done: false,
            started: false,
        }
    }

    fn start_dim(&mut self, space: &SearchSpace) {
        self.probes = space.params()[self.dim].levels(self.opts.max_probes_per_param);
        self.probe_idx = 0;
    }

    fn next_dim(&mut self, space: &SearchSpace) {
        self.dim += 1;
        if self.dim >= space.dims() {
            self.dim = 0;
            if self.improved_this_cycle {
                self.stale_cycles = 0;
            } else {
                self.stale_cycles += 1;
                if self.stale_cycles >= self.opts.max_stale_cycles {
                    self.done = true;
                    return;
                }
            }
            self.improved_this_cycle = false;
        }
        self.start_dim(space);
    }
}

impl SearchStrategy for GreedyOneParam {
    fn name(&self) -> &'static str {
        "greedy-one-param"
    }

    fn init(&mut self, space: &SearchSpace, _rng: &mut StdRng) {
        self.current = space
            .embed(&space.center())
            .expect("center embeds into its own space");
        self.current_cost = f64::INFINITY;
        self.dim = 0;
        self.improved_this_cycle = false;
        self.stale_cycles = 0;
        self.done = false;
        self.started = true;
        self.start_dim(space);
    }

    fn propose(&mut self, space: &SearchSpace, _rng: &mut StdRng) -> Option<Vec<f64>> {
        if !self.started {
            let mut rng = rand::SeedableRng::seed_from_u64(0);
            self.init(space, &mut rng);
        }
        if self.done {
            return None;
        }
        let mut p = self.current.clone();
        p[self.dim] = self.probes[self.probe_idx];
        Some(space.snap_feasible(p))
    }

    fn feedback(&mut self, coords: &[f64], cost: f64, space: &SearchSpace, _rng: &mut StdRng) {
        if cost < self.current_cost {
            self.current_cost = cost;
            self.current = coords.to_vec();
            self.improved_this_cycle = true;
        }
        self.probe_idx += 1;
        if self.probe_idx >= self.probes.len() {
            self.next_dim(space);
        }
    }

    fn converged(&self) -> bool {
        self.done
    }
}

/// Seed the greedy sweep at explicit coordinates (e.g. the application's
/// default configuration).
pub struct GreedyFrom {
    inner: GreedyOneParam,
    start: Vec<f64>,
}

impl GreedyFrom {
    /// Start the sweep from `start`.
    pub fn new(start: Vec<f64>, opts: GreedyOptions) -> Self {
        GreedyFrom {
            inner: GreedyOneParam::new(opts),
            start,
        }
    }
}

impl SearchStrategy for GreedyFrom {
    fn name(&self) -> &'static str {
        "greedy-one-param"
    }

    fn init(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        self.inner.init(space, rng);
        self.inner.current = self.start.clone();
    }

    fn propose(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Option<Vec<f64>> {
        self.inner.propose(space, rng)
    }

    fn feedback(&mut self, coords: &[f64], cost: f64, space: &SearchSpace, rng: &mut StdRng) {
        self.inner.feedback(coords, cost, space, rng)
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_util::drive;

    #[test]
    fn greedy_solves_separable_objectives() {
        // Fully separable: coordinate descent is optimal here.
        let space = SearchSpace::builder()
            .int("a", 0, 7, 1)
            .int("b", 0, 7, 1)
            .enumeration("c", ["slow", "fast"])
            .build()
            .unwrap();
        let mut g = GreedyOneParam::default();
        let best = drive(&mut g, &space, 100, |cfg| {
            let a = cfg.int("a").unwrap() as f64;
            let b = cfg.int("b").unwrap() as f64;
            let c = if cfg.choice("c") == Some("fast") {
                0.0
            } else {
                5.0
            };
            (a - 6.0).abs() + (b - 1.0).abs() + c
        });
        assert_eq!(best, 0.0);
        assert!(g.converged());
    }

    #[test]
    fn greedy_terminates_after_stale_cycle() {
        let space = SearchSpace::builder().int("x", 0, 3, 1).build().unwrap();
        let mut g = GreedyOneParam::default();
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        g.init(&space, &mut rng);
        let mut evals = 0;
        while let Some(p) = g.propose(&space, &mut rng) {
            let cfg = space.project(&p);
            g.feedback(&p, cfg.int("x").unwrap() as f64, &space, &mut rng);
            evals += 1;
            assert!(evals < 100, "greedy failed to terminate");
        }
        // Two cycles over 4 probes: one improving, one stale.
        assert!(evals <= 12, "evals={evals}");
    }

    #[test]
    fn greedy_struggles_on_coupled_objectives() {
        // x and y must move *together* (valley along x = y); coordinate
        // descent from the centre stalls above the global optimum that the
        // simplex reaches easily.
        let space = SearchSpace::builder()
            .int("x", 0, 40, 1)
            .int("y", 0, 40, 1)
            .build()
            .unwrap();
        let coupled = |cfg: &crate::space::Configuration| {
            let x = cfg.int("x").unwrap() as f64;
            let y = cfg.int("y").unwrap() as f64;
            (x - y).powi(2) * 10.0 + (x + y - 60.0).powi(2) * 0.1 + 1.0
        };
        let mut greedy = GreedyOneParam::default();
        let g_best = drive(&mut greedy, &space, 300, coupled);
        let mut nm = crate::strategy::NelderMead::default();
        let n_best = drive(&mut nm, &space, 300, coupled);
        assert!(
            n_best <= g_best,
            "simplex {n_best} should beat greedy {g_best} on coupled valleys"
        );
    }

    #[test]
    fn constrained_probes_snap_to_feasible_points_not_duplicates() {
        // b1 <= b2: probing b2 below b1 used to be *repaired* (sorted)
        // back onto the incumbent — a duplicate evaluation. The
        // feasibility-aware snap consults the compiled space instead, so
        // every proposal is a valid lattice point.
        let space = SearchSpace::builder()
            .int("b1", 0, 9, 1)
            .int("b2", 0, 9, 1)
            .constraint(crate::constraint::MonotoneChain::new(["b1", "b2"]))
            .build()
            .unwrap();
        let compiled = space.compiled().expect("a discrete space compiles");
        assert_eq!(compiled.count_valid().lower_bound(), 55);
        let mut g = GreedyOneParam::default();
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        g.init(&space, &mut rng);
        let mut unique = std::collections::HashSet::new();
        let mut proposals = 0;
        while let Some(p) = g.propose(&space, &mut rng) {
            proposals += 1;
            let cfg = space
                .snap(&p)
                .unwrap_or_else(|| panic!("infeasible greedy probe {p:?}"));
            unique.insert(cfg.cache_key());
            let b1 = cfg.int("b1").unwrap() as f64;
            let b2 = cfg.int("b2").unwrap() as f64;
            g.feedback(
                &p,
                (b1 - 2.0).powi(2) + (b2 - 8.0).powi(2),
                &space,
                &mut rng,
            );
            if proposals > 200 {
                break;
            }
        }
        // The sweep visits genuinely distinct feasible points (the old
        // repair path collapsed infeasible probes onto the incumbent).
        assert!(unique.len() >= 8, "only {} unique probes", unique.len());
        assert!(g.current_cost <= 1.0, "missed optimum: {}", g.current_cost);
    }

    #[test]
    fn greedy_from_starts_at_given_point() {
        let space = SearchSpace::builder().int("x", 0, 100, 1).build().unwrap();
        let mut g = GreedyFrom::new(vec![90.0], GreedyOptions::default());
        let best = drive(&mut g, &space, 40, |cfg| {
            (cfg.int("x").unwrap() as f64 - 85.0).abs()
        });
        // Probes are evenly spread, so the sweep finds the basin regardless
        // of start; starting near it just keeps the incumbent sensible.
        assert!(best <= 8.0, "best={best}");
    }
}
