//! Nelder–Mead simplex search adapted to discrete spaces (paper §II).
//!
//! The simplex is a set of `k+1` points in the `k`-dimensional continuous
//! embedding of the search space. At each step the worst vertex is reflected
//! through the centroid of the opposite face; expansion, contraction, and
//! shrink steps follow the classic Nelder & Mead (1965) rules. Because the
//! real parameter spaces here are discrete, each candidate point is evaluated
//! at the *nearest valid lattice point* — the simplex itself keeps moving in
//! continuous space.
//!
//! Deviations from the textbook algorithm, both noted in the paper:
//! * evaluation values come from projected points, so distinct vertices can
//!   have identical costs — ties are broken by insertion order;
//! * a collapsed simplex (all vertices projecting to the same configuration)
//!   is re-seeded with fresh random vertices around the best point, since a
//!   discrete space offers no infinitesimal steps.

use super::{cost_spread, SearchStrategy, SimplexSnapshot, StrategySnapshot};
use crate::space::SearchSpace;
use rand::rngs::StdRng;
use rand::Rng;

/// Where the initial simplex comes from.
#[derive(Debug, Clone)]
pub enum StartPoint {
    /// Start from the centre of the space.
    Center,
    /// Start from a random point.
    Random,
    /// Start from the given continuous coordinates (e.g. the application's
    /// default configuration, or the best configurations from prior runs —
    /// the SC'04 "information from prior runs" technique).
    Coords(Vec<f64>),
    /// Seed the *entire* initial simplex from prior-run points (padded with
    /// perturbations of the first if fewer than `k+1` are given).
    Simplex(Vec<Vec<f64>>),
}

impl StartPoint {
    /// The point a simplex seeded under this policy is built around. Draws
    /// from `rng` only to pick a random one: for `Random`, and for a
    /// `Simplex` with no points in it.
    pub(crate) fn base(&self, space: &SearchSpace, rng: &mut StdRng) -> Vec<f64> {
        match self {
            StartPoint::Center => space
                .embed(&space.center())
                .expect("center embeds into its own space"),
            StartPoint::Coords(c) => c.clone(),
            StartPoint::Simplex(points) if !points.is_empty() => points[0].clone(),
            StartPoint::Random | StartPoint::Simplex(_) => space.sample_coords(rng),
        }
    }
}

/// Tunable knobs of the simplex algorithm.
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Reflection coefficient α (> 0).
    pub alpha: f64,
    /// Expansion coefficient γ (> 1).
    pub gamma: f64,
    /// Contraction coefficient β (0 < β < 1).
    pub beta: f64,
    /// Shrink coefficient δ (0 < δ < 1).
    pub delta: f64,
    /// Fraction of each dimension's range used for the initial simplex edge.
    pub init_scale: f64,
    /// Initial point policy.
    pub start: StartPoint,
    /// Re-seed the simplex when it collapses onto one lattice point.
    pub restart_on_collapse: bool,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            alpha: 1.0,
            gamma: 2.0,
            beta: 0.5,
            delta: 0.5,
            init_scale: 0.25,
            start: StartPoint::Center,
            restart_on_collapse: true,
        }
    }
}

#[derive(Debug, Clone)]
struct Vertex {
    coords: Vec<f64>,
    cost: f64,
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Evaluating initial vertices; index of the vertex awaiting a cost.
    InitEval(usize),
    /// Waiting for the cost of the reflected point.
    Reflect,
    /// Waiting for the cost of the expanded point.
    Expand,
    /// Waiting for the cost of an outside contraction.
    ContractOutside,
    /// Waiting for the cost of an inside contraction.
    ContractInside,
    /// Shrinking; index of the shrunken vertex awaiting a cost.
    Shrink(usize),
}

/// Discrete-space Nelder–Mead simplex search.
pub struct NelderMead {
    opts: NelderMeadOptions,
    vertices: Vec<Vertex>,
    phase: Phase,
    /// Cost of the reflected point, remembered across expand/contract.
    reflected: Option<Vertex>,
    pending: Option<Vec<f64>>,
    restarts: usize,
    // Accepted-move counts, surfaced by `snapshot()` for the observability
    // plane: which rules actually drive the search is the paper's own
    // debugging signal.
    reflections: usize,
    expansions: usize,
    contractions: usize,
    shrinks: usize,
}

impl Default for NelderMead {
    fn default() -> Self {
        Self::new(NelderMeadOptions::default())
    }
}

impl NelderMead {
    /// Create a simplex search with the given options.
    pub fn new(opts: NelderMeadOptions) -> Self {
        NelderMead {
            opts,
            vertices: Vec::new(),
            phase: Phase::InitEval(0),
            reflected: None,
            pending: None,
            restarts: 0,
            reflections: 0,
            expansions: 0,
            contractions: 0,
            shrinks: 0,
        }
    }

    /// Number of times the simplex collapsed and was re-seeded.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    fn seed_simplex(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        let k = space.dims();
        let base = self.opts.start.base(space, rng);
        let mut pts: Vec<Vec<f64>> = Vec::with_capacity(k + 1);
        match &self.opts.start {
            StartPoint::Simplex(points) if !points.is_empty() => {
                pts.extend(points.iter().take(k + 1).cloned());
            }
            // No prior points is a random start; an empty `pts` would
            // underflow the vertex index below.
            _ => pts.push(base.clone()),
        }
        for p in &mut pts {
            space.repair(p);
        }
        // Distinct projected lattice points guarantee a usable simplex even
        // when constraint repair (e.g. the sorting of a monotone chain)
        // would fold axis-aligned offsets onto each other.
        let mut keys: Vec<Vec<i64>> = pts.iter().map(|p| space.project(p).cache_key()).collect();
        while pts.len() < k + 1 {
            let i = pts.len() - 1; // dimension perturbed first
            let mut candidate = None;
            for attempt in 0..32 {
                let mut p = if attempt < 2 {
                    let mut p = base.clone();
                    // Axis-aligned offset; try the two directions in turn
                    // (alternating by vertex index so the initial simplex
                    // straddles the start point instead of sitting entirely
                    // on its positive side).
                    let dim = i % k;
                    let param = &space.params()[dim];
                    let range = param.embed_max() - param.embed_min();
                    let offset = (range * self.opts.init_scale).max(1.0);
                    let prefer_neg = (i % 2 == 1) != (attempt == 1);
                    let signed = if prefer_neg { -offset } else { offset };
                    p[dim] += if p[dim] + signed <= param.embed_max()
                        && p[dim] + signed >= param.embed_min()
                    {
                        signed
                    } else {
                        -signed
                    };
                    p
                } else {
                    // Repair folded the offset away: perturb every dimension
                    // randomly until the projection is distinct.
                    let scale = self.opts.init_scale;
                    space.jitter(&base, |range| (range * scale).max(1.0), rng)
                };
                space.repair(&mut p);
                let key = space.project(&p).cache_key();
                if !keys.contains(&key) {
                    candidate = Some((p, key));
                    break;
                }
            }
            match candidate {
                Some((p, key)) => {
                    pts.push(p);
                    keys.push(key);
                }
                None => {
                    // Space too small for a nondegenerate simplex; accept a
                    // duplicate rather than loop forever.
                    pts.push(base.clone());
                    keys.push(space.project(&base).cache_key());
                }
            }
        }
        self.vertices = pts
            .into_iter()
            .map(|coords| Vertex {
                coords,
                cost: f64::INFINITY,
            })
            .collect();
        self.phase = Phase::InitEval(0);
        self.reflected = None;
        self.pending = None;
    }

    fn order(&mut self) {
        // total_cmp, not partial_cmp-or-Equal: a NaN vertex must sort to
        // the worst end of the simplex (NaN > +inf in the total order), not
        // freeze wherever the unstable sort happened to leave it.
        self.vertices.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    }

    fn centroid_excluding_worst(&self) -> Vec<f64> {
        let k = self.vertices[0].coords.len();
        let n = self.vertices.len() - 1;
        let mut c = vec![0.0; k];
        for v in &self.vertices[..n] {
            for (ci, vi) in c.iter_mut().zip(&v.coords) {
                *ci += vi;
            }
        }
        for ci in &mut c {
            *ci /= n as f64;
        }
        c
    }

    fn combine(c: &[f64], w: &[f64], t: f64) -> Vec<f64> {
        // c + t*(c - w)
        c.iter()
            .zip(w)
            .map(|(&ci, &wi)| ci + t * (ci - wi))
            .collect()
    }

    /// True when every vertex projects onto the same lattice point.
    fn collapsed(&self, space: &SearchSpace) -> bool {
        if self.vertices.len() < 2 {
            return false;
        }
        let first = space.project(&self.vertices[0].coords).cache_key();
        self.vertices[1..]
            .iter()
            .all(|v| space.project(&v.coords).cache_key() == first)
    }

    fn restart_around_best(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        self.restarts += 1;
        let best = self.vertices[0].clone();
        let start = StartPoint::Coords(best.coords.clone());
        let old = std::mem::replace(&mut self.opts.start, start);
        // Randomise the edge scale a little so repeated restarts explore
        // different neighbourhoods.
        let old_scale = self.opts.init_scale;
        self.opts.init_scale = (old_scale * rng.gen_range(0.5..1.5)).clamp(0.05, 0.5);
        self.seed_simplex(space, rng);
        self.opts.start = old;
        self.opts.init_scale = old_scale;
        // Keep the known cost of the best vertex: it is vertex 0 by
        // construction (seed_simplex puts the start point first).
        self.vertices[0].cost = best.cost;
        self.phase = Phase::InitEval(1);
    }
}

impl SearchStrategy for NelderMead {
    fn name(&self) -> &'static str {
        "nelder-mead"
    }

    fn init(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        self.seed_simplex(space, rng);
    }

    fn propose(&mut self, space: &SearchSpace, _rng: &mut StdRng) -> Option<Vec<f64>> {
        // The simplex moves (reflect/expand/contract) go through the
        // feasibility-aware snap: on constrained spaces a repaired point
        // re-snapped to the lattice can be invalid, or many distinct
        // reflections collapse onto one boundary configuration.
        let point = match &self.phase {
            Phase::InitEval(i) | Phase::Shrink(i) => self.vertices[*i].coords.clone(),
            Phase::Reflect => {
                let c = self.centroid_excluding_worst();
                let w = &self.vertices.last().expect("nonempty simplex").coords;
                let p = Self::combine(&c, w, self.opts.alpha);
                space.snap_feasible(p)
            }
            Phase::Expand => {
                let c = self.centroid_excluding_worst();
                let w = &self.vertices.last().expect("nonempty simplex").coords;
                let p = Self::combine(&c, w, self.opts.gamma);
                space.snap_feasible(p)
            }
            Phase::ContractOutside => {
                let c = self.centroid_excluding_worst();
                let w = &self.vertices.last().expect("nonempty simplex").coords;
                let p = Self::combine(&c, w, self.opts.beta);
                space.snap_feasible(p)
            }
            Phase::ContractInside => {
                let c = self.centroid_excluding_worst();
                let w = &self.vertices.last().expect("nonempty simplex").coords;
                let p = Self::combine(&c, w, -self.opts.beta);
                space.snap_feasible(p)
            }
        };
        self.pending = Some(point.clone());
        Some(point)
    }

    fn feedback(&mut self, coords: &[f64], cost: f64, space: &SearchSpace, rng: &mut StdRng) {
        debug_assert!(
            self.pending.as_deref() == Some(coords),
            "feedback must answer the outstanding proposal"
        );
        self.pending = None;
        match self.phase.clone() {
            Phase::InitEval(i) => {
                self.vertices[i].cost = cost;
                if i + 1 < self.vertices.len() {
                    self.phase = Phase::InitEval(i + 1);
                } else {
                    self.order();
                    self.phase = Phase::Reflect;
                }
            }
            Phase::Shrink(i) => {
                self.vertices[i].cost = cost;
                if i + 1 < self.vertices.len() {
                    self.phase = Phase::Shrink(i + 1);
                } else {
                    self.order();
                    self.phase = Phase::Reflect;
                }
            }
            Phase::Reflect => {
                let n = self.vertices.len();
                let best = self.vertices[0].cost;
                let second_worst = self.vertices[n - 2].cost;
                let worst = self.vertices[n - 1].cost;
                let reflected = Vertex {
                    coords: coords.to_vec(),
                    cost,
                };
                if cost < best {
                    self.reflected = Some(reflected);
                    self.phase = Phase::Expand;
                } else if cost < second_worst {
                    self.reflections += 1;
                    self.vertices[n - 1] = reflected;
                    self.order();
                    self.phase = Phase::Reflect;
                } else if cost < worst {
                    self.reflected = Some(reflected);
                    self.phase = Phase::ContractOutside;
                } else {
                    self.reflected = Some(reflected);
                    self.phase = Phase::ContractInside;
                }
            }
            Phase::Expand => {
                let n = self.vertices.len();
                let refl = self.reflected.take().expect("expand follows reflect");
                if cost < refl.cost {
                    self.expansions += 1;
                    self.vertices[n - 1] = Vertex {
                        coords: coords.to_vec(),
                        cost,
                    };
                } else {
                    self.reflections += 1;
                    self.vertices[n - 1] = refl;
                }
                self.order();
                self.phase = Phase::Reflect;
            }
            Phase::ContractOutside => {
                let n = self.vertices.len();
                let refl = self.reflected.take().expect("contract follows reflect");
                if cost <= refl.cost {
                    self.contractions += 1;
                    self.vertices[n - 1] = Vertex {
                        coords: coords.to_vec(),
                        cost,
                    };
                    self.order();
                    self.phase = Phase::Reflect;
                } else {
                    self.begin_shrink();
                }
            }
            Phase::ContractInside => {
                let n = self.vertices.len();
                let worst = self.vertices[n - 1].cost;
                self.reflected = None;
                if cost < worst {
                    self.contractions += 1;
                    self.vertices[n - 1] = Vertex {
                        coords: coords.to_vec(),
                        cost,
                    };
                    self.order();
                    self.phase = Phase::Reflect;
                } else {
                    self.begin_shrink();
                }
            }
        }
        if self.opts.restart_on_collapse
            && matches!(self.phase, Phase::Reflect)
            && self.collapsed(space)
        {
            self.restart_around_best(space, rng);
        }
    }

    fn converged(&self) -> bool {
        // The simplex itself never declares convergence: in a discrete space
        // the collapse-restart policy keeps exploring. Sessions bound effort
        // with their own stopping criteria.
        false
    }

    fn snapshot(&self) -> StrategySnapshot {
        let mut vertex_costs: Vec<f64> = self
            .vertices
            .iter()
            .map(|v| v.cost)
            .filter(|c| c.is_finite())
            .collect();
        vertex_costs.sort_by(|a, b| a.total_cmp(b));
        let spread = cost_spread(&vertex_costs);
        StrategySnapshot {
            phase: match self.phase {
                Phase::InitEval(_) => "init",
                Phase::Reflect => "reflect",
                Phase::Expand => "expand",
                Phase::ContractOutside => "contract_outside",
                Phase::ContractInside => "contract_inside",
                Phase::Shrink(_) => "shrink",
            },
            simplex: Some(SimplexSnapshot {
                vertex_costs,
                spread,
                reflections: self.reflections,
                expansions: self.expansions,
                contractions: self.contractions,
                shrinks: self.shrinks,
                restarts: self.restarts,
                rounds: 0,
            }),
            ..StrategySnapshot::default()
        }
    }
}

impl NelderMead {
    fn begin_shrink(&mut self) {
        self.shrinks += 1;
        let best = self.vertices[0].coords.clone();
        let delta = self.opts.delta;
        for v in self.vertices.iter_mut().skip(1) {
            for (vi, bi) in v.coords.iter_mut().zip(&best) {
                *vi = bi + delta * (*vi - bi);
            }
            v.cost = f64::INFINITY;
        }
        self.phase = Phase::Shrink(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_util::drive;

    fn quadratic_space() -> SearchSpace {
        SearchSpace::builder()
            .int("x", -50, 50, 1)
            .int("y", -50, 50, 1)
            .build()
            .unwrap()
    }

    #[test]
    fn finds_minimum_of_convex_quadratic() {
        let space = quadratic_space();
        let mut nm = NelderMead::default();
        let best = drive(&mut nm, &space, 150, |cfg| {
            let x = cfg.int("x").unwrap() as f64;
            let y = cfg.int("y").unwrap() as f64;
            (x - 17.0).powi(2) + 2.0 * (y + 23.0).powi(2)
        });
        assert!(best <= 2.0, "best={best}");
    }

    #[test]
    fn handles_one_dimension() {
        let space = SearchSpace::builder().int("x", 0, 1000, 1).build().unwrap();
        let mut nm = NelderMead::default();
        let best = drive(&mut nm, &space, 80, |cfg| {
            (cfg.int("x").unwrap() as f64 - 777.0).abs()
        });
        assert!(best <= 2.0, "best={best}");
    }

    #[test]
    fn handles_categorical_dimensions() {
        let space = SearchSpace::builder()
            .enumeration("alg", ["slow", "medium", "fast", "fastest"])
            .int("buf", 1, 64, 1)
            .build()
            .unwrap();
        let mut nm = NelderMead::default();
        let best = drive(&mut nm, &space, 120, |cfg| {
            let alg_cost = match cfg.choice("alg").unwrap() {
                "slow" => 40.0,
                "medium" => 20.0,
                "fast" => 10.0,
                _ => 5.0,
            };
            alg_cost + (cfg.int("buf").unwrap() as f64 - 48.0).abs()
        });
        assert!(best <= 8.0, "best={best}");
    }

    #[test]
    fn restart_on_collapse_keeps_searching() {
        // A tiny space forces the simplex to collapse quickly; the restart
        // policy must keep proposing points instead of freezing.
        let space = SearchSpace::builder().int("x", 0, 3, 1).build().unwrap();
        let mut nm = NelderMead::default();
        let best = drive(&mut nm, &space, 60, |cfg| {
            [9.0, 3.0, 1.0, 4.0][cfg.int("x").unwrap() as usize]
        });
        assert_eq!(best, 1.0);
        assert!(nm.restarts() > 0, "expected at least one collapse restart");
    }

    #[test]
    fn prior_simplex_seed_is_used() {
        let space = quadratic_space();
        // Seed all three vertices near the optimum; the search should land
        // almost immediately.
        let seed = vec![vec![16.0, -22.0], vec![18.0, -24.0], vec![17.0, -21.0]];
        let mut nm = NelderMead::new(NelderMeadOptions {
            start: StartPoint::Simplex(seed),
            ..Default::default()
        });
        let best = drive(&mut nm, &space, 20, |cfg| {
            let x = cfg.int("x").unwrap() as f64;
            let y = cfg.int("y").unwrap() as f64;
            (x - 17.0).powi(2) + 2.0 * (y + 23.0).powi(2)
        });
        assert!(best <= 2.0, "best={best}");
    }

    #[test]
    fn an_empty_prior_simplex_is_a_random_start() {
        let space = quadratic_space();
        let stream = |start: StartPoint| {
            let mut nm = NelderMead::new(NelderMeadOptions {
                start,
                ..Default::default()
            });
            let mut rng: StdRng = rand::SeedableRng::seed_from_u64(31);
            nm.init(&space, &mut rng);
            (0..12)
                .map(|i| {
                    let p = nm.propose(&space, &mut rng).unwrap();
                    nm.feedback(&p, i as f64, &space, &mut rng);
                    p
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            stream(StartPoint::Simplex(Vec::new())),
            stream(StartPoint::Random)
        );
    }

    #[test]
    fn snapshot_reports_converging_simplex() {
        let space = quadratic_space();
        let mut nm = NelderMead::default();
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        nm.init(&space, &mut rng);
        let mut spreads = Vec::new();
        for _ in 0..120 {
            let coords = nm.propose(&space, &mut rng).unwrap();
            let cfg = space.project(&coords);
            let x = cfg.int("x").unwrap() as f64;
            let y = cfg.int("y").unwrap() as f64;
            nm.feedback(
                &coords,
                (x - 9.0).powi(2) + (y - 4.0).powi(2),
                &space,
                &mut rng,
            );
            let snap = nm.snapshot();
            let simplex = snap.simplex.expect("nelder-mead exposes its simplex");
            spreads.push(simplex.spread);
            assert!(simplex.vertex_costs.windows(2).all(|w| w[0] <= w[1]));
        }
        let snap = nm.snapshot();
        let simplex = snap.simplex.unwrap();
        // Mid-restart only the carried-over best vertex has a cost, so
        // between 1 and k+1 vertices are visible at any instant.
        assert!((1..=3).contains(&simplex.vertex_costs.len()), "{simplex:?}");
        assert!(
            simplex.reflections + simplex.expansions + simplex.contractions + simplex.shrinks > 0,
            "{simplex:?}"
        );
        // The simplex converges: the spread collapses well below where the
        // early iterations started.
        let early = spreads[..10].iter().copied().fold(0.0_f64, f64::max);
        assert!(
            simplex.spread < early || simplex.spread == 0.0,
            "spread {} never fell below early max {early}",
            simplex.spread
        );
    }

    #[test]
    fn best_vertex_cost_never_increases() {
        let space = quadratic_space();
        let mut nm = NelderMead::default();
        let mut rng = rand::SeedableRng::seed_from_u64(3);
        nm.init(&space, &mut rng);
        let mut best_seen = f64::INFINITY;
        for _ in 0..100 {
            let coords = nm.propose(&space, &mut rng).unwrap();
            let cfg = space.project(&coords);
            let x = cfg.int("x").unwrap() as f64;
            let y = cfg.int("y").unwrap() as f64;
            let cost = x * x + y * y;
            nm.feedback(&coords, cost, &space, &mut rng);
            best_seen = best_seen.min(cost);
            let simplex_best = nm
                .vertices
                .iter()
                .map(|v| v.cost)
                .fold(f64::INFINITY, f64::min);
            assert!(
                simplex_best >= best_seen - 1e-12 || simplex_best.is_infinite(),
                "simplex lost track of the best point"
            );
        }
    }

    #[test]
    fn constrained_simplex_moves_snap_to_feasible_points() {
        // b1 <= b2 <= b3: reflections through the centroid routinely cross
        // the constraint surface. Repair-then-lattice-snap used to hand the
        // session points whose *snapped* configuration violated the chain
        // (the snap undoes the repair); the feasibility-aware snap consults
        // the compiled space instead.
        let space = SearchSpace::builder()
            .int("b1", 0, 11, 1)
            .int("b2", 0, 11, 1)
            .int("b3", 0, 11, 1)
            .constraint(crate::constraint::MonotoneChain::new(["b1", "b2", "b3"]))
            .build()
            .unwrap();
        let mut nm = NelderMead::default();
        let mut rng = rand::SeedableRng::seed_from_u64(11);
        nm.init(&space, &mut rng);
        let mut checked_moves = 0;
        for _ in 0..120 {
            let moving = !matches!(nm.phase, Phase::InitEval(_) | Phase::Shrink(_));
            let coords = nm.propose(&space, &mut rng).unwrap();
            if moving {
                // Simplex moves must land exactly on feasible lattice
                // points (init/shrink vertices stay continuous by design).
                assert!(
                    space.snap(&coords).is_some(),
                    "infeasible simplex move {coords:?}"
                );
                checked_moves += 1;
            }
            let cfg = space.project(&coords);
            let b1 = cfg.int("b1").unwrap() as f64;
            let b2 = cfg.int("b2").unwrap() as f64;
            let b3 = cfg.int("b3").unwrap() as f64;
            let cost = (b1 - 2.0).powi(2) + (b2 - 5.0).powi(2) + (b3 - 9.0).powi(2);
            nm.feedback(&coords, cost, &space, &mut rng);
        }
        assert!(checked_moves > 20, "only {checked_moves} moves exercised");
    }
}
