//! Surrogate-assisted search: fit a cheap model to the evaluations already
//! paid for, and spend real evaluations on the model's argmin.
//!
//! The model is a separable quadratic `c(x) ≈ w0 + Σᵢ aᵢxᵢ + bᵢxᵢ²` over
//! per-dimension-normalized embedding coordinates, fitted by ridge-
//! regularized least squares via the normal equations — no external linear
//! algebra, just Gaussian elimination on a `(2d+1)²` system. Runtime-cost
//! surfaces in the paper's applications are bowl-shaped in most dimensions,
//! which is exactly what this model captures with a handful of samples.
//!
//! Every proposal decides up front whether it trusts the model:
//! - enough samples **and** the fit's relative error is below threshold →
//!   propose the model's argmin over compiled-space candidates not yet
//!   measured;
//! - otherwise → fall back to the inner strategy (Nelder–Mead by default)
//!   and count the fallback.
//!
//! The argmin is an exact scan of the compiled lattice, in enumeration
//! order, the earlier point winning a tie — exact because on a constrained
//! lattice the minimum of a quadratic is not where descent from its
//! continuous minimum lands. What keeps the scan affordable is that it
//! never leaves index space: the model being separable, its `2·dims` terms
//! are tabulated per dimension once per proposal, a point then costs
//! `2·dims` additions on the cursor's index vector, and nothing is
//! allocated for a point unless it beats the best so far (see
//! [`Surrogate::scan`]). That is linear in
//! [`candidate_cap`](SurrogateOptions::candidate_cap) with a constant of
//! some tens of nanoseconds, not bounded: a proposal over the full default
//! cap still costs on the order of a millisecond.
//!
//! Feedback for a model proposal never reaches the inner strategy — the
//! inner simplex only ever hears answers to its own questions, so its
//! invariants (one outstanding proposal) hold unchanged.

use super::{SearchStrategy, StrategySnapshot, SurrogateSnapshot};
use crate::param::Param;
use crate::space::SearchSpace;
use crate::space_compile::CompiledSpace;
use crate::telemetry::{Counter, Latency, Telemetry};
use rand::rngs::StdRng;
use std::collections::HashSet;
use std::time::Instant;

/// Random lattice candidates mixed into the argmin scan once enumeration
/// hits the candidate cap (so huge spaces still get global coverage).
const EXTRA_RANDOM_CANDIDATES: usize = 512;

/// Tunable knobs of [`Surrogate`] — the hyperparameter surface the
/// meta-tuner searches.
#[derive(Debug, Clone)]
pub struct SurrogateOptions {
    /// Samples required before the first fit; `0` means the automatic
    /// floor `2·dims + 3` (one sample per coefficient plus slack).
    pub min_samples: usize,
    /// Fresh samples between refits.
    pub refit_every: usize,
    /// Relative RMS fit error above which the model is distrusted and the
    /// proposal falls back to the inner strategy.
    pub fit_threshold: f64,
    /// Compiled-space points scored per argmin pass, in enumeration order.
    /// A proposal's cost is linear in it (`2·dims` additions per point);
    /// a space with more valid points than this is scanned up to the cap
    /// and supplemented with 512 random lattice candidates, so the argmin
    /// is not confined to the corner enumeration starts in.
    pub candidate_cap: u64,
    /// Ridge regularization added to the normal equations' diagonal.
    pub ridge: f64,
}

impl Default for SurrogateOptions {
    fn default() -> Self {
        SurrogateOptions {
            min_samples: 0,
            refit_every: 4,
            fit_threshold: 0.25,
            candidate_cap: 65_536,
            ridge: 1e-6,
        }
    }
}

/// Fitted separable quadratic: `w[0] + Σ w[1+i]·xᵢ + w[1+d+i]·xᵢ²` over
/// normalized coordinates.
struct Model {
    weights: Vec<f64>,
    /// Relative RMS error on the training samples.
    rel_error: f64,
}

/// The model's two terms along one dimension — `[w_lin·xn, w_quad·xn²]` —
/// at every compiled lattice index of that dimension, `xn` being the
/// normalized coordinate as [`Surrogate::normalized`] computes it.
///
/// At most `cap` indices are tabulated (a scan of `cap` points cannot pay
/// for more, and a dimension may have 10⁹ of them); an index beyond the
/// table is computed on the spot by the same expression.
struct DimTerms<'a> {
    cs: &'a CompiledSpace,
    param: &'a Param,
    dim: usize,
    weights: [f64; 2],
    lo: u64,
    table: Vec<[f64; 2]>,
}

impl<'a> DimTerms<'a> {
    fn new(
        cs: &'a CompiledSpace,
        space: &'a SearchSpace,
        dim: usize,
        weights: [f64; 2],
        cap: u64,
    ) -> Self {
        let (lo, hi) = cs.index_range(dim);
        let mut terms = DimTerms {
            cs,
            param: &space.params()[dim],
            dim,
            weights,
            lo,
            table: Vec::new(),
        };
        let tabulated = (hi - lo).saturating_add(1).min(cap);
        terms.table = (lo..lo + tabulated).map(|i| terms.compute(i)).collect();
        terms
    }

    fn compute(&self, index: u64) -> [f64; 2] {
        let xn = Surrogate::normalized(self.param, self.cs.coord(self.dim, index));
        [xn * self.weights[0], xn * xn * self.weights[1]]
    }

    fn at(&self, index: u64) -> [f64; 2] {
        match self.table.get((index - self.lo) as usize) {
            Some(terms) => *terms,
            None => self.compute(index),
        }
    }
}

/// A scored candidate: `(prediction, cache key, coordinates)`.
type Candidate = (f64, Vec<i64>, Vec<f64>);

/// Which source produced the outstanding proposal.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Model,
    Inner,
}

/// Surrogate-assisted proposer wrapping an inner [`SearchStrategy`].
pub struct Surrogate {
    opts: SurrogateOptions,
    inner: Box<dyn SearchStrategy>,
    /// Measured `(coords, cost)` pairs the model trains on.
    samples: Vec<(Vec<f64>, f64)>,
    /// Cache keys of every configuration measured or proposed.
    seen: HashSet<Vec<i64>>,
    model: Option<Model>,
    fitted_at: usize,
    last_source: Source,
    fallbacks: usize,
    model_proposals: usize,
    telemetry: Telemetry,
}

impl Default for Surrogate {
    fn default() -> Self {
        Surrogate::new(SurrogateOptions::default())
    }
}

impl Surrogate {
    /// Surrogate over the default inner strategy (Nelder–Mead).
    pub fn new(opts: SurrogateOptions) -> Self {
        Surrogate::with_inner(opts, Box::new(super::NelderMead::default()))
    }

    /// Surrogate over an explicit inner strategy.
    pub fn with_inner(opts: SurrogateOptions, inner: Box<dyn SearchStrategy>) -> Self {
        Surrogate {
            opts,
            inner,
            samples: Vec::new(),
            seen: HashSet::new(),
            model: None,
            fitted_at: 0,
            last_source: Source::Inner,
            fallbacks: 0,
            model_proposals: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Pre-seed the sample set with prior measurements (e.g. performance
    /// store records) so the first fit happens sooner.
    pub fn with_prior_samples(mut self, samples: Vec<(Vec<f64>, f64)>) -> Self {
        self.samples = samples;
        self
    }

    fn min_samples(&self, dims: usize) -> usize {
        let auto = 2 * dims + 3;
        self.opts.min_samples.max(auto)
    }

    /// One coordinate normalized to [0, 1] over its parameter's range.
    fn normalized(param: &Param, coord: f64) -> f64 {
        let (lo, hi) = (param.embed_min(), param.embed_max());
        if hi > lo {
            (coord - lo) / (hi - lo)
        } else {
            0.0
        }
    }

    /// Per-dimension normalization to [0, 1] for conditioning.
    fn normalize(space: &SearchSpace, coords: &[f64]) -> Vec<f64> {
        space
            .params()
            .iter()
            .zip(coords)
            .map(|(p, &c)| Self::normalized(p, c))
            .collect()
    }

    fn features(xn: &[f64]) -> Vec<f64> {
        let mut f = Vec::with_capacity(2 * xn.len() + 1);
        f.push(1.0);
        f.extend(xn.iter().copied());
        f.extend(xn.iter().map(|v| v * v));
        f
    }

    fn predict(model: &Model, xn: &[f64]) -> f64 {
        Self::features(xn)
            .iter()
            .zip(&model.weights)
            .map(|(f, w)| f * w)
            .sum()
    }

    /// Fit the quadratic by normal equations + Gaussian elimination.
    fn fit(&self, space: &SearchSpace) -> Option<Model> {
        let dims = space.params().len();
        let m = 2 * dims + 1;
        let rows: Vec<(Vec<f64>, f64)> = self
            .samples
            .iter()
            .filter(|(_, c)| c.is_finite())
            .map(|(x, c)| (Self::features(&Self::normalize(space, x)), *c))
            .collect();
        if rows.len() < m + 1 {
            return None;
        }
        // AᵀA + ridge·I and Aᵀy.
        let mut ata = vec![vec![0.0f64; m]; m];
        let mut aty = vec![0.0f64; m];
        for (f, y) in &rows {
            for i in 0..m {
                aty[i] += f[i] * y;
                for j in 0..m {
                    ata[i][j] += f[i] * f[j];
                }
            }
        }
        for (i, row) in ata.iter_mut().enumerate() {
            row[i] += self.opts.ridge.max(0.0);
        }
        let weights = solve(ata, aty)?;
        let model = Model {
            weights,
            rel_error: 0.0,
        };
        // Relative RMS error over the training set, scaled by the cost
        // spread so the threshold is unitless.
        let costs: Vec<f64> = rows.iter().map(|(_, y)| *y).collect();
        let lo = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let scale = (hi - lo).max(1e-12);
        let mse: f64 = rows
            .iter()
            .map(|(f, y)| {
                let pred: f64 = f.iter().zip(&model.weights).map(|(a, w)| a * w).sum();
                (pred - y).powi(2)
            })
            .sum::<f64>()
            / rows.len() as f64;
        Some(Model {
            rel_error: mse.sqrt() / scale,
            ..model
        })
    }

    fn maybe_refit(&mut self, space: &SearchSpace) {
        let dims = space.params().len();
        if self.samples.len() < self.min_samples(dims) {
            return;
        }
        let due = self.model.is_none()
            || self.samples.len() >= self.fitted_at + self.opts.refit_every.max(1);
        if !due {
            return;
        }
        let start = Instant::now();
        self.model = self.fit(space);
        self.telemetry
            .observe(Latency::SurrogateFit, start.elapsed());
        self.fitted_at = self.samples.len();
    }

    /// The model's argmin over not-yet-measured lattice candidates:
    /// compiled-space enumeration up to the cap, topped up with random
    /// lattice samples when the space is larger than the cap.
    fn argmin(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Option<Vec<f64>> {
        let model = self.model.as_ref()?;
        let cs = space.compiled()?;
        let start = Instant::now();
        let cap = self.opts.candidate_cap;
        let (mut best, scanned) = self.scan(model, cs, space);
        if scanned == cap {
            // Space larger than the scan: supplement with random lattice
            // candidates so the argmin isn't confined to one corner.
            for _ in 0..EXTRA_RANDOM_CANDIDATES {
                let cand = space.sample_coords(rng);
                let Some(cfg) = space.snap(&cand) else {
                    continue;
                };
                let Ok(coords) = space.embed(&cfg) else {
                    continue;
                };
                let key = cfg.cache_key();
                if self.seen.contains(&key) {
                    continue;
                }
                let pred = Self::predict(model, &Self::normalize(space, &coords));
                if best.as_ref().is_none_or(|(b, ..)| pred < *b) {
                    best = Some((pred, key, coords));
                }
            }
        }
        self.telemetry
            .observe(Latency::SurrogatePredict, start.elapsed());
        let (_, key, coords) = best?;
        self.seen.insert(key);
        Some(coords)
    }

    /// Score up to `candidate_cap` compiled points, in enumeration order:
    /// the best one not yet measured (the earlier of equals), and how many
    /// were scored.
    ///
    /// The scan works on lattice indices. The model is separable, so a
    /// point's prediction is `w0` plus one linear and one quadratic term
    /// per dimension, each a function of that dimension's index alone:
    /// they are tabulated once per call ([`DimTerms`]) and a point costs
    /// `2·dims` additions — all linear terms, then all quadratic ones, the
    /// order [`features`](Self::features) lays them out in, so the sum is
    /// the one [`predict`](Self::predict) computes, bit for bit. A point
    /// is compared before anything is built for it; only one that improves
    /// on the best so far pays for its cache key, the `seen` lookup and
    /// its coordinates.
    fn scan(
        &self,
        model: &Model,
        cs: &CompiledSpace,
        space: &SearchSpace,
    ) -> (Option<Candidate>, u64) {
        let cap = self.opts.candidate_cap;
        let dims = space.dims();
        let w = &model.weights;
        let terms: Vec<DimTerms> = (0..dims)
            .map(|d| DimTerms::new(cs, space, d, [w[1 + d], w[1 + dims + d]], cap))
            .collect();
        let mut best: Option<Candidate> = None;
        let mut cursor = cs.start();
        let mut scanned = 0u64;
        while scanned < cap && cs.next_point(&mut cursor) {
            scanned += 1;
            let idx = cursor.indices();
            let mut pred = w[0];
            for (t, &i) in terms.iter().zip(idx) {
                pred += t.at(i)[0];
            }
            for (t, &i) in terms.iter().zip(idx) {
                pred += t.at(i)[1];
            }
            if best.as_ref().is_none_or(|(b, ..)| pred < *b) {
                let key = cs.cache_key(idx);
                if !self.seen.contains(&key) {
                    best = Some((pred, key, cs.coords(idx)));
                }
            }
        }
        (best, scanned)
    }

    /// [`scan`](Self::scan) as it was before it moved to lattice indices —
    /// a `Configuration`, a key, a coordinate vector and a feature vector
    /// per point — kept as the oracle the scan is tested against.
    #[cfg(test)]
    fn scan_by_configuration(
        &self,
        model: &Model,
        cs: &CompiledSpace,
        space: &SearchSpace,
    ) -> (Option<Candidate>, u64) {
        let mut best: Option<Candidate> = None;
        let mut consider = |key: Vec<i64>, coords: Vec<f64>| {
            if self.seen.contains(&key) {
                return;
            }
            let pred = Self::predict(model, &Self::normalize(space, &coords));
            if best.as_ref().is_none_or(|(b, ..)| pred < *b) {
                best = Some((pred, key, coords));
            }
        };
        let mut cursor = cs.start();
        let mut scanned = 0u64;
        while scanned < self.opts.candidate_cap && cs.next_point(&mut cursor) {
            scanned += 1;
            let cfg = cs.configuration(cursor.indices());
            let coords = cs.coords(cursor.indices());
            consider(cfg.cache_key(), coords);
        }
        (best, scanned)
    }

    fn note_seen(&mut self, space: &SearchSpace, coords: &[f64]) {
        self.seen.insert(space.project(coords).cache_key());
    }
}

impl SearchStrategy for Surrogate {
    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn init(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        self.inner.init(space, rng);
        self.seen.clear();
        self.model = None;
        self.fitted_at = 0;
        self.last_source = Source::Inner;
        self.fallbacks = 0;
        self.model_proposals = 0;
    }

    fn propose(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Option<Vec<f64>> {
        self.maybe_refit(space);
        let trusted = self
            .model
            .as_ref()
            .is_some_and(|m| m.rel_error <= self.opts.fit_threshold);
        if trusted {
            if let Some(coords) = self.argmin(space, rng) {
                self.last_source = Source::Model;
                self.model_proposals += 1;
                return Some(coords);
            }
        }
        // Fallback: the inner strategy asks its own question. Only count a
        // fallback once the model had enough samples to be consulted.
        if self.samples.len() >= self.min_samples(space.params().len()) {
            self.fallbacks += 1;
            self.telemetry.inc(Counter::SurrogateFallbacks);
        }
        let coords = self.inner.propose(space, rng)?;
        self.last_source = Source::Inner;
        Some(coords)
    }

    fn feedback(&mut self, coords: &[f64], cost: f64, space: &SearchSpace, rng: &mut StdRng) {
        self.note_seen(space, coords);
        self.samples.push((coords.to_vec(), cost));
        if self.last_source == Source::Inner {
            self.inner.feedback(coords, cost, space, rng);
        }
    }

    fn snapshot(&self) -> StrategySnapshot {
        StrategySnapshot {
            phase: if self.model.is_some() {
                "model"
            } else {
                "collect"
            },
            surrogate: Some(SurrogateSnapshot {
                fit_error: self.model.as_ref().map_or(f64::INFINITY, |m| m.rel_error),
                fallbacks: self.fallbacks,
                model_proposals: self.model_proposals,
                samples: self.fitted_at,
            }),
            ..StrategySnapshot::default()
        }
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }
}

/// Solve `A·x = b` by Gaussian elimination with partial pivoting; `None`
/// when the system is numerically singular.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            let (upper, lower) = a.split_at_mut(row);
            for (t, p) in lower[0][col..].iter_mut().zip(&upper[col][col..]) {
                *t -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        3.0 + (x - 57.0).powi(2) * 0.1 + (y + 11.0).powi(2) * 0.2
    }

    #[test]
    fn solver_inverts_a_known_system() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9 && (x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solver_rejects_singular_systems() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn nails_a_quadratic_bowl_quickly() {
        let space = bowl_space();
        let mut s = Surrogate::default();
        let best = drive(&mut s, &space, 30, bowl);
        assert!(best < 3.5, "surrogate best {best}");
        assert!(
            s.model_proposals >= 1,
            "model never trusted ({} fallbacks)",
            s.fallbacks
        );
    }

    #[test]
    fn falls_back_on_an_adversarial_surface() {
        let space = bowl_space();
        let mut s = Surrogate::new(SurrogateOptions {
            fit_threshold: 0.05,
            ..Default::default()
        });
        // Checkerboard: no quadratic fits this within 5%, so the inner
        // strategy keeps the wheel.
        drive(&mut s, &space, 40, |cfg| {
            let x = cfg.int("x").unwrap();
            let y = cfg.int("y").unwrap();
            ((x + y) % 2) as f64 * 100.0 + (x as f64 - 40.0).abs()
        });
        assert!(s.fallbacks > 0, "no fallbacks on an unfittable surface");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let space = bowl_space();
        let run = || {
            let mut s = Surrogate::default();
            let mut rng = StdRng::seed_from_u64(31);
            s.init(&space, &mut rng);
            let mut stream = Vec::new();
            for _ in 0..40 {
                let Some(coords) = s.propose(&space, &mut rng) else {
                    break;
                };
                let cost = bowl(&space.project(&coords));
                stream.push((coords.clone(), cost.to_bits()));
                s.feedback(&coords, cost, &space, &mut rng);
            }
            stream
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn model_proposals_never_repeat_a_measured_point() {
        let space = bowl_space();
        let mut s = Surrogate::default();
        let mut rng = StdRng::seed_from_u64(17);
        s.init(&space, &mut rng);
        let mut keys = std::collections::HashSet::new();
        for _ in 0..40 {
            let coords = s.propose(&space, &mut rng).unwrap();
            let key = space.project(&coords).cache_key();
            if s.last_source == Source::Model {
                assert!(keys.insert(key), "model re-proposed a measured point");
            } else {
                keys.insert(key);
            }
            let cost = bowl(&space.project(&coords));
            s.feedback(&coords, cost, &space, &mut rng);
        }
    }

    /// Spaces that exercise every branch of the index-space scan.
    fn oracle_spaces() -> Vec<(&'static str, SearchSpace)> {
        use crate::constraint::{MonotoneChain, SumBound};
        vec![
            (
                "stepped ints and an enum",
                SearchSpace::builder()
                    .int("a", -4, 20, 3)
                    .enumeration("m", ["w", "x", "y", "z"])
                    .int("b", 0, 9, 1)
                    .build()
                    .unwrap(),
            ),
            (
                // `one` has a single value (normalizes to 0); `p` is pinned
                // to 5 by propagation, so its compiled range is one index
                // in the middle of its lattice.
                "a one-value parameter and a pinned dimension",
                SearchSpace::builder()
                    .int("one", 7, 7, 1)
                    .int("p", 0, 9, 1)
                    .int("q", 0, 12, 2)
                    .constraint(SumBound::exact(["p"], 5.0))
                    .build()
                    .unwrap(),
            ),
            (
                "a chain",
                SearchSpace::builder()
                    .int("c0", 0, 8, 1)
                    .int("c1", 0, 8, 1)
                    .int("c2", 0, 8, 1)
                    .constraint(MonotoneChain::new(["c0", "c1", "c2"]))
                    .build()
                    .unwrap(),
            ),
            (
                // The first valid points are x=0, z=900..: indices of `z`
                // far beyond a table of `cap` entries.
                "indices beyond the tabulated ones",
                SearchSpace::builder()
                    .int("x", 0, 999, 1)
                    .int("z", 0, 999, 1)
                    .constraint(SumBound::new(["x", "z"], 900.0, 2000.0))
                    .build()
                    .unwrap(),
            ),
        ]
    }

    fn bits(best: Option<Candidate>) -> Option<(u64, Vec<i64>, Vec<u64>)> {
        best.map(|(pred, key, coords)| {
            let coords = coords.iter().map(|c| c.to_bits()).collect();
            (pred.to_bits(), key, coords)
        })
    }

    /// The index-space scan against the configuration-per-point oracle:
    /// same point, same prediction bits, same number scanned — for random
    /// models (zero weights included, so that whole faces of the lattice
    /// tie), at caps below and above the space's size, while `seen` grows
    /// to cover the model's best points one by one.
    #[test]
    fn scan_equals_the_configuration_per_point_oracle() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(2006);
        for (name, space) in oracle_spaces() {
            let cs = CompiledSpace::compile(&space).unwrap();
            let m = 2 * space.dims() + 1;
            for cap in [37, 65_536] {
                for round in 0..6 {
                    let weights = (0..m)
                        .map(|_| match rng.gen_range(0..4usize) {
                            0 => 0.0,
                            _ => rng.gen_range(-3.0..3.0),
                        })
                        .collect();
                    let model = Model {
                        weights,
                        rel_error: 0.0,
                    };
                    let mut s = Surrogate::new(SurrogateOptions {
                        candidate_cap: cap,
                        ..Default::default()
                    });
                    for taken in 0..5 {
                        let (got, scanned) = s.scan(&model, &cs, &space);
                        let (want, want_scanned) = s.scan_by_configuration(&model, &cs, &space);
                        assert_eq!(
                            (bits(got.clone()), scanned),
                            (bits(want), want_scanned),
                            "{name}, cap {cap}, model {round}, {taken} best points seen"
                        );
                        let Some((_, key, _)) = got else { break };
                        s.seen.insert(key);
                    }
                }
            }
        }
    }

    #[test]
    fn a_dimension_wider_than_the_cap_is_tabulated_only_up_to_it() {
        let space = SearchSpace::builder()
            .int("wide", 0, 999_999_999, 1)
            .int("y", 0, 3, 1)
            .build()
            .unwrap();
        let cs = CompiledSpace::compile(&space).unwrap();
        let terms = DimTerms::new(&cs, &space, 0, [1.5, -0.5], 100);
        assert_eq!(terms.table.len(), 100);
        assert_eq!(terms.at(99), terms.compute(99));
        let far = terms.at(999_999_999);
        assert_eq!(far, [1.5, -0.5], "xn = 1 at the top of the range");
    }

    #[test]
    fn prior_samples_accelerate_the_first_fit() {
        let space = bowl_space();
        let mut rng = StdRng::seed_from_u64(9);
        let priors: Vec<(Vec<f64>, f64)> = (0..12)
            .map(|_| {
                let c = space.sample_coords(&mut rng);
                let cost = bowl(&space.project(&c));
                (c, cost)
            })
            .collect();
        let mut s = Surrogate::default().with_prior_samples(priors);
        let mut rng2 = StdRng::seed_from_u64(10);
        s.init(&space, &mut rng2);
        let _ = s.propose(&space, &mut rng2).unwrap();
        assert!(s.model.is_some(), "prior samples should enable a fit");
    }

    #[test]
    fn snapshot_reports_model_state() {
        let space = bowl_space();
        let mut s = Surrogate::default();
        drive(&mut s, &space, 30, bowl);
        let snap = s.snapshot();
        assert_eq!(snap.phase, "model");
        let m = snap.surrogate.expect("surrogate section");
        assert!(m.fit_error.is_finite());
        assert!(m.samples > 0);
    }

    #[test]
    fn records_fallback_counter_on_telemetry() {
        let space = bowl_space();
        let telemetry = Telemetry::enabled();
        let mut s = Surrogate::new(SurrogateOptions {
            fit_threshold: 0.0,
            ..Default::default()
        });
        s.set_telemetry(telemetry.clone());
        drive(&mut s, &space, 30, |cfg| {
            let x = cfg.int("x").unwrap();
            ((x * 31) % 17) as f64
        });
        assert!(telemetry.counter(Counter::SurrogateFallbacks) > 0);
    }
}
