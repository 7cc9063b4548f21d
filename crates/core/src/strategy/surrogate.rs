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
//! The argmin is exact over the compiled lattice: of the first
//! [`candidate_cap`](SurrogateOptions::candidate_cap) valid points in
//! enumeration order, the one not yet measured with the smallest
//! prediction, the earlier point winning a tie — exact because on a
//! constrained lattice the minimum of a quadratic is not where descent from
//! its continuous minimum lands. It is found without scoring those points
//! one by one. The model is separable, so the compiled space's
//! branch-and-bound walk — the one `snap_feasible` runs for distance —
//! takes the prediction as its score ([`Prediction`]): it descends the
//! enumeration tree in order and skips every subtree whose prefix terms,
//! plus each later dimension's smallest term, already reach the best
//! prediction found. A point it does reach is scored by the sum
//! [`Surrogate::predict`] computes, bit for bit, so the answer is the one a
//! scan of every point gives. What a proposal costs follows the model's
//! shape, not the cap: on a fitted bowl, a few percent of a full
//! enumeration's nodes.
//!
//! Feedback for a model proposal never reaches the inner strategy — the
//! inner simplex only ever hears answers to its own questions, so its
//! invariants (one outstanding proposal) hold unchanged.

use super::{SearchStrategy, StrategySnapshot, SurrogateSnapshot};
use crate::param::Param;
use crate::space::{CacheKey, SearchSpace};
use crate::space_compile::{CompiledSpace, PointCursor, Separable};
use crate::telemetry::{Counter, Latency, Telemetry};
use rand::rngs::StdRng;
use std::collections::HashSet;
use std::time::Instant;

/// Random lattice candidates mixed into the argmin once the space holds at
/// least the candidate cap (so huge spaces still get global coverage).
const EXTRA_RANDOM_CANDIDATES: usize = 512;

/// Lattice indices per dimension, from the bottom of its compiled range,
/// whose terms a proposal computes up front: the walk enters most of a
/// small dimension's indices many times over, and a dimension may have 10⁹
/// of them.
const TABULATED: u64 = 256;

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
    /// Compiled-space points an argmin pass considers: the first this many
    /// valid ones, in enumeration order. A proposal does not score them one
    /// by one — the walk over them skips what the model's bound rules out,
    /// and how far they reach is learnt once per space — so its cost is not
    /// linear in the cap. A space with at least this many valid points has
    /// the argmin supplemented with 512 random lattice candidates, so that
    /// it is not confined to the corner enumeration starts in.
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

/// The model's prediction as the score of the compiled space's walk: `w0`,
/// then one term per dimension, `w_lin·xn + w_quad·xn²`, `xn` being the
/// normalized coordinate as [`Surrogate::normalized`] computes it at that
/// dimension's lattice index.
///
/// A point the walk reaches is scored from the `[w_lin·xn, w_quad·xn²]`
/// pairs it computed on the way down, added as
/// [`features`](Surrogate::features) lays them out — `w0`, every linear
/// term, every quadratic term — so the score is the one
/// [`predict`](Surrogate::predict) computes, bit for bit. A subtree is
/// bounded by its prefix's terms plus every later dimension's smallest term
/// over its compiled index range, less
/// [`rounding_margin`](Self::rounding_margin); only a point that beats the
/// best so far pays for its cache key and the `seen` lookup.
struct Prediction<'a> {
    cs: &'a CompiledSpace,
    /// The compiled space's parameters, which normalize a coordinate.
    params: &'a [Param],
    seen: &'a HashSet<CacheKey>,
    w0: f64,
    /// `[w_lin, w_quad]` per dimension.
    weights: Vec<[f64; 2]>,
    /// `rest[d]`: the range minima of the dimensions after `d`, summed.
    rest: Vec<f64>,
    margin: f64,
    /// Per dimension, the pairs at the first [`TABULATED`] indices of its
    /// range; an index beyond is computed on the spot, by the same
    /// expression.
    table: Vec<Vec<[f64; 2]>>,
    /// Per dimension, the pair at the node the walk last entered there.
    path: Vec<[f64; 2]>,
}

impl<'a> Prediction<'a> {
    fn new(
        model: &Model,
        cs: &'a CompiledSpace,
        params: &'a [Param],
        seen: &'a HashSet<CacheKey>,
    ) -> Self {
        let dims = cs.dims();
        let w = &model.weights;
        let mut prediction = Prediction {
            cs,
            params,
            seen,
            w0: w[0],
            weights: (0..dims).map(|d| [w[1 + d], w[1 + dims + d]]).collect(),
            rest: vec![0.0; dims],
            margin: Self::rounding_margin(w),
            table: Vec::new(),
            path: vec![[0.0; 2]; dims],
        };
        prediction.table = (0..dims)
            .map(|d| {
                let (lo, hi) = cs.index_range(d);
                let end = hi.min(lo.saturating_add(TABULATED - 1));
                (lo..=end).map(|i| prediction.compute(d, i)).collect()
            })
            .collect();
        for d in (1..dims).rev() {
            prediction.rest[d - 1] = prediction.rest[d] + prediction.range_min(d);
        }
        prediction
    }

    /// What rounding can put between a bound and a point's score. Every
    /// normalized coordinate lies in [0, 1], so no term exceeds its weight
    /// in magnitude, and a sum of the `n = 2·dims + 1` terms, in any order,
    /// is off by at most about `n/2·ε·Σ|w|`, plus what underflow loses. The
    /// bound and the score are two such sums and each range minimum is a
    /// few roundings off the true one: `4·n·ε·Σ|w|` covers all three. A
    /// weight that is not finite, or so large that a sum could overflow,
    /// makes the margin infinite and turns the bound off.
    fn rounding_margin(weights: &[f64]) -> f64 {
        let magnitude: f64 = weights.iter().map(|w| w.abs()).sum();
        if magnitude <= f64::MAX / 4.0 {
            4.0 * weights.len() as f64 * (f64::EPSILON * magnitude + f64::MIN_POSITIVE)
        } else {
            f64::INFINITY
        }
    }

    /// `[w_lin·xn, w_quad·xn²]` at lattice index `index` of dimension `d`.
    fn pair(&self, d: usize, index: u64) -> [f64; 2] {
        let (lo, _) = self.cs.index_range(d);
        match self.table[d].get((index - lo) as usize) {
            Some(pair) => *pair,
            None => self.compute(d, index),
        }
    }

    fn compute(&self, d: usize, index: u64) -> [f64; 2] {
        let xn = self.normalized(d, index);
        let [lin, quad] = self.weights[d];
        [xn * lin, xn * xn * quad]
    }

    fn normalized(&self, d: usize, index: u64) -> f64 {
        Surrogate::normalized(&self.params[d], self.cs.coord(d, index))
    }

    /// The smallest term of dimension `d` over its compiled index range, in
    /// closed form. `xn` never decreases with the index, so a quadratic
    /// that opens upwards is smallest at the last index below its vertex
    /// or the first at or past it (found by bisection), and any other at
    /// an end of the range.
    fn range_min(&self, d: usize) -> f64 {
        let (lo, hi) = self.cs.index_range(d);
        let [lin, quad] = self.weights[d];
        let mut candidates = [lo, hi, lo, hi];
        if quad > 0.0 {
            let vertex = -lin / (2.0 * quad);
            let (mut past, mut end) = (lo, hi);
            while past < end {
                let mid = past + (end - past) / 2;
                if self.normalized(d, mid) < vertex {
                    past = mid + 1;
                } else {
                    end = mid;
                }
            }
            candidates[2] = past.saturating_sub(1).max(lo);
            candidates[3] = past;
        }
        candidates
            .into_iter()
            .map(|i| {
                let [lin, quad] = self.pair(d, i);
                lin + quad
            })
            .fold(f64::INFINITY, f64::min)
    }
}

impl Separable for Prediction<'_> {
    fn root(&self) -> f64 {
        self.w0
    }

    fn term(&mut self, d: usize, index: u64) -> f64 {
        let [lin, quad] = self.pair(d, index);
        self.path[d] = [lin, quad];
        lin + quad
    }

    fn rest(&self, d: usize) -> f64 {
        self.rest[d]
    }

    fn margin(&self) -> f64 {
        self.margin
    }

    fn leaf(&self, _path: f64) -> f64 {
        let mut pred = self.w0;
        for [lin, _] in &self.path {
            pred += lin;
        }
        for [_, quad] in &self.path {
            pred += quad;
        }
        pred
    }

    fn admits(&self, indices: &[u64]) -> bool {
        !self.seen.contains(&self.cs.cache_key(indices))
    }
}

/// A scored candidate: `(prediction, cache key, coordinates)`.
type Candidate = (f64, CacheKey, Vec<f64>);

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
    seen: HashSet<CacheKey>,
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
    pub(crate) fn with_inner(opts: SurrogateOptions, inner: Box<dyn SearchStrategy>) -> Self {
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

    /// The model's argmin over not-yet-measured lattice candidates: the
    /// compiled space's first `candidate_cap` points, topped up with random
    /// lattice samples when the space holds at least that many.
    fn argmin(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Option<Vec<f64>> {
        let model = self.model.as_ref()?;
        let cs = space.compiled()?;
        let start = Instant::now();
        let (mut best, capped) = self.best_enumerated(model, space, cs, &mut cs.start());
        if capped {
            // Space larger than the walk: supplement with random lattice
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

    /// Of the first `candidate_cap` compiled points, in enumeration order,
    /// the best one not yet measured (the earlier of equals); and whether
    /// the space holds at least that many. One bounded walk of the compiled
    /// space on `cur`, with the model as its score ([`Prediction`]); `cs`
    /// is `space` compiled.
    fn best_enumerated(
        &self,
        model: &Model,
        space: &SearchSpace,
        cs: &CompiledSpace,
        cur: &mut PointCursor,
    ) -> (Option<Candidate>, bool) {
        let (pred, capped) = cs.argmin_of_first(cur, self.opts.candidate_cap, || {
            Prediction::new(model, cs, space.params(), &self.seen)
        });
        let best = pred.map(|pred| (pred, cs.cache_key(cur.indices()), cs.coords(cur.indices())));
        (best, capped)
    }

    /// The argmin as it was before it moved to lattice indices and then to
    /// a bounded walk — every one of the first `candidate_cap` points
    /// visited, with a `Configuration`, a key, a coordinate vector and a
    /// feature vector each — kept as the oracle
    /// [`best_enumerated`](Self::best_enumerated) is tested against.
    #[cfg(test)]
    fn scan_by_configuration(
        &self,
        model: &Model,
        cs: &CompiledSpace,
        space: &SearchSpace,
    ) -> (Option<Candidate>, u64) {
        let mut best: Option<Candidate> = None;
        let mut consider = |key: CacheKey, coords: Vec<f64>| {
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
        self.seen.insert(space.key_of(coords));
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

    /// Spaces that exercise every branch of the walk.
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
                // The first valid points are x=0, z=900..: the bound on `z`
                // is a minimum over a thousand indices, and the first
                // 65 536 points end part-way through x=70.
                "a thousand indices per dimension",
                SearchSpace::builder()
                    .int("x", 0, 999, 1)
                    .int("z", 0, 999, 1)
                    .constraint(SumBound::new(["x", "z"], 900.0, 2000.0))
                    .build()
                    .unwrap(),
            ),
        ]
    }

    fn bits(best: Option<Candidate>) -> Option<(u64, CacheKey, Vec<u64>)> {
        best.map(|(pred, key, coords)| {
            let coords = coords.iter().map(|c| c.to_bits()).collect();
            (pred.to_bits(), key, coords)
        })
    }

    /// [`Surrogate::best_enumerated`] against the configuration-per-point
    /// oracle under one model and cap, while `seen` grows to cover the
    /// model's best points one by one: the same prediction bits, key and
    /// coordinate bits, and the same "capped" decision.
    fn assert_walk_equals_oracle(
        what: &str,
        space: &SearchSpace,
        cs: &CompiledSpace,
        model: &Model,
        cap: u64,
    ) {
        let mut s = Surrogate::new(SurrogateOptions {
            candidate_cap: cap,
            ..Default::default()
        });
        for taken in 0..5 {
            let (got, capped) = s.best_enumerated(model, space, cs, &mut cs.start());
            let (want, scanned) = s.scan_by_configuration(model, cs, space);
            assert_eq!(
                (bits(got.clone()), capped),
                (bits(want), scanned == cap),
                "{what}, cap {cap}, weights {:?}, {taken} best points seen",
                model.weights
            );
            let Some((_, key, _)) = got else { break };
            s.seen.insert(key);
        }
    }

    /// The walk against the configuration-per-point oracle: same point,
    /// same prediction bits, same "capped" decision — for random models
    /// (zero weights included, so that whole faces of the lattice tie), at
    /// caps below and above the space's size, while `seen` grows to cover
    /// the model's best points one by one.
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
                    let what = format!("{name}, model {round}");
                    assert_walk_equals_oracle(&what, &space, &cs, &model, cap);
                }
            }
        }
    }

    /// A random space for the walk's oracle: two to four dimensions —
    /// stepped ints, an enum, a one-value int — under up to two of a chain,
    /// a sum bound and a sum that pins one dimension; one in five also ends
    /// in a dimension of 10⁹ indices, whose range minimum only the closed
    /// form can afford. Returns the space and whether it has that dimension.
    fn random_space(rng: &mut StdRng) -> (SearchSpace, bool) {
        use crate::constraint::{MonotoneChain, SumBound};
        use rand::Rng;
        let mut b = SearchSpace::builder();
        // (name, min, step, values) of every int dimension.
        let mut ints: Vec<(String, i64, i64, i64)> = Vec::new();
        for d in 0..rng.gen_range(2..=4) {
            let name = format!("p{d}");
            let (min, step, values) = match rng.gen_range(0..6) {
                0 => {
                    b = b.enumeration(&name, ["lo", "mid", "hi"]);
                    continue;
                }
                1 => (4, 1, 1),
                _ => (
                    rng.gen_range(-3..4),
                    [1, 1, 2, 5][rng.gen_range(0..4usize)],
                    rng.gen_range(2..7),
                ),
            };
            b = b.int(&name, min, min + step * (values - 1), step);
            ints.push((name, min, step, values));
        }
        let wide = rng.gen_range(0..5) == 0;
        if wide {
            b = b.int("wide", 0, 999_999_999, 1);
        }
        let names: Vec<&str> = ints.iter().map(|(n, ..)| n.as_str()).collect();
        for _ in 0..rng.gen_range(0..=2) {
            b = match rng.gen_range(0..4) {
                0 if names.len() >= 2 => {
                    let from = rng.gen_range(0..names.len() - 1);
                    b.constraint(MonotoneChain::new(names[from..].to_vec()))
                }
                1 if !names.is_empty() => {
                    let lo = rng.gen_range(-10.0..10.0f64).round();
                    b.constraint(SumBound::new(
                        names.clone(),
                        lo,
                        lo + rng.gen_range(0..15) as f64,
                    ))
                }
                2 if !ints.is_empty() => {
                    let (name, min, step, values) = &ints[rng.gen_range(0..ints.len())];
                    let at = min + step * rng.gen_range(0..*values);
                    b.constraint(SumBound::exact([name.as_str()], at as f64))
                }
                _ => b,
            };
        }
        (b.build().expect("generated spaces are well-formed"), wide)
    }

    /// A random model: ordinary weights, a third of them zero (faces that
    /// tie) and the rest of either sign (a negative quadratic weight is a
    /// concave dimension); in one model of three, one weight replaced by a
    /// very large, tiny, infinite or NaN one.
    fn random_model(rng: &mut StdRng, dims: usize) -> Model {
        use rand::Rng;
        let mut weights: Vec<f64> = (0..2 * dims + 1)
            .map(|_| match rng.gen_range(0..3) {
                0 => 0.0,
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect();
        if rng.gen_range(0..3) == 0 {
            let special = [
                1e300,
                -1e300,
                1e-310,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ];
            let at = rng.gen_range(0..weights.len());
            weights[at] = special[rng.gen_range(0..special.len())];
        }
        Model {
            weights,
            rel_error: 0.0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The walk against the oracle on random spaces and models, at caps
        /// 0, 1, one short of the space's valid points, exactly them, one
        /// more, and the default — or, on a space with a 10⁹-index
        /// dimension, at caps the oracle can afford to scan.
        #[test]
        fn the_walk_equals_the_oracle_on_random_spaces_and_models(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (space, wide) = random_space(&mut rng);
            let cs = CompiledSpace::compile(&space).unwrap();
            let caps = if wide {
                vec![0, 1, 37, 1000]
            } else {
                let valid = cs.count_valid().lower_bound();
                vec![0, 1, valid.saturating_sub(1), valid, valid + 1, 65_536]
            };
            for round in 0..3 {
                let model = random_model(&mut rng, space.dims());
                for &cap in &caps {
                    let what = format!("seed {seed}, model {round}");
                    assert_walk_equals_oracle(&what, &space, &cs, &model, cap);
                }
            }
        }
    }

    /// The benchmark's 4 096-point bowl with a model fitted to it: the walk
    /// enters under a tenth of the nodes a full enumeration checks.
    #[test]
    fn on_a_fitted_bowl_the_walk_checks_a_fraction_of_the_enumeration() {
        let space = (0..4)
            .fold(SearchSpace::builder(), |b, d| {
                b.int(format!("x{d}"), 0, 7, 1)
            })
            .build()
            .unwrap();
        let mut s = Surrogate::default();
        drive(&mut s, &space, 30, |cfg| {
            cfg.cache_key()
                .iter()
                .zip([6, 1, 7, 0])
                .enumerate()
                .map(|(i, (v, o))| (1 + i % 3) as f64 * ((v - o) * (v - o)) as f64)
                .sum()
        });
        let model = s.model.as_ref().expect("30 samples fit the bowl");
        let cs = space.compiled().unwrap();
        let mut enumeration = cs.start();
        while cs.next_point(&mut enumeration) {}
        let mut walk = cs.start();
        let (best, capped) = s.best_enumerated(model, &space, cs, &mut walk);
        assert!(best.is_some() && !capped);
        assert!(
            walk.checks() * 10 < enumeration.checks(),
            "the walk checked {} nodes, the enumeration {}",
            walk.checks(),
            enumeration.checks()
        );
    }

    /// A dimension of 10⁹ indices: its smallest term comes from the closed
    /// form (no table reaches it), and what brute force around both ends
    /// and the vertex finds.
    #[test]
    fn a_dimension_wider_than_the_cap_has_its_minimum_in_closed_form() {
        let space = SearchSpace::builder()
            .int("y", 0, 3, 1)
            .int("wide", 0, 999_999_999, 1)
            .build()
            .unwrap();
        let cs = CompiledSpace::compile(&space).unwrap();
        let seen = HashSet::new();
        let top = 999_999_999;
        // Brute force over both ends and the indices around mid-range.
        let brute = |p: &Prediction| {
            (0..1000)
                .chain(top - 1000..=top)
                .chain(499_999_000..500_001_000)
                .map(|i| {
                    let [lin, quad] = p.pair(1, i);
                    lin + quad
                })
                .fold(f64::INFINITY, f64::min)
        };
        // Concave, smallest at xn = 0; vertex at xn = 0.5 + 1e-10, between
        // two indices; vertex beyond the range, smallest at xn = 1.
        for [lin, quad] in [[1.5, -0.5], [-1.0 - 2e-10, 1.0], [-3.0, 1.0]] {
            let model = Model {
                weights: vec![0.0, 0.0, lin, 0.0, quad],
                rel_error: 0.0,
            };
            let p = Prediction::new(&model, &cs, space.params(), &seen);
            assert_eq!(
                p.range_min(1).to_bits(),
                brute(&p).to_bits(),
                "{lin}, {quad}"
            );
            assert_eq!(p.rest[0], p.range_min(1));
            // Only the bottom of the range is tabulated; past it, a pair is
            // computed by the same expression.
            assert_eq!(p.table[1].len() as u64, TABULATED);
            assert_eq!(p.pair(1, TABULATED - 1), p.compute(1, TABULATED - 1));
            assert_eq!(
                p.pair(1, top),
                [lin, quad],
                "xn = 1 at the top of the range"
            );
        }
    }

    /// At 96ac031 a trusted model on a space that propagation proves empty
    /// tabulated `hi - lo` with `lo > hi` on the emptied dimension: an
    /// overflow panic in a debug build, 65 536 table entries for nothing in
    /// a release one. Now the argmin answers `None` before it scores
    /// anything, and the proposal falls back.
    #[test]
    fn a_provably_empty_space_falls_back_without_scoring() {
        use crate::constraint::MonotoneChain;
        let space = SearchSpace::builder()
            .int("a", 5, 9, 1)
            .int("b", 0, 3, 1)
            .constraint(MonotoneChain::new(["a", "b"]))
            .build()
            .unwrap();
        assert!(space.compiled().unwrap().stats().provably_empty);
        let mut rng = StdRng::seed_from_u64(9);
        let priors: Vec<(Vec<f64>, f64)> = (0..12)
            .map(|_| {
                let c = space.sample_coords(&mut rng);
                let cost = (c[0] - 6.0).powi(2) + 2.0 * (c[1] - 1.0).powi(2);
                (c, cost)
            })
            .collect();
        let mut s = Surrogate {
            samples: priors,
            ..Surrogate::default()
        };
        s.init(&space, &mut rng);
        let _ = s.propose(&space, &mut rng);
        assert!(
            s.model
                .as_ref()
                .is_some_and(|m| m.rel_error <= s.opts.fit_threshold),
            "the model is trusted, so the argmin was asked"
        );
        assert_eq!((s.model_proposals, s.fallbacks), (0, 1));
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
