//! Search-space compilation: constraint propagation + lazy enumeration of
//! valid lattice points, scaling strategies to billion-point constrained
//! spaces.
//!
//! The paper's production search spaces are enormous — GS2's layout ×
//! decomposition space is quoted at O(10^100) points. Following "Efficient
//! Construction of Large Search Spaces for Auto-Tuning" (Willemsen & van
//! Nieuwpoort), [`CompiledSpace`] compiles the constrained space once and
//! from then on works in *index space*: a point is a vector of lattice
//! indices, one per dimension, and is turned into anything heavier only
//! for a caller that asks.
//!
//! 1. **Constraint propagation** — each constraint, in the index form the
//!    space resolved it to once ([`crate::constraint`]), tightens
//!    per-dimension bounds to a fixpoint (chains propagate their prefix
//!    maxima/suffix minima, sums subtract the other participants'
//!    extremes). Dimensions whose interval collapses to
//!    one value are *pinned*; an interval that empties proves the space has
//!    no valid points at all — before enumerating anything.
//! 2. **Lazy, pruned enumeration** — valid points stream in lexicographic
//!    (mixed-radix, dimension 0 most significant) order from a backtracking
//!    walk that skips whole subtrees whose prefix cannot be completed
//!    (interval reasoning again, exact for chains and sums). The full
//!    product is never materialized; enumeration state is O(dims).
//! 3. **Resumable cursors** — a [`SpaceCursor`] names a position in the
//!    stream; [`CompiledSpace::next_chunk`] serves bounded chunks and hands
//!    back the cursor for the next one, so enumeration can be paused,
//!    checkpointed, or spread across workers ([`CompiledSpace::bands`]).
//! 4. **Feasible counting** — [`CompiledSpace::count_valid_bounded`] counts
//!    valid points exactly where the constraint structure allows whole
//!    suffix blocks to be credited at once, with a cap and a node budget so
//!    callers (e.g. `Exhaustive`'s safety valve) get an answer in bounded
//!    time even on hostile spaces.
//! 5. **Separable minimum** — one exact branch-and-bound over the same
//!    walk (below) answers both [`CompiledSpace::snap_feasible`], the
//!    nearest feasible point, and the surrogate strategy's argmin, the
//!    valid point its fitted quadratic predicts lowest.
//!
//! # What a point costs
//!
//! Advancing a [`PointCursor`] allocates nothing: the walk rewrites its
//! index vector in place, and the branch-and-bound that visits many points
//! and keeps one reads the cursor's indices and never leaves index space.
//! [`CompiledSpace::coords`] is one `Vec<f64>`.
//! [`CompiledSpace::configuration`] (and so [`CompiledSpace::iter`] and
//! [`CompiledSpace::next_chunk`], per point) is one `Vec<ParamValue>` plus
//! a reference-count bump on the space's shared name table; the parameter
//! names are never copied. An int value is straight-line code,
//! `min + index·step` read from the compiled dimension; only an enum value
//! reads its parameter, out of line, and carries a `String`, its label.
//! On `synth-1e9` (nine int dimensions; 2-vCPU reference host, release)
//! advancing the cursor costs ≈ 15 ns a point, and building and dropping
//! the configuration ≈ 70–77 ns — ≈ 135 ns when every dimension went
//! through one match on its compiled kind and its parameter together.
//! `repro space bench` streams 10.5–11.3 M configurations/s through
//! `next_chunk` (5.8–7.4 M with the match).
//! What the branch-and-bound costs is not a number of points at all but
//! the nodes its bound cannot rule out: on the benchmark's fitted 4 096-point
//! bowl, under 2 % of the prefix checks a full enumeration makes.
//!
//! # One walk, two scores
//!
//! The walk minimises a `Separable` score: a root value plus one term
//! per dimension, each a function of that dimension's lattice index alone.
//! It descends the enumeration tree in order, carrying the root plus the
//! prefix's terms, and skips a subtree when that sum, plus a lower bound on
//! the remaining dimensions' terms, less a rounding margin, is `>=` the
//! best score found so far. A point it reaches is scored exactly; it
//! replaces the best only when strictly lower, so the earlier point keeps
//! a tie, and a NaN score displaces nothing (a NaN bound skips nothing).
//! The answer is therefore the one a scan of every point in stream order
//! would give, provided the bound never exceeds the score of a point
//! beneath it. Two scores meet that:
//!
//! - **Squared distance** ([`snap_feasible`](CompiledSpace::snap_feasible)).
//!   The terms are squares, summed left to right — the order the walk
//!   assigns dimensions in — so the carried sum is bit for bit every
//!   point's partial sum, and a leaf's is bit for bit what the scan
//!   computes. Rounded sums of non-negative terms never decrease along a
//!   path, so the remaining terms are bounded by zero and no margin is
//!   needed: `x + 0.0 - 0.0 == x` for every non-NaN `x ≥ 0`, and the walk is
//!   the exact distance branch-and-bound it was before it was generalised.
//!   The answer: the nearest valid point, the earliest among equals, the
//!   first valid point if the distance is NaN, `None` if the space holds
//!   more than `cap` valid points or none.
//! - **The surrogate's prediction** (`strategy/surrogate.rs`). A term is a
//!   dimension's `w_lin·xn + w_quad·xn²`; the remaining dimensions are
//!   bounded by each one's smallest term over its compiled index range, in
//!   closed form (a quadratic in the index is smallest at an end of its
//!   range or at one of the two indices around its vertex). A point is
//!   scored in the model's own order — `w0`, every linear term, every
//!   quadratic term — not the walk's, so the bound and the score are two
//!   different float sums of the same terms. Every normalized coordinate
//!   lies in [0, 1], so no term exceeds its weight in magnitude, and the
//!   two sums (and the range minima) differ from the exact ones by a few
//!   `dims·ε·Σ|w|` at most: the margin is `4·(2·dims+1)·ε·Σ|w|` (plus a
//!   little for underflow), infinite — no skipping — when a weight is not
//!   finite or a sum could overflow. The walk considers the first `cap`
//!   valid points only, and the point scored must not have been measured
//!   already.
//!
//! "More than `cap`" is a property of the space, established once by a
//! bounded count and remembered; the PETSc boundary spaces (C(n+p−3, p−1)
//! valid points) give that answer on every call after the first without
//! visiting a lattice point. Where the first `cap` points end — the
//! horizon the surrogate's walk stops at when the space holds more — is
//! walked to once per space and cap, and remembered beside the count.
//!
//! The compiled form holds what it reads of its space — the resolved
//! constraints and the name table, both shared, and its enum labels — and
//! not the space itself, so it outlives the space it was compiled from.
//! The equivalence with the naive approaches — same points in the same
//! order as enumerate-and-filter, the same nearest point as a first-wins
//! scan, bit-identical — is property-tested in
//! `tests/space_compile_props.rs`; the surrogate's argmin is held to its
//! configuration-per-point scan in `strategy/surrogate.rs`'s tests.

use crate::constraint::{Resolved, Rule};
use crate::error::{HarmonyError, Result};
use crate::lock;
use crate::param::Param;
use crate::space::{CacheKey, Configuration, SearchSpace};
use crate::telemetry::{Counter, Latency, Telemetry};
use crate::value::ParamValue;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a dimension's lattice index maps to its embedded value.
#[derive(Debug, Clone, Copy)]
enum DimKind {
    /// `value = min + index * step`.
    Int { min: i64, step: i64 },
    /// `value = index` (the choice index).
    Enum,
}

/// One dimension of the compiled space: the surviving contiguous slice
/// `[lo, hi]` of its lattice after constraint propagation.
#[derive(Debug, Clone)]
struct CompiledDim {
    lo: u64,
    hi: u64,
    kind: DimKind,
}

impl CompiledDim {
    /// Surviving lattice points; 0 when propagation emptied the range
    /// (`lo > hi`).
    fn len(&self) -> u64 {
        if self.lo > self.hi {
            0
        } else {
            self.hi - self.lo + 1
        }
    }

    /// The lattice value at `idx` as an integer: the parameter's value for
    /// an int, the choice index for an enum — its `ParamValue::cache_key`.
    fn key(&self, idx: u64) -> i64 {
        match self.kind {
            DimKind::Int { min, step } => min + idx as i64 * step,
            DimKind::Enum => idx as i64,
        }
    }

    /// The embedded (continuous-coordinate) value at `idx`.
    fn value(&self, idx: u64) -> f64 {
        self.key(idx) as f64
    }
}

/// What the compilation pass measured and decided.
#[derive(Debug, Clone, Serialize)]
pub struct CompileStats {
    /// Number of dimensions.
    pub dims: usize,
    /// Number of attached constraints.
    pub constraints: usize,
    /// Lattice points of the raw product, saturating at `u64::MAX`.
    pub points_raw: u64,
    /// log10 of the raw product (reportable even when `points_raw`
    /// saturates).
    pub log10_points_raw: f64,
    /// Lattice points remaining in the propagated box (the product of the
    /// tightened per-dimension ranges), saturating at `u64::MAX`.
    pub points_box: u64,
    /// Points excluded by propagation alone (`points_raw - points_box`,
    /// saturating).
    pub points_pruned_by_propagation: u64,
    /// Dimensions pinned to a single value by propagation.
    pub pinned_dims: usize,
    /// Propagation rounds until the fixpoint.
    pub propagation_rounds: usize,
    /// True if propagation proved the space has no valid points.
    pub provably_empty: bool,
    /// Wall time of the compilation pass, in microseconds.
    pub compile_micros: u64,
}

/// Result of a bounded feasible-point count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeasibleCount {
    /// The exact number of valid lattice points.
    Exact(u64),
    /// Counting stopped early (cap exceeded or node budget exhausted);
    /// at least this many valid points exist.
    AtLeast(u64),
}

impl FeasibleCount {
    /// The counted value, exact or not.
    pub fn lower_bound(&self) -> u64 {
        match self {
            FeasibleCount::Exact(n) | FeasibleCount::AtLeast(n) => *n,
        }
    }

    /// True if the count is exact.
    pub fn is_exact(&self) -> bool {
        matches!(self, FeasibleCount::Exact(_))
    }
}

/// A resumable position in the valid-point stream.
///
/// Serializable, so enumeration can be checkpointed across processes; feed
/// it back via [`CompiledSpace::next_chunk`] or [`CompiledSpace::resume`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpaceCursor {
    /// Lattice indices of the last yielded point — of the box's last
    /// lattice point for a cursor taken at the end of the stream, which
    /// resumes to nothing; `None` means "before the first point".
    pub after: Option<Vec<u64>>,
}

/// A contiguous slice of dimension 0's range, for parallel enumeration:
/// each band's stream is disjoint from every other band's, and their
/// concatenation (in band order) is the full stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// First dimension-0 lattice index of the band (inclusive).
    pub first: u64,
    /// Last dimension-0 lattice index of the band (inclusive).
    pub last: u64,
}

/// Mutable enumeration state, O(dims). Owned by callers so one
/// [`CompiledSpace`] can serve many concurrent enumerations.
#[derive(Debug, Clone)]
pub struct PointCursor {
    idx: Vec<u64>,
    /// `idx` itself is the next candidate (not yet yielded).
    fresh: bool,
    done: bool,
    /// Enumeration stops once `idx[0]` exceeds this (band bound).
    limit0: u64,
    /// Lattice points skipped by subtree pruning so far.
    pruned: u64,
    /// Prefix checks performed so far: the walk's unit of work, whichever
    /// of enumeration, counting or snapping drove it.
    checks: u64,
}

impl PointCursor {
    /// Lattice indices of the current point (valid after
    /// `CompiledSpace::next_point` returned `true`).
    pub fn indices(&self) -> &[u64] {
        &self.idx
    }

    /// Lattice points skipped by subtree pruning so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Prefix checks performed so far.
    #[cfg(test)]
    pub(crate) fn checks(&self) -> u64 {
        self.checks
    }

    /// Where an unexhausted cursor stands: before the first point until
    /// one is yielded — its indices are then a candidate not yet checked —
    /// and after the last yielded point from then on.
    fn position(&self) -> SpaceCursor {
        SpaceCursor {
            after: (!self.fresh).then(|| self.idx.clone()),
        }
    }
}

/// A score the compiled [walk](CompiledSpace::argmin_of_first) minimises
/// over valid points: a root value plus one term per dimension, each a
/// function of that dimension's lattice index alone, bounded from below
/// well enough to skip a subtree (module docs, "One walk, two scores").
///
/// The defaults are the plain case, squared distance: nothing below the
/// prefix but more non-negative terms, no rounding to allow for, a point
/// scored by its path sum, and every point admissible.
pub(crate) trait Separable {
    /// The score of the empty prefix.
    fn root(&self) -> f64 {
        0.0
    }

    /// Dimension `d`'s term at lattice index `index`. The walk calls it for
    /// every node it enters, so at a leaf the latest call per dimension was
    /// for the point being scored.
    fn term(&mut self, d: usize, index: u64) -> f64;

    /// A lower bound on the terms of the dimensions after `d`, together.
    fn rest(&self, _d: usize) -> f64 {
        0.0
    }

    /// How far a path sum may exceed, through rounding, the score of a
    /// point beneath it.
    fn margin(&self) -> f64 {
        0.0
    }

    /// The score of the point the walk stands on, whose path sum — the
    /// root, then its terms in dimension order — is `path`.
    fn leaf(&self, path: f64) -> f64 {
        path
    }

    /// May the point at `indices` be the answer?
    fn admits(&self, _indices: &[u64]) -> bool {
        true
    }
}

/// Squared distance to `coords` in the continuous embedding.
struct Distance<'a> {
    cs: &'a CompiledSpace,
    coords: &'a [f64],
}

impl Separable for Distance<'_> {
    fn term(&mut self, d: usize, index: u64) -> f64 {
        let off = self.cs.dims[d].value(index) - self.coords[d];
        off * off
    }
}

/// What the walks have learnt about the stream: a property of the space,
/// so learnt once — once per space when reached through
/// [`SearchSpace::compiled`], which holds the one compiled form every
/// strategy on that space walks — and shared by a compiled value's clones.
#[derive(Debug, Default)]
struct Learnt {
    /// The number of valid points, as far as some cap has needed it.
    count: Option<FeasibleCount>,
    /// `(cap, indices of the cap-th valid point)`, for every cap a walk
    /// over the first `cap` points has stopped short of the whole stream at.
    horizons: Vec<(u64, Vec<u64>)>,
}

/// A [`SearchSpace`] compiled for large-scale enumeration: tightened
/// per-dimension bounds, index-space constraint checkers, and lazy
/// streaming of exactly the valid lattice points.
#[derive(Debug, Clone)]
pub struct CompiledSpace {
    /// The space's name table, shared by every configuration built here.
    names: Arc<[String]>,
    /// Per dimension, its parameter's enum labels (none for an int).
    labels: Vec<Vec<String>>,
    dims: Vec<CompiledDim>,
    /// The space's constraints, resolved; shared with it.
    constraints: Arc<[Resolved]>,
    /// Constraint indices to (re-)evaluate when dimension `d` gets
    /// assigned.
    checks_at: Vec<Vec<usize>>,
    /// Deepest dimension any check involves; `None` when no check
    /// constrains anything (space is effectively unconstrained).
    max_check_dim: Option<usize>,
    /// Product of the reduced ranges of dimensions strictly deeper than
    /// `d` (`suffix[dims-1] == 1`), saturating.
    suffix: Vec<u64>,
    empty: bool,
    learnt: Arc<Mutex<Learnt>>,
    stats: CompileStats,
    telemetry: Telemetry,
}

impl CompiledSpace {
    /// Compile a fully discrete space. Errors if any dimension is
    /// continuous (a continuous dimension has no lattice to enumerate).
    pub fn compile(space: &SearchSpace) -> Result<Self> {
        Self::compile_with(space, Telemetry::disabled())
    }

    /// [`compile`](Self::compile) with telemetry: records compile latency
    /// ([`Latency::SpaceCompile`]) and propagation pruning
    /// ([`Counter::SpacePointsPruned`]); chunked enumeration through this
    /// handle also counts chunks and enumeration-time pruning.
    pub fn compile_with(space: &SearchSpace, telemetry: Telemetry) -> Result<Self> {
        let started = Instant::now();
        let mut dims = Vec::with_capacity(space.dims());
        let mut labels = Vec::with_capacity(space.dims());
        for p in space.params() {
            let card = p.cardinality().ok_or_else(|| {
                HarmonyError::Protocol(format!(
                    "cannot compile search space: parameter `{}` is continuous",
                    p.name()
                ))
            })?;
            let kind = match p {
                Param::Int { min, step, .. } => DimKind::Int {
                    min: *min,
                    step: *step,
                },
                Param::Enum { .. } => DimKind::Enum,
                Param::Real { .. } => unreachable!("continuous params have no cardinality"),
            };
            labels.push(match p {
                Param::Enum { choices, .. } => choices.clone(),
                _ => Vec::new(),
            });
            dims.push(CompiledDim {
                lo: 0,
                hi: card - 1,
                kind,
            });
        }

        let points_raw = dims.iter().fold(1u64, |acc, d| acc.saturating_mul(d.len()));
        let log10_points_raw = dims.iter().map(|d| (d.len() as f64).log10()).sum();

        // A constraint that can never hold proves emptiness.
        let constraints = Arc::clone(space.constraints());
        let mut empty = constraints.iter().any(|c| c.never);

        // Propagate bounds to a fixpoint (value-space interval reasoning,
        // mapped back onto each dimension's lattice conservatively).
        let mut rounds = 0usize;
        while !empty && rounds < 64 {
            let mut changed = false;
            for c in constraints.iter() {
                let members = &c.members;
                match c.rule {
                    Rule::Chain => {
                        // Forward: each member's value is at least the
                        // running maximum of earlier members' minima.
                        let mut floor = f64::NEG_INFINITY;
                        for &m in members {
                            let d = &dims[m];
                            floor = floor.max(d.value(d.lo));
                            if d.value(d.lo) < floor {
                                changed |= raise_lo(&mut dims[m], floor);
                            }
                        }
                        // Backward: at most the running minimum of later
                        // members' maxima.
                        let mut ceil = f64::INFINITY;
                        for &m in members.iter().rev() {
                            let d = &dims[m];
                            ceil = ceil.min(d.value(d.hi));
                            if d.value(d.hi) > ceil {
                                changed |= lower_hi(&mut dims[m], ceil);
                            }
                        }
                        if members.iter().any(|&m| dims[m].lo > dims[m].hi) {
                            empty = true;
                        }
                    }
                    Rule::Sum { lo, hi, .. } => {
                        let lo_sum: f64 = members.iter().map(|&m| dims[m].value(dims[m].lo)).sum();
                        let hi_sum: f64 = members.iter().map(|&m| dims[m].value(dims[m].hi)).sum();
                        if lo_sum > hi || hi_sum < lo {
                            empty = true;
                            break;
                        }
                        for &m in members {
                            let d_lo = dims[m].value(dims[m].lo);
                            let d_hi = dims[m].value(dims[m].hi);
                            // Others at their minima leave this dim at most
                            // `hi - (lo_sum - own_lo)`; at their maxima,
                            // at least `lo - (hi_sum - own_hi)`.
                            changed |= lower_hi(&mut dims[m], hi - (lo_sum - d_lo));
                            changed |= raise_lo(&mut dims[m], lo - (hi_sum - d_hi));
                            if dims[m].lo > dims[m].hi {
                                empty = true;
                            }
                        }
                    }
                }
                if empty {
                    break;
                }
            }
            rounds += 1;
            if !changed || empty {
                break;
            }
        }

        let points_box = if empty {
            0
        } else {
            dims.iter().fold(1u64, |acc, d| acc.saturating_mul(d.len()))
        };

        // Index the checks by the dimensions whose assignment affects them.
        let mut checks_at: Vec<Vec<usize>> = vec![Vec::new(); dims.len()];
        let mut max_check_dim: Option<usize> = None;
        for (i, c) in constraints.iter().enumerate() {
            let mut involved = c.members.clone();
            involved.sort_unstable();
            involved.dedup();
            if let Some(&deepest) = involved.last() {
                max_check_dim = Some(max_check_dim.map_or(deepest, |d| d.max(deepest)));
            }
            for m in involved {
                checks_at[m].push(i);
            }
        }

        let mut suffix = vec![1u64; dims.len() + 1];
        for d in (0..dims.len()).rev() {
            suffix[d] = suffix[d + 1].saturating_mul(dims[d].len().max(1));
        }
        // suffix[d] above is the product *including* dim d; shift so that
        // suffix[d] is the block size strictly below d.
        let suffix: Vec<u64> = (0..dims.len()).map(|d| suffix[d + 1]).collect();

        let pinned_dims = if empty {
            0
        } else {
            dims.iter().filter(|d| d.lo == d.hi).count()
        };
        let stats = CompileStats {
            dims: dims.len(),
            constraints: constraints.len(),
            points_raw,
            log10_points_raw,
            points_box,
            points_pruned_by_propagation: points_raw.saturating_sub(points_box),
            pinned_dims,
            propagation_rounds: rounds,
            provably_empty: empty,
            compile_micros: started.elapsed().as_micros() as u64,
        };
        telemetry.observe(Latency::SpaceCompile, started.elapsed());
        telemetry.add(
            Counter::SpacePointsPruned,
            stats.points_pruned_by_propagation,
        );

        Ok(CompiledSpace {
            names: Arc::clone(space.names_table()),
            labels,
            dims,
            constraints,
            checks_at,
            max_check_dim,
            suffix,
            empty,
            learnt: Arc::default(),
            stats,
            telemetry,
        })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// What compilation measured and decided.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// A cursor positioned before the first valid point.
    pub fn start(&self) -> PointCursor {
        self.start_band(Band {
            first: self.dims.first().map_or(0, |d| d.lo),
            last: self.dims.first().map_or(0, |d| d.hi),
        })
    }

    fn start_band(&self, band: Band) -> PointCursor {
        let mut idx: Vec<u64> = self.dims.iter().map(|d| d.lo).collect();
        let mut done = self.empty;
        if let Some(first) = idx.first_mut() {
            *first = band.first.max(self.dims[0].lo);
            done = done || *first > band.last.min(self.dims[0].hi);
        }
        PointCursor {
            idx,
            fresh: true,
            done,
            limit0: band.last,
            pruned: 0,
            checks: 0,
        }
    }

    /// A cursor that resumes enumeration strictly after `cursor`'s
    /// position. Errors if the cursor's shape does not match the space.
    pub fn resume(&self, cursor: &SpaceCursor) -> Result<PointCursor> {
        let Some(after) = &cursor.after else {
            return Ok(self.start());
        };
        if after.len() != self.dims.len() {
            return Err(HarmonyError::Protocol(format!(
                "space cursor has {} indices, space has {} dims",
                after.len(),
                self.dims.len()
            )));
        }
        for (d, (&i, dim)) in after.iter().zip(&self.dims).enumerate() {
            if i < dim.lo || i > dim.hi {
                return Err(HarmonyError::Protocol(format!(
                    "space cursor index {i} is outside dimension {d}'s compiled range \
                     [{}, {}]",
                    dim.lo, dim.hi
                )));
            }
        }
        let mut cur = self.start();
        cur.idx.copy_from_slice(after);
        cur.fresh = false;
        cur.done = self.empty;
        Ok(cur)
    }

    /// Advance `cur` to the next valid lattice point (available via
    /// [`PointCursor::indices`]); `false` once the stream is exhausted.
    ///
    /// Candidates stream in lexicographic (mixed-radix, dimension 0 most
    /// significant) order; subtrees whose prefix provably cannot be
    /// completed are skipped without being visited.
    pub(crate) fn next_point(&self, cur: &mut PointCursor) -> bool {
        if cur.done {
            return false;
        }
        let k = self.dims.len();
        let mut depth = if cur.fresh {
            cur.fresh = false;
            0
        } else {
            match self.bump(cur, k - 1) {
                Some(d) => d,
                None => {
                    cur.done = true;
                    return false;
                }
            }
        };
        if cur.idx[0] > cur.limit0 {
            cur.done = true;
            return false;
        }
        'outer: loop {
            // Invariant: dims < depth are assigned and prefix-feasible;
            // idx[depth] is assigned but not yet checked.
            let mut d = depth;
            while d < k {
                if self.prefix_ok(cur, d) {
                    d += 1;
                    if d < k {
                        cur.idx[d] = self.dims[d].lo;
                    }
                    continue;
                }
                // The whole subtree under idx[0..=d] is dead.
                cur.pruned = cur.pruned.saturating_add(self.suffix[d]);
                match self.bump(cur, d) {
                    Some(d2) => {
                        if cur.idx[0] > cur.limit0 {
                            cur.done = true;
                            return false;
                        }
                        depth = d2;
                        continue 'outer;
                    }
                    None => {
                        cur.done = true;
                        return false;
                    }
                }
            }
            return true;
        }
    }

    /// Put `cur`'s indices back on the first lattice point of the box, for
    /// a walk that manages its own depth.
    fn rewind(&self, cur: &mut PointCursor) {
        for (i, dim) in cur.idx.iter_mut().zip(&self.dims) {
            *i = dim.lo;
        }
    }

    /// Increment `idx[from]`, rippling towards dimension 0 on overflow;
    /// returns the depth that changed, or `None` when exhausted.
    fn bump(&self, cur: &mut PointCursor, from: usize) -> Option<usize> {
        let mut d = from as isize;
        while d >= 0 {
            let dim = &self.dims[d as usize];
            if cur.idx[d as usize] < dim.hi {
                cur.idx[d as usize] += 1;
                return Some(d as usize);
            }
            cur.idx[d as usize] = dim.lo;
            d -= 1;
        }
        None
    }

    /// Can the prefix `idx[0..=assigned]` still be completed? Evaluates
    /// only the checks that dimension `assigned` participates in; exact
    /// (not conservative) for chains and sums.
    fn prefix_ok(&self, cur: &mut PointCursor, assigned: usize) -> bool {
        cur.checks += 1;
        self.checks_at[assigned].iter().all(|&ci| {
            let c = &self.constraints[ci];
            match c.rule {
                Rule::Chain => self.chain_ok(&cur.idx, &c.members, assigned),
                Rule::Sum { lo, hi, .. } => self.sum_ok(&cur.idx, &c.members, lo, hi, assigned),
            }
        })
    }

    fn chain_ok(&self, idx: &[u64], members: &[usize], assigned: usize) -> bool {
        let mut prev = f64::NEG_INFINITY;
        for &m in members {
            let dim = &self.dims[m];
            if m <= assigned {
                let v = dim.value(idx[m]);
                if v < prev {
                    return false;
                }
                prev = v;
            } else {
                // Unassigned member: it can take any lattice value in its
                // (already propagated) range.
                if dim.value(dim.hi) < prev {
                    return false;
                }
                prev = prev.max(dim.value(dim.lo));
            }
        }
        true
    }

    fn sum_ok(&self, idx: &[u64], members: &[usize], min: f64, max: f64, assigned: usize) -> bool {
        let mut lo_sum = 0.0;
        let mut hi_sum = 0.0;
        for &m in members {
            let dim = &self.dims[m];
            if m <= assigned {
                let v = dim.value(idx[m]);
                lo_sum += v;
                hi_sum += v;
            } else {
                lo_sum += dim.value(dim.lo);
                hi_sum += dim.value(dim.hi);
            }
        }
        lo_sum <= max && hi_sum >= min
    }

    /// Continuous-embedding coordinates of a lattice point (the shape
    /// strategies propose).
    pub fn coords(&self, indices: &[u64]) -> Vec<f64> {
        debug_assert_eq!(indices.len(), self.dims.len());
        self.dims
            .iter()
            .zip(indices)
            .map(|(d, &i)| d.value(i))
            .collect()
    }

    /// The configuration at a lattice point: its values, over the space's
    /// shared name table.
    pub fn configuration(&self, indices: &[u64]) -> Configuration {
        debug_assert_eq!(indices.len(), self.dims.len());
        let values = self
            .dims
            .iter()
            .zip(indices)
            .enumerate()
            .map(|(d, (dim, &i))| match dim.kind {
                DimKind::Int { .. } => ParamValue::Int(dim.key(i)),
                DimKind::Enum => self.choice(d, i),
            })
            .collect();
        Configuration::with_table(Arc::clone(&self.names), values)
    }

    /// Enum dimension `d`'s value at lattice index `idx`, its label cloned
    /// out of the compiled labels. Kept out of line: it is the one value
    /// that reads a label, and an int point never pays for it.
    #[inline(never)]
    fn choice(&self, d: usize, idx: u64) -> ParamValue {
        ParamValue::Enum {
            index: idx as usize,
            label: self.labels[d][idx as usize].clone(),
        }
    }

    /// [`configuration`](Self::configuration) as it was built before its
    /// int values became straight-line code — one match on the compiled
    /// kind and `space`'s parameter together per dimension — kept as the
    /// oracle the fast path is tested against.
    #[cfg(test)]
    fn configuration_by_match(&self, space: &SearchSpace, indices: &[u64]) -> Configuration {
        let values = self
            .dims
            .iter()
            .zip(space.params())
            .zip(indices)
            .map(|((dim, param), &i)| match (dim.kind, param) {
                (DimKind::Int { .. }, _) => ParamValue::Int(dim.key(i)),
                (DimKind::Enum, Param::Enum { choices, .. }) => ParamValue::Enum {
                    index: i as usize,
                    label: choices[i as usize].clone(),
                },
                (DimKind::Enum, _) => unreachable!("enum dim compiled from enum param"),
            })
            .collect();
        Configuration::with_table(Arc::clone(space.names_table()), values)
    }

    /// [`Configuration::cache_key`] of the point at `indices`, without the
    /// configuration (and, up to the key's inline capacity, with no heap
    /// block).
    pub(crate) fn cache_key(&self, indices: &[u64]) -> CacheKey {
        self.dims
            .iter()
            .zip(indices)
            .map(|(dim, &i)| dim.key(i))
            .collect()
    }

    /// Compiled index range `[lo, hi]` of dimension `d`.
    pub(crate) fn index_range(&self, d: usize) -> (u64, u64) {
        (self.dims[d].lo, self.dims[d].hi)
    }

    /// Embedded value of dimension `d` at lattice index `index`: the
    /// `d`-th coordinate of [`coords`](Self::coords).
    pub(crate) fn coord(&self, d: usize, index: u64) -> f64 {
        self.dims[d].value(index)
    }

    /// Nearest feasible lattice point to `coords` by squared distance in
    /// the continuous embedding (deterministic: ties go to the point
    /// earlier in enumeration order, and a distance that is NaN never
    /// displaces the first valid point). `None` when the compiled space
    /// is empty, or holds more than `cap` valid points.
    ///
    /// This is the feasibility-aware replacement for repair-then-snap:
    /// repairing a constrained candidate and snapping it to the lattice
    /// can land on an *invalid* point (snap moves it back off the
    /// constraint surface) or collapse many distinct candidates onto the
    /// same boundary configuration, which inflates evaluation counts with
    /// duplicates. Beyond `cap` valid points the caller falls back to
    /// repair; that answer comes from a count taken once per space.
    pub fn snap_feasible(&self, coords: &[f64], cap: u64) -> Option<Vec<f64>> {
        let mut cur = self.start();
        self.snap_walk(&mut cur, coords, cap)
            .then(|| self.coords(&cur.idx))
    }

    /// [`snap_feasible`](Self::snap_feasible) on the caller's cursor:
    /// `true` leaves the nearest point's indices in `cur`, and `cur.checks`
    /// says what the answer cost.
    fn snap_walk(&self, cur: &mut PointCursor, coords: &[f64], cap: u64) -> bool {
        debug_assert_eq!(coords.len(), self.dims.len());
        if self.empty || self.valid_count(cur, cap, u64::MAX).lower_bound() > cap {
            return false;
        }
        let mut distance = Distance { cs: self, coords };
        self.walk(cur, &mut distance, None).is_some()
    }

    /// The valid point with the smallest `score` among the first `cap` of
    /// the stream (the earlier of equals, a NaN score displacing nothing),
    /// its score returned and its indices left in `cur`; and whether the
    /// space holds at least `cap` valid points — whether those first `cap`
    /// fall short of the whole stream, or just cover it.
    ///
    /// `score` is built only when there is a point to score: not for
    /// `cap == 0`, not on a space propagation proved empty. How far the
    /// first `cap` points reach is learnt once per space and cap: from the
    /// shared count, and, when the space holds more, one walk to the
    /// `cap`-th point.
    pub(crate) fn argmin_of_first<S: Separable>(
        &self,
        cur: &mut PointCursor,
        cap: u64,
        score: impl FnOnce() -> S,
    ) -> (Option<f64>, bool) {
        let count = self.valid_count(cur, cap, u64::MAX).lower_bound();
        if self.empty || cap == 0 {
            return (None, count >= cap);
        }
        let last = (count > cap).then(|| self.horizon(cap));
        (self.walk(cur, &mut score(), last.as_deref()), count >= cap)
    }

    /// The branch-and-bound walk both [`snap_feasible`](Self::snap_feasible)
    /// and the surrogate's argmin run: the valid point, up to and including
    /// `last` when given, with the smallest [`Separable`] score, as the
    /// module docs define and argue it. Returns the score and leaves the
    /// point's indices in `cur`; `cur.checks` says what it cost.
    ///
    /// Note the two comparisons: a NaN bound is neither `>=` nor `<`
    /// anything, so it skips nothing, and a NaN score displaces nothing.
    fn walk<S: Separable>(
        &self,
        cur: &mut PointCursor,
        score: &mut S,
        last: Option<&[u64]>,
    ) -> Option<f64> {
        debug_assert!(!self.empty);
        let k = self.dims.len();
        let margin = score.margin();
        // path[d]: the root plus the terms of dimensions `0..d` of `cur.idx`.
        let mut path = vec![score.root(); k + 1];
        let mut best: Option<f64> = None;
        let mut argmin = cur.idx.clone();
        // How many leading dimensions of `cur.idx` equal `last`'s.
        let mut on_last = 0;
        self.rewind(cur);
        let mut depth = Some(0);
        while let Some(d) = depth {
            if let Some(last) = last {
                on_last = on_last.min(d);
                if on_last == d {
                    match cur.idx[d].cmp(&last[d]) {
                        std::cmp::Ordering::Greater => break,
                        std::cmp::Ordering::Equal => on_last = d + 1,
                        std::cmp::Ordering::Less => {}
                    }
                }
            }
            let here = path[d] + score.term(d, cur.idx[d]);
            let hopeless = best.is_some_and(|b| here + score.rest(d) - margin >= b);
            if hopeless || !self.prefix_ok(cur, d) {
                depth = self.bump(cur, d);
            } else if d + 1 < k {
                path[d + 1] = here;
                cur.idx[d + 1] = self.dims[d + 1].lo;
                depth = Some(d + 1);
            } else {
                let s = score.leaf(here);
                if best.is_none_or(|b| s < b) && score.admits(&cur.idx) {
                    best = Some(s);
                    argmin.copy_from_slice(&cur.idx);
                }
                depth = self.bump(cur, d);
            }
        }
        cur.idx = argmin;
        best
    }

    /// The number of valid points, as far as `cap` needs it: answered from
    /// the shared count when that settles `cap` (an exact count settles
    /// every cap, a lower bound every cap below it); else counted on `cur`
    /// within `node_budget` prefix checks, and remembered when exact or
    /// above what the count knew. Every strategy on a space, and every
    /// session over its clones, reads the one count.
    pub(crate) fn valid_count(
        &self,
        cur: &mut PointCursor,
        cap: u64,
        node_budget: u64,
    ) -> FeasibleCount {
        let mut learnt = lock(&self.learnt);
        match learnt.count {
            Some(c) if c.is_exact() || c.lower_bound() > cap => c,
            known => {
                let counted = self.count_on(cur, cap, node_budget);
                if counted.is_exact()
                    || known.is_none_or(|k| counted.lower_bound() > k.lower_bound())
                {
                    learnt.count = Some(counted);
                }
                counted
            }
        }
    }

    /// The indices of the `cap`-th valid point (`cap >= 1`, and the space
    /// holds more): walked to once per cap, then remembered.
    fn horizon(&self, cap: u64) -> Vec<u64> {
        let mut learnt = lock(&self.learnt);
        if let Some((_, last)) = learnt.horizons.iter().find(|(c, _)| *c == cap) {
            return last.clone();
        }
        let mut cur = self.start();
        for _ in 0..cap {
            self.next_point(&mut cur);
        }
        learnt.horizons.push((cap, cur.idx.clone()));
        cur.idx
    }

    /// [`snap_feasible`](Self::snap_feasible) as it was before it became a
    /// branch-and-bound — every valid point visited, a coordinate vector
    /// built for each, the count re-established on every call — kept as the
    /// oracle the walk is tested against.
    #[cfg(test)]
    fn snap_feasible_by_scan(&self, coords: &[f64], cap: u64) -> Option<Vec<f64>> {
        let mut cur = self.start();
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut scanned = 0u64;
        while scanned < cap && self.next_point(&mut cur) {
            scanned += 1;
            let cand = self.coords(cur.indices());
            let dist: f64 = cand
                .iter()
                .zip(coords)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if best.as_ref().is_none_or(|(d, _)| dist < *d) {
                best = Some((dist, cand));
            }
        }
        if scanned == cap && self.next_point(&mut cur) {
            return None;
        }
        best.map(|(_, c)| c)
    }

    /// Lazy iterator over every valid configuration, in enumeration order.
    pub fn iter(&self) -> ValidPoints<'_> {
        ValidPoints {
            cs: self,
            cur: self.start(),
        }
    }

    /// Iterator over one [`Band`]'s share of the stream.
    pub fn iter_band(&self, band: Band) -> ValidPoints<'_> {
        ValidPoints {
            cs: self,
            cur: self.start_band(band),
        }
    }

    /// Partition dimension 0's compiled range into up to `parts` contiguous
    /// bands for parallel enumeration. Concatenating the bands' streams in
    /// band order reproduces [`iter`](Self::iter) exactly.
    pub fn bands(&self, parts: usize) -> Vec<Band> {
        if self.empty || self.dims.is_empty() {
            return Vec::new();
        }
        let (lo, hi) = (self.dims[0].lo, self.dims[0].hi);
        let width = hi - lo + 1;
        let parts = (parts.max(1) as u64).min(width);
        (0..parts)
            .map(|b| {
                let first = lo + width * b / parts;
                let last = lo + width * (b + 1) / parts - 1;
                Band { first, last }
            })
            .collect()
    }

    /// Up to `n` valid configurations after `cursor`, plus the cursor for
    /// the following chunk (`None` once the stream is exhausted; `cursor`
    /// itself when `n` is 0).
    ///
    /// Memory is O(`n` + dims) regardless of the space's size. Bumps
    /// [`Counter::SpaceChunksEnumerated`] and
    /// [`Counter::SpacePointsPruned`] when compiled with telemetry.
    pub fn next_chunk(
        &self,
        cursor: &SpaceCursor,
        n: usize,
    ) -> Result<(Vec<Configuration>, Option<SpaceCursor>)> {
        let mut cur = self.resume(cursor)?;
        let mut out = Vec::with_capacity(n.min(4096));
        while out.len() < n && self.next_point(&mut cur) {
            out.push(self.configuration(&cur.idx));
        }
        self.telemetry.inc(Counter::SpaceChunksEnumerated);
        self.telemetry.add(Counter::SpacePointsPruned, cur.pruned);
        Ok((out, (!cur.done).then(|| cur.position())))
    }

    /// A cursor after the last lattice point of the box: the stream resumes
    /// from it to nothing. (On a space propagation proved empty, the start
    /// does as well.)
    fn end(&self) -> SpaceCursor {
        SpaceCursor {
            after: (!self.empty).then(|| self.dims.iter().map(|d| d.hi).collect()),
        }
    }

    /// Count valid lattice points, stopping once the count exceeds `cap`
    /// or after `node_budget` prefix checks.
    ///
    /// Where no constraint involves the deepest dimensions, whole suffix
    /// blocks are credited at once, so unconstrained (and
    /// leading-dimension-constrained) spaces count in O(prefix tree)
    /// rather than O(points).
    pub fn count_valid_bounded(&self, cap: u64, node_budget: u64) -> FeasibleCount {
        self.count_on(&mut self.start(), cap, node_budget)
    }

    /// [`count_valid_bounded`](Self::count_valid_bounded) walking on the
    /// caller's cursor, so the caller can read what the count cost.
    fn count_on(&self, cur: &mut PointCursor, cap: u64, node_budget: u64) -> FeasibleCount {
        if self.empty {
            return FeasibleCount::Exact(0);
        }
        let Some(tail) = self.max_check_dim else {
            return FeasibleCount::Exact(self.stats.points_box);
        };
        let tail_block = self.suffix[tail];
        self.rewind(cur);
        let mut count: u64 = 0;
        let mut nodes: u64 = 0;
        let mut depth = 0usize;
        loop {
            nodes += 1;
            if nodes > node_budget {
                return FeasibleCount::AtLeast(count);
            }
            if self.prefix_ok(cur, depth) {
                if depth == tail {
                    count = count.saturating_add(tail_block);
                    if count > cap {
                        return FeasibleCount::AtLeast(count);
                    }
                    match self.bump(cur, depth) {
                        Some(d) => depth = d,
                        None => return FeasibleCount::Exact(count),
                    }
                } else {
                    depth += 1;
                    cur.idx[depth] = self.dims[depth].lo;
                }
            } else {
                match self.bump(cur, depth) {
                    Some(d) => depth = d,
                    None => return FeasibleCount::Exact(count),
                }
            }
        }
    }

    /// Exact feasible-point count (may walk the whole prefix tree).
    pub fn count_valid(&self) -> FeasibleCount {
        self.count_valid_bounded(u64::MAX, u64::MAX)
    }
}

/// Raise a dimension's `lo` so its value is ≥ `floor` (conservatively:
/// never excludes a lattice value ≥ `floor`). Returns true on change.
fn raise_lo(dim: &mut CompiledDim, floor: f64) -> bool {
    let new_lo = match dim.kind {
        DimKind::Int { min, step } => {
            let k = ((floor - min as f64) / step as f64 - 1e-9).ceil();
            if k <= 0.0 {
                0
            } else {
                k as u64
            }
        }
        DimKind::Enum => {
            let k = (floor - 1e-9).ceil();
            if k <= 0.0 {
                0
            } else {
                k as u64
            }
        }
    };
    if new_lo > dim.lo {
        dim.lo = new_lo;
        true
    } else {
        false
    }
}

/// Lower a dimension's `hi` so its value is ≤ `ceil` (conservatively).
/// Returns true on change. May leave `lo > hi` (empty), checked by callers.
fn lower_hi(dim: &mut CompiledDim, ceil: f64) -> bool {
    let new_hi = match dim.kind {
        DimKind::Int { min, step } => {
            let k = ((ceil - min as f64) / step as f64 + 1e-9).floor();
            if k < 0.0 {
                // Empty: signal via lo > hi using 0-width at the bottom.
                dim.lo = 1;
                dim.hi = 0;
                return true;
            }
            k as u64
        }
        DimKind::Enum => {
            let k = (ceil + 1e-9).floor();
            if k < 0.0 {
                dim.lo = 1;
                dim.hi = 0;
                return true;
            }
            k as u64
        }
    };
    if new_hi < dim.hi {
        dim.hi = new_hi;
        true
    } else {
        false
    }
}

/// Iterator sugar over `CompiledSpace::next_point`.
#[derive(Debug)]
pub struct ValidPoints<'a> {
    cs: &'a CompiledSpace,
    cur: PointCursor,
}

impl ValidPoints<'_> {
    /// A resumable cursor naming the current position (after the last
    /// yielded point); once the iterator is exhausted, one that resumes to
    /// nothing.
    pub fn cursor(&self) -> SpaceCursor {
        if self.cur.done {
            self.cs.end()
        } else {
            self.cur.position()
        }
    }

    /// Lattice indices of the most recent point.
    pub fn indices(&self) -> &[u64] {
        self.cur.indices()
    }

    /// Lattice points skipped by subtree pruning so far.
    pub fn pruned(&self) -> u64 {
        self.cur.pruned()
    }
}

impl Iterator for ValidPoints<'_> {
    type Item = Configuration;

    fn next(&mut self) -> Option<Configuration> {
        if self.cs.next_point(&mut self.cur) {
            Some(self.cs.configuration(&self.cur.idx))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{MonotoneChain, SumBound};

    /// Naive ground truth: every raw lattice point, filtered by
    /// `is_valid`, in mixed-radix order.
    fn naive(space: &SearchSpace) -> Vec<Configuration> {
        let radix: Vec<u64> = space
            .params()
            .iter()
            .map(|p| p.cardinality().expect("discrete"))
            .collect();
        let mut counter = vec![0u64; radix.len()];
        let mut out = Vec::new();
        'outer: loop {
            let values: Vec<ParamValue> = space
                .params()
                .iter()
                .zip(&counter)
                .map(|(p, &i)| match p {
                    Param::Int { min, step, .. } => ParamValue::Int(min + i as i64 * step),
                    Param::Enum { choices, .. } => ParamValue::Enum {
                        index: i as usize,
                        label: choices[i as usize].clone(),
                    },
                    Param::Real { .. } => unreachable!(),
                })
                .collect();
            let cfg = space.configuration(values).unwrap();
            if space.is_valid(&cfg) {
                out.push(cfg);
            }
            for d in (0..counter.len()).rev() {
                counter[d] += 1;
                if counter[d] < radix[d] {
                    continue 'outer;
                }
                counter[d] = 0;
            }
            return out;
        }
    }

    fn chain_space() -> SearchSpace {
        SearchSpace::builder()
            .int("a", 0, 6, 1)
            .int("b", 0, 6, 1)
            .int("c", 0, 6, 1)
            .constraint(MonotoneChain::new(["a", "b", "c"]))
            .build()
            .unwrap()
    }

    #[test]
    fn compiled_enumeration_matches_naive_filter() {
        let s = chain_space();
        let cs = CompiledSpace::compile(&s).unwrap();
        let compiled: Vec<Configuration> = cs.iter().collect();
        let expected = naive(&s);
        assert_eq!(compiled.len(), expected.len());
        for (a, b) in compiled.iter().zip(&expected) {
            assert_eq!(a, b);
        }
        // C(7+2, 3) = 84 non-decreasing triples over 7 values.
        assert_eq!(compiled.len(), 84);
    }

    #[test]
    fn counting_is_exact_and_bounded() {
        let s = chain_space();
        let cs = CompiledSpace::compile(&s).unwrap();
        assert_eq!(cs.count_valid(), FeasibleCount::Exact(84));
        match cs.count_valid_bounded(10, u64::MAX) {
            FeasibleCount::AtLeast(n) => assert!(n > 10),
            exact => panic!("cap must stop early, got {exact:?}"),
        }
        match cs.count_valid_bounded(u64::MAX, 3) {
            FeasibleCount::AtLeast(_) => {}
            exact => panic!("budget must stop early, got {exact:?}"),
        }
    }

    #[test]
    fn unconstrained_space_counts_without_walking() {
        let s = SearchSpace::builder()
            .int("x", 0, 999_999, 1)
            .int("y", 0, 999_999, 1)
            .build()
            .unwrap();
        let cs = CompiledSpace::compile(&s).unwrap();
        // 10^12 points: must come from the product, not a walk.
        assert_eq!(cs.count_valid(), FeasibleCount::Exact(1_000_000_000_000));
        assert_eq!(cs.stats().points_pruned_by_propagation, 0);
    }

    #[test]
    fn chunked_enumeration_with_cursors_is_seamless() {
        let s = chain_space();
        let cs = CompiledSpace::compile(&s).unwrap();
        let whole: Vec<Configuration> = cs.iter().collect();
        let mut chunked = Vec::new();
        let mut cursor = Some(SpaceCursor::default());
        while let Some(c) = cursor {
            let (chunk, next) = cs.next_chunk(&c, 7).unwrap();
            chunked.extend(chunk);
            cursor = next;
        }
        assert_eq!(whole, chunked);
    }

    #[test]
    fn bands_partition_the_stream() {
        let s = chain_space();
        let cs = CompiledSpace::compile(&s).unwrap();
        let whole: Vec<Configuration> = cs.iter().collect();
        for parts in [1, 2, 3, 7, 50] {
            let banded: Vec<Configuration> = cs
                .bands(parts)
                .into_iter()
                .flat_map(|b| cs.iter_band(b).collect::<Vec<_>>())
                .collect();
            assert_eq!(whole, banded, "parts={parts}");
        }
    }

    #[test]
    fn propagation_pins_and_empties() {
        // SumBound::exact(5) over one step-1 dim pins it to 5 (slack < 1).
        let s = SearchSpace::builder()
            .int("a", 0, 9, 1)
            .int("b", 0, 9, 1)
            .constraint(SumBound::exact(["a"], 5.0))
            .build()
            .unwrap();
        let cs = CompiledSpace::compile(&s).unwrap();
        assert_eq!(cs.stats().pinned_dims, 1);
        assert_eq!(cs.count_valid(), FeasibleCount::Exact(10));
        for cfg in cs.iter() {
            assert_eq!(cfg.int("a"), Some(5));
        }
        // An unsatisfiable sum proves emptiness without enumeration.
        let s = SearchSpace::builder()
            .int("a", 0, 4, 1)
            .int("b", 0, 4, 1)
            .constraint(SumBound::new(["a", "b"], 100.0, 200.0))
            .build()
            .unwrap();
        let cs = CompiledSpace::compile(&s).unwrap();
        assert!(cs.stats().provably_empty);
        assert_eq!(cs.count_valid(), FeasibleCount::Exact(0));
        assert_eq!(cs.iter().count(), 0);
        assert_eq!(naive(&s).len(), 0);
    }

    /// The PETSc boundary space: `parts - 1` non-decreasing boundaries
    /// over `1..=n-1`.
    fn boundary_chain(n: i64, parts: usize) -> SearchSpace {
        let names: Vec<String> = (1..parts).map(|i| format!("b{i}")).collect();
        names
            .iter()
            .fold(SearchSpace::builder(), |b, name| b.int(name, 1, n - 1, 1))
            .constraint(MonotoneChain::new(names))
            .build()
            .unwrap()
    }

    #[test]
    fn too_large_to_snap_is_answered_once_then_from_the_count() {
        // C(201, 3) = 1 333 300 valid points, far beyond the cap.
        let cs = CompiledSpace::compile(&boundary_chain(200, 4)).unwrap();
        let cap = 65_536;
        let target = [150.2, 20.7, 90.1];

        let mut first = cs.start();
        assert!(!cs.snap_walk(&mut first, &target, cap));
        assert!(first.checks > 0, "the first call has to count");
        assert!(matches!(
            lock(&cs.learnt).count,
            Some(FeasibleCount::AtLeast(n)) if n > cap
        ));

        let mut second = cs.start();
        assert!(!cs.snap_walk(&mut second, &[3.0, 2.0, 1.0], cap));
        assert_eq!(second.checks, 0, "the second call visits no lattice point");
        assert_eq!(cs.snap_feasible(&target, cap), None);
        // A clone is the same space: it inherits the answer.
        let mut cloned = cs.clone().start();
        assert!(!cs.clone().snap_walk(&mut cloned, &target, cap));
        assert_eq!(cloned.checks, 0);
    }

    /// Exhaustive sessions over clones of one space count it once: the
    /// first walks and leaves the exact count with the space, the second
    /// reads it. A count planted in its place shows the second walked
    /// nothing: it refuses the space, as the planted count says it must.
    #[test]
    fn exhaustive_sessions_over_clones_of_one_space_count_it_once() {
        use crate::session::{SessionOptions, TuningSession};
        use crate::strategy::Exhaustive;
        let space = chain_space(); // 84 valid
        let run = |space: SearchSpace| {
            let options = SessionOptions {
                max_evaluations: 1_000,
                ..Default::default()
            };
            let mut session = TuningSession::new(space, Box::new(Exhaustive::default()), options);
            while let Some(trial) = session.suggest() {
                session.report(trial, 1.0).unwrap();
            }
            session.history().len()
        };
        let cs = space.compiled().unwrap();
        assert_eq!(lock(&cs.learnt).count, None);
        assert_eq!(run(space.clone()), 84);
        assert_eq!(lock(&cs.learnt).count, Some(FeasibleCount::Exact(84)));
        lock(&cs.learnt).count = Some(FeasibleCount::AtLeast(u64::MAX));
        assert_eq!(run(space.clone()), 0);
        // A space not counted yet is still counted under the node budget.
        let fresh = chain_space();
        let cs = fresh.compiled().unwrap();
        let count = |cap, budget| cs.valid_count(&mut cs.start(), cap, budget);
        assert!(!count(1_000, 3).is_exact());
        assert_eq!(count(1_000, u64::MAX), FeasibleCount::Exact(84));
        assert_eq!(count(10, 0), FeasibleCount::Exact(84));
    }

    #[test]
    fn the_count_answers_only_the_caps_it_settles() {
        let cs = CompiledSpace::compile(&chain_space()).unwrap(); // 84 valid
        let target = [4.4, 1.2, 3.3];
        // Counted at cap 10: "more than 10", which says nothing about 84.
        assert_eq!(cs.snap_feasible(&target, 10), None);
        // Exactly `cap` valid points is not too large.
        let snapped = cs.snap_feasible(&target, 84);
        assert_eq!(snapped, cs.snap_feasible_by_scan(&target, 84));
        assert!(snapped.is_some());
        assert_eq!(lock(&cs.learnt).count, Some(FeasibleCount::Exact(84)));
        // One fewer is, and the exact count now answers without a walk.
        let mut cur = cs.start();
        assert!(!cs.snap_walk(&mut cur, &target, 83));
        assert_eq!(cur.checks, 0);
        assert_eq!(cs.snap_feasible(&target, 0), None);
    }

    #[test]
    fn snap_walk_agrees_with_the_scan_and_visits_less() {
        let cs = CompiledSpace::compile(&chain_space()).unwrap();
        let exhaustive = {
            let mut cur = cs.start();
            while cs.next_point(&mut cur) {}
            cur.checks
        };
        cs.snap_feasible(&[0.0; 3], 1000); // take the count out of the accounting
        for target in [
            [5.0, 2.0, 4.0],    // infeasible lattice point
            [2.5, 2.5, 2.5],    // equidistant from eight lattice points
            [-40.0, 3.0, 90.0], // far outside the box
            [6.0, 0.0, 0.0],    // nearest feasible points tie
            [f64::INFINITY, 1.0, 2.0],
        ] {
            let mut cur = cs.start();
            assert!(cs.snap_walk(&mut cur, &target, 1000));
            assert_eq!(
                Some(cs.coords(&cur.idx)),
                cs.snap_feasible_by_scan(&target, 1000),
                "{target:?}"
            );
            assert!(cur.checks < exhaustive, "{target:?}: {} checks", cur.checks);
        }
    }

    #[test]
    fn a_nan_coordinate_snaps_to_the_first_valid_point() {
        let space = chain_space();
        let cs = CompiledSpace::compile(&space).unwrap();
        let first = cs.iter().next().map(|c| space.embed(&c).unwrap());
        for target in [[f64::NAN, 3.0, 3.0], [6.0, 6.0, f64::NAN], [f64::NAN; 3]] {
            assert_eq!(cs.snap_feasible(&target, 1000), first, "{target:?}");
            assert_eq!(cs.snap_feasible_by_scan(&target, 1000), first);
        }
    }

    #[test]
    fn continuous_dimensions_refuse_to_compile() {
        let s = SearchSpace::builder()
            .int("a", 0, 5, 1)
            .real("tol", 0.0, 1.0)
            .build()
            .unwrap();
        let err = CompiledSpace::compile(&s).unwrap_err();
        assert!(err.to_string().contains("tol"), "{err}");
    }

    #[test]
    fn resume_rejects_malformed_cursors() {
        let s = chain_space();
        let cs = CompiledSpace::compile(&s).unwrap();
        assert!(cs
            .resume(&SpaceCursor {
                after: Some(vec![0, 0])
            })
            .is_err());
        assert!(cs
            .resume(&SpaceCursor {
                after: Some(vec![0, 0, 99])
            })
            .is_err());
    }

    /// 4 × 4, unconstrained: 16 points, every one valid.
    fn square() -> CompiledSpace {
        let s = SearchSpace::builder()
            .int("x", 0, 3, 1)
            .int("y", 0, 3, 1)
            .build()
            .unwrap();
        CompiledSpace::compile(&s).unwrap()
    }

    #[test]
    fn a_cursor_taken_at_the_end_resumes_to_nothing() {
        let cs = square();
        let mut it = cs.iter();
        assert_eq!(it.by_ref().count(), 16);
        let end = it.cursor();
        assert_eq!(cs.next_chunk(&end, 100).unwrap(), (Vec::new(), None));
        assert!(!cs.next_point(&mut cs.resume(&end).unwrap()));
        // A band's end is the end of the stream too.
        for band in cs.bands(3) {
            let mut it = cs.iter_band(band);
            assert!(it.by_ref().count() > 0);
            let end = it.cursor();
            assert_eq!(cs.next_chunk(&end, 100).unwrap(), (Vec::new(), None));
        }
        // On a space propagation proved empty, the start is the end.
        let empty = SearchSpace::builder()
            .int("a", 0, 4, 1)
            .constraint(SumBound::new(["a"], 100.0, 200.0))
            .build()
            .unwrap();
        let cs = CompiledSpace::compile(&empty).unwrap();
        let mut it = cs.iter();
        assert_eq!(it.next(), None);
        assert_eq!(
            cs.next_chunk(&it.cursor(), 100).unwrap(),
            (Vec::new(), None)
        );
    }

    #[test]
    fn an_empty_chunk_hands_back_its_cursor() {
        let cs = square();
        let start = SpaceCursor::default();
        let (points, next) = cs.next_chunk(&start, 0).unwrap();
        assert!(points.is_empty());
        assert_eq!(next.as_ref(), Some(&start));
        let (points, _) = cs.next_chunk(&start, 100).unwrap();
        assert_eq!(points.len(), 16);
        // Mid-stream as well.
        let (_, mid) = cs.next_chunk(&start, 5).unwrap();
        let mid = mid.unwrap();
        assert_eq!(cs.next_chunk(&mid, 0).unwrap(), (Vec::new(), Some(mid)));
    }

    /// A random space for the value oracle: one to five dimensions — ints
    /// with negative minima and steps above one, enums — under up to two
    /// of a chain and a sum bound.
    fn random_space(rng: &mut rand::rngs::StdRng) -> SearchSpace {
        use rand::Rng;
        let mut b = SearchSpace::builder();
        let mut ints = Vec::new();
        for d in 0..rng.gen_range(1..=5) {
            let name = format!("p{d}");
            if rng.gen_range(0..3) == 0 {
                let labels = ["lo", "mid", "hi", "max"];
                b = b.enumeration(&name, labels[..rng.gen_range(1..=4)].to_vec());
                continue;
            }
            let min = rng.gen_range(-9..4i64);
            let step = [1, 2, 3, 7][rng.gen_range(0..4usize)];
            b = b.int(&name, min, min + step * rng.gen_range(0..5i64), step);
            ints.push(name);
        }
        for _ in 0..rng.gen_range(0..=2) {
            b = match rng.gen_range(0..3) {
                0 if ints.len() >= 2 => b.constraint(MonotoneChain::new(ints.clone())),
                1 if !ints.is_empty() => {
                    let lo = rng.gen_range(-20.0..10.0f64).round();
                    b.constraint(SumBound::new(ints.clone(), lo, lo + 15.0))
                }
                _ => b,
            };
        }
        b.build().unwrap()
    }

    /// Every lattice point of the compiled box, in stream order, valid or
    /// not.
    fn box_points(cs: &CompiledSpace) -> Vec<Vec<u64>> {
        let mut points = vec![Vec::new()];
        for dim in &cs.dims {
            points = points
                .into_iter()
                .flat_map(|p: Vec<u64>| (dim.lo..=dim.hi).map(move |i| [&p[..], &[i]].concat()))
                .collect();
        }
        points
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `configuration` builds what the tuple match built, over the
        /// space's own name table, at every point of the box, and the
        /// stream is the valid points of the box.
        #[test]
        fn values_equal_the_tuple_match(seed in 0u64..1_000_000) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let space = random_space(&mut rng);
            let cs = CompiledSpace::compile(&space).unwrap();
            let points = if cs.empty { Vec::new() } else { box_points(&cs) };
            for idx in &points {
                let want = cs.configuration_by_match(&space, idx);
                let got = cs.configuration(idx);
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert!(Arc::ptr_eq(got.names_table(), space.names_table()));
            }
            let valid: Vec<Configuration> = points
                .iter()
                .map(|idx| cs.configuration_by_match(&space, idx))
                .filter(|cfg| space.is_valid(cfg))
                .collect();
            proptest::prop_assert_eq!(cs.iter().collect::<Vec<_>>(), valid);
        }

        /// Chunks of random sizes, 0 among them, concatenate to `iter()` —
        /// a chunk that ends on the last point hands on a cursor that
        /// serves nothing more — and so does a cursor taken from an
        /// exhausted iterator.
        #[test]
        fn random_chunks_concatenate_to_the_stream(seed in 0u64..1_000_000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cs = CompiledSpace::compile(&random_space(&mut rng)).unwrap();
            let whole: Vec<Configuration> = cs.iter().collect();
            let mut chunked = Vec::new();
            let mut cursor = Some(SpaceCursor::default());
            while let Some(c) = cursor {
                let n = [0, 1, 2, 3, 5, 17][rng.gen_range(0..6usize)];
                let (points, next) = cs.next_chunk(&c, n).unwrap();
                proptest::prop_assert!(points.len() <= n);
                if n == 0 {
                    proptest::prop_assert_eq!(next.as_ref(), (!cs.empty).then_some(&c));
                }
                chunked.extend(points);
                proptest::prop_assert!(chunked.len() <= whole.len());
                cursor = next;
            }
            proptest::prop_assert_eq!(&chunked, &whole);
            let mut it = cs.iter();
            it.by_ref().for_each(drop);
            proptest::prop_assert_eq!(cs.next_chunk(&it.cursor(), 5).unwrap(), (Vec::new(), None));
        }
    }

    #[test]
    fn billion_point_space_streams_lazily() {
        // 10^9 raw points: 9 step-1 dims of 10 values, chain + sum.
        let s = SearchSpace::builder()
            .int("p0", 0, 9, 1)
            .int("p1", 0, 9, 1)
            .int("p2", 0, 9, 1)
            .int("p3", 0, 9, 1)
            .int("p4", 0, 9, 1)
            .int("p5", 0, 9, 1)
            .int("p6", 0, 9, 1)
            .int("p7", 0, 9, 1)
            .int("p8", 0, 9, 1)
            .constraint(MonotoneChain::new(["p0", "p1", "p2", "p3"]))
            .constraint(SumBound::new(["p4", "p5", "p6"], 6.0, 18.0))
            .build()
            .unwrap();
        let cs = CompiledSpace::compile(&s).unwrap();
        assert_eq!(cs.stats().points_raw, 1_000_000_000);
        // Stream the first 50k valid points; every one must satisfy the
        // constraints, and the walk must stay O(dims) in memory.
        let mut n = 0;
        for cfg in cs.iter().take(50_000) {
            debug_assert!(s.is_valid(&cfg));
            n += 1;
        }
        assert_eq!(n, 50_000);
        let count = cs.count_valid_bounded(1_000_000, 10_000_000);
        assert!(count.lower_bound() > 1_000_000, "{count:?}");
    }
}
