//! Dependent-variable constraints.
//!
//! The paper (§II footnote 2) notes that dependent tunable variables are
//! handled with the techniques of the authors' SC'04 work ("Using Information
//! from Prior Runs to Improve Automated Tuning Systems"): instead of letting
//! the simplex wander into infeasible corners, dependent values are *repaired*
//! in the continuous embedding so the search effectively moves in a feasible
//! subspace. The canonical example in this paper is the PETSc matrix
//! decomposition, where partition boundaries must form a non-decreasing chain.

use crate::error::Result;
use crate::param::Param;
use crate::space::{Configuration, SearchSpace};
use std::fmt::Debug;

/// Machine-readable description of a constraint, consumed by the
/// search-space compiler ([`crate::space_compile`]).
///
/// A spec lets the compiler reason about the constraint *without evaluating
/// it*: tighten per-dimension bounds, prune provably-dead subtrees during
/// enumeration, and fold a canonical token into the space fingerprint. A
/// constraint that cannot (or does not want to) describe itself returns
/// [`ConstraintSpec::Opaque`]; the compiler then falls back to calling
/// [`Constraint::is_satisfied`] on every fully-assigned lattice point, which
/// is always correct, just slower.
///
/// Contract: the spec must accept *exactly* the configurations that
/// [`Constraint::is_satisfied`] accepts (it is an alternative encoding of
/// the same predicate, not an approximation). The equivalence is
/// property-tested in `tests/space_compile_props.rs`.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintSpec {
    /// No machine-readable form; check full points via `is_satisfied`.
    Opaque,
    /// The named dimensions (by index into the space's parameter list, in
    /// constraint order) must form a non-decreasing chain.
    Chain(Vec<usize>),
    /// The values of the dimensions must sum into `[min, max]` (any
    /// acceptance slack already folded into the bounds).
    Sum {
        /// Participating dimensions, by index, in constraint order.
        dims: Vec<usize>,
        /// Lower acceptance bound (slack included).
        min: f64,
        /// Upper acceptance bound (slack included).
        max: f64,
    },
    /// The constraint can never be satisfied on this space (e.g. a sum over
    /// a categorical dimension, which `is_satisfied` always rejects).
    Unsatisfiable,
}

impl ConstraintSpec {
    /// Canonical token folded (order-insensitively) into
    /// [`space_fingerprint`](crate::store::space_fingerprint).
    /// `None` for [`Opaque`](Self::Opaque): opaque constraints stay outside
    /// the fingerprint, exactly as all constraints were before the space
    /// compiler existed.
    pub(crate) fn fingerprint_token(&self) -> Option<String> {
        match self {
            ConstraintSpec::Opaque => None,
            ConstraintSpec::Chain(dims) => {
                let idx: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
                Some(format!("chain:{}", idx.join(",")))
            }
            ConstraintSpec::Sum { dims, min, max } => {
                let idx: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
                Some(format!(
                    "sum:{}:{:016x}:{:016x}",
                    idx.join(","),
                    min.to_bits(),
                    max.to_bits()
                ))
            }
            ConstraintSpec::Unsatisfiable => Some("unsat".to_string()),
        }
    }
}

/// A repairable relation between parameters of a [`SearchSpace`].
pub trait Constraint: Send + Sync + Debug {
    /// Mutate a continuous point so that it satisfies the constraint.
    /// Called before lattice projection; must be idempotent.
    fn repair(&self, space: &SearchSpace, coords: &mut [f64]);

    /// Whether a projected configuration satisfies the constraint.
    fn is_satisfied(&self, space: &SearchSpace, cfg: &Configuration) -> bool;

    /// Validate that the constraint's parameter references exist in the
    /// space. Called once at space construction.
    fn check_space(&self, space: &SearchSpace) -> Result<()>;

    /// Machine-readable description for the search-space compiler; must
    /// accept exactly the configurations `is_satisfied` accepts. The
    /// default is [`ConstraintSpec::Opaque`] (always correct).
    fn spec(&self, _space: &SearchSpace) -> ConstraintSpec {
        ConstraintSpec::Opaque
    }
}

fn indices(space: &SearchSpace, names: &[String]) -> Result<Vec<usize>> {
    names
        .iter()
        .map(|n| {
            space
                .index_of(n)
                .ok_or_else(|| crate::error::HarmonyError::UnknownParam(n.clone()))
        })
        .collect()
}

/// Requires the named parameters to form a non-decreasing chain
/// `p1 ≤ p2 ≤ … ≤ pk` (e.g. partition boundaries in a matrix decomposition).
///
/// Repair sorts the involved coordinates in place, which is the closest
/// feasible chain under permutation distance and keeps the simplex volume
/// intact.
#[derive(Debug, Clone)]
pub struct MonotoneChain {
    names: Vec<String>,
}

impl MonotoneChain {
    /// Build a chain constraint over parameters in the given order.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        MonotoneChain {
            names: names.into_iter().map(Into::into).collect(),
        }
    }
}

impl Constraint for MonotoneChain {
    fn repair(&self, space: &SearchSpace, coords: &mut [f64]) {
        let idx = match indices(space, &self.names) {
            Ok(i) => i,
            Err(_) => return,
        };
        let mut vals: Vec<f64> = idx.iter().map(|&i| coords[i]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        for (&i, v) in idx.iter().zip(vals) {
            coords[i] = v;
        }
    }

    fn is_satisfied(&self, _space: &SearchSpace, cfg: &Configuration) -> bool {
        let mut prev = f64::NEG_INFINITY;
        for n in &self.names {
            let v = match cfg.get(n) {
                Some(v) => v.as_int().map(|i| i as f64).or(v.as_real()),
                None => return false,
            };
            match v {
                Some(v) if v >= prev => prev = v,
                _ => return false,
            }
        }
        true
    }

    fn check_space(&self, space: &SearchSpace) -> Result<()> {
        indices(space, &self.names).map(|_| ())
    }

    fn spec(&self, space: &SearchSpace) -> ConstraintSpec {
        let idx = match indices(space, &self.names) {
            Ok(i) => i,
            Err(_) => return ConstraintSpec::Opaque,
        };
        // `is_satisfied` reads members as int-or-real and rejects anything
        // else, so a chain over a categorical dimension never holds.
        if idx
            .iter()
            .any(|&i| matches!(space.params()[i], Param::Enum { .. }))
        {
            return ConstraintSpec::Unsatisfiable;
        }
        ConstraintSpec::Chain(idx)
    }
}

/// Requires the sum of the named integer parameters to stay within
/// `[min_sum, max_sum]`; used for distributions that must add up to a total
/// (e.g. "rows per processor" summing to the matrix size).
///
/// Repair rescales all involved coordinates proportionally towards the
/// nearest bound.
#[derive(Debug, Clone)]
pub struct SumBound {
    names: Vec<String>,
    min_sum: f64,
    max_sum: f64,
}

impl SumBound {
    /// Build a sum constraint over the named parameters.
    pub fn new<I, S>(names: I, min_sum: f64, max_sum: f64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SumBound {
            names: names.into_iter().map(Into::into).collect(),
            min_sum,
            max_sum,
        }
    }

    /// Exact-sum convenience: `min_sum == max_sum == total`.
    pub fn exact<I, S>(names: I, total: f64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::new(names, total, total)
    }

    /// Acceptance slack: how far lattice projection can move the sum of a
    /// repaired (continuous, in-bounds) point.
    ///
    /// Each integer participant rounds to its nearest lattice point, i.e. by
    /// up to `step/2` — or up to a full `step` when the dimension's `max` is
    /// off-lattice and the snap-down kicks in. Real participants do not
    /// round. The tiny constant absorbs `f64` accumulation error on
    /// exact-sum constraints over real dimensions.
    fn slack(&self, space: &SearchSpace) -> f64 {
        let mut slack = 1e-9;
        for n in &self.names {
            let Some(i) = space.index_of(n) else { continue };
            match &space.params()[i] {
                Param::Int { min, max, step, .. } => {
                    slack += if (max - min) % step == 0 {
                        *step as f64 / 2.0
                    } else {
                        *step as f64
                    };
                }
                Param::Real { .. } => {}
                // Enums make the constraint unsatisfiable anyway.
                Param::Enum { .. } => slack += 0.5,
            }
        }
        slack
    }
}

impl Constraint for SumBound {
    fn repair(&self, space: &SearchSpace, coords: &mut [f64]) {
        let idx = match indices(space, &self.names) {
            Ok(i) => i,
            Err(_) => return,
        };
        let sum: f64 = idx.iter().map(|&i| coords[i].max(0.0)).sum();
        let target = if sum < self.min_sum {
            self.min_sum
        } else if sum > self.max_sum {
            self.max_sum
        } else {
            return;
        };
        if sum <= f64::EPSILON {
            // Degenerate all-zero point: distribute the target evenly.
            let share = target / idx.len() as f64;
            for &i in &idx {
                coords[i] = share;
            }
            return;
        }
        let scale = target / sum;
        for &i in &idx {
            coords[i] = coords[i].max(0.0) * scale;
        }
    }

    fn is_satisfied(&self, space: &SearchSpace, cfg: &Configuration) -> bool {
        let mut sum = 0.0;
        for n in &self.names {
            match cfg.get(n).and_then(|v| v.as_int()) {
                Some(v) => sum += v as f64,
                None => match cfg.get(n).and_then(|v| v.as_real()) {
                    Some(v) => sum += v,
                    None => return false,
                },
            }
        }
        // Lattice rounding after repair perturbs the sum by up to the
        // step-aware slack (a step-10 participant moves by up to ±5, not
        // ±1); accept exactly that much.
        let slack = self.slack(space);
        sum >= self.min_sum - slack && sum <= self.max_sum + slack
    }

    fn check_space(&self, space: &SearchSpace) -> Result<()> {
        indices(space, &self.names).map(|_| ())
    }

    fn spec(&self, space: &SearchSpace) -> ConstraintSpec {
        let idx = match indices(space, &self.names) {
            Ok(i) => i,
            Err(_) => return ConstraintSpec::Opaque,
        };
        // `is_satisfied` reads participants as int-or-real and rejects
        // anything else: a sum over a categorical dimension never holds.
        if idx
            .iter()
            .any(|&i| matches!(space.params()[i], Param::Enum { .. }))
        {
            return ConstraintSpec::Unsatisfiable;
        }
        let slack = self.slack(space);
        ConstraintSpec::Sum {
            dims: idx,
            min: self.min_sum - slack,
            max: self.max_sum + slack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    fn chain_space() -> SearchSpace {
        SearchSpace::builder()
            .int("a", 0, 100, 1)
            .int("b", 0, 100, 1)
            .int("c", 0, 100, 1)
            .constraint(MonotoneChain::new(["a", "b", "c"]))
            .build()
            .unwrap()
    }

    #[test]
    fn monotone_repair_sorts() {
        let s = chain_space();
        let mut coords = vec![30.0, 10.0, 20.0];
        s.repair(&mut coords);
        assert_eq!(coords, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn monotone_repair_is_idempotent() {
        let s = chain_space();
        let mut coords = vec![55.5, 3.0, 41.0];
        s.repair(&mut coords);
        let once = coords.clone();
        s.repair(&mut coords);
        assert_eq!(coords, once);
    }

    #[test]
    fn monotone_is_satisfied_checks_order() {
        let s = chain_space();
        let good = s.project(&[5.0, 5.0, 9.0]);
        assert!(s.is_valid(&good));
        // Construct an invalid configuration by hand.
        let bad = s
            .configuration(vec![
                crate::value::ParamValue::Int(9),
                crate::value::ParamValue::Int(5),
                crate::value::ParamValue::Int(7),
            ])
            .unwrap();
        assert!(!s.is_valid(&bad));
    }

    #[test]
    fn unknown_name_fails_at_build() {
        let err = SearchSpace::builder()
            .int("a", 0, 1, 1)
            .constraint(MonotoneChain::new(["a", "zz"]))
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn sum_bound_scales_down() {
        let s = SearchSpace::builder()
            .int("r1", 0, 100, 1)
            .int("r2", 0, 100, 1)
            .constraint(SumBound::exact(["r1", "r2"], 100.0))
            .build()
            .unwrap();
        let cfg = s.project(&[80.0, 80.0]);
        let sum = cfg.int("r1").unwrap() + cfg.int("r2").unwrap();
        assert!((sum - 100).abs() <= 2, "sum={sum}");
        assert!(s.is_valid(&cfg));
    }

    #[test]
    fn sum_bound_scales_up_and_handles_zero() {
        let s = SearchSpace::builder()
            .int("r1", 0, 100, 1)
            .int("r2", 0, 100, 1)
            .constraint(SumBound::exact(["r1", "r2"], 60.0))
            .build()
            .unwrap();
        let cfg = s.project(&[10.0, 20.0]);
        let sum = cfg.int("r1").unwrap() + cfg.int("r2").unwrap();
        assert!((sum - 60).abs() <= 2, "sum={sum}");
        let zero = s.project(&[0.0, 0.0]);
        let sum0 = zero.int("r1").unwrap() + zero.int("r2").unwrap();
        assert!((sum0 - 60).abs() <= 2, "sum0={sum0}");
    }

    #[test]
    fn sum_bound_slack_accounts_for_step_sizes() {
        // Step-10 participants round by up to ±5 each after projection; the
        // old ±1-per-participant slack rejected such valid repaired points.
        let s = SearchSpace::builder()
            .int("r1", 0, 100, 10)
            .int("r2", 0, 100, 10)
            .constraint(SumBound::exact(["r1", "r2"], 95.0))
            .build()
            .unwrap();
        // 50 + 40 = 90: five off the exact target, i.e. exactly the rounding
        // a step-10 lattice introduces. Must be accepted.
        let rounded = s
            .configuration(vec![
                crate::value::ParamValue::Int(50),
                crate::value::ParamValue::Int(40),
            ])
            .unwrap();
        assert!(
            s.is_valid(&rounded),
            "step-sized rounding must be tolerated"
        );
        // And every projected (repaired) point must of course be valid.
        let projected = s.project(&[50.0, 45.0]);
        assert!(s.is_valid(&projected), "{projected}");
        // 50 + 20 = 70 is far beyond any rounding explanation: rejected.
        let far = s
            .configuration(vec![
                crate::value::ParamValue::Int(50),
                crate::value::ParamValue::Int(20),
            ])
            .unwrap();
        assert!(!s.is_valid(&far));
    }

    #[test]
    fn specs_describe_the_constraints() {
        let s = chain_space();
        assert_eq!(
            s.constraints()[0].spec(&s),
            ConstraintSpec::Chain(vec![0, 1, 2])
        );
        let s = SearchSpace::builder()
            .int("r1", 0, 10, 1)
            .int("r2", 0, 10, 1)
            .constraint(SumBound::new(["r1", "r2"], 3.0, 12.0))
            .build()
            .unwrap();
        match s.constraints()[0].spec(&s) {
            ConstraintSpec::Sum { dims, min, max } => {
                assert_eq!(dims, vec![0, 1]);
                assert!(min < 3.0 && min > 1.9, "slack-widened lower bound");
                assert!(max > 12.0 && max < 13.1, "slack-widened upper bound");
            }
            other => panic!("expected a sum spec, got {other:?}"),
        }
        // Constraints over categorical dimensions can never hold.
        let s = SearchSpace::builder()
            .enumeration("mode", ["a", "b"])
            .int("n", 0, 5, 1)
            .constraint(MonotoneChain::new(["mode", "n"]))
            .build()
            .unwrap();
        assert_eq!(s.constraints()[0].spec(&s), ConstraintSpec::Unsatisfiable);
    }

    #[test]
    fn fingerprint_tokens_are_canonical() {
        assert_eq!(
            ConstraintSpec::Chain(vec![0, 2])
                .fingerprint_token()
                .unwrap(),
            "chain:0,2"
        );
        assert_eq!(ConstraintSpec::Opaque.fingerprint_token(), None);
        let a = ConstraintSpec::Sum {
            dims: vec![1, 3],
            min: 2.0,
            max: 8.0,
        };
        assert_eq!(a.fingerprint_token(), a.clone().fingerprint_token());
        assert_ne!(
            a.fingerprint_token(),
            ConstraintSpec::Sum {
                dims: vec![1, 3],
                min: 2.0,
                max: 9.0,
            }
            .fingerprint_token()
        );
    }

    #[test]
    fn sum_bound_leaves_feasible_points_alone() {
        let s = SearchSpace::builder()
            .int("r1", 0, 100, 1)
            .int("r2", 0, 100, 1)
            .constraint(SumBound::new(["r1", "r2"], 0.0, 150.0))
            .build()
            .unwrap();
        let cfg = s.project(&[40.0, 50.0]);
        assert_eq!(cfg.int("r1"), Some(40));
        assert_eq!(cfg.int("r2"), Some(50));
    }
}
