//! Dependent-variable constraints.
//!
//! The paper (§II footnote 2) notes that dependent tunable variables are
//! handled with the techniques of the authors' SC'04 work ("Using Information
//! from Prior Runs to Improve Automated Tuning Systems"): instead of letting
//! the simplex wander into infeasible corners, dependent values are *repaired*
//! in the continuous embedding so the search effectively moves in a feasible
//! subspace. The canonical example in this paper is the PETSc matrix
//! decomposition, where partition boundaries must form a non-decreasing chain.
//!
//! A constraint is data: one of two relations declared over parameter
//! names, a [`MonotoneChain`] or a [`SumBound`]. Building the space
//! resolves each declaration once, against that space's parameters, into
//! one index form (`Resolved`): the member dimensions, a sum's bounds
//! with its step-aware slack already computed, and whether a categorical
//! member means the constraint can never hold. That form is all that is
//! read afterwards — by the space's repair and validation, by the
//! compiler's propagation and prefix checks ([`crate::space_compile`]) and
//! by the store fingerprint's token — and nothing looks a name up again.

use crate::error::{HarmonyError, Result};
use crate::key::INLINE;
use crate::param::Param;
use crate::value::ParamValue;

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
}

/// A constraint as declared to
/// [`SearchSpaceBuilder::constraint`](crate::space::SearchSpaceBuilder::constraint):
/// one of the two relations, over parameter names.
#[derive(Debug, Clone)]
pub enum Declaration {
    /// A [`MonotoneChain`].
    Chain(MonotoneChain),
    /// A [`SumBound`].
    Sum(SumBound),
}

impl From<MonotoneChain> for Declaration {
    fn from(chain: MonotoneChain) -> Self {
        Declaration::Chain(chain)
    }
}

impl From<SumBound> for Declaration {
    fn from(sum: SumBound) -> Self {
        Declaration::Sum(sum)
    }
}

impl Declaration {
    /// This declaration over `params`' dimensions; refused with the first
    /// name `params` does not declare.
    ///
    /// A sum's slack depends on its members' bounds, so a space whose
    /// parameters differ from another's resolves its declarations afresh.
    pub(crate) fn resolve(&self, params: &[Param]) -> Result<Resolved> {
        let names = match self {
            Declaration::Chain(c) => &c.names,
            Declaration::Sum(s) => &s.names,
        };
        let members = names
            .iter()
            .map(|n| {
                params
                    .iter()
                    .position(|p| p.name() == n)
                    .ok_or_else(|| HarmonyError::UnknownParam(n.clone()))
            })
            .collect::<Result<Vec<usize>>>()?;
        let rule = match self {
            Declaration::Chain(_) => Rule::Chain,
            Declaration::Sum(s) => {
                let slack = slack(params, &members);
                Rule::Sum {
                    min: s.min_sum,
                    max: s.max_sum,
                    lo: s.min_sum - slack,
                    hi: s.max_sum + slack,
                }
            }
        };
        // A categorical member reads as neither int nor real, which no
        // chain or sum accepts.
        let never = members
            .iter()
            .any(|&m| matches!(params[m], Param::Enum { .. }));
        Ok(Resolved {
            members,
            rule,
            never,
        })
    }
}

/// A sum's acceptance slack: how far lattice projection can move the sum of
/// a repaired (continuous, in-bounds) point.
///
/// Each integer member rounds to its nearest lattice point, i.e. by up to
/// `step/2` — or up to a full `step` when the dimension's `max` is
/// off-lattice and the snap-down kicks in. Real members do not round. The
/// tiny constant absorbs `f64` accumulation error on exact-sum constraints
/// over real dimensions.
fn slack(params: &[Param], members: &[usize]) -> f64 {
    let mut slack = 1e-9;
    for &m in members {
        match &params[m] {
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

/// The relation a [`Resolved`] constraint holds its members to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rule {
    /// Non-decreasing in member order.
    Chain,
    /// Repair moves the sum into `[min, max]`, as declared; a lattice
    /// point is accepted when its sum lies in `[lo, hi]`, the declared
    /// bounds widened by the slack.
    Sum {
        min: f64,
        max: f64,
        lo: f64,
        hi: f64,
    },
}

/// A declaration resolved against one space's parameters: the one form
/// repair, validation, the compiler and the fingerprint read.
#[derive(Debug, Clone)]
pub(crate) struct Resolved {
    /// Member dimensions, by index, in declaration order.
    pub(crate) members: Vec<usize>,
    pub(crate) rule: Rule,
    /// A member is categorical: no point satisfies the constraint.
    pub(crate) never: bool,
}

impl Resolved {
    /// The declaration this was resolved from, over the `names` of the
    /// space it was resolved against.
    pub(crate) fn declaration(&self, names: &[String]) -> Declaration {
        let names = self.members.iter().map(|&m| names[m].clone());
        match self.rule {
            Rule::Chain => MonotoneChain::new(names).into(),
            Rule::Sum { min, max, .. } => SumBound::new(names, min, max).into(),
        }
    }

    /// Move a continuous point towards the constraint: a chain's members
    /// sorted in place (on the stack up to [`INLINE`] members), a sum's
    /// rescaled to the nearest declared bound. Idempotent.
    pub(crate) fn repair(&self, coords: &mut [f64]) {
        let members = &self.members;
        match self.rule {
            Rule::Chain => {
                let (mut inline, mut spilled) = ([0.0; INLINE], Vec::new());
                let vals = if members.len() <= INLINE {
                    &mut inline[..members.len()]
                } else {
                    spilled.resize(members.len(), 0.0);
                    &mut spilled[..]
                };
                for (v, &i) in vals.iter_mut().zip(members) {
                    *v = coords[i];
                }
                vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                for (&i, &v) in members.iter().zip(vals.iter()) {
                    coords[i] = v;
                }
            }
            Rule::Sum { min, max, .. } => {
                let sum: f64 = members.iter().map(|&i| coords[i].max(0.0)).sum();
                let target = if sum < min {
                    min
                } else if sum > max {
                    max
                } else {
                    return;
                };
                if sum <= f64::EPSILON {
                    // Degenerate all-zero point: distribute the target evenly.
                    let share = target / members.len() as f64;
                    for &i in members {
                        coords[i] = share;
                    }
                    return;
                }
                let scale = target / sum;
                for &i in members {
                    coords[i] = coords[i].max(0.0) * scale;
                }
            }
        }
    }

    /// Whether the values of a configuration of the space, read by
    /// position, satisfy the constraint: every member an int or a real,
    /// non-decreasing for a chain, summing into `[lo, hi]` for a sum.
    pub(crate) fn holds(&self, values: &[ParamValue]) -> bool {
        let number = |m: usize| {
            let v = values.get(m)?;
            v.as_int().map(|i| i as f64).or(v.as_real())
        };
        match self.rule {
            Rule::Chain => {
                let mut prev = f64::NEG_INFINITY;
                for &m in &self.members {
                    match number(m) {
                        Some(v) if v >= prev => prev = v,
                        _ => return false,
                    }
                }
                true
            }
            Rule::Sum { lo, hi, .. } => {
                let mut sum = 0.0;
                for &m in &self.members {
                    match number(m) {
                        Some(v) => sum += v,
                        None => return false,
                    }
                }
                sum >= lo && sum <= hi
            }
        }
    }

    /// Canonical token folded (order-insensitively) into
    /// [`space_fingerprint`](crate::store::space_fingerprint): `unsat`,
    /// `chain:` and the member indices, or `sum:`, the indices and the
    /// bit patterns of the accepted bounds.
    pub(crate) fn fingerprint_token(&self) -> String {
        if self.never {
            return "unsat".to_string();
        }
        let idx: Vec<String> = self.members.iter().map(|d| d.to_string()).collect();
        match self.rule {
            Rule::Chain => format!("chain:{}", idx.join(",")),
            Rule::Sum { lo, hi, .. } => format!(
                "sum:{}:{:016x}:{:016x}",
                idx.join(","),
                lo.to_bits(),
                hi.to_bits()
            ),
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
            .constraint(SumBound::new(["a"], 0.0, 1.0))
            .constraint(MonotoneChain::new(["a", "zz", "yy"]))
            .build()
            .unwrap_err();
        assert_eq!(err, HarmonyError::UnknownParam("zz".into()));
        // The parameters are checked first.
        let err = SearchSpace::builder()
            .int("a", 0, 1, 1)
            .int("a", 0, 1, 1)
            .constraint(MonotoneChain::new(["zz"]))
            .build()
            .unwrap_err();
        assert_eq!(err, HarmonyError::DuplicateParam("a".into()));
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
    fn resolution_describes_the_constraints() {
        let s = chain_space();
        let c = &s.constraints()[0];
        assert_eq!((&c.members[..], c.never), (&[0, 1, 2][..], false));
        assert!(matches!(c.rule, Rule::Chain));
        let s = SearchSpace::builder()
            .int("r1", 0, 10, 1)
            .int("r2", 0, 10, 1)
            .constraint(SumBound::new(["r2", "r1"], 3.0, 12.0))
            .build()
            .unwrap();
        let c = &s.constraints()[0];
        assert_eq!(c.members, [1, 0]);
        let Rule::Sum { min, max, lo, hi } = c.rule else {
            panic!("expected a sum, got {c:?}");
        };
        assert_eq!((min, max), (3.0, 12.0));
        assert!(lo < 3.0 && lo > 1.9, "slack-widened lower bound");
        assert!(hi > 12.0 && hi < 13.1, "slack-widened upper bound");
        // Constraints over categorical dimensions can never hold.
        let s = SearchSpace::builder()
            .enumeration("mode", ["a", "b"])
            .int("n", 0, 5, 1)
            .constraint(MonotoneChain::new(["mode", "n"]))
            .build()
            .unwrap();
        assert!(s.constraints()[0].never);
    }

    #[test]
    fn fingerprint_tokens_are_canonical() {
        let resolved = |decl: Declaration| {
            let params: Vec<Param> = ["a", "b", "c", "d"]
                .into_iter()
                .map(|n| Param::int(n, 0, 9, 1))
                .collect();
            decl.resolve(&params).unwrap()
        };
        let chain = resolved(MonotoneChain::new(["a", "c"]).into());
        assert_eq!(chain.fingerprint_token(), "chain:0,2");
        // Four step-1 members on their lattice: a slack of 1e-9 + 4 · 0.5.
        let sum = resolved(SumBound::new(["b", "d", "a", "c"], 2.0, 8.0).into());
        let slack: f64 = 1e-9 + 0.5 + 0.5 + 0.5 + 0.5;
        assert_eq!(
            sum.fingerprint_token(),
            format!(
                "sum:1,3,0,2:{:016x}:{:016x}",
                (2.0 - slack).to_bits(),
                (8.0 + slack).to_bits()
            )
        );
        let wider = resolved(SumBound::new(["b", "d", "a", "c"], 2.0, 9.0).into());
        assert_ne!(sum.fingerprint_token(), wider.fingerprint_token());
        let never = Declaration::from(MonotoneChain::new(["e", "a"]))
            .resolve(&[Param::enumeration("e", ["x"]), Param::int("a", 0, 1, 1)])
            .unwrap();
        assert_eq!(never.fingerprint_token(), "unsat");
    }

    /// A chain sorts on the stack up to the key's inline capacity, and
    /// on the heap past it, by the same comparator: NaN and equal values
    /// keep their order.
    #[test]
    fn a_chain_sorts_its_members_in_place_past_the_inline_capacity_too() {
        for len in [INLINE, INLINE + 3] {
            let params: Vec<Param> = (0..len)
                .map(|d| Param::real(format!("x{d}"), -1.0, 100.0))
                .collect();
            let names: Vec<String> = params.iter().rev().map(|p| p.name().to_string()).collect();
            let chain = Declaration::from(MonotoneChain::new(names))
                .resolve(&params)
                .unwrap();
            let mut coords: Vec<f64> = (0..len).map(|d| ((d * 7) % 5) as f64).collect();
            coords[1] = f64::NAN;
            let mut want: Vec<f64> = coords.iter().rev().copied().collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            chain.repair(&mut coords);
            let got: Vec<u64> = coords.iter().rev().map(|c| c.to_bits()).collect();
            assert_eq!(got, want.iter().map(|c| c.to_bits()).collect::<Vec<_>>());
        }
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
