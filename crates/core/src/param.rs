//! Declarations of tunable parameters.
//!
//! Each parameter becomes one dimension of the search space (paper §II: "we
//! treat each tunable parameter as a variable in an independent dimension").

use crate::error::{HarmonyError, Result};
use crate::value::ParamValue;
use serde::{Deserialize, Serialize};

/// A tunable parameter declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Param {
    /// Integer parameter taking values `min, min+step, …, ≤ max`.
    Int {
        /// Parameter name (unique within a space).
        name: String,
        /// Smallest admissible value.
        min: i64,
        /// Largest admissible value.
        max: i64,
        /// Lattice stride (≥ 1).
        step: i64,
    },
    /// Continuous real parameter in `[min, max]`.
    Real {
        /// Parameter name (unique within a space).
        name: String,
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// Categorical parameter: one of a fixed list of labels.
    Enum {
        /// Parameter name (unique within a space).
        name: String,
        /// The admissible labels, in declaration order.
        choices: Vec<String>,
    },
}

impl Param {
    /// Create an integer parameter.
    pub fn int(name: impl Into<String>, min: i64, max: i64, step: i64) -> Self {
        Param::Int {
            name: name.into(),
            min,
            max,
            step,
        }
    }

    /// Create a real parameter.
    pub fn real(name: impl Into<String>, min: f64, max: f64) -> Self {
        Param::Real {
            name: name.into(),
            min,
            max,
        }
    }

    /// Create a categorical parameter from anything yielding label strings.
    pub fn enumeration<I, S>(name: impl Into<String>, choices: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Param::Enum {
            name: name.into(),
            choices: choices.into_iter().map(Into::into).collect(),
        }
    }

    /// The parameter's name.
    pub fn name(&self) -> &str {
        match self {
            Param::Int { name, .. } | Param::Real { name, .. } | Param::Enum { name, .. } => name,
        }
    }

    /// Validate the declaration (non-empty domain, positive step, …).
    pub fn validate(&self) -> Result<()> {
        let invalid = |reason: &str| {
            Err(HarmonyError::InvalidParam {
                name: self.name().to_string(),
                reason: reason.to_string(),
            })
        };
        match self {
            Param::Int { min, max, step, .. } => {
                if min > max {
                    return invalid("min > max");
                }
                if *step < 1 {
                    return invalid("step must be >= 1");
                }
                Ok(())
            }
            Param::Real { min, max, .. } => {
                if !(min.is_finite() && max.is_finite()) {
                    return invalid("bounds must be finite");
                }
                if min > max {
                    return invalid("min > max");
                }
                Ok(())
            }
            Param::Enum { choices, .. } => {
                if choices.is_empty() {
                    return invalid("enum needs at least one choice");
                }
                Ok(())
            }
        }
    }

    /// Number of lattice points along this dimension (`None` for continuous
    /// real parameters).
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            Param::Int { min, max, step, .. } => Some(((max - min) / step + 1) as u64),
            Param::Real { .. } => None,
            Param::Enum { choices, .. } => Some(choices.len() as u64),
        }
    }

    /// Lower bound of the continuous embedding of this dimension.
    pub fn embed_min(&self) -> f64 {
        match self {
            Param::Int { min, .. } => *min as f64,
            Param::Real { min, .. } => *min,
            Param::Enum { .. } => 0.0,
        }
    }

    /// Upper bound of the continuous embedding of this dimension.
    pub fn embed_max(&self) -> f64 {
        match self {
            Param::Int { max, .. } => *max as f64,
            Param::Real { max, .. } => *max,
            Param::Enum { choices, .. } => (choices.len() - 1) as f64,
        }
    }

    /// Up to `n` evenly spaced embedded coordinates from one end of this
    /// dimension to the other — never more than it has lattice points, and
    /// its midpoint alone when that leaves a single one. What a grid plans
    /// per dimension and a coordinate sweep probes.
    pub(crate) fn levels(&self, n: usize) -> Vec<f64> {
        let (lo, hi) = (self.embed_min(), self.embed_max());
        let n = match self.cardinality() {
            Some(c) => n.min(c as usize),
            None => n,
        }
        .max(1);
        if n == 1 {
            return vec![0.5 * (lo + hi)];
        }
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect()
    }

    /// Project an arbitrary real coordinate to the nearest valid value on
    /// this dimension (paper §II: the simplex evaluates "the nearest integer
    /// point in the space").
    pub fn project(&self, coord: f64) -> ParamValue {
        match self {
            Param::Int { min, max, step, .. } => {
                let clamped = coord.clamp(*min as f64, *max as f64);
                let k = ((clamped - *min as f64) / *step as f64).round() as i64;
                let v = (min + k * step).clamp(*min, *max);
                // Snap down onto the lattice if max is not itself on it.
                let v = if (v - min) % step == 0 {
                    v
                } else {
                    min + ((v - min) / step) * step
                };
                ParamValue::Int(v)
            }
            Param::Real { min, max, .. } => ParamValue::Real(coord.clamp(*min, *max)),
            Param::Enum { choices, .. } => {
                let idx = choice_index(choices, coord);
                ParamValue::Enum {
                    index: idx,
                    label: choices[idx].clone(),
                }
            }
        }
    }

    /// The [cache key](ParamValue::cache_key) of
    /// [`project(coord)`](Self::project), without the value: an enum's
    /// choice index, not its label cloned.
    pub(crate) fn project_key(&self, coord: f64) -> i64 {
        match self {
            Param::Enum { choices, .. } => choice_index(choices, coord) as i64,
            Param::Int { .. } | Param::Real { .. } => self.project(coord).cache_key(),
        }
    }

    /// Embed a valid value back into its real coordinate.
    ///
    /// Returns an error if the value's type does not match the parameter.
    pub fn embed(&self, value: &ParamValue) -> Result<f64> {
        let mismatch = |expected: String| HarmonyError::TypeMismatch {
            name: self.name().to_string(),
            expected,
        };
        match (self, value) {
            (Param::Int { min, max, .. }, ParamValue::Int(v)) => {
                if v < min || v > max {
                    Err(mismatch(format!("int in [{min}, {max}]")))
                } else {
                    Ok(*v as f64)
                }
            }
            (Param::Real { min, max, .. }, ParamValue::Real(v)) => {
                if v < min || v > max {
                    Err(mismatch(format!("real in [{min}, {max}]")))
                } else {
                    Ok(*v)
                }
            }
            (Param::Enum { choices, .. }, ParamValue::Enum { index, .. }) => {
                if *index >= choices.len() {
                    Err(mismatch(format!("enum index < {}", choices.len())))
                } else {
                    Ok(*index as f64)
                }
            }
            _ => Err(mismatch("matching value variant".to_string())),
        }
    }

    /// A value by label (enums) or parse (ints/reals); convenience for tests
    /// and configuration files.
    pub(crate) fn value_from_str(&self, s: &str) -> Result<ParamValue> {
        let mismatch = |expected: String| HarmonyError::TypeMismatch {
            name: self.name().to_string(),
            expected,
        };
        match self {
            Param::Int { .. } => s
                .parse::<i64>()
                .map(ParamValue::Int)
                .map_err(|_| mismatch("integer literal".into())),
            Param::Real { .. } => s
                .parse::<f64>()
                .map(ParamValue::Real)
                .map_err(|_| mismatch("real literal".into())),
            Param::Enum { choices, .. } => choices
                .iter()
                .position(|c| c == s)
                .map(|index| ParamValue::Enum {
                    index,
                    label: s.to_string(),
                })
                .ok_or_else(|| mismatch(format!("one of {choices:?}"))),
        }
    }
}

/// The choice nearest `coord`, an enum's embedded coordinate.
fn choice_index(choices: &[String], coord: f64) -> usize {
    coord.round().clamp(0.0, (choices.len() - 1) as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_projection_snaps_to_lattice() {
        let p = Param::int("b", 10, 50, 10);
        assert_eq!(p.project(26.0), ParamValue::Int(30));
        assert_eq!(p.project(24.9), ParamValue::Int(20));
        assert_eq!(p.project(-5.0), ParamValue::Int(10));
        assert_eq!(p.project(99.0), ParamValue::Int(50));
    }

    #[test]
    fn int_projection_with_non_dividing_max() {
        // max=47 is not on the lattice {10,20,30,40}; never exceed it.
        let p = Param::int("b", 10, 47, 10);
        assert_eq!(p.project(47.0), ParamValue::Int(40));
        assert_eq!(p.project(1000.0), ParamValue::Int(40));
    }

    #[test]
    fn enum_projection_rounds_to_choice() {
        let p = Param::enumeration("c", ["anis", "del2"]);
        assert_eq!(p.project(0.4).as_enum(), Some("anis"));
        assert_eq!(p.project(0.6).as_enum(), Some("del2"));
        assert_eq!(p.project(9.0).as_enum(), Some("del2"));
        assert_eq!(p.project(-9.0).as_enum(), Some("anis"));
    }

    #[test]
    fn real_projection_clamps() {
        let p = Param::real("tol", 0.0, 1.0);
        assert_eq!(p.project(0.5), ParamValue::Real(0.5));
        assert_eq!(p.project(2.0), ParamValue::Real(1.0));
    }

    #[test]
    fn cardinality_counts_lattice_points() {
        assert_eq!(Param::int("b", 0, 9, 1).cardinality(), Some(10));
        assert_eq!(Param::int("b", 0, 9, 3).cardinality(), Some(4));
        assert_eq!(
            Param::enumeration("c", ["a", "b", "c"]).cardinality(),
            Some(3)
        );
        assert_eq!(Param::real("r", 0.0, 1.0).cardinality(), None);
    }

    #[test]
    fn validation_rejects_bad_domains() {
        assert!(Param::int("b", 5, 1, 1).validate().is_err());
        assert!(Param::int("b", 1, 5, 0).validate().is_err());
        assert!(Param::real("r", 1.0, 0.0).validate().is_err());
        assert!(Param::real("r", f64::NAN, 1.0).validate().is_err());
        assert!(Param::enumeration("c", Vec::<String>::new())
            .validate()
            .is_err());
        assert!(Param::int("b", 1, 5, 2).validate().is_ok());
    }

    #[test]
    fn embed_rejects_out_of_domain_values() {
        let p = Param::int("b", 0, 10, 1);
        assert!(p.embed(&ParamValue::Int(11)).is_err());
        assert!(p.embed(&ParamValue::Real(1.0)).is_err());
        assert_eq!(p.embed(&ParamValue::Int(7)).unwrap(), 7.0);
    }

    #[test]
    fn value_from_str_parses_by_type() {
        let e = Param::enumeration("c", ["nearest", "4point"]);
        assert_eq!(e.value_from_str("4point").unwrap().as_enum_index(), Some(1));
        assert!(e.value_from_str("linear").is_err());
        let i = Param::int("n", 0, 100, 1);
        assert_eq!(i.value_from_str("42").unwrap(), ParamValue::Int(42));
    }

    #[test]
    fn embed_project_roundtrip_on_lattice() {
        let p = Param::int("b", -4, 20, 3);
        for k in 0..p.cardinality().unwrap() {
            let v = ParamValue::Int(-4 + 3 * k as i64);
            let coord = p.embed(&v).unwrap();
            assert_eq!(p.project(coord), v);
        }
    }
}
