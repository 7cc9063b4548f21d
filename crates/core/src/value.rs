//! Runtime values for tunable parameters.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The value of one tunable parameter inside a
/// [`Configuration`](crate::space::Configuration).
///
/// The Harmony search algorithm treats every parameter as one dimension of a
/// continuous space; `ParamValue` is the *projected*, valid lattice value the
/// application actually receives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// An integer-valued parameter (e.g. a block size or node count).
    Int(i64),
    /// A real-valued parameter (e.g. a tolerance).
    Real(f64),
    /// A categorical parameter, stored as the index into the declared choice
    /// list together with the choice label for readability.
    Enum {
        /// Index into the parameter's choice list.
        index: usize,
        /// The label of the selected choice.
        label: String,
    },
}

impl ParamValue {
    /// The integer payload, if this is an [`ParamValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The real payload, if this is a [`ParamValue::Real`].
    pub(crate) fn as_real(&self) -> Option<f64> {
        match self {
            ParamValue::Real(v) => Some(*v),
            _ => None,
        }
    }

    /// The selected categorical label, if this is an [`ParamValue::Enum`].
    pub(crate) fn as_enum(&self) -> Option<&str> {
        match self {
            ParamValue::Enum { label, .. } => Some(label),
            _ => None,
        }
    }

    /// The selected categorical index, if this is an [`ParamValue::Enum`].
    pub fn as_enum_index(&self) -> Option<usize> {
        match self {
            ParamValue::Enum { index, .. } => Some(*index),
            _ => None,
        }
    }

    /// A canonical integer key for caching: the value itself for ints, the
    /// index for enums, and the IEEE-754 bit pattern for reals.
    pub fn cache_key(&self) -> i64 {
        match self {
            ParamValue::Int(v) => *v,
            ParamValue::Enum { index, .. } => *index as i64,
            ParamValue::Real(v) => v.to_bits() as i64,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Real(v) => write!(f, "{v:.6}"),
            ParamValue::Enum { label, .. } => write!(f, "{label}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variant() {
        assert_eq!(ParamValue::Int(5).as_int(), Some(5));
        assert_eq!(ParamValue::Int(5).as_real(), None);
        assert_eq!(ParamValue::Real(1.5).as_real(), Some(1.5));
        let e = ParamValue::Enum {
            index: 2,
            label: "del2".into(),
        };
        assert_eq!(e.as_enum(), Some("del2"));
        assert_eq!(e.as_enum_index(), Some(2));
        assert_eq!(e.as_int(), None);
    }

    #[test]
    fn cache_keys_distinguish_values() {
        assert_ne!(
            ParamValue::Int(3).cache_key(),
            ParamValue::Int(4).cache_key()
        );
        assert_ne!(
            ParamValue::Real(0.1).cache_key(),
            ParamValue::Real(0.2).cache_key()
        );
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ParamValue::Int(42).to_string(), "42");
        assert_eq!(
            ParamValue::Enum {
                index: 0,
                label: "anis".into()
            }
            .to_string(),
            "anis"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let v = ParamValue::Enum {
            index: 1,
            label: "grid".into(),
        };
        let s = serde_json::to_string(&v).unwrap();
        let back: ParamValue = serde_json::from_str(&s).unwrap();
        assert_eq!(v, back);
    }
}
