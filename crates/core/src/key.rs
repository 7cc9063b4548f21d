//! The lattice key, [`CacheKey`]: a configuration's values as integers,
//! the evaluation cache's key.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Values a key holds without a heap block: the widest space the
/// benchmark tunes (`synth-1e9`) has nine dimensions.
pub(crate) const INLINE: usize = 10;

/// One lattice point's values as integers: the value of an int, the index
/// of an enum's choice and the IEEE-754 bits of a real
/// ([`ParamValue::cache_key`](crate::value::ParamValue::cache_key)), in
/// declaration order ([`Configuration::cache_key`]).
///
/// Up to ten values are held in place, with no heap block; a longer key is
/// one `Vec<i64>`. Either way the key is its values: it derefs to `[i64]`,
/// and compares, orders, hashes, prints and serializes exactly as the
/// `Vec<i64>` of the same values does. The memo and the store, which lay
/// keys out flat, are probed through its slice, and a key written to JSON
/// reads back as either.
///
/// [`Configuration::cache_key`]: crate::space::Configuration::cache_key
#[derive(Clone)]
pub struct CacheKey(Repr);

/// A key of at most [`INLINE`] values is always `Inline`.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, values: [i64; INLINE] },
    Heap(Vec<i64>),
}

impl CacheKey {
    /// The values, in declaration order.
    pub fn as_slice(&self) -> &[i64] {
        match &self.0 {
            Repr::Inline { len, values } => &values[..*len as usize],
            Repr::Heap(values) => values,
        }
    }
}

impl FromIterator<i64> for CacheKey {
    /// In place up to ten values; a longer key moves them to the heap with
    /// the rest.
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut values = [0; INLINE];
        for len in 0..INLINE {
            match iter.next() {
                Some(v) => values[len] = v,
                None => {
                    let len = len as u8;
                    return CacheKey(Repr::Inline { len, values });
                }
            }
        }
        let Some(next) = iter.next() else {
            let len = INLINE as u8;
            return CacheKey(Repr::Inline { len, values });
        };
        let mut heap = Vec::with_capacity(INLINE + 1 + iter.size_hint().0);
        heap.extend_from_slice(&values);
        heap.push(next);
        heap.extend(iter);
        CacheKey(Repr::Heap(heap))
    }
}

impl From<&[i64]> for CacheKey {
    fn from(values: &[i64]) -> Self {
        values.iter().copied().collect()
    }
}

impl From<Vec<i64>> for CacheKey {
    fn from(values: Vec<i64>) -> Self {
        if values.len() <= INLINE {
            CacheKey::from(&values[..])
        } else {
            CacheKey(Repr::Heap(values))
        }
    }
}

impl Deref for CacheKey {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        self.as_slice()
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for CacheKey {}

impl PartialEq<[i64]> for CacheKey {
    fn eq(&self, other: &[i64]) -> bool {
        self.as_slice() == other
    }
}

impl PartialOrd for CacheKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CacheKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// The slice's hash, which is also the `Vec<i64>`'s.
impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl Serialize for CacheKey {
    fn serialize<S: serde::ser::Sink>(&self, sink: &mut S) {
        self.as_slice().serialize(sink);
    }
}

impl Deserialize for CacheKey {
    fn deserialize(reader: &mut serde::de::Reader<'_>) -> Result<Self, serde::Error> {
        Vec::<i64>::deserialize(reader).map(CacheKey::from)
    }
}

impl IntoIterator for CacheKey {
    type Item = i64;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter { key: self, next: 0 }
    }
}

/// A [`CacheKey`]'s values by value, in order.
#[derive(Debug, Clone)]
pub struct IntoIter {
    key: CacheKey,
    next: usize,
}

impl Iterator for IntoIter {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        let v = *self.key.get(self.next)?;
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.key.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for IntoIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    fn allocator_calls(f: impl FnOnce()) -> usize {
        let before = crate::counting::calls();
        f();
        crate::counting::calls() - before
    }

    #[test]
    fn a_key_up_to_the_inline_capacity_makes_no_allocator_call() {
        for len in 0..=INLINE {
            let calls = allocator_calls(|| {
                let key: CacheKey = (0..len as i64).collect();
                assert_eq!(key.len(), len);
                let copy = key.clone();
                assert_eq!(copy.into_iter().sum::<i64>(), key.iter().sum::<i64>());
            });
            assert_eq!(calls, 0, "a key of {len} values");
        }
        let long: CacheKey = (0..INLINE as i64 + 1).collect();
        assert_eq!(long.len(), INLINE + 1);
        assert!(matches!(long.0, Repr::Heap(_)));
        assert!(matches!(
            CacheKey::from(vec![1; INLINE]).0,
            Repr::Inline { .. }
        ));
    }

    /// Random keys, half of them past the inline capacity, with small
    /// values so that equal keys and shared prefixes come up.
    fn keys() -> impl Strategy<Value = Vec<i64>> {
        proptest::collection::vec(-3i64..3, 0..2 * INLINE + 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A key is the `Vec<i64>` of its values under `==`, `Ord`, `Hash`
        /// (the same hasher's digest), JSON both ways and `Debug`, and
        /// gives its values back by `into_iter` and `to_vec`.
        #[test]
        fn a_cache_key_behaves_as_the_vec_of_its_values(a in keys(), b in keys(), wide in i64::MIN..i64::MAX) {
            let mut a = a;
            if let Some(first) = a.first_mut() {
                *first = wide;
            }
            let (ka, kb) = (CacheKey::from(&a[..]), a.iter().copied().collect::<CacheKey>());
            prop_assert_eq!(&ka, &kb);
            let kb2 = CacheKey::from(b.clone());
            prop_assert_eq!(ka == kb2, a == b);
            prop_assert_eq!(ka.cmp(&kb2), a.cmp(&b));
            prop_assert_eq!(ka.partial_cmp(&kb2), a.partial_cmp(&b));
            prop_assert_eq!(digest(&ka), digest(&a));
            prop_assert_eq!(digest(&kb2), digest(&b));
            let json = serde_json::to_string(&ka).unwrap();
            prop_assert_eq!(&json, &serde_json::to_string(&a).unwrap());
            prop_assert_eq!(serde_json::from_str::<CacheKey>(&json).unwrap(), ka.clone());
            prop_assert_eq!(format!("{ka:?}"), format!("{a:?}"));
            prop_assert_eq!(format!("{ka:#?}"), format!("{a:#?}"));
            prop_assert_eq!(ka.to_vec(), a.clone());
            prop_assert_eq!(ka.clone().into_iter().len(), a.len());
            prop_assert_eq!(ka.clone().into_iter().collect::<Vec<i64>>(), a.clone());
        }
    }
}
