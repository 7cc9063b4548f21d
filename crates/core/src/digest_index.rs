//! One flat index from a key's 64-bit digest to positions in a table kept
//! elsewhere: the session's memo and the performance store both find their
//! keys through it.
//!
//! The table owner keeps its keys laid out flat (values back to back in one
//! `Vec<i64>`, for instance) and numbers its entries from 0. The index maps
//! a digest to the newest position indexed under it, and chains each
//! position to the next older one with the same digest. A digest only
//! narrows the search: [`find`](DigestIndex::find) hands each position on
//! the chain to the owner, which compares the stored key with the probe, so
//! a collision costs one more compare and never a wrong answer.
//!
//! The digest is a multiply–xorshift mix seeded once per process: keys that
//! come from outside (a peer's store records) cannot be chosen to collide
//! without the seed. Nothing iterates the index, so the seed moves no
//! result.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// End of a chain, and the link of a position indexed under no digest.
const NO_SLOT: u32 = u32::MAX;

/// Digest → newest position, plus one chain link per position.
#[derive(Clone)]
pub(crate) struct DigestIndex {
    /// Digest → newest position indexed under it.
    heads: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// Position `i`'s next older position with the same digest, or
    /// `NO_SLOT`.
    next: Vec<u32>,
    seed: u64,
    /// Applied to every digest: all ones, or zero for the tests that make
    /// every key collide.
    mask: u64,
}

impl DigestIndex {
    pub(crate) fn new() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().build_hasher().finish());
        Self::with_mask(seed, u64::MAX)
    }

    /// An index under which every key has the same digest: each lookup
    /// walks the whole chain, for tests that the owner's compare, not the
    /// digest, decides every answer.
    #[cfg(test)]
    pub(crate) fn colliding() -> Self {
        Self::with_mask(0, 0)
    }

    fn with_mask(seed: u64, mask: u64) -> Self {
        DigestIndex {
            heads: HashMap::default(),
            next: Vec::new(),
            seed,
            mask,
        }
    }

    /// An empty index with this one's digest.
    pub(crate) fn emptied(&self) -> Self {
        Self::with_mask(self.seed, self.mask)
    }

    /// The digest of a key's values.
    #[inline]
    pub(crate) fn digest(&self, values: impl IntoIterator<Item = i64>) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut h = self.seed;
        for v in values {
            h = (h ^ v as u64).wrapping_mul(K);
            h ^= h >> 32;
        }
        h & self.mask
    }

    /// The first position under `digest`, newest first, that `holds`
    /// accepts.
    #[inline]
    pub(crate) fn find(&self, digest: u64, mut holds: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut slot = *self.heads.get(&digest)?;
        while slot != NO_SLOT {
            let pos = slot as usize;
            if holds(pos) {
                return Some(pos);
            }
            slot = self.next[pos];
        }
        None
    }

    /// Number the next position: under `digest`, where `find` meets it
    /// before every older one, or under none (`None`), where `find` never
    /// meets it.
    pub(crate) fn push(&mut self, digest: Option<u64>) {
        let slot = u32::try_from(self.next.len())
            .ok()
            .filter(|&slot| slot != NO_SLOT)
            .expect("an index holds fewer than 2^32 - 1 positions");
        let older = digest.and_then(|digest| self.heads.insert(digest, slot));
        self.next.push(older.unwrap_or(NO_SLOT));
    }

    /// Forget the newest position, which was pushed under `digest`.
    pub(crate) fn pop(&mut self, digest: Option<u64>) {
        let older = self.next.pop().expect("a position to forget");
        match (digest, older) {
            (Some(digest), NO_SLOT) => _ = self.heads.remove(&digest),
            (Some(digest), older) => _ = self.heads.insert(digest, older),
            (None, _) => {}
        }
    }

    /// Give back the spare capacity of the chain links.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.next.shrink_to_fit();
    }
}

/// Hands a `u64` digest to the index's map as its hash: the digest is
/// already mixed.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index's map hashes only u64 digests")
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}
