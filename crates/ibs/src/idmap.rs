//! The hash behind the tree's side tables.
//!
//! `intervals` and `placements` are keyed by interval ids, which the
//! predicate index hands out as its own slab slots: no key comes from
//! outside the program, so the tables need no DoS-resistant hash, and
//! SipHash would be most of the cost of a mark move (DESIGN.md §5). One
//! multiply by an odd constant is enough: the low bits (the bucket) stay
//! a permutation of the id's low bits, and the top bits (the table's tag
//! byte) mix every bit of it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by a `u32` id, hashed with one multiply.
pub(crate) type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// Fibonacci hashing: `2^64 / φ`, rounded to odd.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(MULTIPLIER);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(MULTIPLIER);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
