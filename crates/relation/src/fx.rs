//! A minimal FNV-1a hasher for the hot relation-name lookups.
//!
//! The top level of the paper's index is "a hash table, using relation
//! names as keys" consulted once per modified tuple (Figure 1). The
//! standard library's SipHash is DoS-resistant but slow for short string
//! keys; an in-process rule index faces no untrusted keys, so FNV-1a is
//! the appropriate trade (see the workspace performance guide). Written
//! out here (~30 lines) rather than pulling in a crate.
//!
//! [`FxHasher`] is the word-at-a-time alternative: one multiply per
//! integer written, where FNV-1a takes one per byte. Only the join
//! memo's own tables use it (its row map, key stores and memo map);
//! switching every crate over read `match_stab` slower
//! (EXPERIMENTS.md "Join memo layer").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `HashMap` keyed with FNV-1a.
pub type FnvHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// `HashSet` keyed with FNV-1a.
pub type FnvHashSet<K> = HashSet<K, BuildHasherDefault<FnvHasher>>;

/// A multiplicative hasher in the manner of rustc's `FxHasher`: each
/// word written is added to the state, which is then multiplied by an
/// odd constant. A multiply pushes its input's entropy into the high
/// bits, so `finish` rotates them down to where a table's bucket index
/// reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

/// The multiplier (rustc-hash 2's).
const FX_K: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(FX_K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(w);
            self.add(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length tells "ab" from "ab\0".
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fx_tells_words_apart() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b"customers"), hash(b"orders"));
        let int = |i: u64| {
            let mut h = FxHasher::default();
            h.write_u64(i);
            h.finish()
        };
        // Keys a multiple of a power of two apart still spread over
        // the low bits a table indexes by.
        let low: std::collections::HashSet<u64> = (0..64).map(|i| int(i << 12) & 63).collect();
        assert!(low.len() > 32, "{} distinct low bit patterns", low.len());
    }

    #[test]
    fn map_works() {
        let mut m: FnvHashMap<String, i32> = FnvHashMap::default();
        m.insert("emp".into(), 1);
        m.insert("dept".into(), 2);
        assert_eq!(m["emp"], 1);
        assert_eq!(m.get("nope"), None);
    }
}
