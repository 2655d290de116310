//! A fast, non-cryptographic hasher for maps keyed by interner ids.
//!
//! The triple store hashes every inserted triple into four structures
//! (the dedup set and three position indexes), so hashing dominates bulk
//! loads; the curation engine's link bookkeeping (candidate index,
//! provenance, blacklist) is hashed on every link an action adds or a
//! rollback removes. The keys are dense interner ids and small
//! fixed-shape terms — ids the interner assigns, never raw client bytes,
//! so there is no untrusted-key DoS surface worth SipHash's cost — so
//! these maps use this multiply-rotate hasher (the same construction
//! rustc uses for its interned-id tables) instead of the default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher over machine words: each write folds the input
/// into the state with a rotate, xor, and multiply by a large odd
/// constant. Quality is ample for interner-id keys; speed is the point.
#[derive(Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

/// Knuth's 2^64 / φ multiplier; any large odd constant with mixed bits
/// works, this one is conventional.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply mixes into high bits; fold them back down so
        // HashMap's low-bit bucket masking sees the mixed bits.
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "a" and "a\0" can't collide.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
    }

    #[test]
    fn nearby_values_spread() {
        // Dense interner ids are the common key; consecutive ids must not
        // collide in the low bits HashMap buckets by.
        let mut low_bits = FastSet::default();
        for id in 0u32..1024 {
            low_bits.insert(hash_of(&id) & 0xFFF);
        }
        assert!(
            low_bits.len() > 900,
            "only {} distinct buckets",
            low_bits.len()
        );
    }

    #[test]
    fn length_is_part_of_byte_stream_hashes() {
        assert_ne!(hash_of(&[1u8, 0][..]), hash_of(&[1u8, 0, 0][..]));
        assert_ne!(hash_of(&b"a"[..]), hash_of(&b"a\0"[..]));
    }
}
