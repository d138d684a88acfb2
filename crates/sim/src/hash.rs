//! The one hasher every hash table in the workspace uses.
//!
//! [`FxHasher`] is the multiply-rotate function of rustc-hash v1: each
//! word is folded in as `hash = (hash.rotl(5) ^ word) · K`. It has fixed
//! constants, so no run depends on `RandomState`'s per-process keys, and
//! it costs a rotate, a xor and a multiply per word where SipHash-1-3
//! runs a dozen rounds.
//!
//! It is not collision-resistant: keys an adversary picks can pile into
//! one bucket. The tables that use it are keyed by ids that reach them
//! only after a signature check or an authorised admin op, or by ids the
//! program assigns itself.
//!
//! # Examples
//!
//! ```
//! use wanacl_sim::hash::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// rustc-hash v1's multiplier (its 64-bit `SEED`).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The multiply-rotate hasher of rustc-hash v1, with 64-bit words.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        for &byte in words.remainder() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; every one starts from the same zero state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` on [`FxHasher`]. Build one with `default()` or
/// `with_capacity_and_hasher(n, Default::default())`.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` on [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    /// The bucket a key lands in when the table has `2^16` buckets: std's
    /// table indexes by the hash's low bits.
    fn bucket<T: std::hash::Hash>(key: T) -> u64 {
        FxBuildHasher::default().hash_one(key) & 0xffff
    }

    #[test]
    fn dense_ids_fill_distinct_buckets() {
        // User ids are dense, so a table of 2^16 users must not collide:
        // multiplying by an odd constant permutes the low 16 bits.
        let singles: FxHashSet<u64> = (0..1u64 << 16).map(bucket).collect();
        assert_eq!(singles.len(), 1 << 16);
        let pairs: FxHashSet<u64> = (0..1u64 << 16).map(|k| bucket((3u32, k))).collect();
        assert_eq!(pairs.len(), 1 << 16);
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        let a = FxBuildHasher::default().hash_one((1u32, 2u64));
        let b = FxBuildHasher::default().hash_one((1u32, 2u64));
        assert_eq!(a, b);
        assert_ne!(a, FxBuildHasher::default().hash_one((2u32, 1u64)));
    }

    #[test]
    fn byte_slices_fold_words_then_tail() {
        let mut whole = FxHasher::default();
        whole.write(&[1, 0, 0, 0, 0, 0, 0, 0, 9]);
        let mut parts = FxHasher::default();
        parts.write_u64(1);
        parts.write_u8(9);
        assert_eq!(whole.finish(), parts.finish());
    }
}
