//! A fast, non-cryptographic hasher for the characterization hot paths.
//!
//! This is the Fx hash function used by rustc (a multiply-rotate-xor mix),
//! reimplemented here because external hashing crates are outside this
//! project's dependency policy. Footprint sets and per-static-instruction
//! maps perform millions of operations per characterized interval; SipHash
//! would dominate the profile.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Mixes a 64-bit value into a well-distributed 64-bit hash
/// (SplitMix64 finalizer). Used for direct-mapped predictor tables.
#[inline]
pub const fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);

        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            s.insert(i % 10);
        }
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn hash_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(12345);
        b.write_u64(12345);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn mix64_spreads_sequential_values() {
        // Consecutive inputs should differ in many bits after mixing.
        let a = mix64(1);
        let b = mix64(2);
        assert!((a ^ b).count_ones() > 16);
        // mix64 is a bijection; distinct inputs give distinct outputs.
        assert_ne!(mix64(3), mix64(4));
    }

    #[test]
    fn write_bytes_covers_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(b"hello world");
        let mut b = FxHasher::default();
        b.write(b"hello worle");
        assert_ne!(a.finish(), b.finish());
    }
}
