//! A fast, deterministic hasher for the simulator's internal maps.
//!
//! Per-packet tables (the filter's gate table) do a map operation per
//! simulated packet; the standard library's SipHash (and its per-process
//! random seed) would dominate that cost. This is the Firefox/rustc
//! multiply-fold hash: one wrapping multiply per word, no seed — so maps
//! hash identically across runs, which suits a simulator whose whole
//! contract is reproducibility. Keys here are small integers and enums,
//! never attacker-controlled, so HashDoS resistance is not needed.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-fold hasher over native words (the rustc/Firefox "Fx" hash).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
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
            self.add(u64::from_le_bytes(buf));
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
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(7, 1);
        m.insert(9, 2);
        assert_eq!(m.get(&7), Some(&1));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
    }
}
