//! The simulator's two deterministic hashes: [`FxHasher`] for its
//! internal maps and [`Fnv1a`] for digests that are pinned or printed.
//!
//! Per-packet tables (the filter's gate table) do a map operation per
//! simulated packet; the standard library's SipHash (and its per-process
//! random seed) would dominate that cost. This is the Firefox/rustc
//! multiply-fold hash: one wrapping multiply per word, no seed — so maps
//! hash identically across runs, which suits a simulator whose whole
//! contract is reproducibility. Keys here are small integers and enums,
//! never attacker-controlled, so HashDoS resistance is not needed.
//!
//! Fx's output is free to change with the word size; a digest that a test
//! pins, an experiment prints into `results/` or two engines are compared
//! by must not be, so those are all 64-bit FNV-1a over a byte rendering,
//! and this is the only copy of it.

use std::fmt;
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

/// A 64-bit FNV-1a accumulator. It is a [`fmt::Write`], so a log can be
/// digested line by line with `writeln!` and never exists as a `String`.
///
/// # Examples
///
/// ```
/// use std::fmt::Write;
///
/// let mut d = sim::Fnv1a::new();
/// write!(d, "foo{}", "bar").unwrap();
/// assert_eq!(d.finish(), sim::fnv1a(b"foobar"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty digest (the FNV offset basis).
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut d = Fnv1a::new();
    d.write(bytes);
    d.finish()
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
