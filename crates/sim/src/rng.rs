//! Deterministic randomness for reproducible experiments.
//!
//! All stochastic behaviour in the testbed — CSMA persistence draws,
//! workload inter-arrival jitter, bit-error injection — flows through a
//! [`SimRng`] seeded once per run, so the same seed always produces the
//! same packet-level schedule.
//!
//! The generator is a self-contained xoshiro256++ core seeded through
//! SplitMix64, so the simulator carries no external RNG dependency and the
//! byte-for-byte schedule of a run is pinned by this file alone.

/// A seeded random-number generator (xoshiro256++ core, SplitMix64 seeding).
///
/// The wrapper pins down the handful of draw shapes the simulator uses and
/// keeps any RNG implementation detail out of the other crates.
///
/// # Examples
///
/// ```
/// use sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.below(1000), b.below(1000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Raw 64-bit draw: one xoshiro256++ step.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator; useful for giving each
    /// station its own stream while preserving run-level determinism.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform draw in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire-style rejection to keep the draw unbiased for all bounds.
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform draw in `[0.0, 1.0)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 high bits give the full double-precision mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed draw with the given mean, for Poisson
    /// inter-arrival workloads.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        let u = self.unit();
        // Guard against ln(0).
        -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        let i = self.below(items.len() as u64) as usize;
        &items[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let va: Vec<u64> = (0..16).map(|_| a.below(u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.below(u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut r = SimRng::seed_from(4);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut r = SimRng::seed_from(12);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = SimRng::seed_from(6);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.25, "mean = {mean}");
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.below(100), fb.below(100));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from(10);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pick_returns_member() {
        let mut r = SimRng::seed_from(11);
        let items = [1, 2, 3];
        for _ in 0..20 {
            assert!(items.contains(r.pick(&items)));
        }
    }

    #[test]
    fn below_small_bounds_cover_all_values() {
        let mut r = SimRng::seed_from(13);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
