//! The per-flow decision cache: the steady-state hot path.
//!
//! Direct-mapped, power-of-two sized, keyed on `(src, dst, proto)` — the
//! same shape as a one-way hardware cache. A lookup is one multiply-fold
//! hash, one slot load, and one wide compare; a hit skips the gate
//! lookup and the full rule walk entirely. Three things bound a cached
//! verdict's validity:
//!
//! * the **generation counter**: any change that could alter any flow's
//!   verdict (rule-table swap, gate entry open/close) bumps it, and a
//!   slot stamped with an older generation simply fails to match — no
//!   sweep, invalidation is O(1);
//! * the **expiry stamp**: a verdict backed by TTL soft state (a §4.3
//!   gate entry) carries that entry's expiry and self-invalidates when
//!   the clock passes it — gate *expiry* therefore needs no generation
//!   bump, only open/close do;
//! * **port-dependence**: walks whose outcome turned on a port are never
//!   inserted (the key has no port), so those flows pay the walk every
//!   time, correctly.
//!
//! Collisions evict silently (last write wins) — the cache is advisory;
//! a miss just walks.

use sim::SimTime;

use crate::rule::{Action, PacketMeta};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One direct-mapped slot. `gen == 0` marks a never-written slot; the
/// engine's generation counter starts at 1.
#[derive(Debug, Clone, Copy)]
struct Slot {
    src: u32,
    dst: u32,
    generation: u32,
    expires: SimTime,
    proto: u8,
    refresh_gate: bool,
    action: Action,
}

const EMPTY: Slot = Slot {
    src: 0,
    dst: 0,
    generation: 0,
    expires: SimTime::ZERO,
    proto: 0,
    refresh_gate: false,
    action: Action::Allow,
};

/// A decision pulled from (or inserted into) the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CachedDecision {
    /// The action the full walk concluded.
    pub action: Action,
    /// True for amateur→foreign flows under an auto-opening gate: the
    /// hit must still refresh the soft-state entry (the paper's "entries
    /// are removed if packets have not been received from the amateur
    /// side" demands every amateur-side packet count).
    pub refresh_gate: bool,
    /// When this verdict stops being trustworthy ([`SimTime::MAX`] for
    /// time-unbounded decisions).
    pub expires: SimTime,
}

/// The direct-mapped cache. `bits == 0` disables caching entirely
/// (every lookup misses), which the differential tests use to pit the
/// cached engine against an uncached twin.
#[derive(Debug)]
pub(crate) struct DecisionCache {
    slots: Box<[Slot]>,
    mask: usize,
}

impl DecisionCache {
    pub(crate) fn new(bits: u8) -> DecisionCache {
        assert!(bits <= 24, "cache of 2^{bits} slots is absurd");
        let n = if bits == 0 { 0 } else { 1usize << bits };
        DecisionCache {
            slots: vec![EMPTY; n].into_boxed_slice(),
            mask: n.wrapping_sub(1),
        }
    }

    #[inline]
    fn index(&self, m: &PacketMeta) -> usize {
        let mut h = ((u64::from(m.src) << 32) | u64::from(m.dst)).wrapping_mul(SEED);
        h = (h.rotate_left(5) ^ u64::from(m.proto)).wrapping_mul(SEED);
        (h >> 32) as usize & self.mask
    }

    /// The one-hash-and-compare fast path.
    #[inline]
    pub(crate) fn lookup(
        &self,
        m: &PacketMeta,
        generation: u32,
        now: SimTime,
    ) -> Option<CachedDecision> {
        if self.slots.is_empty() {
            return None;
        }
        let s = &self.slots[self.index(m)];
        if s.generation == generation
            && s.src == m.src
            && s.dst == m.dst
            && s.proto == m.proto
            && now < s.expires
        {
            Some(CachedDecision {
                action: s.action,
                refresh_gate: s.refresh_gate,
                expires: s.expires,
            })
        } else {
            None
        }
    }

    /// Installs a walk's conclusion (the caller has already checked
    /// cacheability).
    #[inline]
    pub(crate) fn insert(&mut self, m: &PacketMeta, generation: u32, d: CachedDecision) {
        if self.slots.is_empty() {
            return;
        }
        let idx = self.index(m);
        self.slots[idx] = Slot {
            src: m.src,
            dst: m.dst,
            generation,
            expires: d.expires,
            proto: m.proto,
            refresh_gate: d.refresh_gate,
            action: d.action,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(src: u32, dst: u32, proto: u8) -> PacketMeta {
        PacketMeta {
            src,
            dst,
            proto,
            dport: 0,
            has_port: false,
        }
    }

    fn allow_forever() -> CachedDecision {
        CachedDecision {
            action: Action::Allow,
            refresh_gate: false,
            expires: SimTime::MAX,
        }
    }

    #[test]
    fn hit_requires_key_and_generation() {
        let mut c = DecisionCache::new(4);
        let m = meta(1, 2, 6);
        c.insert(&m, 7, allow_forever());
        assert!(c.lookup(&m, 7, SimTime::ZERO).is_some());
        assert!(c.lookup(&m, 8, SimTime::ZERO).is_none(), "stale generation");
        assert!(c.lookup(&meta(1, 2, 17), 7, SimTime::ZERO).is_none());
    }

    #[test]
    fn entries_self_invalidate_at_expiry() {
        let mut c = DecisionCache::new(4);
        let m = meta(3, 4, 17);
        let d = CachedDecision {
            expires: SimTime::from_secs(10),
            ..allow_forever()
        };
        c.insert(&m, 1, d);
        assert!(c.lookup(&m, 1, SimTime::from_secs(9)).is_some());
        assert!(c.lookup(&m, 1, SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn zero_bits_disables() {
        let mut c = DecisionCache::new(0);
        let m = meta(1, 1, 1);
        c.insert(&m, 1, allow_forever());
        assert!(c.lookup(&m, 1, SimTime::ZERO).is_none());
        assert!(c.slots.is_empty());
    }
}
