//! The per-destination next-hop cache: one direct-mapped probe that
//! memoizes the *entire* forwarding decision.
//!
//! Even with the compiled LPM (see [`crate::lpm`]), every packet through
//! `send_ip` still pays a tunnel-map consultation plus a trie walk. The
//! paper's gateway forwards long flows to a handful of destinations, so
//! the full decision — matched prefix, egress interface, next hop, and
//! the IPIP tunnel endpoint the encap table would pick — is memoized
//! here keyed on the destination address.
//!
//! Invalidation is O(1) and total: every slot stamps the route-table and
//! tunnel-map generation counters it was filled under, and a probe only
//! hits when *both* stamps still match. A route add/remove/expiry or a
//! tunnel learn/expire bumps its counter and thereby kills every cached
//! decision at once, with no sweep. Stamps are compared for equality, so
//! counter wraparound is harmless. Negative decisions (no route) are
//! cached too — a flood at an unreachable destination must not degrade
//! into a per-packet table walk.
//!
//! Two decision kinds share the cache without aliasing:
//! [`FwdKind::Routed`] memoizes a bare route lookup (the TCP/UDP
//! source-selection sites, and `send_ip` for local or already-IPIP
//! traffic, where the tunnel map is never consulted), while
//! [`FwdKind::Full`] memoizes tunnel consultation + route lookup. The
//! cache is off at `bits == 0` — the default: a city world holds ~10⁵
//! host stacks that would otherwise each carry slots — and experiments
//! that enable it (E18) get the differential guarantee that a cached
//! stack is observationally identical to an uncached twin.
//!
//! The table is paged: [`PAGE`] slots at a time, a page allocated by the
//! first `store` that lands in it. A gateway that forwards to a handful
//! of destinations pays for a handful of pages, not for `2^bits` empty
//! slots written at construction; a probe of a page nobody stored into is
//! the miss an empty slot gives.

use std::net::Ipv4Addr;

use crate::route::Prefix;
use crate::stack::IfaceId;

/// Which decision a slot memoizes (doubles as the occupancy tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdKind {
    /// Bare route lookup; the tunnel map was not consulted.
    Routed = 1,
    /// Tunnel consultation then route lookup on the (possibly wrapped)
    /// destination.
    Full = 2,
}

/// A memoized forwarding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdDecision {
    /// The table had nothing for this destination (negative cache). The
    /// tunnel endpoint the encap table had claimed, if any, is kept so a
    /// replay reproduces the uncached path's wrap accounting exactly
    /// (the original wraps first and only then discovers there is no
    /// route to the endpoint).
    NoRoute {
        /// Endpoint the encap table returned before routing failed.
        encap: Option<Ipv4Addr>,
    },
    /// Deliverable.
    Via {
        /// The prefix that won longest-prefix match (of the tunnel
        /// endpoint when `encap` is set).
        prefix: Prefix,
        /// Egress interface.
        iface: IfaceId,
        /// Link-layer resolution target.
        hop: Ipv4Addr,
        /// IPIP tunnel endpoint to wrap toward, if the encap table
        /// claimed the destination.
        encap: Option<Ipv4Addr>,
    },
}

impl FwdDecision {
    /// The tunnel endpoint embedded in the decision, if any.
    #[inline]
    pub fn encap(&self) -> Option<Ipv4Addr> {
        match *self {
            FwdDecision::NoRoute { encap } | FwdDecision::Via { encap, .. } => encap,
        }
    }
}

/// A probe's outcome. `Stale` is a miss whose slot held this key under
/// an old generation — surfaced separately so the invalidation counter
/// can tell churn from cold slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdProbe {
    /// Valid decision.
    Hit(FwdDecision),
    /// Key present but a generation stamp changed.
    Stale,
    /// Slot empty or holding another key.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    dst: u32,
    kind: Option<FwdKind>,
    route_gen: u64,
    tunnel_gen: u64,
    decision: FwdDecision,
}

const EMPTY: Slot = Slot {
    dst: 0,
    kind: None,
    route_gen: 0,
    tunnel_gen: 0,
    decision: FwdDecision::NoRoute { encap: None },
};

/// Multiplicative hash seed (same constant as the filter decision
/// cache / FxHash).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Slots per page.
const PAGE: usize = 64;

/// The direct-mapped cache. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct FwdCache {
    /// `2^bits` slots in pages of [`PAGE`]; `None` until stored into.
    pages: Vec<Option<Box<[Slot; PAGE]>>>,
    bits: u8,
}

impl FwdCache {
    /// `2^bits` slots; `bits == 0` disables the cache entirely.
    pub fn new(bits: u8) -> FwdCache {
        let bits = bits.min(24);
        FwdCache {
            pages: if bits == 0 {
                Vec::new()
            } else {
                vec![None; (1usize << bits).div_ceil(PAGE)]
            },
            bits,
        }
    }

    /// False when constructed with `bits == 0`.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.bits != 0
    }

    #[inline]
    fn index(&self, dst: u32, kind: FwdKind) -> usize {
        let key = u64::from(dst) | (kind as u64) << 32;
        (key.wrapping_mul(SEED) >> (64 - self.bits)) as usize
    }

    /// Looks up the decision for `(dst, kind)` filled under exactly
    /// (`route_gen`, `tunnel_gen`).
    #[inline]
    pub fn probe(&self, dst: Ipv4Addr, kind: FwdKind, route_gen: u64, tunnel_gen: u64) -> FwdProbe {
        if self.bits == 0 {
            return FwdProbe::Miss;
        }
        let dst = u32::from(dst);
        let at = self.index(dst, kind);
        let Some(page) = &self.pages[at / PAGE] else {
            return FwdProbe::Miss;
        };
        let s = &page[at % PAGE];
        if s.kind != Some(kind) || s.dst != dst {
            return FwdProbe::Miss;
        }
        if s.route_gen != route_gen || s.tunnel_gen != tunnel_gen {
            return FwdProbe::Stale;
        }
        FwdProbe::Hit(s.decision)
    }

    /// Installs (or overwrites) the slot for `(dst, kind)`.
    #[inline]
    pub fn store(
        &mut self,
        dst: Ipv4Addr,
        kind: FwdKind,
        route_gen: u64,
        tunnel_gen: u64,
        decision: FwdDecision,
    ) {
        if self.bits == 0 {
            return;
        }
        let dst = u32::from(dst);
        let at = self.index(dst, kind);
        let page = self.pages[at / PAGE].get_or_insert_with(|| Box::new([EMPTY; PAGE]));
        page[at % PAGE] = Slot {
            dst,
            kind: Some(kind),
            route_gen,
            tunnel_gen,
            decision,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_appear_where_stores_land_and_nowhere_else() {
        for bits in [1u8, 4, 6, 7, 12] {
            let mut c = FwdCache::new(bits);
            assert_eq!(c.pages.len(), (1usize << bits).div_ceil(PAGE));
            assert!(c.pages.iter().all(Option::is_none), "nothing up front");
            // Every destination misses on an untouched table...
            let dsts: Vec<Ipv4Addr> = (0..200u32)
                .map(|i| Ipv4Addr::from(0x2C18_0000 + i * 7919))
                .collect();
            for &d in &dsts {
                assert_eq!(c.probe(d, FwdKind::Full, 1, 1), FwdProbe::Miss);
            }
            // ...and after a store hits, whichever page it fell in.
            for (i, &d) in dsts.iter().enumerate() {
                c.store(d, FwdKind::Full, 1, 1, dec(i));
                assert_eq!(c.probe(d, FwdKind::Full, 1, 1), FwdProbe::Hit(dec(i)));
            }
            let live = c.pages.iter().flatten().count();
            assert!(live >= 1 && live <= c.pages.len());
        }
        // One store, one page.
        let mut c = FwdCache::new(12);
        c.store(Ipv4Addr::new(44, 24, 0, 5), FwdKind::Routed, 0, 0, dec(1));
        assert_eq!(c.pages.iter().flatten().count(), 1);
    }

    fn dec(iface: usize) -> FwdDecision {
        FwdDecision::Via {
            prefix: Prefix::amprnet(),
            iface: IfaceId::new(iface),
            hop: Ipv4Addr::new(44, 1, 1, 1),
            encap: None,
        }
    }

    #[test]
    fn hit_requires_both_generations() {
        let mut c = FwdCache::new(4);
        let dst = Ipv4Addr::new(44, 24, 0, 5);
        c.store(dst, FwdKind::Full, 7, 3, dec(1));
        assert_eq!(c.probe(dst, FwdKind::Full, 7, 3), FwdProbe::Hit(dec(1)));
        assert_eq!(c.probe(dst, FwdKind::Full, 8, 3), FwdProbe::Stale);
        assert_eq!(c.probe(dst, FwdKind::Full, 7, 4), FwdProbe::Stale);
        assert_eq!(c.probe(dst, FwdKind::Routed, 7, 3), FwdProbe::Miss);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = FwdCache::new(0);
        let dst = Ipv4Addr::new(44, 24, 0, 5);
        c.store(dst, FwdKind::Routed, 1, 0, dec(0));
        assert_eq!(c.probe(dst, FwdKind::Routed, 1, 0), FwdProbe::Miss);
    }

    #[test]
    fn generation_stamps_compare_for_equality_across_wrap() {
        let mut c = FwdCache::new(4);
        let dst = Ipv4Addr::new(44, 24, 0, 5);
        c.store(dst, FwdKind::Routed, u64::MAX, 0, dec(1));
        assert_eq!(
            c.probe(dst, FwdKind::Routed, u64::MAX, 0),
            FwdProbe::Hit(dec(1))
        );
        // The table wraps MAX → 0: the stamp mismatches, never "less than".
        assert_eq!(c.probe(dst, FwdKind::Routed, 0, 0), FwdProbe::Stale);
        c.store(dst, FwdKind::Routed, 0, 0, dec(2));
        assert_eq!(c.probe(dst, FwdKind::Routed, 0, 0), FwdProbe::Hit(dec(2)));
    }
}
