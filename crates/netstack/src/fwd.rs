//! What is left of the per-destination next-hop cache: the names the
//! benchmark harness's `netstack.fwd` probe still builds against
//! (ROADMAP item 2(a) deletes the probe, and this module with it).
//!
//! No stack uses it. `NetStack::send_ip` makes one fresh routing decision
//! per packet (DESIGN.md §14), so `StackStats::fwd_cache_hits` is always 0
//! and the harness skips the probe. What remains is one memoized decision,
//! stamped with the two generations it was stored under.

use std::net::Ipv4Addr;

use crate::route::Prefix;
use crate::stack::IfaceId;

/// Which decision a slot memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdKind {
    /// Tunnel consultation, then route lookup.
    Full,
}

/// A memoized forwarding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdDecision {
    /// Deliverable.
    Via {
        /// The prefix that won longest-prefix match.
        prefix: Prefix,
        /// Egress interface.
        iface: IfaceId,
        /// Link-layer resolution target.
        hop: Ipv4Addr,
        /// IPIP tunnel endpoint, if any.
        encap: Option<Ipv4Addr>,
    },
}

/// One memoized decision. See the [module docs](self).
#[derive(Debug, Default)]
pub struct FwdCache {
    slot: Option<(Ipv4Addr, FwdKind, u64, u64, FwdDecision)>,
}

impl FwdCache {
    /// An empty cache; the size argument is ignored.
    pub fn new(_bits: u8) -> FwdCache {
        FwdCache::default()
    }

    /// The decision stored for `(dst, kind)` under exactly these
    /// generations, if any.
    pub fn probe(
        &self,
        dst: Ipv4Addr,
        kind: FwdKind,
        route_gen: u64,
        tunnel_gen: u64,
    ) -> Option<FwdDecision> {
        self.slot
            .filter(|&(d, k, r, t, _)| (d, k, r, t) == (dst, kind, route_gen, tunnel_gen))
            .map(|(.., decision)| decision)
    }

    /// Replaces the stored decision.
    pub fn store(
        &mut self,
        dst: Ipv4Addr,
        kind: FwdKind,
        route_gen: u64,
        tunnel_gen: u64,
        decision: FwdDecision,
    ) {
        self.slot = Some((dst, kind, route_gen, tunnel_gen, decision));
    }
}
