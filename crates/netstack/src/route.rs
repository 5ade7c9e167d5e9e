//! The routing table: longest-prefix match with optional gateways.
//!
//! §4.2 of the paper is a routing story: AMPRnet is one class-A network
//! (44/8), so distant Internet hosts hold a *single* route for all of it
//! and every packet funnels through one gateway, even when a different
//! coast's gateway is far closer. Experiment E4 builds exactly that
//! situation from this table.

use std::fmt;
use std::net::Ipv4Addr;

use crate::lpm::Lpm;
use crate::stack::IfaceId;

/// An IPv4 prefix (address + mask length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    /// Network address (host bits ignored).
    pub addr: Ipv4Addr,
    /// Mask length, 0–32.
    pub len: u8,
}

impl Prefix {
    /// Creates a prefix; host bits in `addr` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length {len} out of range");
        Prefix {
            addr: Ipv4Addr::from(u32::from(addr) & Self::mask(len)),
            len,
        }
    }

    /// The all-zero default prefix.
    pub fn default_route() -> Prefix {
        Prefix::new(Ipv4Addr::UNSPECIFIED, 0)
    }

    /// AMPRnet, the class-A network 44.0.0.0/8 assigned to amateur packet
    /// radio (footnote 7 of the paper).
    pub fn amprnet() -> Prefix {
        Prefix::new(Ipv4Addr::new(44, 0, 0, 0), 8)
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// True if `ip` is inside this prefix.
    #[inline]
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask(self.len) == u32::from(self.addr)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// Where a route came from. Mirrors the static-vs-RIP distinction the
/// AMPRnet gateways needed once subnet routes started arriving over the
/// wire: a learned route may expire and must never silently replace the
/// operator's static configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouteSource {
    /// Installed by configuration; never expires.
    #[default]
    Static,
    /// Learned from a route announcement; expires unless refreshed.
    Learned,
}

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Next-hop gateway; `None` means the destination is on-link.
    pub via: Option<Ipv4Addr>,
    /// Output interface.
    pub iface: IfaceId,
    /// Static configuration or learned announcement.
    pub source: RouteSource,
    /// Preference among equal-length prefixes; lower wins. Prefix length
    /// always dominates (a /24 with a terrible metric still beats a /8).
    pub metric: u8,
}

/// The result of a successful lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHop {
    /// Interface to transmit on.
    pub iface: IfaceId,
    /// The address to resolve at the link layer: the gateway if the route
    /// has one, otherwise the destination itself.
    pub hop: Ipv4Addr,
}

/// A longest-prefix-match routing table.
///
/// # Examples
///
/// ```
/// use netstack::route::{Prefix, RouteTable};
/// use netstack::stack::IfaceId;
/// use std::net::Ipv4Addr;
///
/// let mut rt = RouteTable::new();
/// let ether = IfaceId::new(0);
/// let radio = IfaceId::new(1);
/// rt.add(Prefix::amprnet(), None, radio);
/// rt.add(Prefix::default_route(), Some(Ipv4Addr::new(128, 95, 1, 1)), ether);
/// let hop = rt.lookup(Ipv4Addr::new(44, 24, 0, 5)).unwrap();
/// assert_eq!(hop.iface, radio);
/// assert_eq!(hop.hop, Ipv4Addr::new(44, 24, 0, 5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: Vec<Route>,
    /// Bumped (wrapping) on every mutation. The compiled LPM below stamps
    /// the generation it was built under and compares for equality, so one
    /// counter bump invalidates it in O(1).
    generation: u64,
    /// Lazily compiled longest-prefix-match structure; rebuilt on the
    /// first fast lookup after a mutation (see [`Lpm`]).
    compiled: Lpm,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// Adds (or replaces) the static route for `prefix` with metric 0.
    pub fn add(&mut self, prefix: Prefix, via: Option<Ipv4Addr>, iface: IfaceId) {
        self.insert(Route {
            prefix,
            via,
            iface,
            source: RouteSource::Static,
            metric: 0,
        });
    }

    /// Adds (or replaces) a learned route for `prefix`. Learned routes
    /// never displace a static route for the same prefix: both coexist
    /// and the metric breaks the tie, so expiring the learned route
    /// (see [`remove_learned`](Self::remove_learned)) restores the static
    /// one instead of leaving a hole.
    pub fn add_learned(
        &mut self,
        prefix: Prefix,
        via: Option<Ipv4Addr>,
        iface: IfaceId,
        metric: u8,
    ) {
        self.insert(Route {
            prefix,
            via,
            iface,
            source: RouteSource::Learned,
            metric,
        });
    }

    /// The ordering the table maintains: longest prefix strictly first,
    /// then metric, then static before learned. Prefix length must
    /// dominate the metric — sorting by metric ahead of length would let
    /// a cheap default route shadow every longer prefix.
    fn order_key(r: &Route) -> (std::cmp::Reverse<u8>, u8, bool) {
        (
            std::cmp::Reverse(r.prefix.len),
            r.metric,
            r.source != RouteSource::Static,
        )
    }

    /// Inserts `route`, replacing any existing route with the same prefix
    /// *and* source.
    ///
    /// Placement is a binary search on the maintained ordering, inserted
    /// *after* every equal key — exactly where a stable sort would leave a
    /// freshly pushed element — so a RIP announce on a 1000-route table
    /// shifts one run of entries instead of re-sorting the world. Full
    /// ties keep insertion order (determinism).
    pub fn insert(&mut self, route: Route) {
        if let Some(pos) = self
            .routes
            .iter()
            .position(|r| r.prefix == route.prefix && r.source == route.source)
        {
            self.routes.remove(pos);
        }
        let key = Self::order_key(&route);
        let at = self.routes.partition_point(|r| Self::order_key(r) <= key);
        self.routes.insert(at, route);
        self.generation = self.generation.wrapping_add(1);
    }

    /// Removes every route for `prefix` (any source); returns whether one
    /// existed.
    pub fn remove(&mut self, prefix: Prefix) -> bool {
        let before = self.routes.len();
        self.routes.retain(|r| r.prefix != prefix);
        let changed = self.routes.len() != before;
        if changed {
            self.generation = self.generation.wrapping_add(1);
        }
        changed
    }

    /// Removes the learned route for `prefix`, leaving any static route in
    /// place; returns whether one existed.
    pub fn remove_learned(&mut self, prefix: Prefix) -> bool {
        let before = self.routes.len();
        self.routes
            .retain(|r| !(r.prefix == prefix && r.source == RouteSource::Learned));
        let changed = self.routes.len() != before;
        if changed {
            self.generation = self.generation.wrapping_add(1);
        }
        changed
    }

    /// Longest-prefix-match lookup (linear reference walk).
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<NextHop> {
        self.lookup_route(dst).map(|r| NextHop {
            iface: r.iface,
            hop: r.via.unwrap_or(dst),
        })
    }

    /// Longest-prefix-match lookup returning the matched route itself —
    /// callers that maintain learned routes need the winning [`Prefix`]
    /// (and source) to know what to expire, not just the next hop.
    ///
    /// This is the executable oracle: a first-match scan of the ordered
    /// table. The fast paths ([`lookup_fast`](Self::lookup_fast),
    /// [`lookup_route_fast`](Self::lookup_route_fast)) must return the
    /// identical answer — the differential proptests hold them to it.
    pub fn lookup_route(&self, dst: Ipv4Addr) -> Option<&Route> {
        self.routes.iter().find(|r| r.prefix.contains(dst))
    }

    /// Longest-prefix-match via the compiled structure, recompiling first
    /// if the table changed since the last build. Zero allocations and at
    /// most four memory touches per lookup once compiled; small tables
    /// (≤ [`Lpm::LINEAR_CUTOFF`] routes) skip compilation entirely and
    /// scan, which is both faster and keeps the ~10⁵ two-route host
    /// stacks of the city worlds from holding tries.
    #[inline]
    pub fn lookup_route_fast(&mut self, dst: Ipv4Addr) -> Option<&Route> {
        if self.compiled.stale(self.generation) {
            self.compiled.rebuild(&self.routes, self.generation);
        }
        if self.compiled.is_linear() {
            return self.lookup_route(dst);
        }
        self.compiled.walk(u32::from(dst)).map(|i| &self.routes[i])
    }

    /// [`lookup`](Self::lookup) on the compiled fast path.
    #[inline]
    pub fn lookup_fast(&mut self, dst: Ipv4Addr) -> Option<NextHop> {
        self.lookup_route_fast(dst).map(|r| NextHop {
            iface: r.iface,
            hop: r.via.unwrap_or(dst),
        })
    }

    /// (node count, deepest walk over every route's own address) of the
    /// compiled structure — `(0, 0)` while in linear mode. Compiles first
    /// if stale. E18 prints this to show the walk stays bounded while the
    /// table grows.
    pub fn compiled_shape(&mut self) -> (usize, usize) {
        if self.compiled.stale(self.generation) {
            self.compiled.rebuild(&self.routes, self.generation);
        }
        if self.compiled.is_linear() {
            return (0, 0);
        }
        let depth = self
            .routes
            .iter()
            .map(|r| self.compiled.walk_depth(u32::from(r.prefix.addr)))
            .max()
            .unwrap_or(0);
        (self.compiled.node_count(), depth)
    }

    /// All routes, longest prefix first.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ifid(n: usize) -> IfaceId {
        IfaceId::new(n)
    }

    #[test]
    fn prefix_contains() {
        let p = Prefix::new(Ipv4Addr::new(44, 24, 0, 0), 16);
        assert!(p.contains(Ipv4Addr::new(44, 24, 0, 5)));
        assert!(p.contains(Ipv4Addr::new(44, 24, 255, 255)));
        assert!(!p.contains(Ipv4Addr::new(44, 56, 0, 5)));
        assert!(Prefix::default_route().contains(Ipv4Addr::new(1, 2, 3, 4)));
    }

    #[test]
    fn prefix_masks_host_bits() {
        let p = Prefix::new(Ipv4Addr::new(44, 24, 9, 9), 16);
        assert_eq!(p.addr, Ipv4Addr::new(44, 24, 0, 0));
        assert_eq!(p.to_string(), "44.24.0.0/16");
    }

    #[test]
    fn longest_prefix_wins() {
        let mut rt = RouteTable::new();
        rt.add(
            Prefix::default_route(),
            Some(Ipv4Addr::new(9, 9, 9, 9)),
            ifid(0),
        );
        rt.add(Prefix::amprnet(), Some(Ipv4Addr::new(8, 8, 8, 8)), ifid(1));
        rt.add(Prefix::new(Ipv4Addr::new(44, 24, 0, 0), 16), None, ifid(2));
        let hop = rt.lookup(Ipv4Addr::new(44, 24, 0, 5)).unwrap();
        assert_eq!(hop.iface, ifid(2));
        assert_eq!(hop.hop, Ipv4Addr::new(44, 24, 0, 5), "on-link: hop is dst");
        let hop = rt.lookup(Ipv4Addr::new(44, 56, 0, 5)).unwrap();
        assert_eq!(hop.iface, ifid(1));
        assert_eq!(hop.hop, Ipv4Addr::new(8, 8, 8, 8));
        let hop = rt.lookup(Ipv4Addr::new(128, 95, 1, 4)).unwrap();
        assert_eq!(hop.iface, ifid(0));
    }

    #[test]
    fn no_default_means_no_route() {
        let mut rt = RouteTable::new();
        rt.add(Prefix::amprnet(), None, ifid(0));
        assert!(rt.lookup(Ipv4Addr::new(128, 95, 1, 4)).is_none());
    }

    #[test]
    fn add_replaces_same_prefix() {
        let mut rt = RouteTable::new();
        rt.add(Prefix::amprnet(), None, ifid(0));
        rt.add(Prefix::amprnet(), None, ifid(1));
        assert_eq!(rt.routes().len(), 1);
        assert_eq!(
            rt.lookup(Ipv4Addr::new(44, 1, 1, 1)).unwrap().iface,
            ifid(1)
        );
    }

    #[test]
    fn remove_route() {
        let mut rt = RouteTable::new();
        rt.add(Prefix::amprnet(), None, ifid(0));
        assert!(rt.remove(Prefix::amprnet()));
        assert!(!rt.remove(Prefix::amprnet()));
        assert!(rt.lookup(Ipv4Addr::new(44, 1, 1, 1)).is_none());
    }

    #[test]
    #[should_panic]
    fn prefix_len_out_of_range_panics() {
        let _ = Prefix::new(Ipv4Addr::UNSPECIFIED, 33);
    }

    #[test]
    fn learned_route_coexists_with_static_and_metric_breaks_tie() {
        let mut rt = RouteTable::new();
        rt.add(
            Prefix::default_route(),
            Some(Ipv4Addr::new(9, 9, 9, 9)),
            ifid(0),
        );
        // A cheaper learned default wins the tie...
        rt.add_learned(
            Prefix::default_route(),
            Some(Ipv4Addr::new(8, 8, 8, 8)),
            ifid(1),
            0,
        );
        assert_eq!(rt.routes().len(), 2, "both defaults coexist");
        // ...unless metrics tie exactly, where static is preferred.
        assert_eq!(
            rt.lookup(Ipv4Addr::new(1, 2, 3, 4)).unwrap().iface,
            ifid(0),
            "equal metric: static wins"
        );
        rt.add_learned(
            Prefix::default_route(),
            Some(Ipv4Addr::new(8, 8, 8, 8)),
            ifid(1),
            0,
        );
        assert_eq!(rt.routes().len(), 2, "learned re-add replaces, not stacks");
        // A worse static metric lets the learned default take over...
        rt.insert(Route {
            prefix: Prefix::default_route(),
            via: Some(Ipv4Addr::new(9, 9, 9, 9)),
            iface: ifid(0),
            source: RouteSource::Static,
            metric: 10,
        });
        assert_eq!(rt.lookup(Ipv4Addr::new(1, 2, 3, 4)).unwrap().iface, ifid(1));
        // ...and expiring the learned one falls back to the static.
        assert!(rt.remove_learned(Prefix::default_route()));
        assert_eq!(rt.lookup(Ipv4Addr::new(1, 2, 3, 4)).unwrap().iface, ifid(0));
        assert!(!rt.remove_learned(Prefix::default_route()));
    }

    #[test]
    fn default_route_metric_never_beats_longer_prefix() {
        let mut rt = RouteTable::new();
        rt.insert(Route {
            prefix: Prefix::amprnet(),
            via: Some(Ipv4Addr::new(9, 9, 9, 9)),
            iface: ifid(0),
            source: RouteSource::Static,
            metric: 15,
        });
        rt.add_learned(
            Prefix::default_route(),
            Some(Ipv4Addr::new(8, 8, 8, 8)),
            ifid(1),
            0,
        );
        // The /8 has a far worse metric than the /0 but still wins LPM.
        assert_eq!(
            rt.lookup(Ipv4Addr::new(44, 24, 0, 5)).unwrap().iface,
            ifid(0)
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(128, 95, 1, 4)).unwrap().iface,
            ifid(1)
        );
    }

    #[test]
    fn lookup_route_returns_matched_prefix_and_source() {
        let mut rt = RouteTable::new();
        rt.add(Prefix::amprnet(), Some(Ipv4Addr::new(9, 9, 9, 9)), ifid(0));
        rt.add_learned(
            Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16),
            Some(Ipv4Addr::new(8, 8, 8, 8)),
            ifid(1),
            1,
        );
        let r = rt.lookup_route(Ipv4Addr::new(44, 56, 0, 5)).unwrap();
        assert_eq!(r.prefix, Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16));
        assert_eq!(r.source, RouteSource::Learned);
        assert_eq!(r.metric, 1);
        let r = rt.lookup_route(Ipv4Addr::new(44, 24, 0, 5)).unwrap();
        assert_eq!(r.prefix, Prefix::amprnet());
        assert_eq!(r.source, RouteSource::Static);
    }

    #[test]
    fn remove_any_source_clears_both() {
        let mut rt = RouteTable::new();
        rt.add(Prefix::amprnet(), None, ifid(0));
        rt.add_learned(Prefix::amprnet(), None, ifid(1), 1);
        assert!(rt.remove(Prefix::amprnet()));
        assert!(rt.routes().is_empty());
    }

    #[test]
    fn slash_32_host_route() {
        let mut rt = RouteTable::new();
        rt.add(Prefix::amprnet(), Some(Ipv4Addr::new(1, 1, 1, 1)), ifid(0));
        rt.add(Prefix::new(Ipv4Addr::new(44, 24, 0, 28), 32), None, ifid(1));
        assert_eq!(
            rt.lookup(Ipv4Addr::new(44, 24, 0, 28)).unwrap().iface,
            ifid(1)
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(44, 24, 0, 29)).unwrap().iface,
            ifid(0)
        );
    }

    /// The sort-based insert this table used before binary-search
    /// placement: retain + push + stable sort. The incremental insert
    /// must leave the vector in the identical order, ties included.
    fn oracle_insert(routes: &mut Vec<Route>, route: Route) {
        routes.retain(|r| !(r.prefix == route.prefix && r.source == route.source));
        routes.push(route);
        routes.sort_by_key(|r| {
            (
                std::cmp::Reverse(r.prefix.len),
                r.metric,
                r.source != RouteSource::Static,
            )
        });
    }

    #[test]
    fn binary_insert_matches_sort_oracle_order() {
        // A deterministic churn mix heavy in full-key ties (equal length,
        // metric, and source differing only by iface) so stable-tie
        // placement is actually exercised.
        let mut lcg = 0x2545F491_4F6CDD1Du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        let mut rt = RouteTable::new();
        let mut oracle: Vec<Route> = Vec::new();
        for _ in 0..500 {
            let r = next();
            let prefix = Prefix::new(
                Ipv4Addr::from(0x2C00_0000 | (r & 0x00FF_FF00)),
                [0, 8, 16, 24, 32][(r % 5) as usize],
            );
            let route = Route {
                prefix,
                via: Some(Ipv4Addr::new(10, 0, 0, (r % 7) as u8)),
                iface: ifid((r % 3) as usize),
                source: if r & 1 == 0 {
                    RouteSource::Static
                } else {
                    RouteSource::Learned
                },
                metric: ((r >> 8) % 3) as u8,
            };
            match r % 10 {
                8 => {
                    rt.remove(prefix);
                    oracle.retain(|o| o.prefix != prefix);
                }
                9 => {
                    rt.remove_learned(prefix);
                    oracle.retain(|o| !(o.prefix == prefix && o.source == RouteSource::Learned));
                }
                _ => {
                    rt.insert(route);
                    oracle_insert(&mut oracle, route);
                }
            }
            assert_eq!(rt.routes(), &oracle[..], "order diverged from sort oracle");
        }
        assert!(oracle.len() > 8, "churn mix must outgrow the linear cutoff");
    }

    /// Sweep addresses that hit every route boundary in the table plus
    /// strays, asserting fast ≡ linear on each.
    fn assert_fast_matches_linear(rt: &mut RouteTable) {
        let mut probes: Vec<Ipv4Addr> = rt
            .routes()
            .iter()
            .flat_map(|r| {
                let base = u32::from(r.prefix.addr);
                [
                    base,
                    base ^ 1,
                    base.wrapping_add(0x0101),
                    base ^ 0x8000_0000,
                ]
            })
            .map(Ipv4Addr::from)
            .collect();
        probes.extend([
            Ipv4Addr::new(44, 24, 0, 5),
            Ipv4Addr::new(128, 95, 1, 4),
            Ipv4Addr::new(255, 255, 255, 255),
            Ipv4Addr::new(0, 0, 0, 0),
        ]);
        for dst in probes {
            let slow = rt.lookup_route(dst).copied();
            let fast = rt.lookup_route_fast(dst).copied();
            assert_eq!(fast, slow, "fast ≠ linear for {dst}");
        }
    }

    #[test]
    fn compiled_walk_matches_linear_above_cutoff() {
        let mut rt = RouteTable::new();
        // Mixed lengths spanning every trie level, nested and disjoint,
        // well past the linear cutoff so the trie actually builds.
        for i in 0..10u8 {
            rt.add(
                Prefix::new(Ipv4Addr::new(44, i, 0, 0), 16),
                Some(Ipv4Addr::new(10, 0, 0, 1)),
                ifid(0),
            );
            rt.add(
                Prefix::new(Ipv4Addr::new(44, i, i, 0), 24),
                Some(Ipv4Addr::new(10, 0, 0, 2)),
                ifid(1),
            );
        }
        rt.add(Prefix::amprnet(), Some(Ipv4Addr::new(10, 0, 0, 3)), ifid(2));
        rt.add(Prefix::new(Ipv4Addr::new(44, 3, 3, 9), 32), None, ifid(3));
        rt.add(
            Prefix::new(Ipv4Addr::new(128, 95, 0, 0), 12),
            Some(Ipv4Addr::new(10, 0, 0, 4)),
            ifid(4),
        );
        rt.add_learned(
            Prefix::default_route(),
            Some(Ipv4Addr::new(9, 9, 9, 9)),
            ifid(5),
            2,
        );
        assert_fast_matches_linear(&mut rt);
        let (nodes, depth) = rt.compiled_shape();
        assert!(nodes > 0, "table above cutoff must compile");
        assert!(depth <= 4, "walk never exceeds four levels, got {depth}");
    }

    #[test]
    fn default_route_only_table() {
        let mut rt = RouteTable::new();
        rt.add(
            Prefix::default_route(),
            Some(Ipv4Addr::new(9, 9, 9, 9)),
            ifid(0),
        );
        for dst in [
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(44, 24, 0, 5),
            Ipv4Addr::new(255, 255, 255, 255),
        ] {
            assert_eq!(rt.lookup_fast(dst).unwrap().iface, ifid(0));
            assert_eq!(rt.lookup_fast(dst).unwrap().hop, Ipv4Addr::new(9, 9, 9, 9));
        }
        // Above the cutoff too: pad with /32s, the default still catches
        // strays through the compiled root.
        for i in 0..12u8 {
            rt.add(Prefix::new(Ipv4Addr::new(10, 0, 0, i), 32), None, ifid(1));
        }
        assert_eq!(
            rt.lookup_fast(Ipv4Addr::new(128, 95, 1, 4)).unwrap().iface,
            ifid(0)
        );
        assert_fast_matches_linear(&mut rt);
    }

    #[test]
    fn host_route_beats_shorter_prefixes_compiled() {
        let mut rt = RouteTable::new();
        for i in 0..10u8 {
            rt.add(
                Prefix::new(Ipv4Addr::new(44, i, 0, 0), 16),
                Some(Ipv4Addr::new(10, 0, 0, 1)),
                ifid(0),
            );
        }
        rt.add(Prefix::new(Ipv4Addr::new(44, 3, 0, 0), 24), None, ifid(1));
        rt.add(Prefix::new(Ipv4Addr::new(44, 3, 0, 7), 32), None, ifid(2));
        assert_eq!(
            rt.lookup_fast(Ipv4Addr::new(44, 3, 0, 7)).unwrap().iface,
            ifid(2)
        );
        assert_eq!(
            rt.lookup_fast(Ipv4Addr::new(44, 3, 0, 8)).unwrap().iface,
            ifid(1)
        );
        assert_eq!(
            rt.lookup_fast(Ipv4Addr::new(44, 3, 1, 7)).unwrap().iface,
            ifid(0)
        );
        assert_fast_matches_linear(&mut rt);
    }

    #[test]
    fn learned_expiry_restores_shadowed_static_compiled() {
        let mut rt = RouteTable::new();
        // Pad past the cutoff so expiry recompiles a real trie.
        for i in 0..10u8 {
            rt.add(
                Prefix::new(Ipv4Addr::new(10, i, 0, 0), 16),
                Some(Ipv4Addr::new(10, 0, 0, 1)),
                ifid(3),
            );
        }
        rt.insert(Route {
            prefix: Prefix::amprnet(),
            via: Some(Ipv4Addr::new(9, 9, 9, 9)),
            iface: ifid(0),
            source: RouteSource::Static,
            metric: 5,
        });
        rt.add_learned(
            Prefix::amprnet(),
            Some(Ipv4Addr::new(8, 8, 8, 8)),
            ifid(1),
            0,
        );
        let g = rt.generation;
        assert_eq!(
            rt.lookup_fast(Ipv4Addr::new(44, 1, 1, 1)).unwrap().iface,
            ifid(1)
        );
        assert!(rt.remove_learned(Prefix::amprnet()));
        assert_ne!(rt.generation, g, "expiry must bump the generation");
        assert_eq!(
            rt.lookup_fast(Ipv4Addr::new(44, 1, 1, 1)).unwrap().iface,
            ifid(0),
            "expiring the learned route restores the shadowed static"
        );
        assert_fast_matches_linear(&mut rt);
    }

    #[test]
    fn lookup_during_generation_rollover() {
        let mut rt = RouteTable::new();
        rt.generation = u64::MAX;
        rt.add(Prefix::amprnet(), Some(Ipv4Addr::new(9, 9, 9, 9)), ifid(0));
        assert_eq!(rt.generation, 0, "MAX wraps to 0, never panics");
        assert_eq!(
            rt.lookup_fast(Ipv4Addr::new(44, 1, 1, 1)).unwrap().iface,
            ifid(0)
        );
        // Mutating across the wrap still invalidates the compiled view.
        rt.add(Prefix::amprnet(), Some(Ipv4Addr::new(8, 8, 8, 8)), ifid(1));
        assert_eq!(rt.generation, 1);
        assert_eq!(
            rt.lookup_fast(Ipv4Addr::new(44, 1, 1, 1)).unwrap().iface,
            ifid(1)
        );
        assert_fast_matches_linear(&mut rt);
    }
}
