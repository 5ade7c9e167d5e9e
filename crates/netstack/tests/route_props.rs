//! Differential properties for the compiled forwarding plane
//! (DESIGN.md §14): the flat-trie fast lookup must answer exactly like
//! the linear first-match oracle over random tables and learned/static
//! churn, and a stack with the per-destination next-hop cache enabled
//! must be observationally identical — actions, stats, and tunnel-map
//! accounting — to an uncached twin, through route churn, tunnel churn,
//! and a generation-counter rollover.

use netstack::ip;
use netstack::route::{Prefix, Route, RouteSource, RouteTable};
use netstack::stack::{IfaceConfig, StackConfig, TunnelMap};
use netstack::{IfaceId, Ipv4Packet, NetStack, Proto};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Addresses clustered in a handful of /24s — amateur and foreign —
/// with tiny host parts so routes and probes collide constantly.
fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    const NETS: [u32; 5] = [
        0x2C18_0000, // 44.24.0.0
        0x2C18_0100, // 44.24.1.0
        0x2C38_0000, // 44.56.0.0
        0x805F_0100, // 128.95.1.0
        0x0A00_0000, // 10.0.0.0
    ];
    (0usize..5, 0u32..8).prop_map(|(net, host)| Ipv4Addr::from(NETS[net] | host))
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    const LENS: [u8; 5] = [0, 8, 16, 24, 32];
    (arb_addr(), 0usize..5).prop_map(|(a, l)| Prefix::new(a, LENS[l]))
}

/// Routes restricted to interfaces `0..ifaces` (the twin-stack test has
/// exactly two; pointing a route at a nonexistent interface would panic
/// identically on both twins, proving nothing).
fn arb_route_on(ifaces: usize) -> impl Strategy<Value = Route> {
    (
        arb_prefix(),
        0usize..ifaces,
        0u8..3,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(prefix, iface, metric, learned, gw)| Route {
            prefix,
            via: gw.then(|| Ipv4Addr::new(128, 95, 1, 250)),
            iface: IfaceId::new(iface),
            source: if learned {
                RouteSource::Learned
            } else {
                RouteSource::Static
            },
            metric,
        })
}

/// One step of table churn.
#[derive(Debug, Clone)]
enum TableOp {
    Insert(Route),
    Remove(Prefix),
    RemoveLearned(Prefix),
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    arb_table_op_on(3)
}

fn arb_table_op_on(ifaces: usize) -> impl Strategy<Value = TableOp> {
    // The mini-proptest `prop_oneof!` is unweighted; repeat the insert
    // arm to bias toward growing tables.
    prop_oneof![
        arb_route_on(ifaces).prop_map(TableOp::Insert),
        arb_route_on(ifaces).prop_map(TableOp::Insert),
        arb_route_on(ifaces).prop_map(TableOp::Insert),
        arb_route_on(ifaces).prop_map(TableOp::Insert),
        arb_prefix().prop_map(TableOp::Remove),
        arb_prefix().prop_map(TableOp::RemoveLearned),
    ]
}

/// A shared tunnel map with churn and hit/miss accounting, keyed by the
/// destination's /24 — the honest little sibling of the encap table.
#[derive(Debug, Default)]
struct ChurnMapInner {
    map: HashMap<Ipv4Addr, Ipv4Addr>,
    generation: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, Default)]
struct ChurnMap(Rc<RefCell<ChurnMapInner>>);

impl ChurnMap {
    fn key(dst: Ipv4Addr) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(dst) & 0xFFFF_FF00)
    }

    fn learn(&self, dst: Ipv4Addr, endpoint: Ipv4Addr) {
        let mut i = self.0.borrow_mut();
        i.map.insert(Self::key(dst), endpoint);
        i.generation = i.generation.wrapping_add(1);
    }

    fn forget(&self, dst: Ipv4Addr) {
        let mut i = self.0.borrow_mut();
        if i.map.remove(&Self::key(dst)).is_some() {
            i.generation = i.generation.wrapping_add(1);
        }
    }

    fn counters(&self) -> (u64, u64) {
        let i = self.0.borrow();
        (i.hits, i.misses)
    }
}

impl TunnelMap for ChurnMap {
    fn endpoint(&mut self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        let mut i = self.0.borrow_mut();
        let r = i.map.get(&Self::key(dst)).copied();
        if r.is_some() {
            i.hits += 1;
        } else {
            i.misses += 1;
        }
        r
    }

    fn generation(&self) -> u64 {
        self.0.borrow().generation
    }

    fn note_cached_endpoint(&mut self, hit: bool) {
        let mut i = self.0.borrow_mut();
        if hit {
            i.hits += 1;
        } else {
            i.misses += 1;
        }
    }
}

/// One step against the twin stacks.
#[derive(Debug, Clone)]
enum StackOp {
    /// `send_ip` an ICMP-ish packet (full path: tunnel consult + route).
    Send(Ipv4Addr),
    /// `send_ip` an already-IPIP packet (routed path, no tunnel consult).
    SendIpip(Ipv4Addr),
    /// `udp_send` (the socket source-selection lookup site).
    Udp(Ipv4Addr),
    /// Route churn on both twins.
    Table(TableOp),
    /// Tunnel map learns dst/24 → endpoint on both twins.
    Learn(Ipv4Addr, u8),
    /// Tunnel map forgets dst/24 on both twins.
    Forget(Ipv4Addr),
}

fn arb_stack_op() -> impl Strategy<Value = StackOp> {
    prop_oneof![
        arb_addr().prop_map(StackOp::Send),
        arb_addr().prop_map(StackOp::Send),
        arb_addr().prop_map(StackOp::Send),
        arb_addr().prop_map(StackOp::SendIpip),
        arb_addr().prop_map(StackOp::Udp),
        arb_table_op_on(2).prop_map(StackOp::Table),
        arb_table_op_on(2).prop_map(StackOp::Table),
        (arb_addr(), 1u8..4).prop_map(|(a, e)| StackOp::Learn(a, e)),
        arb_addr().prop_map(StackOp::Forget),
    ]
}

fn build_stack(fwd_cache_bits: u8, tunnels: ChurnMap) -> NetStack {
    let mut s = NetStack::new(StackConfig {
        forwarding: true,
        ipip: true,
        fwd_cache_bits,
        ..StackConfig::default()
    });
    s.add_iface(IfaceConfig {
        name: "qe0".into(),
        addr: Ipv4Addr::new(128, 95, 1, 1),
        prefix_len: 24,
        mtu: 1500,
    });
    s.add_iface(IfaceConfig {
        name: "pr0".into(),
        addr: Ipv4Addr::new(44, 24, 0, 1),
        prefix_len: 24,
        mtu: 256,
    });
    s.routes_mut().add(
        Prefix::default_route(),
        Some(Ipv4Addr::new(128, 95, 1, 250)),
        IfaceId::new(0),
    );
    s.set_tunnel_map(Box::new(tunnels));
    s
}

/// The stats fields the cache is allowed to touch are its own counters;
/// everything else must match the uncached twin exactly.
fn behavior_stats(s: &NetStack) -> (u64, u64, u64, u64, u64) {
    let st = s.stats();
    (
        st.ip_out,
        st.no_route,
        st.ipip_out,
        st.forwarded,
        st.ttl_expired,
    )
}

proptest! {
    /// Compiled LPM ≡ linear oracle: after every mutation, a probe sweep
    /// over the table's own prefixes plus strays answers identically on
    /// the fast and oracle paths.
    #[test]
    fn compiled_lookup_matches_linear_under_churn(
        ops in proptest::collection::vec(arb_table_op(), 1..80),
        probes in proptest::collection::vec(arb_addr(), 8..24),
    ) {
        let mut rt = RouteTable::new();
        for op in &ops {
            match op.clone() {
                TableOp::Insert(r) => rt.insert(r),
                TableOp::Remove(p) => { rt.remove(p); }
                TableOp::RemoveLearned(p) => { rt.remove_learned(p); }
            }
            for &dst in &probes {
                let slow = rt.lookup_route(dst).copied();
                let fast = rt.lookup_route_fast(dst).copied();
                prop_assert_eq!(
                    fast, slow,
                    "fast ≠ linear for {} after {:?} ({} routes)",
                    dst, op, rt.routes().len()
                );
            }
        }
    }

    /// A cached stack is observationally identical to an uncached twin:
    /// same egress actions in the same order, same behavioural stats,
    /// same tunnel-map hit/miss accounting — through route churn, tunnel
    /// churn, and a route-generation rollover (both twins start at
    /// u64::MAX − 2 so the counter wraps mid-stream).
    #[test]
    fn cached_stack_matches_uncached_twin(
        ops in proptest::collection::vec(arb_stack_op(), 1..120),
        fwd_bits in prop_oneof![Just(2u8), Just(6u8), Just(10u8)],
    ) {
        let map_a = ChurnMap::default();
        let map_b = ChurnMap::default();
        let mut cached = build_stack(fwd_bits, map_a.clone());
        let mut plain = build_stack(0, map_b.clone());
        cached.routes_mut().force_generation(u64::MAX - 2);
        plain.routes_mut().force_generation(u64::MAX - 2);
        let udp_a = cached.udp_bind(1234).unwrap();
        let udp_b = plain.udp_bind(1234).unwrap();
        for (i, op) in ops.iter().enumerate() {
            match op.clone() {
                StackOp::Send(dst) => {
                    let p = Ipv4Packet::new(Ipv4Addr::UNSPECIFIED, dst, Proto::Icmp, vec![0; 8]);
                    cached.send_ip(p.clone());
                    plain.send_ip(p);
                }
                StackOp::SendIpip(dst) => {
                    let inner =
                        Ipv4Packet::new(Ipv4Addr::new(44, 24, 0, 1), dst, Proto::Icmp, vec![0; 8])
                            .encode();
                    let p = Ipv4Packet::new(
                        Ipv4Addr::UNSPECIFIED,
                        dst,
                        Proto::Other(ip::IPIP),
                        inner,
                    );
                    cached.send_ip(p.clone());
                    plain.send_ip(p);
                }
                StackOp::Udp(dst) => {
                    cached.udp_send(udp_a, dst, 53, vec![1, 2, 3]);
                    plain.udp_send(udp_b, dst, 53, vec![1, 2, 3]);
                }
                StackOp::Table(top) => {
                    for rt in [cached.routes_mut(), plain.routes_mut()] {
                        match top.clone() {
                            TableOp::Insert(r) => rt.insert(r),
                            TableOp::Remove(p) => { rt.remove(p); }
                            TableOp::RemoveLearned(p) => { rt.remove_learned(p); }
                        }
                    }
                }
                StackOp::Learn(dst, e) => {
                    let endpoint = Ipv4Addr::new(128, 95, 1, e);
                    map_a.learn(dst, endpoint);
                    map_b.learn(dst, endpoint);
                }
                StackOp::Forget(dst) => {
                    map_a.forget(dst);
                    map_b.forget(dst);
                }
            }
            let acts_a = cached.drain_actions();
            let acts_b = plain.drain_actions();
            prop_assert_eq!(
                &acts_a, &acts_b,
                "actions diverged at step {} on {:?}", i, op
            );
            prop_assert_eq!(
                behavior_stats(&cached), behavior_stats(&plain),
                "stats diverged at step {} on {:?}", i, op
            );
            prop_assert_eq!(
                map_a.counters(), map_b.counters(),
                "tunnel accounting diverged at step {} on {:?}", i, op
            );
        }
        let st = cached.stats();
        prop_assert!(st.fwd_cache_stale <= st.fwd_cache_misses, "stale ⊆ misses");
        prop_assert_eq!(plain.stats().fwd_cache_hits, 0, "disabled cache never hits");
        prop_assert_eq!(plain.stats().fwd_cache_misses, 0, "disabled cache never probes");
    }
}
