//! Differential properties for the forwarding plane (DESIGN.md §14):
//! the flat-trie fast lookup must answer exactly like the linear
//! first-match oracle over random tables and learned/static churn, and
//! `send_ip` must make one decision per packet — the tunnel map's answer,
//! then the oracle's route for the outer destination — through route and
//! tunnel churn, carrying nothing from one packet to the next.

use netstack::ip;
use netstack::route::{Prefix, Route, RouteSource, RouteTable};
use netstack::stack::{IfaceConfig, StackAction, StackConfig, TunnelMap};
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

/// A shared tunnel map keyed by the destination's /24 that counts its
/// consultations — the honest little sibling of the encap table.
#[derive(Debug, Clone, Default)]
struct ChurnMap(Rc<RefCell<(HashMap<Ipv4Addr, Ipv4Addr>, u64)>>);

impl ChurnMap {
    fn key(dst: Ipv4Addr) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(dst) & 0xFFFF_FF00)
    }

    fn learn(&self, dst: Ipv4Addr, endpoint: Ipv4Addr) {
        self.0.borrow_mut().0.insert(Self::key(dst), endpoint);
    }

    fn forget(&self, dst: Ipv4Addr) {
        self.0.borrow_mut().0.remove(&Self::key(dst));
    }

    /// The map's answer, without counting a consultation.
    fn peek(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        self.0.borrow().0.get(&Self::key(dst)).copied()
    }

    fn consults(&self) -> u64 {
        self.0.borrow().1
    }
}

impl TunnelMap for ChurnMap {
    fn endpoint(&mut self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        let mut i = self.0.borrow_mut();
        i.1 += 1;
        i.0.get(&Self::key(dst)).copied()
    }
}

/// One step against the stack.
#[derive(Debug, Clone)]
enum StackOp {
    /// `send_ip` an ICMP-ish packet (full path: tunnel consult + route).
    Send(Ipv4Addr),
    /// `send_ip` an already-IPIP packet (routed path, no tunnel consult).
    SendIpip(Ipv4Addr),
    /// `udp_send` (the socket source-selection lookup site).
    Udp(Ipv4Addr),
    /// Route churn.
    Table(TableOp),
    /// Tunnel map learns dst/24 → endpoint.
    Learn(Ipv4Addr, u8),
    /// Tunnel map forgets dst/24.
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

fn build_stack(tunnels: ChurnMap) -> NetStack {
    let mut s = NetStack::new(StackConfig {
        forwarding: true,
        ipip: true,
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

/// What one step must do to the stack.
#[derive(Debug, Clone, Copy, Default)]
struct Expected {
    /// `(iface, next hop, outer destination, carried as IPIP)`, if routable.
    egress: Option<(IfaceId, Ipv4Addr, Ipv4Addr, bool)>,
    /// Tunnel-map consultations.
    consults: u64,
    /// Whether the packet is wrapped toward a tunnel endpoint (`ipip_out`).
    wrapped: bool,
    /// Whether the packet is dropped for want of a route (`no_route`).
    no_route: bool,
}

/// What `send_ip` must do with a packet for `dst`, by the linear oracle:
/// the tunnel map's answer unless the packet is already IPIP (`ipip`) or
/// local, then a first-match scan for the outer destination.
fn oracle(s: &NetStack, map: &ChurnMap, dst: Ipv4Addr, ipip: bool) -> Expected {
    let consult = !ipip && !s.is_local_addr(dst);
    let endpoint = if consult { map.peek(dst) } else { None };
    let outer = endpoint.unwrap_or(dst);
    let egress = s
        .routes()
        .lookup(outer)
        .map(|h| (h.iface, h.hop, outer, ipip || endpoint.is_some()));
    Expected {
        egress,
        consults: u64::from(consult),
        wrapped: endpoint.is_some(),
        no_route: egress.is_none(),
    }
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

    /// `send_ip` decides every packet afresh, exactly as the oracle does:
    /// the same egress (interface, next hop, outer destination, IPIP or
    /// not), one tunnel-map consultation per eligible packet and none for
    /// local or already-IPIP ones, and `no_route` / `ipip_out` counted
    /// once per packet — after any interleaving of route and tunnel churn.
    #[test]
    fn send_ip_decides_like_the_oracle_under_churn(
        ops in proptest::collection::vec(arb_stack_op(), 1..120),
    ) {
        let map = ChurnMap::default();
        let mut s = build_stack(map.clone());
        let udp = s.udp_bind(1234).unwrap();
        for (i, op) in ops.iter().enumerate() {
            let (before, consults) = (s.stats(), map.consults());
            let e = match op.clone() {
                StackOp::Send(dst) => {
                    let e = oracle(&s, &map, dst, false);
                    s.send_ip(Ipv4Packet::new(Ipv4Addr::UNSPECIFIED, dst, Proto::Icmp, vec![0; 8]));
                    e
                }
                StackOp::SendIpip(dst) => {
                    let e = oracle(&s, &map, dst, true);
                    let inner =
                        Ipv4Packet::new(Ipv4Addr::new(44, 24, 0, 1), dst, Proto::Icmp, vec![0; 8])
                            .encode();
                    s.send_ip(Ipv4Packet::new(
                        Ipv4Addr::UNSPECIFIED,
                        dst,
                        Proto::Other(ip::IPIP),
                        inner,
                    ));
                    e
                }
                StackOp::Udp(dst) => {
                    // Source selection needs a route to `dst` itself first.
                    let e = if s.routes().lookup(dst).is_some() {
                        oracle(&s, &map, dst, false)
                    } else {
                        Expected { no_route: true, ..Expected::default() }
                    };
                    s.udp_send(udp, dst, 53, vec![1, 2, 3]);
                    e
                }
                StackOp::Table(top) => {
                    let rt = s.routes_mut();
                    match top {
                        TableOp::Insert(r) => rt.insert(r),
                        TableOp::Remove(p) => { rt.remove(p); }
                        TableOp::RemoveLearned(p) => { rt.remove_learned(p); }
                    }
                    Expected::default()
                }
                StackOp::Learn(dst, e) => {
                    map.learn(dst, Ipv4Addr::new(128, 95, 1, e));
                    Expected::default()
                }
                StackOp::Forget(dst) => {
                    map.forget(dst);
                    Expected::default()
                }
            };
            let got: Vec<_> = s
                .drain_actions()
                .into_iter()
                .map(|a| match a {
                    StackAction::Egress { iface, next_hop, packet } => Some((
                        iface,
                        next_hop,
                        packet.dst,
                        packet.proto == Proto::Other(ip::IPIP),
                    )),
                    _ => None,
                })
                .collect();
            let st = s.stats();
            prop_assert_eq!(
                got, e.egress.map(Some).into_iter().collect::<Vec<_>>(),
                "egress differs from the oracle at step {} on {:?}", i, op
            );
            prop_assert_eq!(
                map.consults() - consults, e.consults,
                "tunnel consultations at step {} on {:?}", i, op
            );
            prop_assert_eq!(
                (st.no_route - before.no_route, st.ipip_out - before.ipip_out),
                (u64::from(e.no_route), u64::from(e.wrapped)),
                "no_route / ipip_out at step {} on {:?}", i, op
            );
        }
    }
}
