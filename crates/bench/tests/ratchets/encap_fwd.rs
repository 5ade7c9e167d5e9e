//! The encapsulated-forwarding path (§4.2's multi-gateway mesh) as the
//! gateways run it: the west gateway's `NetStack::send_ip` finds the
//! destination in its tunnel map — an `EncapTable` — and wraps the
//! datagram in an outer IPIP header toward the east gateway, whose
//! `NetStack::input_owned` strips that header and surfaces the inner
//! datagram for forwarding. In steady state that allocates nothing: the
//! datagram's buffer is the one it arrived in, with room for both
//! headers (DESIGN.md §6, born once), so `send_ip` writes the inner
//! header and the driver the outer one in front of the payload without
//! growing it, and the peer parses both off in place.

use crate::allocs_during;
use encap::table::EncapTable;
use netstack::ip::{self, Ipv4Packet, Proto};
use netstack::route::Prefix;
use netstack::stack::{IfaceConfig, IfaceId, NetStack, StackAction, StackConfig};
use sim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

const WEST_GW: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 100);
const EAST_GW: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 101);

/// A gateway's stack: one Ethernet interface, forwarding and IPIP on.
fn gateway(addr: Ipv4Addr) -> (NetStack, IfaceId) {
    let mut st = NetStack::new(StackConfig {
        forwarding: true,
        ipip: true,
        ..StackConfig::default()
    });
    let ifid = st.add_iface(IfaceConfig {
        name: "qe0",
        addr,
        prefix_len: 24,
        mtu: 1500,
    });
    (st, ifid)
}

#[test]
fn send_ip_encap_input_decap() {
    let (mut west, _) = gateway(WEST_GW);
    let (mut east, east_if) = gateway(EAST_GW);
    let mut table = EncapTable::new(SimDuration::from_secs(60));
    table.add_static(Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16), EAST_GW, 1);
    west.set_tunnel_map(Box::new(table));

    // The datagram the west gateway forwards: a 180-byte UDP payload
    // headed for the east subnet.
    let sent = Ipv4Packet::new(
        Ipv4Addr::new(128, 95, 1, 4),
        Ipv4Addr::new(44, 56, 0, 5),
        Proto::Udp,
        vec![0x33; 180],
    );
    let mut acts = Vec::new();
    // One datagram through the tunnel; returns the inner datagram the
    // east gateway surfaces.
    let mut tunnel = |datagram: Ipv4Packet| {
        west.send_ip(datagram);
        west.drain_actions_into(&mut acts);
        let Some(StackAction::Egress { packet: outer, .. }) = acts.pop() else {
            panic!("the west gateway emitted nothing: {acts:?}");
        };
        assert_eq!(outer.proto, Proto::Other(ip::IPIP));
        assert_eq!(outer.dst, EAST_GW);
        east.input_owned(SimTime::ZERO, east_if, outer.into_wire());
        east.drain_actions_into(&mut acts);
        let Some(StackAction::ForwardNeeded { packet: inner, .. }) = acts.pop() else {
            panic!("the east gateway surfaced nothing: {acts:?}");
        };
        inner
    };
    // Warm-up: the datagram's buffer gains its room for two headers once.
    let mut datagram = Some(tunnel(sent.clone()));
    assert_eq!(datagram.as_ref(), Some(&sent));

    // Each round sends what the last one surfaced, as a forwarded
    // datagram is the buffer it arrived in.
    const N: u64 = 100;
    let allocs = allocs_during(|| {
        for _ in 0..N {
            datagram = datagram.take().map(&mut tunnel);
        }
    });
    assert_eq!(
        datagram.as_ref(),
        Some(&sent),
        "the datagram arrives intact"
    );
    assert_eq!(west.stats().ipip_out, N + 1);
    let hits = west.tunnel_map::<EncapTable>().map(|t| t.stats().hits);
    assert_eq!(hits, Some(N + 1), "one counted lookup per datagram");
    assert_eq!(east.stats().ipip_in, N + 1);
    eprintln!(
        "encap_fwd/send_ip_encap_input_decap: {:.2} heap allocations per datagram",
        allocs as f64 / N as f64
    );
    assert_eq!(
        allocs, 0,
        "tunnelled forwarding must not touch the heap: {allocs} allocations / {N} datagrams"
    );
}
