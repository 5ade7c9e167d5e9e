//! The encapsulated-forwarding hot path (§4.2's multi-gateway mesh): a
//! gateway wrapping a forwarded datagram in an outer IPIP header toward a
//! tunnel endpoint, and the peer gateway stripping it. With a pooled
//! buffer leased with header headroom, both directions stay
//! zero-allocation, like the rest of the datapath.

use crate::allocs_during;
use encap::ipip::{decap_in_place, encap_in_place, OUTER_HEADER_LEN};
use encap::table::EncapTable;
use netstack::ip::{Ipv4Packet, Proto};
use netstack::route::Prefix;
use sim::{BufPool, SimDuration};
use std::hint::black_box;
use std::net::Ipv4Addr;

const WEST_GW: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 100);
const EAST_GW: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 101);

#[test]
fn lookup_encap_decap() {
    // The datagram a gateway forwards: a 180-byte UDP payload headed for
    // the east subnet.
    let inner = Ipv4Packet::new(
        Ipv4Addr::new(128, 95, 1, 4),
        Ipv4Addr::new(44, 56, 0, 5),
        Proto::Udp,
        vec![0x33; 180],
    )
    .encode();

    // Steady state: one pool, one table; the first lease primes the pool.
    let pool = BufPool::new(2048);
    let mut table = EncapTable::new(SimDuration::from_secs(60));
    table.add_static(Prefix::new(Ipv4Addr::new(44, 56, 0, 0), 16), EAST_GW, 1);

    let mut roundtrip = || {
        // Gateway out: table hit, then prepend the outer header into the
        // leased headroom.
        let endpoint = table.lookup(Ipv4Addr::new(44, 56, 0, 5)).unwrap();
        let mut buf = pool.take_with_headroom(OUTER_HEADER_LEN);
        buf.extend_from_slice(&inner);
        encap_in_place(&mut buf, WEST_GW, endpoint, 64);
        // Peer gateway in: verify and strip the outer header in place.
        let outer = decap_in_place(&mut buf).unwrap();
        black_box((outer.src, buf.as_slice().len()));
        // Dropping `buf` recycles it into the pool.
    };
    roundtrip();

    let allocs = allocs_during(roundtrip);
    eprintln!("encap_fwd/lookup_encap_decap: {allocs} heap allocations per packet");
    assert_eq!(
        allocs, 0,
        "the encap/decap fast path must not touch the heap"
    );
}
