//! Pins the ping-only `scenario::mesh` default byte-for-byte.
//!
//! The workload crate's fleet builder reads the mesh through the
//! `MeshNet` iteration API (`islands`/`island_hosts`/`host_addr`/…),
//! which was added for it. This test guards the other side of that
//! bargain: with no fleet deployed, the mesh and the E15-style ping
//! traffic over it must produce exactly the event stream they produced
//! before the API existed — the pinned FNV digest below is the same
//! kind of constant `results/e15_city_scale.txt` records at city scale.

use ultrix_packet_radio::apps::ping::Pinger;
use ultrix_packet_radio::gateway::scenario::{self, city};
use ultrix_packet_radio::sim::{fnv1a, SimDuration, SimTime};

/// E15's wiring at guard scale: host 0 of island g pings host 0 of
/// island g+1, starts staggered.
fn build(gateways: usize, hosts: usize, seed: u64) -> scenario::MeshNet {
    let mut m = scenario::mesh(gateways, hosts, seed);
    for g in 0..gateways {
        let p = Pinger::new(
            city::host_ip((g + 1) % gateways, 0),
            g as u16,
            2,
            SimDuration::from_secs(4),
            64,
        )
        .delayed(SimDuration::from_millis(200 + (37 * g as u64) % 1800));
        m.world.add_app(m.hosts[g][0], Box::new(p));
    }
    m
}

#[test]
fn ping_only_mesh_digest_is_pinned() {
    let mut m = build(3, 4, 1988);
    m.world.run_until_reference(SimTime::from_secs(15));
    let mut log = String::new();
    for (h, t, e) in m.world.take_events() {
        log.push_str(&format!("{h:?} {t} {e:?}\n"));
    }
    assert!(log.contains("PingReply"), "cross-island pings must flow");
    assert_eq!(
        fnv1a(log.as_bytes()),
        0x5dcd_508a_920b_be2c,
        "ping-only mesh event stream changed — the MeshNet iteration API \
         must stay purely additive (update this pin only for an \
         intentional wire/behavior change)"
    );
}

#[test]
fn iteration_api_matches_mesh_internals() {
    let m = scenario::mesh(3, 4, 7);
    assert_eq!(m.islands(), 3);
    let mut seen = 0;
    for (g, i, h, addr) in m.iter_hosts() {
        assert_eq!(m.island_hosts(g)[i], h);
        assert_eq!(m.host_addr(g, i), addr);
        assert_eq!(addr, city::host_ip(g, i));
        seen += 1;
    }
    assert_eq!(seen, 3 * 4);
    assert_eq!(m.gateway(1), m.gateways[1]);
    assert_eq!(m.island_channel(2), m.channels[2]);
}
