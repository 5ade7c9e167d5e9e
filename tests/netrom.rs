//! §2.4's second future-work item, end to end: "using NET/ROM to pass IP
//! traffic between gateways" over a learned multi-hop RF backbone.
//!
//! Topology: three radio hosts on one 1200 bit/s channel with a line
//! hearing pattern (west ⇄ mid ⇄ east; the ends cannot hear each other).
//! Each runs a NET/ROM router. Routes are learned purely from NODES
//! broadcasts — no static configuration — and an IP datagram is then
//! carried west→east across the backbone and delivered into the east
//! gateway's IP stack.

use ax25::addr::Ax25Addr;
use gateway::host::{HostConfig, RadioIfConfig};
use gateway::world::{ChanId, HostId, World};
use netrom::{NetRomConfig, NetRomRouter};
use netstack::ip::{Ipv4Packet, Proto};
use netstack::udp::UdpDatagram;
use radio::channel::StationId;
use radio::csma::MacConfig;
use radio::tnc::RxMode;
use sim::{Bandwidth, SimDuration};
use std::net::Ipv4Addr;

const WEST_IP: Ipv4Addr = Ipv4Addr::new(44, 24, 0, 28);
const EAST_IP: Ipv4Addr = Ipv4Addr::new(44, 56, 0, 28);

struct Backbone {
    world: World,
    west: HostId,
    mid: HostId,
    east: HostId,
}

fn radio_host(world: &mut World, chan: ChanId, name: &str, call: &str, ip: Ipv4Addr) -> HostId {
    let mut cfg = HostConfig::named(name);
    cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic(call),
        ip,
        prefix_len: 16,
    });
    let h = world.add_host(cfg);
    world.attach_radio(h, chan, 9600, RxMode::Promiscuous, MacConfig::default());
    h
}

fn backbone(seed: u64) -> Backbone {
    let mut world = World::new(seed);
    let chan = world.add_channel(Bandwidth::RADIO_1200);
    let west = radio_host(&mut world, chan, "west-gw", "WGATE", WEST_IP);
    let mid = radio_host(
        &mut world,
        chan,
        "bbone",
        "BBONE",
        Ipv4Addr::new(44, 40, 0, 1),
    );
    let east = radio_host(&mut world, chan, "east-gw", "EGATE", EAST_IP);
    // Line topology: stations 0(west), 1(mid), 2(east).
    let c = world.channel_mut(chan);
    c.set_hears(StationId(0), StationId(2), false);
    c.set_hears(StationId(2), StationId(0), false);
    Backbone {
        world,
        west,
        mid,
        east,
    }
}

fn fast_cfg(call: &str, alias: &str) -> NetRomConfig {
    let mut c = NetRomConfig::new(Ax25Addr::parse_or_panic(call), alias);
    c.broadcast_interval = SimDuration::from_secs(30);
    c
}

#[test]
fn routes_converge_from_broadcasts_alone() {
    let mut b = backbone(901);
    let west_router = NetRomRouter::new(fast_cfg("WGATE", "SEA"));
    let west = b.world.add_app(b.west, Box::new(west_router));
    b.world
        .add_app(b.mid, Box::new(NetRomRouter::new(fast_cfg("BBONE", "MID"))));
    let east_router = NetRomRouter::new(fast_cfg("EGATE", "NYC"));
    let east = b.world.add_app(b.east, Box::new(east_router));

    // A few broadcast rounds are enough for two-hop knowledge.
    b.world.run_for(SimDuration::from_secs(150));

    let w = b.world.app(west);
    let west_dests = w.destinations();
    assert!(
        west_dests.contains(&"BBONE".to_string()),
        "west knows its neighbour: {west_dests:?}"
    );
    assert!(
        west_dests.contains(&"EGATE".to_string()),
        "west learned the far gateway through the backbone: {west_dests:?}"
    );
    let e = b.world.app(east);
    assert!(e.destinations().contains(&"WGATE".to_string()));
    assert!(w.stats().broadcasts_heard >= 2);
}

#[test]
fn ip_datagram_crosses_the_backbone_into_the_far_stack() {
    let mut b = backbone(902);
    let west_router = NetRomRouter::new(fast_cfg("WGATE", "SEA"));
    let west = b.world.add_app(b.west, Box::new(west_router));
    let mid_router = NetRomRouter::new(fast_cfg("BBONE", "MID"));
    let mid = b.world.add_app(b.mid, Box::new(mid_router));
    let east_router = NetRomRouter::new(fast_cfg("EGATE", "NYC"));
    b.world.add_app(b.east, Box::new(east_router));

    // Let routing converge.
    b.world.run_for(SimDuration::from_secs(150));
    assert!(b
        .world
        .app(west)
        .destinations()
        .contains(&"EGATE".to_string()));

    // The east gateway listens on UDP 4000.
    let east_udp = b
        .world
        .host_mut(b.east)
        .stack
        .sock_bind_udp(4000)
        .expect("bind");

    // Build a real IP/UDP packet addressed to the east gateway and ship
    // it over NET/ROM.
    let dg = UdpDatagram {
        src_port: 4001,
        dst_port: 4000,
        payload: b"IP over NET/ROM between gateways".to_vec(),
    };
    let mut ip = Ipv4Packet::new(WEST_IP, EAST_IP, Proto::Udp, dg.encode(WEST_IP, EAST_IP));
    ip.id = 77;
    b.world
        .app_mut(west)
        .send_ip(Ax25Addr::parse_or_panic("EGATE"), ip.encode());

    b.world.run_for(SimDuration::from_secs(120));

    // Delivered into the east gateway's stack and up to the UDP socket.
    let (src, _sport, payload) = b
        .world
        .host_mut(b.east)
        .stack
        .sock_recv_from(east_udp, |src, sport, payload| {
            (src, sport, payload.to_vec())
        })
        .expect("datagram arrived across the backbone");
    assert_eq!(src, WEST_IP);
    assert_eq!(payload, b"IP over NET/ROM between gateways");

    // And it really went through the middle node.
    assert!(b.world.app(mid).stats().forwarded >= 1, "mid forwarded");
    assert!(b.world.app(west).stats().originated >= 1);
}

#[test]
fn backbone_survives_a_dead_relay_with_an_alternate_path() {
    // Diamond: west hears mid1 and mid2; east hears mid1 and mid2; the
    // mids do not hear each other. Kill nothing — just verify the best
    // route picks one relay deterministically and traffic flows.
    let mut world = World::new(903);
    let chan = world.add_channel(Bandwidth::RADIO_1200);
    let west = radio_host(&mut world, chan, "west", "WGATE", WEST_IP);
    let _m1 = radio_host(&mut world, chan, "m1", "R1", Ipv4Addr::new(44, 40, 0, 1));
    let _m2 = radio_host(&mut world, chan, "m2", "R2", Ipv4Addr::new(44, 40, 0, 2));
    let east = radio_host(&mut world, chan, "east", "EGATE", EAST_IP);
    let c = world.channel_mut(chan);
    // west(0) ⟷ m1(1), m2(2); east(3) ⟷ m1, m2; 0⟷3 and 1⟷2 deaf.
    for (x, y) in [(0usize, 3usize), (1, 2)] {
        c.set_hears(StationId(x), StationId(y), false);
        c.set_hears(StationId(y), StationId(x), false);
    }
    let west_router = NetRomRouter::new(fast_cfg("WGATE", "SEA"));
    let router = world.add_app(west, Box::new(west_router));
    world.add_app(
        HostId::clone(&_m1),
        Box::new(NetRomRouter::new(fast_cfg("R1", "R1"))),
    );
    world.add_app(
        HostId::clone(&_m2),
        Box::new(NetRomRouter::new(fast_cfg("R2", "R2"))),
    );
    world.add_app(east, Box::new(NetRomRouter::new(fast_cfg("EGATE", "NYC"))));

    world.run_for(SimDuration::from_secs(150));
    assert!(world
        .app(router)
        .destinations()
        .contains(&"EGATE".to_string()));

    let east_udp = world
        .host_mut(east)
        .stack
        .sock_bind_udp(4000)
        .expect("bind");
    let dg = UdpDatagram {
        src_port: 1,
        dst_port: 4000,
        payload: b"via either relay".to_vec(),
    };
    let ip = Ipv4Packet::new(WEST_IP, EAST_IP, Proto::Udp, dg.encode(WEST_IP, EAST_IP));
    world
        .app_mut(router)
        .send_ip(Ax25Addr::parse_or_panic("EGATE"), ip.encode());
    world.run_for(SimDuration::from_secs(120));
    assert!(world
        .host_mut(east)
        .stack
        .sock_recv_from(east_udp, |_, _, _| ())
        .is_ok());
}
