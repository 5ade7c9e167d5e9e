//! §2.4's second future-work item, live: a NET/ROM backbone carrying IP
//! between gateways that cannot hear each other.
//!
//! ```text
//! cargo run --example netrom_backbone
//! ```

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

fn radio_host(world: &mut World, chan: ChanId, call: &str, ip: Ipv4Addr) -> HostId {
    let mut cfg = HostConfig::named(call);
    cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic(call),
        ip,
        prefix_len: 8,
    });
    let h = world.add_host(cfg);
    world.attach_radio(h, chan, 9600, RxMode::Promiscuous, MacConfig::default());
    h
}

fn main() {
    println!("\"Work is also proceeding on using another layer three protocol known");
    println!(" as NET/ROM to pass IP traffic between gateways.\"  — §2.4\n");

    let mut world = World::new(44);
    let chan = world.add_channel(Bandwidth::RADIO_1200);
    let west = radio_host(&mut world, chan, "WGATE", WEST_IP);
    let mid = radio_host(&mut world, chan, "BBONE", Ipv4Addr::new(44, 40, 0, 1));
    let east = radio_host(&mut world, chan, "EGATE", EAST_IP);
    // Line topology: the gateways cannot hear each other directly.
    let c = world.channel_mut(chan);
    c.set_hears(StationId(0), StationId(2), false);
    c.set_hears(StationId(2), StationId(0), false);
    println!("topology: WGATE ⇄ BBONE ⇄ EGATE   (ends mutually deaf, 1200 bit/s)");

    let mk = |call: &str, alias: &str| {
        let mut c = NetRomConfig::new(Ax25Addr::parse_or_panic(call), alias);
        c.broadcast_interval = SimDuration::from_secs(60);
        c
    };
    let wr = world.add_app(west, Box::new(NetRomRouter::new(mk("WGATE", "SEA"))));
    let mr = world.add_app(mid, Box::new(NetRomRouter::new(mk("BBONE", "MID"))));
    world.add_app(east, Box::new(NetRomRouter::new(mk("EGATE", "NYC"))));

    // Watch the route table converge.
    for minutes in 1..=4 {
        world.run_for(SimDuration::from_secs(60));
        let known = world.app(wr).destinations();
        println!("t={:>3}m  WGATE knows: {:?}", minutes, known);
        if known.contains(&"EGATE".to_string()) {
            break;
        }
    }

    // Carry an IP datagram across the backbone.
    let udp = world
        .host_mut(east)
        .stack
        .sock_bind_udp(4000)
        .expect("bind");
    let dg = UdpDatagram {
        src_port: 4001,
        dst_port: 4000,
        payload: b"IP over NET/ROM, de N7AKR".to_vec(),
    };
    let ip = Ipv4Packet::new(WEST_IP, EAST_IP, Proto::Udp, dg.encode(WEST_IP, EAST_IP));
    let sent_at = world.now;
    println!(
        "\nt={}  WGATE ships an IP/UDP datagram to EGATE over the backbone…",
        sent_at
    );
    world
        .app_mut(wr)
        .send_ip(Ax25Addr::parse_or_panic("EGATE"), ip.encode());
    world.run_for(SimDuration::from_secs(60));

    let now = world.now;
    let got = world
        .host_mut(east)
        .stack
        .sock_recv_from(udp, |src, port, payload| {
            println!(
                "t={now}  EGATE's UDP socket received from {src}:{port}: {:?}",
                String::from_utf8_lossy(payload)
            );
        });
    if got.is_err() {
        println!("datagram did not arrive (unexpected)");
    }
    println!(
        "\nBBONE forwarded {} datagram(s); total NODES broadcasts on air: {}",
        world.app(mr).stats().forwarded,
        world.app(wr).stats().broadcasts_sent + world.app(mr).stats().broadcasts_sent
    );
}
