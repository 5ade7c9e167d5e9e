//! E11 — §2.4's second future-work item, measured: "using NET/ROM to
//! pass IP traffic between gateways … the use of an existing, and
//! growing, point-to-point backbone in the same way Internet subnets are
//! connected via the ARPANET."
//!
//! A line of NET/ROM nodes on one channel (each hearing only its
//! neighbours) learns routes purely from NODES broadcasts; we measure
//! convergence time, IP delivery latency across the backbone, and the
//! broadcast overhead, as the backbone grows.

use ax25::addr::Ax25Addr;
use bench::report::{Num, Report};
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

fn radio_host(world: &mut World, chan: ChanId, name: &str, call: &str, ip: Ipv4Addr) -> HostId {
    let mut cfg = HostConfig::named(name);
    cfg.radio = Some(RadioIfConfig {
        call: Ax25Addr::parse_or_panic(call),
        ip,
        prefix_len: 8,
    });
    let h = world.add_host(cfg);
    world.attach_radio(h, chan, 9600, RxMode::Promiscuous, MacConfig::default());
    h
}

struct Outcome {
    converged_at_s: f64,
    delivery_s: f64,
    delivered: bool,
    broadcasts: u64,
    forwards: u64,
}

/// Builds west + (n-2) relays + east in a line (`nodes >= 2`) and measures.
fn backbone(nodes: usize, seed: u64) -> Outcome {
    let mut world = World::new(seed);
    let chan = world.add_channel(Bandwidth::RADIO_1200);
    let mut hosts = Vec::new();
    let mut calls = Vec::new();
    for i in 0..nodes {
        let call = if i == 0 {
            "WGATE".to_string()
        } else if i == nodes - 1 {
            "EGATE".to_string()
        } else {
            format!("R{i}")
        };
        let ip = Ipv4Addr::new(44, 40, (i / 250) as u8, (i % 250 + 1) as u8);
        hosts.push(radio_host(&mut world, chan, &call, &call, ip));
        calls.push(call);
    }
    // Line hearing: only adjacent stations hear each other.
    let c = world.channel_mut(chan);
    for i in 0..nodes {
        for j in 0..nodes {
            if i != j && i.abs_diff(j) > 1 {
                c.set_hears(StationId(i), StationId(j), false);
            }
        }
    }
    let mut routers = Vec::new();
    for (i, h) in hosts.iter().enumerate() {
        let mut cfg = NetRomConfig::new(Ax25Addr::parse_or_panic(&calls[i]), &calls[i]);
        cfg.broadcast_interval = SimDuration::from_secs(60);
        routers.push(world.add_app(*h, Box::new(NetRomRouter::new(cfg))));
    }
    let west = routers[0];

    // Run until the west gateway knows EGATE (or give up).
    let mut converged_at = None;
    for _ in 0..240 {
        world.run_for(SimDuration::from_secs(10));
        if world
            .app(west)
            .destinations()
            .contains(&"EGATE".to_string())
        {
            converged_at = Some(world.now);
            break;
        }
    }
    let Some(converged_at) = converged_at else {
        return Outcome {
            converged_at_s: f64::NAN,
            delivery_s: f64::NAN,
            delivered: false,
            broadcasts: 0,
            forwards: 0,
        };
    };

    // Ship one IP/UDP datagram west → east.
    let east = *hosts.last().expect("nodes >= 2");
    let east_ip = Ipv4Addr::new(44, 40, 0, nodes as u8);
    let west_ip = Ipv4Addr::new(44, 40, 0, 1);
    let udp = world.host_mut(east).stack.sock_bind_udp(4000).expect("bind");
    let dg = UdpDatagram {
        src_port: 1,
        dst_port: 4000,
        payload: vec![0x42; 64],
    };
    let ip = Ipv4Packet::new(west_ip, east_ip, Proto::Udp, dg.encode(west_ip, east_ip));
    let sent_at = world.now;
    world
        .app_mut(west)
        .send_ip(Ax25Addr::parse_or_panic("EGATE"), ip.encode());
    let mut delivered_at = None;
    for _ in 0..120 {
        world.run_for(SimDuration::from_secs(5));
        if world.host_mut(east).stack.sock_recv_from(udp, |_, _, _| ()).is_ok() {
            delivered_at = Some(world.now);
            break;
        }
    }
    let stats = || routers.iter().map(|&r| world.app(r).stats());
    let broadcasts: u64 = stats().map(|s| s.broadcasts_sent).sum();
    let forwards: u64 = stats().map(|s| s.forwarded).sum();
    Outcome {
        converged_at_s: converged_at.as_secs_f64(),
        delivery_s: delivered_at
            .map(|t| t.saturating_since(sent_at).as_secs_f64())
            .unwrap_or(f64::NAN),
        delivered: delivered_at.is_some(),
        broadcasts,
        forwards,
    }
}

pub fn run(x: &mut Report) {
    x.banner(
        "E11",
        "IP between gateways over a NET/ROM backbone (§2.4 future work)",
        "\"work is also proceeding on using NET/ROM to pass IP traffic \
         between gateways\" — here it runs: routes learned from NODES \
         broadcasts alone, then IP carried across the backbone",
    );
    x.text("(line of N nodes, 1200 bit/s, 60 s broadcast interval, no static routes)\n");

    let sizes = [2usize, 3, 4, 5, 6];
    let mut outcomes = Vec::new();
    for nodes in sizes {
        let o = backbone(nodes, 11_000 + nodes as u64);
        x.row(&[
            ("backbone_nodes", &format_args!("{:.2}", nodes as f64)),
            ("converged_s", &Num(o.converged_at_s)),
            ("ip_delivery_s", &Num(o.delivery_s)),
            ("delivered", &u8::from(o.delivered)),
            ("bcasts_total", &o.broadcasts),
            ("relay_forwards", &o.forwards),
        ]);
        outcomes.push(o);
    }
    x.end_table();
    x.text("expected shape: convergence takes roughly one broadcast interval per");
    x.text("hop of distance (knowledge ripples outward one NODES cycle at a time);");
    x.text("delivery latency grows with hop count; each added relay contributes its");
    x.text("own broadcast load. This is the ARPANET-style backbone the paper wanted.");

    x.claim(
        "§2.4",
        "NODES broadcasts alone teach the west gateway a route to the east one, and the IP datagram sent over it arrives, at every backbone length 2-6",
        outcomes.iter().all(|o| o.delivered),
    );
    x.claim(
        "§2.4",
        "the datagram is relayed hop by hop: a backbone of n nodes forwards it exactly n - 2 times and has sent at least n broadcasts by then",
        sizes.iter().zip(&outcomes).all(|(&n, o)| {
            o.forwards == n as u64 - 2 && o.broadcasts >= n as u64
        }),
    );
    x.claim(
        "§2.4",
        "knowledge ripples outward: neither convergence time nor delivery latency ever shrinks as the backbone grows, and both are larger at 6 nodes than at 2",
        outcomes.windows(2).all(|w| {
            w[1].converged_at_s >= w[0].converged_at_s && w[1].delivery_s >= w[0].delivery_s
        }) && outcomes[4].converged_at_s > outcomes[0].converged_at_s
            && outcomes[4].delivery_s > outcomes[0].delivery_s,
    );
}
