//! E18 — the compiled forwarding plane under city-mesh load.
//!
//! §4.2's aggregate route ("all of net 44 via one gateway") kept the
//! paper's tables tiny; a converged city of islands does not have that
//! luxury — each gateway carries a learned `/24` for every other island,
//! and every forwarded packet pays longest-prefix match over the lot.
//! This experiment exercises DESIGN.md §14's answer: the compiled
//! multibit trie, walked once per packet.
//!
//! Two things are printed, both deterministic (this file's output is
//! byte-stable):
//!
//! 1. **The walk is flat in table size**: the compiled trie answers any
//!    lookup in at most four node visits whether the table holds 8
//!    routes or 1024 — the shape sweep prints node counts and the
//!    deepest walk over every installed prefix (a `claim`).
//! 2. **A full-table mesh run**: every gateway carries a `/24` per
//!    island, and the run's event digest pins what the traffic saw.
//!    What each lookup costs is the benchmark harness's
//!    `netstack.lpm.lookup_ns` / `netstack.lpm.linear_ns`.
//!
//! Knobs: `E18_GATEWAYS` (default 48), `E18_HOSTS` (default 3 per
//! island), `E18_SECONDS` (default 40). `E18_GATEWAYS=1000` gives
//! ~1000-route gateway tables.

use apps::ping::Pinger;
use bench::report::Report;
use bench::{drain_event_digest, env_usize};
use gateway::scenario::{self, city, MeshOptions};
use netstack::route::{Prefix, RouteTable};
use sim::SimDuration;
use std::net::Ipv4Addr;

/// A route table shaped like a converged E18 gateway's: `n` island
/// `/24`s plus the default toward the wired internet.
fn island_table(n: usize) -> RouteTable {
    let mut rt = RouteTable::new();
    for i in 0..n {
        let addr = Ipv4Addr::from(0x2C00_0000 | ((i as u32) << 8));
        rt.add(
            Prefix::new(addr, 24),
            Some(Ipv4Addr::new(10, 0, 0, 1)),
            netstack::stack::IfaceId::new(0),
        );
    }
    rt.add(
        Prefix::default_route(),
        Some(Ipv4Addr::new(10, 0, 0, 254)),
        netstack::stack::IfaceId::new(1),
    );
    rt
}

/// Builds the full-table mesh and wires forwarding-heavy traffic: host 0
/// of every island pings host 0 of the next island *and* host 1 (when
/// present) pings two islands over, so each gateway forwards flows for
/// several distinct destinations.
fn build(gateways: usize, hosts_per_gw: usize, seed: u64) -> scenario::MeshNet {
    let mut m = scenario::mesh_with(
        gateways,
        hosts_per_gw,
        seed,
        MeshOptions {
            full_tables: true,
            ..MeshOptions::default()
        },
    );
    for g in 0..gateways {
        let p = Pinger::new(
            city::host_ip((g + 1) % gateways, 0),
            g as u16,
            9,
            SimDuration::from_secs(4),
            64,
        )
        .delayed(SimDuration::from_millis(300 + (41 * g as u64) % 2100));
        m.world.add_app(m.hosts[g][0], Box::new(p));
        if hosts_per_gw > 1 {
            let p2 = Pinger::new(
                city::host_ip((g + 2) % gateways, 0),
                (gateways + g) as u16,
                6,
                SimDuration::from_secs(6),
                64,
            )
            .delayed(SimDuration::from_millis(1100 + (53 * g as u64) % 2300));
            m.world.add_app(m.hosts[g][1], Box::new(p2));
        }
    }
    m
}

pub fn run(x: &mut Report) {
    let gateways = env_usize("E18_GATEWAYS", 48);
    let hosts_per_gw = env_usize("E18_HOSTS", 3);
    let secs = env_usize("E18_SECONDS", 40) as u64;
    let seed = 2244;

    x.banner(
        "E18",
        "compiled LPM forwarding plane, one walk per packet",
        "a converged city has no §4.2 aggregate — every gateway carries a /24 \
         per island, and per-packet lookup cost must stay flat in table size \
         (DESIGN.md §14)",
    );

    // --- Claim: trie shape is flat in table size ------------------------
    x.text("compiled-trie shape (routes = island /24s + default):\n");
    let mut depths = Vec::new();
    for n in [8usize, 64, 256, 1024] {
        let mut rt = island_table(n);
        let (nodes, depth) = rt.compiled_shape();
        x.row(&[
            ("routes", &rt.routes().len()),
            ("trie nodes", &nodes),
            ("max walk depth", &depth),
        ]);
        depths.push(depth);
    }
    x.end_table();
    x.claim(
        "DESIGN.md §14",
        "the compiled walk is flat in table size: the deepest lookup visits no more nodes with 1025 routes than with 9, and never more than 4",
        depths[3] <= depths[0] && depths.iter().all(|&d| d <= 4),
    );

    // --- The full-table mesh --------------------------------------------
    x.text(format_args!(
        "full-table mesh: {gateways} islands x {} stations, {}+ routes per \
         gateway, {secs} s simulated\n",
        hosts_per_gw + 1,
        gateways + 1,
    ));
    let mut m = build(gateways, hosts_per_gw, seed);
    m.world
        .run_until_reference(sim::SimTime::from_millis(secs * 1000));
    let (d, n, replies) = drain_event_digest(&mut m.world);
    let (mut forwarded, mut ipip_out) = (0u64, 0u64);
    for &gw in &m.gateways {
        let st = m.world.host(gw).stack.stats();
        forwarded += st.forwarded;
        ipip_out += st.ipip_out;
    }
    x.row(&[
        ("events", &n),
        ("ping replies", &replies),
        ("digest", &format_args!("{d:016x}")),
        ("gw forwarded", &forwarded),
        ("gw ipip out", &ipip_out),
    ]);
    x.end_table();
}
