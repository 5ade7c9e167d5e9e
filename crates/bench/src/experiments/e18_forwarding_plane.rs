//! E18 — the compiled forwarding plane under city-mesh load.
//!
//! §4.2's aggregate route ("all of net 44 via one gateway") kept the
//! paper's tables tiny; a converged city of islands does not have that
//! luxury — each gateway carries a learned `/24` for every other island,
//! and every forwarded packet pays longest-prefix match over the lot,
//! twice (once for the tunnel endpoint, once for the egress). This
//! experiment exercises DESIGN.md §14's answer: the compiled multibit
//! trie plus the per-destination next-hop cache.
//!
//! Three things are measured, the first two deterministic (this file's
//! output is byte-stable, and both are `claim`s), the third wall-clock and
//! therefore printed to stderr:
//!
//! 1. **The walk is flat in table size**: the compiled trie answers any
//!    lookup in at most four node visits whether the table holds 8
//!    routes or 1024 — the shape sweep prints node counts and the
//!    deepest walk over every installed prefix.
//! 2. **The cache is invisible to the traffic**: a full-table mesh run
//!    with the next-hop cache enabled delivers byte-identical events to
//!    its cache-off twin (the system-level face of the `cached ≡
//!    uncached` differential proptest), while the gateways' counters
//!    show the hit rate doing the work.
//! 3. **Per-packet lookup cost**: mean ns per compiled lookup at each
//!    table size, flat where the linear scan grows linearly — wall
//!    clock, so printed only in bench mode (`E18_BENCH=1`, run by hand)
//!    and to stderr.
//!
//! Knobs: `E18_GATEWAYS` (default 48), `E18_HOSTS` (default 3 per
//! island), `E18_SECONDS` (default 40). The issue-brief full run is
//! `E18_GATEWAYS=1000`, giving ~1000-route gateway tables.

use apps::ping::Pinger;
use bench::report::Report;
use bench::{bench_mode, drain_event_digest, env_usize};
use gateway::scenario::{self, city, MeshOptions};
use netstack::route::{Prefix, RouteTable};
use sim::SimDuration;
use std::net::Ipv4Addr;
use std::time::Instant;

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
/// several distinct destinations — a working set the next-hop cache must
/// actually hold, not a single hot slot.
fn build(gateways: usize, hosts_per_gw: usize, seed: u64, bits: u8) -> scenario::MeshNet {
    let mut m = scenario::mesh_with(
        gateways,
        hosts_per_gw,
        seed,
        MeshOptions {
            full_tables: true,
            fwd_cache_bits: bits,
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
    let bench_mode = bench_mode("E18");
    let seed = 2244;

    x.banner(
        "E18",
        "compiled LPM forwarding plane with per-destination next-hop cache",
        "a converged city has no §4.2 aggregate — every gateway carries a /24 \
         per island, and per-packet lookup cost must stay flat in table size \
         (DESIGN.md §14)",
    );

    // --- Claim 1: trie shape is flat in table size ----------------------
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

    // --- Claim 3 (bench mode, stderr): per-packet lookup cost -----------
    for n in if bench_mode {
        &[8usize, 64, 256, 1024][..]
    } else {
        &[]
    } {
        let n = *n;
        let mut rt = island_table(n);
        let probe = Ipv4Addr::new(9, 9, 9, 9);
        rt.lookup_fast(probe);
        let iters = 200_000u32;
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(rt.lookup_fast(std::hint::black_box(probe)));
        }
        let fast = t.elapsed().as_nanos() as f64 / f64::from(iters);
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(rt.lookup(std::hint::black_box(probe)));
        }
        let linear = t.elapsed().as_nanos() as f64 / f64::from(iters);
        x.aside(format_args!(
            "lookup cost at {:4} routes: compiled {fast:6.1} ns, linear {linear:8.1} ns",
            rt.routes().len()
        ));
    }

    // --- Claim 2: cached ≡ uncached at the system level -----------------
    x.text(format_args!(
        "full-table mesh: {gateways} islands x {} stations, {}+ routes per \
         gateway, {secs} s simulated\n",
        hosts_per_gw + 1,
        gateways + 1,
    ));
    let mut digests = Vec::new();
    let mut cache_absorbs = true;
    for bits in [0u8, 12] {
        let mut m = build(gateways, hosts_per_gw, seed, bits);
        let t0 = Instant::now();
        m.world
            .run_until_reference(sim::SimTime::from_millis(secs * 1000));
        let wall = t0.elapsed();
        let (d, n, replies) = drain_event_digest(&mut m.world);
        let (mut hits, mut misses, mut stale) = (0u64, 0u64, 0u64);
        for g in 0..gateways {
            let st = m.world.host(m.gateways[g]).stack.stats();
            hits += st.fwd_cache_hits;
            misses += st.fwd_cache_misses;
            stale += st.fwd_cache_stale;
        }
        x.row(&[
            (
                "next-hop cache",
                &if bits == 0 {
                    "off".to_string()
                } else {
                    format!("2^{bits} slots")
                },
            ),
            ("events", &n),
            ("ping replies", &replies),
            ("digest", &format_args!("{d:016x}")),
            ("fwd hits", &hits),
            ("misses", &misses),
            ("stale", &stale),
        ]);
        digests.push(d);
        if bench_mode {
            // ns per simulated second of mesh, so the cached and uncached
            // engines are directly comparable.
            let label = if bits == 0 { "nocache" } else { "cache" };
            x.text(format_args!(
                "e18_mesh/{label} ... {:.1} ns/iter",
                wall.as_nanos() as f64 / secs as f64
            ));
            x.aside(format_args!(
                "mesh run (cache bits {bits}): {:.2} s wall",
                wall.as_secs_f64()
            ));
        }
        cache_absorbs &= if bits == 0 {
            hits + misses == 0
        } else {
            replies > 0 && hits > 2 * misses
        };
    }
    x.end_table();
    x.claim(
        "DESIGN.md §14",
        "the next-hop cache absorbs the bulk of the forwarding decisions: switched on it hits more than twice as often as it misses; switched off it is never consulted",
        cache_absorbs,
    );
    let identical = x.claim(
        "DESIGN.md §14",
        "the cache is invisible to the traffic: the full-table mesh's event digest with the cache on equals the digest with it off",
        digests[0] == digests[1],
    );
    x.text(format_args!(
        "cached and cache-off runs: event logs {}.",
        if identical {
            "byte-identical"
        } else {
            "DIFFER"
        }
    ));
}
