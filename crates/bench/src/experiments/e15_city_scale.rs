//! E15 — city-scale AMPRnet on the sharded multi-core engine.
//!
//! The paper networked one PC, one gateway, and one Ethernet host. §5
//! closes with the ambition: "as the number of users of this network
//! grows" the gateway model must scale to a *city* of radio subnets.
//! This experiment builds that city — hundreds of radio islands, each a
//! 1200 b/s channel with its own MicroVAX gateway, joined by one
//! department Ethernet carrying IPIP tunnels (§4.2) — and runs it on the
//! sharded engine (DESIGN.md §11), one shard per island.
//!
//! Three things are measured, the first two deterministic (this file's
//! output is byte-stable, and both are `claim`s), the third wall-clock and
//! therefore printed only in bench mode (`E15_BENCH=1`, run by hand):
//!
//! 1. **Equivalence at scale**: the FNV digest of the event log is
//!    identical at 1, 2, 4, and 8 workers, and equal to the full-scan
//!    reference stepper's digest.
//! 2. **Traffic flows**: cross-island pings tunnel over the Ethernet and
//!    come back; the cross-shard mailboxes carry every hand-off without
//!    growing once warm.
//! 3. **Scaling**: wall-clock per simulated second at each worker count
//!    (honest numbers: this is a thread-scaling harness, and on a
//!    single-core container the extra workers measure coordination
//!    overhead, not speedup — the core count is printed with them).
//!
//! Knobs: `E15_GATEWAYS` (default 250), `E15_HOSTS` (default 40 per
//! island), `E15_SECONDS` (default 20). The full run from the issue
//! brief is `E15_GATEWAYS=1000 E15_HOSTS=97` — ~100k hosts.

use apps::ping::Pinger;
use bench::report::Report;
use bench::{bench_mode, drain_event_digest, env_usize};
use gateway::scenario::{self, city};
use sim::SimDuration;
use std::time::Instant;

/// Builds the city and wires the traffic: host 0 of every island pings
/// host 0 of the next island (two pings, starts staggered island by
/// island so the first CSMA contention never synchronizes city-wide).
fn build(gateways: usize, hosts_per_gw: usize, seed: u64) -> scenario::MeshNet {
    let mut m = scenario::mesh(gateways, hosts_per_gw, seed);
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

pub fn run(x: &mut Report) {
    let gateways = env_usize("E15_GATEWAYS", 250);
    let hosts_per_gw = env_usize("E15_HOSTS", 40);
    let secs = env_usize("E15_SECONDS", 20) as u64;
    let bench_mode = bench_mode("E15");
    let seed = 1988;

    x.banner(
        "E15",
        "city-scale AMPRnet: sharded multi-core simulation engine",
        "\"as the number of users of this network grows\" (§5) — one shard per \
         radio island, IPIP tunnels (§4.2) as the only cross-shard traffic, \
         bit-identical event logs at every worker count",
    );
    x.text(format_args!(
        "({gateways} islands x {} stations = {} simulated machines, {secs} s simulated)\n",
        hosts_per_gw + 1,
        gateways * (hosts_per_gw + 1) + 1,
    ));

    // --- Claim 1 + 2: digest equivalence and flowing traffic ------------
    let mut digests = Vec::new();
    let mut walls = Vec::new();
    let mut engine = Vec::new();
    let mut traffic_flows = true;

    let mut m = build(gateways, hosts_per_gw, seed);
    let t0 = Instant::now();
    m.world
        .run_until_reference(sim::SimTime::from_millis(secs * 1000));
    walls.push(("reference".to_string(), t0.elapsed()));
    let (d, n, replies) = drain_event_digest(&mut m.world);
    digests.push(d);
    x.row(&[
        ("engine", &"reference"),
        ("workers", &"-"),
        ("events", &n),
        ("ping replies", &replies),
        ("digest", &format_args!("{d:016x}")),
    ]);
    drop(m);

    for workers in [1usize, 2, 4, 8] {
        let mut m = build(gateways, hosts_per_gw, seed);
        m.world.set_workers(workers);
        let t0 = Instant::now();
        m.world.run_for(SimDuration::from_secs(secs));
        walls.push((format!("sharded_{workers}w"), t0.elapsed()));
        let (d, n, replies) = drain_event_digest(&mut m.world);
        let mb = m.world.mailbox_stats();
        engine.push(m.world.engine_stats());
        digests.push(d);
        x.row(&[
            ("engine", &"sharded"),
            ("workers", &workers),
            ("events", &n),
            ("ping replies", &replies),
            ("digest", &format_args!("{d:016x}")),
        ]);
        traffic_flows &= replies > 0 && mb.pushed > 0 && mb.pushed == mb.popped;
    }
    x.end_table();

    let identical = x.claim(
        "DESIGN.md §11",
        "the event digest of the reference stepper equals the sharded engine's at 1, 2, 4 and 8 workers",
        digests.windows(2).all(|w| w[0] == w[1]),
    );
    x.text(format_args!(
        "\nall {} digests {}: the sharded engine is bit-equivalent to the",
        digests.len(),
        if identical { "identical" } else { "NOT identical" }
    ));
    x.text("reference at every worker count (DESIGN.md §11 contract).");
    x.claim(
        "§5",
        "the city carries traffic: at every worker count cross-island pings are answered and every cross-shard hand-off pushed (> 0) is popped",
        traffic_flows,
    );
    x.claim(
        "DESIGN.md §11",
        "the window coordinator does the same work whatever the worker count: its counters are equal at 1, 2, 4 and 8 workers",
        engine.windows(2).all(|w| w[0] == w[1]),
    );

    // --- Claim 3: wall-clock scaling (bench mode only; nondeterministic)
    if bench_mode {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        x.text(format_args!(
            "\nwall-clock scaling (host machine: {cores} core(s)):"
        ));
        for (name, wall) in &walls {
            let ns = wall.as_nanos();
            x.text(format_args!(
                "e15/city{gateways}x{hosts_per_gw}_{secs}s_{name} ... bench: {ns} ns/iter"
            ));
        }
        let e = engine[0];
        x.text(format_args!(
            "\nwindow coordinator (every worker count): {} windows, {:.2} of {gateways} shards \
             stepped per window, {:.0} % solo (no barrier), {} deliveries queued, \
             pending peak {}",
            e.windows,
            e.shards_stepped as f64 / e.windows as f64,
            100.0 * e.solo_windows as f64 / e.windows as f64,
            e.deliveries_queued,
            e.pending_peak,
        ));
    }
}
