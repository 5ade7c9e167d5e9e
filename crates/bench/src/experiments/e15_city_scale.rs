//! E15 — city-scale AMPRnet on the sharded engine.
//!
//! The paper networked one PC, one gateway, and one Ethernet host. §5
//! closes with the ambition: "as the number of users of this network
//! grows" the gateway model must scale to a *city* of radio subnets.
//! This experiment builds that city — hundreds of radio islands, each a
//! 1200 b/s channel with its own MicroVAX gateway, joined by one
//! department Ethernet carrying IPIP tunnels (§4.2) — and runs it on the
//! sharded engine (DESIGN.md §11), one shard per island.
//!
//! Two things are measured, both deterministic (this file's output is
//! byte-stable, and both are `claim`s):
//!
//! 1. **Equivalence at scale**: the FNV digest of the sharded engine's
//!    event log equals the full-scan reference stepper's.
//! 2. **Traffic flows**: cross-island pings tunnel over the Ethernet and
//!    come back; the cross-shard mailboxes carry every hand-off.
//!
//! The window coordinator's counters follow the table: windows run,
//! shards stepped per window, deliveries queued and the pending peak.
//!
//! The city is 250 islands of 40 stations each, run for 20 simulated
//! seconds. The largest city the mesh builder takes is 1000 islands of
//! 97 — ~100k hosts.

use apps::ping::Pinger;
use bench::report::Report;
use bench::drain_event_digest;
use gateway::scenario::{self, city};
use sim::SimDuration;

/// Islands in the city.
const GATEWAYS: usize = 250;
/// Stations per island besides its gateway.
const HOSTS_PER_GW: usize = 40;
/// Simulated seconds.
const SECS: u64 = 20;

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
    let seed = 1988;

    x.banner(
        "E15",
        "city-scale AMPRnet: sharded simulation engine",
        "\"as the number of users of this network grows\" (§5) — one shard per \
         radio island, IPIP tunnels (§4.2) as the only cross-shard traffic, \
         event logs bit-identical to the reference stepper's",
    );
    x.text(format_args!(
        "({GATEWAYS} islands x {} stations = {} simulated machines, {SECS} s simulated)\n",
        HOSTS_PER_GW + 1,
        GATEWAYS * (HOSTS_PER_GW + 1) + 1,
    ));

    let mut m = build(GATEWAYS, HOSTS_PER_GW, seed);
    m.world
        .run_until_reference(sim::SimTime::from_millis(SECS * 1000));
    let (reference, n, replies) = drain_event_digest(&mut m.world);
    x.row(&[
        ("engine", &"reference"),
        ("events", &n),
        ("ping replies", &replies),
        ("digest", &format_args!("{reference:016x}")),
    ]);
    drop(m);

    let mut m = build(GATEWAYS, HOSTS_PER_GW, seed);
    m.world.run_for(SimDuration::from_secs(SECS));
    let (sharded, n, replies) = drain_event_digest(&mut m.world);
    let mb = m.world.mailbox_stats();
    x.row(&[
        ("engine", &"sharded"),
        ("events", &n),
        ("ping replies", &replies),
        ("digest", &format_args!("{sharded:016x}")),
    ]);
    x.end_table();

    let identical = x.claim(
        "DESIGN.md §11",
        "the event digest of the reference stepper equals the sharded engine's",
        sharded == reference,
    );
    x.text(format_args!(
        "\nboth digests {}: the sharded engine is bit-equivalent to the",
        if identical { "identical" } else { "NOT identical" }
    ));
    x.text("reference (DESIGN.md §11 contract).");
    x.claim(
        "§5",
        "the city carries traffic: cross-island pings are answered and every cross-shard hand-off pushed (> 0) is popped",
        replies > 0 && mb.pushed > 0 && mb.pushed == mb.popped,
    );

    let e = m.world.engine_stats();
    x.text(format_args!(
        "\nwindow coordinator: {} windows, {:.2} of {GATEWAYS} shards stepped per window, \
         {} deliveries queued, pending peak {}",
        e.windows,
        e.shards_stepped as f64 / e.windows as f64,
        e.deliveries_queued,
        e.pending_peak,
    ));
}
