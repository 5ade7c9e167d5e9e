//! What a station costs to build and to hold: the heap allocations and
//! bytes asked for while one 17-station island (a gateway and sixteen PCs
//! on one channel, plus the wired internet host) is built, the
//! allocations a whole benchmark city takes to build and deploy, the heap
//! bytes a built eight-island mesh with full gateway tables still holds,
//! and the inline size of a `Host`. The benchmark's city is 128 such
//! islands, 2,177 hosts. Each figure is held exactly, so a rise fails and
//! so does a fall nobody recorded: lower the constant to the printed value
//! in the change that lowers it.
//! The parts most stations lack — an Ethernet driver, a filter, VJ state
//! — live out of line, a station's KISS deframers are born with room for
//! the longest AX.25 frame, not for their length cap, a shard holds one
//! box per host and one per radio port (a serial line and its TNC in one
//! record) so its tables grow by pointers, and a host's interface
//! list and route table are born at the size its configuration names (a
//! gateway's full table at its final size, loaded in one pass). A
//! station's callsign is composed from its numbers, not formatted and
//! parsed, and a channel's hearing matrix is one buffer whose stride
//! doubles, not a row per station.

use bench::alloc_count::{allocs_during, bytes_during, live_bytes_during};
use gateway::scenario::{self, MeshOptions};
use sim::SimDuration;
use workload::{Arrival, FleetSpec, Mix, Pacing};

/// Heap allocations `scenario::mesh_with(1, 16, …)` makes.
const ISLAND_ALLOCS: u64 = 162;
/// Heap bytes `scenario::mesh_with(1, 16, …)` asks for.
const ISLAND_BYTES: u64 = 59_272;
/// Heap allocations the benchmark's `city_fleet_1w` world takes to build
/// (`scenario::mesh_with(128, 16, …)` with full tables) and to deploy its
/// fleet on.
const CITY_ALLOCS: u64 = 21_966;
/// Heap bytes `scenario::mesh_with(8, 16, …)` with full tables leaves
/// live. Resident size follows these, not the bytes asked for.
const MESH_LIVE_BYTES: i64 = 444_552;
/// `size_of::<gateway::Host>()`.
const HOST_BYTES: usize = 1_248;

#[test]
fn one_island_is_built_within_its_allocations() {
    let mut net = None;
    let allocs =
        allocs_during(|| net = Some(scenario::mesh_with(1, 16, 1988, MeshOptions::default())));
    let net = net.expect("built");
    assert_eq!(net.hosts[0].len(), 16);
    eprintln!("footprint/island: {allocs} heap allocations for 17 stations");
    assert_eq!(
        allocs, ISLAND_ALLOCS,
        "building one island made {allocs} heap allocations, not {ISLAND_ALLOCS}"
    );
}

#[test]
fn one_island_is_built_within_its_bytes() {
    let mut net = None;
    let bytes =
        bytes_during(|| net = Some(scenario::mesh_with(1, 16, 1988, MeshOptions::default())));
    let net = net.expect("built");
    assert_eq!(net.hosts[0].len(), 16);
    eprintln!("footprint/island: {bytes} heap bytes for 17 stations");
    assert_eq!(
        bytes, ISLAND_BYTES,
        "building one island asked for {bytes} heap bytes, not {ISLAND_BYTES}"
    );
}

/// The fleet the benchmark's `city_fleet_1w` deploys.
fn city_spec() -> FleetSpec {
    FleetSpec {
        seed: 1988,
        clients_per_island: 1,
        sessions_per_client: 16,
        pacing: Pacing::Closed(Arrival::Poisson(SimDuration::from_secs(20))),
        mix: Mix::balanced(),
        start_window: SimDuration::from_secs(10),
        session_timeout: SimDuration::from_secs(60),
    }
}

#[test]
fn a_city_is_built_within_its_allocations() {
    let opts = MeshOptions {
        full_tables: true,
        ..MeshOptions::default()
    };
    let mut fleet = None;
    let allocs = allocs_during(|| {
        let mut net = scenario::mesh_with(128, 16, 1988, opts);
        fleet = Some((workload::deploy(&mut net, &city_spec()), net));
    });
    let (fleet, net) = fleet.expect("built");
    assert_eq!(fleet.schedule.plans.len(), 128);
    assert_eq!(net.iter_hosts().count(), 2_048);
    eprintln!("footprint/city: {allocs} allocations for 2,177 hosts and their fleet");
    assert_eq!(
        allocs, CITY_ALLOCS,
        "building the city made {allocs} heap allocations, not {CITY_ALLOCS}"
    );
}

#[test]
fn a_built_mesh_holds_no_more_than_its_live_bytes() {
    let mut net = None;
    let opts = MeshOptions {
        full_tables: true,
        ..MeshOptions::default()
    };
    let live = live_bytes_during(|| net = Some(scenario::mesh_with(8, 16, 1988, opts)));
    let net = net.expect("built");
    assert_eq!(
        net.world.host(net.gateway(7)).stack.routes().routes().len(),
        9
    );
    eprintln!("footprint/mesh: {live} live heap bytes for 8 islands, 137 stations");
    assert_eq!(
        live, MESH_LIVE_BYTES,
        "a built 8-island mesh holds {live} live heap bytes, not {MESH_LIVE_BYTES}"
    );
}

#[test]
fn a_host_is_no_larger_inline() {
    let size = std::mem::size_of::<gateway::Host>();
    eprintln!("footprint/host: {size} bytes inline");
    assert_eq!(
        size, HOST_BYTES,
        "a Host is {size} bytes inline, not {HOST_BYTES}"
    );
}
