//! What a station costs to hold: the heap bytes asked for while one
//! 17-station island (a gateway and sixteen PCs on one channel, plus the
//! wired internet host) is built, the heap bytes a built eight-island mesh
//! with full gateway tables still holds, and the inline size of a `Host`.
//! The benchmark's city is 128 such islands, 2,177 hosts, so each may
//! only fall.
//! The parts most stations lack — an Ethernet driver, a filter, VJ state
//! — live out of line, a station's KISS deframers are born with room for
//! the longest AX.25 frame, not for their length cap, a shard holds one
//! box per host and one per radio port (a serial line and its TNC in one
//! record) so its tables grow by pointers, and a host's interface
//! list and route table are born at the size its configuration names (a
//! gateway's full table at its final size).

use bench::alloc_count::{bytes_during, live_bytes_during};
use gateway::scenario::{self, MeshOptions};

/// Heap bytes `scenario::mesh_with(1, 16, …)` asks for.
const ISLAND_BYTES: u64 = 61_908;
/// Heap bytes `scenario::mesh_with(8, 16, …)` with full tables leaves
/// live. Resident size follows these, not the bytes asked for.
const MESH_LIVE_BYTES: i64 = 457_424;
/// `size_of::<gateway::Host>()`.
const HOST_BYTES: usize = 1_328;

#[test]
fn one_island_is_built_within_its_bytes() {
    let mut net = None;
    let bytes =
        bytes_during(|| net = Some(scenario::mesh_with(1, 16, 1988, MeshOptions::default())));
    let net = net.expect("built");
    assert_eq!(net.hosts[0].len(), 16);
    eprintln!("footprint/island: {bytes} heap bytes for 17 stations");
    assert!(
        bytes <= ISLAND_BYTES,
        "building one island asked for {bytes} heap bytes, above the ceiling {ISLAND_BYTES}"
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
    assert!(
        live <= MESH_LIVE_BYTES,
        "a built 8-island mesh holds {live} live heap bytes, above the ceiling {MESH_LIVE_BYTES}"
    );
}

#[test]
fn a_host_is_no_larger_inline() {
    let size = std::mem::size_of::<gateway::Host>();
    eprintln!("footprint/host: {size} bytes inline");
    assert!(
        size <= HOST_BYTES,
        "a Host is {size} bytes inline, above the ceiling {HOST_BYTES}"
    );
}
