//! What a station costs to hold: the heap bytes asked for while one
//! 17-station island (a gateway and sixteen PCs on one channel, plus the
//! wired internet host) is built, and the inline size of a `Host`. The
//! benchmark's city is 128 such islands, 2,177 hosts, so each may only
//! fall.
//! The parts most stations lack — an Ethernet driver, a filter, VJ state
//! — live out of line, and a station's KISS deframers are born with room
//! for the longest AX.25 frame, not for their length cap.

use bench::alloc_count::bytes_during;
use gateway::scenario::{self, MeshOptions};

/// Heap bytes `scenario::mesh_with(1, 16, …)` asks for.
const ISLAND_BYTES: u64 = 169_021;
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
fn a_host_is_no_larger_inline() {
    let size = std::mem::size_of::<gateway::Host>();
    eprintln!("footprint/host: {size} bytes inline");
    assert!(
        size <= HOST_BYTES,
        "a Host is {size} bytes inline, above the ceiling {HOST_BYTES}"
    );
}
