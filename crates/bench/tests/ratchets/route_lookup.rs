//! The forwarding-plane hot path (DESIGN.md §14): a next-hop-cache hit,
//! compiled-LPM walks and linear table scans at 16, 256 and 4096 routes
//! are allocation-free — lookups happen per packet inside `send_ip`, with
//! the same discipline as the filter engine's eval path. That the
//! compiled walk stays bounded while the table grows is E18's golden
//! (`RouteTable::compiled_shape`, `Lpm::walk_depth`); what each costs is
//! `netstack.fwd.hit_ns` / `netstack.lpm.lookup_ns` /
//! `netstack.lpm.linear_ns` in every `benchmarks --trace 1` report.

use crate::allocs_during;
use netstack::fwd::{FwdCache, FwdDecision, FwdKind, FwdProbe};
use netstack::route::{Prefix, RouteTable};
use netstack::stack::IfaceId;
use std::hint::black_box;
use std::net::Ipv4Addr;

/// `n` distinct /24 routes none of which match the probe destination,
/// plus a default route — the probe therefore fails every specific
/// prefix and lands on the default, the worst case a linear scan faces
/// and the case the compiled trie answers in a bounded walk.
fn table(n: usize) -> RouteTable {
    let mut rt = RouteTable::new();
    for i in 0..n {
        let addr = Ipv4Addr::from(0x2C00_0000 | ((i as u32) << 8));
        rt.add(
            Prefix::new(addr, 24),
            Some(Ipv4Addr::new(10, 0, 0, 1)),
            IfaceId::new(0),
        );
    }
    rt.add(
        Prefix::default_route(),
        Some(Ipv4Addr::new(10, 0, 0, 254)),
        IfaceId::new(1),
    );
    rt
}

/// The steady-state probe: a destination only the default route covers.
const PROBE: Ipv4Addr = Ipv4Addr::new(9, 9, 9, 9);

/// The decision replayed, no walk at all.
#[test]
fn cache_hit() {
    let mut cache = FwdCache::new(12);
    let decision = FwdDecision::Via {
        prefix: Prefix::default_route(),
        iface: IfaceId::new(1),
        hop: Ipv4Addr::new(10, 0, 0, 254),
        encap: None,
    };
    cache.store(PROBE, FwdKind::Full, 7, 3, decision);
    let allocs = allocs_during(|| {
        black_box(cache.probe(PROBE, FwdKind::Full, 7, 3));
    });
    eprintln!("route_lookup/cache_hit: {allocs} heap allocations per probe");
    assert_eq!(allocs, 0, "the cache-hit path must not touch the heap");
    assert!(
        matches!(cache.probe(PROBE, FwdKind::Full, 7, 3), FwdProbe::Hit(d) if d == decision),
        "the probe must replay the stored decision"
    );
}

#[test]
fn compiled_walk_and_linear_scan_16_256_4096_routes() {
    for n in [16usize, 256, 4096] {
        let mut rt = table(n);
        rt.lookup_fast(PROBE); // compiles the trie
        let allocs = allocs_during(|| {
            black_box(rt.lookup_fast(PROBE));
        });
        eprintln!("route_lookup/compiled_walk_{n}: {allocs} heap allocations per lookup");
        assert_eq!(allocs, 0, "the compiled walk must not touch the heap");

        let allocs = allocs_during(|| {
            black_box(rt.lookup(PROBE));
        });
        eprintln!("route_lookup/linear_scan_{n}: {allocs} heap allocations per lookup");
        assert_eq!(allocs, 0, "the linear scan must not touch the heap");
    }
}
