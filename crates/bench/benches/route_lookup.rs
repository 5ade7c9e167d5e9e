//! Criterion benchmark for the forwarding-plane hot path (DESIGN.md
//! §14): a next-hop-cache hit against compiled-LPM walks and linear
//! table scans at 16, 256, and 4096 routes. Every measured path must be
//! allocation-free under the counting allocator — lookups happen per
//! packet inside `send_ip`, with the same discipline as the filter
//! engine's eval path — and two ratios are asserted outside `--test`
//! mode: the cache hit undercuts the 4096-route linear walk by at least
//! 10× (the point of memoizing the decision), and the compiled walk
//! beats the linear scan once the table holds 256 routes or more (the
//! point of compiling).

use bench::alloc_count::allocs_during;
use criterion::{criterion_group, criterion_main, Criterion};
use netstack::fwd::{FwdCache, FwdDecision, FwdKind, FwdProbe};
use netstack::route::{Prefix, RouteTable};
use netstack::stack::IfaceId;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

bench::install_counting_alloc!();

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

/// Mean ns/lookup over `iters` calls of `f` (for the acceptance ratios).
fn time_lookups(iters: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn bench_route_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("route_lookup");

    // --- next-hop-cache hit (decision replayed, no walk at all) -------------
    let mut cache = FwdCache::new(12);
    let decision = FwdDecision::Via {
        prefix: Prefix::default_route(),
        iface: IfaceId::new(1),
        hop: Ipv4Addr::new(10, 0, 0, 254),
        encap: None,
    };
    cache.store(PROBE, FwdKind::Full, 7, 3, decision);
    g.bench_function("cache_hit", |b| {
        b.iter(|| black_box(cache.probe(black_box(PROBE), FwdKind::Full, 7, 3)))
    });
    let allocs = allocs_during(|| {
        black_box(cache.probe(PROBE, FwdKind::Full, 7, 3));
    });
    eprintln!("route_lookup/cache_hit: {allocs} heap allocations per probe");
    assert_eq!(allocs, 0, "the cache-hit path must not touch the heap");
    assert!(
        matches!(cache.probe(PROBE, FwdKind::Full, 7, 3), FwdProbe::Hit(d) if d == decision),
        "the probe must replay the stored decision"
    );

    // --- compiled walk and linear scan at each table size -------------------
    for n in [16usize, 256, 4096] {
        let mut rt = table(n);
        rt.lookup_fast(PROBE); // compile before timing
        g.bench_function(&format!("compiled_walk_{n}_routes"), |b| {
            b.iter(|| black_box(rt.lookup_fast(black_box(PROBE))))
        });
        let allocs = allocs_during(|| {
            black_box(rt.lookup_fast(PROBE));
        });
        eprintln!("route_lookup/compiled_walk_{n}: {allocs} heap allocations per lookup");
        assert_eq!(allocs, 0, "the compiled walk must not touch the heap");

        g.bench_function(&format!("linear_scan_{n}_routes"), |b| {
            b.iter(|| black_box(rt.lookup(black_box(PROBE))))
        });
        let allocs = allocs_during(|| {
            black_box(rt.lookup(PROBE));
        });
        eprintln!("route_lookup/linear_scan_{n}: {allocs} heap allocations per lookup");
        assert_eq!(allocs, 0, "the linear scan must not touch the heap");
    }
    g.finish();

    // --- the acceptance ratios ----------------------------------------------
    // Self-timed (Criterion keeps its medians to itself) and skipped under
    // --test, which runs each routine once without meaningful timing.
    if !std::env::args().any(|a| a == "--test") {
        let mut rt4096 = table(4096);
        let mut rt256 = table(256);
        rt4096.lookup_fast(PROBE);
        rt256.lookup_fast(PROBE);
        time_lookups(100_000, || {
            black_box(cache.probe(PROBE, FwdKind::Full, 7, 3));
        });
        let hit = time_lookups(1_000_000, || {
            black_box(cache.probe(PROBE, FwdKind::Full, 7, 3));
        });
        let linear = time_lookups(100_000, || {
            black_box(rt4096.lookup(PROBE));
        });
        let compiled = time_lookups(1_000_000, || {
            black_box(rt4096.lookup_fast(PROBE));
        });
        let linear256 = time_lookups(300_000, || {
            black_box(rt256.lookup(PROBE));
        });
        let compiled256 = time_lookups(1_000_000, || {
            black_box(rt256.lookup_fast(PROBE));
        });
        eprintln!(
            "route_lookup: cache hit {hit:.1} ns vs 4096-route linear {linear:.1} ns \
             ({:.0}×); compiled {compiled:.1} ns",
            linear / hit
        );
        eprintln!(
            "route_lookup: 256 routes — compiled {compiled256:.1} ns vs linear {linear256:.1} ns"
        );
        assert!(
            linear >= 10.0 * hit,
            "next-hop cache must be ≥10× cheaper than the 4096-route linear scan \
             (hit {hit:.1} ns, linear {linear:.1} ns)"
        );
        assert!(
            compiled256 < linear256,
            "the compiled walk must beat the linear scan at 256 routes \
             (compiled {compiled256:.1} ns, linear {linear256:.1} ns)"
        );
    }
}

criterion_group!(benches, bench_route_lookup);
criterion_main!(benches);
