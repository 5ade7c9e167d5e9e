//! Criterion benchmark for the compiled packet-filter hot path
//! (DESIGN.md §13): a decision-cache hit against full rule walks at 16,
//! 256, and 4096 compiled rules. Every measured path must be
//! allocation-free under the counting allocator — the engine judges
//! packets inside `rint`, on stack buffers, with the same discipline as
//! the byte kernels — and the cache hit must undercut the 4096-rule walk
//! by at least 10× (the point of caching; asserted outside `--test`
//! mode, where nothing is actually timed).

use bench::alloc_count::allocs_during;
use criterion::{criterion_group, criterion_main, Criterion};
use filter::{Action, FilterConfig, FilterEngine, LimitConfig, PacketMeta, Rule};
use netstack::route::Prefix;
use sim::SimTime;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

bench::install_counting_alloc!();

/// `n` distinct /32-source rules, none of which match the probe packet,
/// so an uncached evaluation must consider the whole table — the
/// worst-case walk the decision cache exists to amortize.
fn miss_rules(n: usize) -> Vec<Rule> {
    (0..n)
        .map(|i| {
            let addr = Ipv4Addr::from(0x0A00_0000 | i as u32);
            Rule::any(Action::Deny).from(Prefix::new(addr, 32)).proto(6)
        })
        .collect()
}

/// The steady-state probe: one TCP flow, ports visible.
fn probe() -> PacketMeta {
    PacketMeta {
        src: u32::from(Ipv4Addr::new(44, 24, 0, 5)),
        dst: u32::from(Ipv4Addr::new(128, 95, 1, 4)),
        proto: 6,
        dport: 25,
        has_port: false, // port-independent walk: cacheable
    }
}

fn engine(rules: Vec<Rule>, cache_bits: u8) -> FilterEngine {
    FilterEngine::new(FilterConfig {
        gate: None,
        rules,
        default_action: Action::Allow,
        cache_bits,
        limit: LimitConfig::default(),
    })
}

/// Mean ns/eval over `iters` evaluations (for the hit-vs-walk ratio).
fn time_evals(e: &mut FilterEngine, m: &PacketMeta, iters: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(e.eval(SimTime::ZERO, black_box(m)));
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn bench_filter_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("filter_eval");
    let m = probe();

    // --- cache hit (4096 rules compiled, never walked) ----------------------
    let mut hot = engine(miss_rules(4096), 12);
    hot.eval(SimTime::ZERO, &m); // miss seeds the slot
    g.bench_function("cache_hit_4096_rules", |b| {
        b.iter(|| black_box(hot.eval(SimTime::ZERO, black_box(&m))))
    });
    let allocs = allocs_during(|| {
        hot.eval(SimTime::ZERO, &m);
    });
    eprintln!("filter_eval/cache_hit: {allocs} heap allocations per eval");
    assert_eq!(allocs, 0, "the cache-hit path must not touch the heap");

    // --- full walks at each table size --------------------------------------
    for n in [16usize, 256, 4096] {
        let mut e = engine(miss_rules(n), 0); // cache off: every eval walks
        e.eval(SimTime::ZERO, &m);
        g.bench_function(&format!("walk_{n}_rules"), |b| {
            b.iter(|| black_box(e.eval(SimTime::ZERO, black_box(&m))))
        });
        let allocs = allocs_during(|| {
            e.eval(SimTime::ZERO, &m);
        });
        eprintln!("filter_eval/walk_{n}: {allocs} heap allocations per eval");
        assert_eq!(allocs, 0, "the rule walk must not touch the heap");
    }
    g.finish();

    // --- the acceptance ratio: hit ≥10× cheaper than the 4096 walk ----------
    // Self-timed (Criterion keeps its medians to itself) and skipped under
    // --test, which runs each routine once without meaningful timing.
    if !std::env::args().any(|a| a == "--test") {
        let mut hot = engine(miss_rules(4096), 12);
        let mut cold = engine(miss_rules(4096), 0);
        hot.eval(SimTime::ZERO, &m);
        cold.eval(SimTime::ZERO, &m);
        time_evals(&mut hot, &m, 100_000); // warm-up
        time_evals(&mut cold, &m, 10_000);
        let hit = time_evals(&mut hot, &m, 1_000_000);
        let walk = time_evals(&mut cold, &m, 100_000);
        eprintln!(
            "filter_eval: cache hit {hit:.1} ns vs 4096-rule walk {walk:.1} ns ({:.0}×)",
            walk / hit
        );
        assert!(
            walk >= 10.0 * hit,
            "decision cache must be ≥10× cheaper than the 4096-rule walk \
             (hit {hit:.1} ns, walk {walk:.1} ns)"
        );
    }
}

criterion_group!(benches, bench_filter_eval);
criterion_main!(benches);
