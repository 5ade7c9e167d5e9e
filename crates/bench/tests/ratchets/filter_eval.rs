//! The compiled packet-filter hot path (DESIGN.md §13): a decision-cache
//! hit and full rule walks at 16, 256 and 4096 compiled rules are
//! allocation-free — the engine judges packets inside `rint`, on stack
//! buffers, with the same discipline as the byte kernels. What a hit and
//! a walk cost is `filter.eval_hit_ns` / `filter.eval_miss_ns` in every
//! `benchmarks --trace 1` report.

use crate::allocs_during;
use filter::{Action, FilterConfig, FilterEngine, LimitConfig, PacketMeta, Rule};
use netstack::route::Prefix;
use sim::SimTime;
use std::net::Ipv4Addr;

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

/// 4096 rules compiled, never walked after the seeding miss.
#[test]
fn cache_hit_4096_rules() {
    let m = probe();
    let mut hot = engine(miss_rules(4096), 12);
    hot.eval(SimTime::ZERO, &m); // miss seeds the slot
    let allocs = allocs_during(|| {
        hot.eval(SimTime::ZERO, &m);
    });
    eprintln!("filter_eval/cache_hit: {allocs} heap allocations per eval");
    assert_eq!(allocs, 0, "the cache-hit path must not touch the heap");
}

#[test]
fn walk_16_256_4096_rules() {
    let m = probe();
    for n in [16usize, 256, 4096] {
        let mut e = engine(miss_rules(n), 0); // cache off: every eval walks
        e.eval(SimTime::ZERO, &m);
        let allocs = allocs_during(|| {
            e.eval(SimTime::ZERO, &m);
        });
        eprintln!("filter_eval/walk_{n}: {allocs} heap allocations per eval");
        assert_eq!(allocs, 0, "the rule walk must not touch the heap");
    }
}
