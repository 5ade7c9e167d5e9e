//! The §4.3 gate's steady state (DESIGN.md §13) is allocation-free: once
//! an (amateur, foreign) pair is open, the amateur's refresh, the foreign
//! reply through the live entry and an unsolicited foreign packet refused
//! at the gate (`gw_flood`'s case) touch no heap — the engine judges
//! packets inside `rint`, with the same discipline as the byte kernels.
//! What an evaluation costs is `filter.eval_miss_ns` in every
//! `benchmarks --trace 1` report.

use crate::allocs_during;
use filter::{FilterConfig, FilterEngine, PacketMeta, Verdict};
use sim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

const AMATEUR: Ipv4Addr = Ipv4Addr::new(44, 24, 0, 5);
const FOREIGN: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 4);
const STRANGER: Ipv4Addr = Ipv4Addr::new(128, 95, 1, 9);

/// One UDP datagram from `src` to `dst`, ports visible.
fn packet(src: Ipv4Addr, dst: Ipv4Addr) -> PacketMeta {
    PacketMeta {
        src: u32::from(src),
        dst: u32::from(dst),
        proto: 17,
        dport: 53,
        has_port: true,
    }
}

#[test]
fn gate_steady_state() {
    let mut e = FilterEngine::new(FilterConfig::gateway());
    let t0 = SimTime::ZERO;
    assert_eq!(e.eval(t0, &packet(AMATEUR, FOREIGN)), Verdict::Allow);
    assert_eq!(e.stats().gate_opened, 1, "the warm-up opened the pair");
    let t1 = t0 + SimDuration::from_secs(1);
    let cases = [
        ("refresh", packet(AMATEUR, FOREIGN), Verdict::Allow),
        ("reply", packet(FOREIGN, AMATEUR), Verdict::Allow),
        ("refused", packet(STRANGER, AMATEUR), Verdict::Deny),
    ];
    for (name, m, want) in cases {
        let mut got = None;
        let allocs = allocs_during(|| {
            got = Some(e.eval(t1, &m));
        });
        eprintln!("filter_eval/{name}: {allocs} heap allocations per eval");
        assert_eq!(got, Some(want), "{name}: verdict");
        assert_eq!(allocs, 0, "{name}: the gate must not touch the heap");
    }
    let s = e.stats();
    assert_eq!((s.gate_refreshed, s.gate_denied), (1, 1));
}
