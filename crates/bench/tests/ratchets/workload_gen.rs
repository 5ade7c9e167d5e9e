//! The workload recorder (DESIGN.md §12): the per-operation hot path —
//! record, observe, complete, merge, quantile — performs **zero** heap
//! allocations. A fleet of ten thousand clients records from inside the
//! per-shard step loop; a single allocation there would multiply across
//! the whole city.

use crate::allocs_during;
use sim::SimDuration;
use std::hint::black_box;
use workload::report::{fleet_table, FlowRecorder};

#[test]
fn recorder_record() {
    let mut r = FlowRecorder::new();
    let mut other = FlowRecorder::new();
    let allocs = allocs_during(|| {
        for i in 0..10_000u64 {
            r.start();
            r.observe(SimDuration::from_micros(50 + (i * 37) % 900_000));
            r.complete(64);
            if i % 16 == 0 {
                r.timeout();
            }
        }
        other.merge(&r);
        black_box(other.latency.p50());
        black_box(other.latency.p95());
        black_box(other.latency.p99());
    });
    assert_eq!(
        allocs, 0,
        "recorder hot path must not allocate (got {allocs} allocations / 10k ops)"
    );

    // The rendered table allocates (strings) — just prove it works on
    // merged recorders.
    let table = fleet_table(&[("typist", &other)], SimDuration::from_secs(30));
    assert!(table.contains("p99"));
}
