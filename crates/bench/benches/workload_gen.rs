//! Criterion benchmark for the workload subsystem (DESIGN.md §12).
//!
//! Two things are measured and one is asserted:
//!
//! * fleet schedule generation — the pure expansion of a [`FleetSpec`]
//!   into per-client session plans plus its FNV digest (the cost of
//!   standing up a city's worth of users);
//! * the recorder hot path — latency record + counter updates, the
//!   code every live flow runs per operation;
//! * **asserted**: the recorder hot path (record, observe, complete,
//!   merge, quantile) performs **zero** heap allocations under a
//!   counting global allocator. A fleet of ten thousand clients records
//!   from inside the per-shard step loop — a single allocation there
//!   would multiply across the whole city.

use bench::alloc_count::allocs_during;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sim::SimDuration;
use std::hint::black_box;
use workload::report::{fleet_table, FlowRecorder, LatencyHisto};
use workload::{build_schedule, Arrival, FleetSpec, Mix, Pacing};

bench::install_counting_alloc!();

fn city_spec() -> FleetSpec {
    FleetSpec {
        clients_per_island: 4,
        sessions_per_client: 6,
        pacing: Pacing::Open(Arrival::Poisson(SimDuration::from_secs(5))),
        mix: Mix::interactive(),
        ..FleetSpec::default()
    }
}

fn bench_schedule(c: &mut Criterion) {
    let spec = city_spec();
    let mut g = c.benchmark_group("workload_gen");
    // 64 islands x 4 clients x 6 sessions = 1536 planned sessions.
    g.throughput(Throughput::Elements(64 * 4 * 6));
    g.bench_function("schedule_64islands", |b| {
        b.iter(|| {
            let s = build_schedule(64, black_box(&spec));
            black_box(s.digest())
        })
    });
    g.finish();
}

fn bench_recorder(c: &mut Criterion) {
    // Assert first: the whole per-operation recording path is
    // allocation-free once the recorder exists.
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

    let mut g = c.benchmark_group("workload_gen");
    g.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    g.bench_function("recorder_record", |b| {
        let mut r = FlowRecorder::new();
        b.iter(|| {
            i = i.wrapping_add(1);
            r.start();
            r.observe(SimDuration::from_micros(50 + (i * 37) % 900_000));
            r.complete(64);
            black_box(&r);
        })
    });
    g.bench_function("histo_quantile", |b| {
        let mut h = LatencyHisto::new();
        for k in 0..100_000u64 {
            h.record_us(10 + (k * 131) % 5_000_000);
        }
        b.iter(|| black_box(h.p99()))
    });
    g.bench_function("histo_merge", |b| {
        let mut a = LatencyHisto::new();
        let mut src = LatencyHisto::new();
        for k in 0..1_000u64 {
            src.record_us(k * 997 % 800_000);
        }
        b.iter(|| {
            a.merge(black_box(&src));
            black_box(&a);
        })
    });
    g.finish();

    // The rendered table allocates (strings) — just prove it works on
    // merged recorders.
    let table = fleet_table(&[("typist", &other)], SimDuration::from_secs(30));
    assert!(table.contains("p99"));
}

criterion_group!(benches, bench_schedule, bench_recorder);
criterion_main!(benches);
