//! Criterion benchmark for the sharded engine's cross-shard hand-off
//! (DESIGN.md §11). One claim is asserted, not just measured: a *warm*
//! hand-off — spare-pool buffer reuse, `clone_into` copy, mailbox push,
//! shard-side pop, buffer return — performs **zero** heap allocations per
//! frame. A counting global allocator backs the assertion, and a whole
//! warmed-up mesh run double-checks it end to end through the world's
//! mailbox growth counters.

use bench::alloc_count::allocs_during;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ether::EtherFrame;
use sim::mailbox::Mailbox;
use sim::{SimDuration, SimTime};
use std::hint::black_box;

bench::install_counting_alloc!();

/// One coordinator→shard hand-off, exactly as the engine performs it:
/// recycle a buffer from the spare pool, copy the wire frame into it,
/// stamp and push it into the shard's mailbox; the shard pops it at its
/// delivery time and the consumed buffer goes back to the pool.
fn handoff(
    src: &EtherFrame,
    mailbox: &mut Mailbox<(SimTime, usize, EtherFrame)>,
    spare: &mut Vec<EtherFrame>,
    t: SimTime,
) {
    let mut buf = spare.pop().unwrap_or_else(EtherFrame::empty);
    src.clone_into(&mut buf);
    mailbox.push((t, 0, buf));
    let (_, _, frame) = mailbox.pop().expect("just pushed");
    spare.push(frame);
}

fn bench_handoff(c: &mut Criterion) {
    let src = EtherFrame::new(
        ether::MacAddr::local(1),
        ether::MacAddr::local(2),
        ether::EtherType::Ipv4,
        vec![0x5a; 256],
    );
    let mut mailbox = Mailbox::with_capacity(4);
    let mut spare: Vec<EtherFrame> = Vec::with_capacity(4);

    // Warm-up: size the spare buffer's payload and the ring once.
    handoff(&src, &mut mailbox, &mut spare, SimTime::ZERO);

    // The assertion behind §11's acceptance line: a warm hand-off is
    // allocation-free, no matter how many frames cross.
    let allocs = allocs_during(|| {
        for i in 0..10_000u64 {
            handoff(&src, &mut mailbox, &mut spare, SimTime::from_nanos(i));
        }
    });
    assert_eq!(
        allocs, 0,
        "warm cross-shard hand-off must not allocate (saw {allocs} allocations / 10k frames)"
    );
    assert_eq!(mailbox.stats().grows, 0, "pre-sized ring must not grow");

    let mut g = c.benchmark_group("shard_sync");
    g.throughput(Throughput::Elements(1));
    g.bench_function("handoff_warm", |b| {
        b.iter(|| {
            handoff(
                black_box(&src),
                &mut mailbox,
                &mut spare,
                SimTime::from_nanos(7),
            );
        })
    });
    g.finish();
}

/// End-to-end: a warmed-up two-island mesh keeps exchanging cross-shard
/// pings without a single mailbox ring growth, and the sharded run stays
/// digest-identical to the reference (checked exhaustively in the
/// `shard_equivalence` suite; here we only keep the rings honest).
fn bench_mesh_warm(c: &mut Criterion) {
    fn setup() -> gateway::scenario::MeshNet {
        let mut m = gateway::scenario::mesh(2, 1, 9);
        for (g, island) in m.hosts.iter().enumerate() {
            let p = apps::ping::Pinger::new(
                gateway::scenario::city::host_ip((g + 1) % 2, 0),
                g as u16,
                20,
                SimDuration::from_secs(3),
                64,
            )
            .delayed(SimDuration::from_millis(300 + 700 * g as u64));
            m.world.add_app(island[0], Box::new(p));
        }
        m.world.set_workers(2);
        m
    }

    // Warm a world, then assert steady state: more hand-offs, zero ring
    // growth.
    let mut m = setup();
    m.world.run_for(SimDuration::from_secs(30));
    let warm = m.world.mailbox_stats();
    assert!(warm.pushed > 0, "pings must cross shards");
    m.world.run_for(SimDuration::from_secs(30));
    let done = m.world.mailbox_stats();
    assert!(done.pushed > warm.pushed, "traffic must keep flowing");
    assert_eq!(done.grows, warm.grows, "warm mailbox rings must not grow");

    let mut g = c.benchmark_group("shard_sync");
    g.sample_size(10);
    g.bench_function("mesh2_60s_2workers", |b| {
        b.iter_batched(
            setup,
            |mut m| {
                m.world.run_for(SimDuration::from_secs(60));
                black_box(m.world.now)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_handoff, bench_mesh_warm);
criterion_main!(benches);
