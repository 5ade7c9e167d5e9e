//! The calendar's ratchet (DESIGN.md §6): re-keying a parked key earlier,
//! popping it and parking it again neither allocates nor grows the heap.
//! Whole-engine cost is measured by `benchmarks/` (`paper_promisc`,
//! `gw_flood`, `city_fleet_1w`) and compared by `scripts/bench_pairs.sh`.

use bench::alloc_count::allocs_during;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sim::{Scheduler, SimDuration, SimTime};
use std::hint::black_box;

bench::install_counting_alloc!();

/// The flooded gateway's calendar traffic (DESIGN.md §6): of 32
/// registered keys one — the gateway host — is parked 100 s out (gate
/// expiry), re-keyed to `now + 50 µs` by each arriving datagram, popped,
/// and registered far again. Returns the largest `len()` seen.
fn flood_rounds(s: &mut Scheduler<u32>, now: &mut SimTime, rounds: u64) -> usize {
    const FAR: SimDuration = SimDuration::from_secs(100);
    let mut peak = 0;
    for _ in 0..rounds {
        s.set_deadline(0, Some(*now + SimDuration::from_micros(50)));
        peak = peak.max(s.len());
        // Nearly always the host; the other keys fire once per 100 s.
        let (t, key) = s.pop().expect("the re-keyed host is due");
        *now = t;
        s.set_deadline(key, Some(t + FAR));
    }
    peak
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.bench_function("register_pop_1k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u32> = Scheduler::new();
            for k in 0..1000u32 {
                let t = SimTime::from_nanos((u64::from(k) * 7919) % 100_000);
                s.set_deadline(k, Some(t));
            }
            let mut sum = 0u32;
            while let Some((_, k)) = s.pop() {
                sum += k;
            }
            black_box(sum)
        })
    });
    g.bench_function("register_cancel_half_1k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u32> = Scheduler::new();
            for k in 0..1000u32 {
                s.set_deadline(k, Some(SimTime::from_nanos(u64::from(k))));
            }
            for k in (0..1000u32).step_by(2) {
                s.set_deadline(k, None);
            }
            let mut n = 0;
            while s.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    const KEYS: u32 = 32;
    const ROUNDS: u64 = 100_000;
    let mut s: Scheduler<u32> = Scheduler::new();
    let mut now = SimTime::ZERO;
    for k in 0..KEYS {
        s.set_deadline(k, Some(SimTime::from_secs(100 + u64::from(k))));
    }
    // The ratchet: a re-key moves the one entry, so after the first
    // round the calendar neither grows nor allocates, however many
    // rounds follow. (A calendar that leaves replaced registrations
    // behind holds 100,000 of them here by the end.)
    flood_rounds(&mut s, &mut now, 1);
    let mut peak = 0;
    let allocs = allocs_during(|| peak = flood_rounds(&mut s, &mut now, ROUNDS - 1));
    eprintln!(
        "scheduler/rekey_earlier_under_far_deadline: {allocs} heap allocations, \
         peak len {peak} / {ROUNDS} rounds"
    );
    assert_eq!(allocs, 0, "re-keying in place must not allocate");
    assert!(peak <= KEYS as usize, "{peak} entries for {KEYS} keys");
    g.throughput(Throughput::Elements(ROUNDS));
    g.bench_function("rekey_earlier_under_far_deadline", |b| {
        b.iter(|| black_box(flood_rounds(&mut s, &mut now, ROUNDS)))
    });
    g.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
