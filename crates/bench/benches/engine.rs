//! Criterion benchmarks for the simulation engine itself: calendar
//! operations, TCP state-machine steps, and a whole simulated second of
//! the paper topology — the costs that bound how fast experiments run.

use bench::alloc_count::allocs_during;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use netstack::tcp::{Tcb, TcpConfig};
use sim::{Scheduler, SimDuration, SimTime};
use std::hint::black_box;
use std::net::Ipv4Addr;

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

fn bench_tcp_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcp_machine");
    let a = (Ipv4Addr::new(10, 0, 0, 1), 1025u16);
    let b_addr = (Ipv4Addr::new(10, 0, 0, 2), 23u16);
    g.bench_function("handshake_and_1k_transfer", |b| {
        b.iter(|| {
            let now = SimTime::ZERO;
            let (mut alice, ev) = Tcb::connect(now, a, b_addr, 1000, TcpConfig::default());
            let syn = match &ev[0] {
                netstack::tcp::TcbEvent::Transmit(s) => s.clone(),
                _ => unreachable!(),
            };
            let (mut bob, ev) = Tcb::accept(now, b_addr, a, &syn, 9000, TcpConfig::default());
            let synack = match &ev[0] {
                netstack::tcp::TcbEvent::Transmit(s) => s.clone(),
                _ => unreachable!(),
            };
            let mut to_bob: Vec<netstack::tcp::TcpSegment> = Vec::new();
            for e in alice.on_segment(now, &synack) {
                if let netstack::tcp::TcbEvent::Transmit(s) = e {
                    to_bob.push(s);
                }
            }
            let (_, ev) = alice.send(now, &[0xAA; 1024]);
            for e in ev {
                if let netstack::tcp::TcbEvent::Transmit(s) = e {
                    to_bob.push(s);
                }
            }
            // One relay round is enough to exercise the hot paths.
            let mut to_alice = Vec::new();
            for s in &to_bob {
                for e in bob.on_segment(now, s) {
                    if let netstack::tcp::TcbEvent::Transmit(s) = e {
                        to_alice.push(s);
                    }
                }
            }
            for s in &to_alice {
                let _ = alice.on_segment(now, s);
            }
            black_box((alice.state(), bob.recv_available()))
        })
    });
    g.finish();
}

fn bench_world(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    g.sample_size(20);
    g.bench_function("paper_topology_60s_with_ping", |b| {
        b.iter_batched(
            || {
                let mut s =
                    gateway::scenario::paper_topology(gateway::scenario::PaperConfig::default(), 1);
                let p = apps::ping::Pinger::new(
                    gateway::scenario::ETHER_HOST_IP,
                    1,
                    3,
                    SimDuration::from_secs(15),
                    32,
                );
                s.world.add_app(s.pc, Box::new(p));
                s
            },
            |mut s| {
                s.world.run_for(SimDuration::from_secs(60));
                black_box(s.world.now)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The tentpole comparison: the deadline-indexed engine vs the full-scan
/// reference stepper on identical worlds. `paper_*` is the Figure-1
/// topology with a pinger (serial-character dominated); `beacons50_*` is
/// the E2-style overload: the gateway's promiscuous TNC behind a 2400 Bd
/// line hears 50 chattering stations, so every instant is either a
/// serial delivery (one calendar visit per frame boundary) or one due
/// MAC among 50 — the reference re-scans all ~60 components either way.
fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);

    fn paper_setup() -> gateway::scenario::PaperScenario {
        let mut s = gateway::scenario::paper_topology(gateway::scenario::PaperConfig::default(), 1);
        let p = apps::ping::Pinger::new(
            gateway::scenario::ETHER_HOST_IP,
            1,
            3,
            SimDuration::from_secs(15),
            32,
        );
        s.world.add_app(s.pc, Box::new(p));
        s
    }
    g.bench_function("paper_60s_reference", |b| {
        b.iter_batched(
            paper_setup,
            |mut s| {
                let t = s.world.now + SimDuration::from_secs(60);
                s.world.run_until_reference(t);
                black_box(s.world.now)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("paper_60s_indexed", |b| {
        b.iter_batched(
            paper_setup,
            |mut s| {
                s.world.run_for(SimDuration::from_secs(60));
                black_box(s.world.now)
            },
            BatchSize::SmallInput,
        )
    });

    fn beacons_setup() -> gateway::scenario::PaperScenario {
        let cfg = gateway::scenario::PaperConfig {
            serial_baud: 2400,
            acl: false,
            ..gateway::scenario::PaperConfig::default()
        };
        let mut s = gateway::scenario::paper_topology(cfg, 50);
        for i in 0..50 {
            s.world.add_beacon(
                s.chan,
                radio::traffic::BeaconConfig {
                    from: ax25::addr::Ax25Addr::parse_or_panic(&format!("BG{i}")),
                    to: ax25::addr::Ax25Addr::parse_or_panic("CHAT"),
                    frame_len: 120,
                    mean_interval: SimDuration::from_secs(60),
                    start: SimTime::from_millis(100 * i),
                    mac: radio::csma::MacConfig::default(),
                },
            );
        }
        // Only the gateway eavesdrops; the PC's TNC filters, so its
        // serial line stays quiet and the flood lands on one line.
        s.world
            .tnc_mut(s.pc_tnc)
            .set_mode(radio::tnc::RxMode::AddressFilter);
        s
    }
    g.bench_function("beacons50_60s_reference", |b| {
        b.iter_batched(
            beacons_setup,
            |mut s| {
                s.world.run_until_reference(SimTime::from_secs(60));
                black_box(s.world.now)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("beacons50_60s_indexed", |b| {
        b.iter_batched(
            beacons_setup,
            |mut s| {
                s.world.run_for(SimDuration::from_secs(60));
                black_box(s.world.now)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Worker-count scaling on a 16-island mesh (DESIGN.md §11): the same
/// world stepped by the sharded engine at 1, 2, 4, and 8 workers, plus
/// the full-scan reference. On a multi-core host the worker sweep shows
/// speedup; on a single core it shows coordination overhead — either way
/// the digest is bit-identical (asserted in `shard_equivalence`), so the
/// numbers are comparable. bench.sh stamps each row's worker count into
/// the `threads` field via the `_<n>w` name suffix.
fn bench_engine_shard(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_shard");
    g.sample_size(10);

    fn mesh_setup() -> gateway::scenario::MeshNet {
        let gateways = 16;
        let mut m = gateway::scenario::mesh(gateways, 2, 3);
        for gw in 0..gateways {
            let p = apps::ping::Pinger::new(
                gateway::scenario::city::host_ip((gw + 1) % gateways, 0),
                gw as u16,
                2,
                SimDuration::from_secs(5),
                64,
            )
            .delayed(SimDuration::from_millis(200 + (37 * gw as u64) % 1800));
            m.world.add_app(m.hosts[gw][0], Box::new(p));
        }
        m
    }
    g.bench_function("mesh16_30s_reference", |b| {
        b.iter_batched(
            mesh_setup,
            |mut m| {
                m.world.run_until_reference(SimTime::from_secs(30));
                black_box(m.world.now)
            },
            BatchSize::SmallInput,
        )
    });
    for workers in [1usize, 2, 4, 8] {
        g.bench_function(&format!("mesh16_30s_{workers}w"), |b| {
            b.iter_batched(
                || {
                    let mut m = mesh_setup();
                    m.world.set_workers(workers);
                    m
                },
                |mut m| {
                    m.world.run_for(SimDuration::from_secs(30));
                    black_box(m.world.now)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scheduler,
    bench_tcp_machine,
    bench_world,
    bench_engine,
    bench_engine_shard
);
criterion_main!(benches);
