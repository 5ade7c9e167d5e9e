//! The calendar's ratchet (DESIGN.md §6): re-keying a parked key earlier,
//! popping it and parking it again neither allocates nor grows the heap.

use crate::allocs_during;
use sim::{Scheduler, SimDuration, SimTime};

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

/// A re-key moves the one entry, so after the first round the calendar
/// neither grows nor allocates, however many rounds follow. (A calendar
/// that leaves replaced registrations behind holds 100,000 of them here
/// by the end.)
#[test]
fn rekey_earlier_under_far_deadline() {
    const KEYS: u32 = 32;
    const ROUNDS: u64 = 100_000;
    let mut s: Scheduler<u32> = Scheduler::new();
    let mut now = SimTime::ZERO;
    for k in 0..KEYS {
        s.set_deadline(k, Some(SimTime::from_secs(100 + u64::from(k))));
    }
    flood_rounds(&mut s, &mut now, 1);
    let mut peak = 0;
    let allocs = allocs_during(|| peak = flood_rounds(&mut s, &mut now, ROUNDS - 1));
    eprintln!(
        "scheduler/rekey_earlier_under_far_deadline: {allocs} heap allocations, \
         peak len {peak} / {ROUNDS} rounds"
    );
    assert_eq!(allocs, 0, "re-keying in place must not allocate");
    assert!(peak <= KEYS as usize, "{peak} entries for {KEYS} keys");
}

/// The calendar's work by component kind on a small deterministic world
/// (ROADMAP item 13, exact work ceilings): the paper's topology, the PC
/// pinging the Ethernet host through the gateway every 5 s for a minute.
/// Every figure is held exactly (`assert_eq!`), so a pop or a deadline
/// report that a change adds or saves fails here until it is recorded:
/// set the constant to the printed value.
#[test]
fn calendar_work_by_kind() {
    use gateway::world::KindCounts;
    const POPS: KindCounts = KindCounts {
        line: 56,
        channel: 26,
        segment: 26,
        tnc: 102,
        digi: 0,
        beacon: 0,
        host: 38,
        app: 11,
    };
    const REGISTRATIONS: KindCounts = KindCounts {
        line: 112,
        channel: 160,
        segment: 54,
        tnc: 134,
        digi: 0,
        beacon: 0,
        host: 147,
        app: 40,
    };
    let mut s = gateway::scenario::paper_topology(Default::default(), 1988);
    let ping = apps::ping::Pinger::new(
        gateway::scenario::ETHER_HOST_IP,
        1,
        12,
        SimDuration::from_secs(5),
        64,
    );
    s.world.add_app(s.pc, Box::new(ping));
    s.world.run_for(SimDuration::from_secs(60));
    let e = s.world.engine_stats();
    eprintln!(
        "engine/calendar_work_by_kind: pops {:?}, registrations {:?}",
        e.calendar_pops, e.calendar_registrations
    );
    assert_eq!(e.calendar_pops.total(), s.world.sched_stats().pops);
    assert_eq!(e.calendar_pops, POPS);
    assert_eq!(e.calendar_registrations, REGISTRATIONS);
}
