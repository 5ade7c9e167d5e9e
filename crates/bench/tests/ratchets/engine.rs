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
