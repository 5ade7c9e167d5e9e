//! Model-based property test for the calendar: random
//! `set_deadline(Some/None)` / `peek_time` / `pop` scripts run against
//! [`Scheduler`] and against a naive model — a table of registrations
//! scanned linearly, ties broken by registration order — must agree on
//! every result and on the work counters after every step.

use proptest::prelude::*;
use sim::{SchedStats, Scheduler, SimTime};

const KEYS: usize = 64;

/// The calendar as a specification: each key's registration
/// `(time, registration number)`, plus the replaced registrations the
/// heap still holds (they are shed once nothing live sorts before them).
#[derive(Default)]
struct Model {
    current: Vec<Option<(SimTime, u64)>>,
    stale: Vec<(SimTime, u64)>,
    registrations: u64,
    stats: SchedStats,
}

impl Model {
    fn new() -> Model {
        Model {
            current: vec![None; KEYS],
            ..Model::default()
        }
    }

    fn set_deadline(&mut self, key: u32, deadline: Option<SimTime>) {
        let slot = &mut self.current[key as usize];
        if slot.map(|r| r.0) == deadline {
            self.stats.unchanged += 1;
            return;
        }
        if let Some(old) = slot.take() {
            self.stale.push(old);
            self.stats.rekeys += 1;
        }
        if let Some(t) = deadline {
            *slot = Some((t, self.registrations));
            self.registrations += 1;
        }
    }

    /// The earliest registration and its key, by linear scan.
    fn earliest(&self) -> Option<((SimTime, u64), u32)> {
        (0..KEYS as u32)
            .filter_map(|k| self.current[k as usize].map(|r| (r, k)))
            .min()
    }

    /// Looking at the head sheds every stale entry sorting before it.
    fn shed(&mut self, head: Option<(SimTime, u64)>) {
        let before = self.stale.len();
        self.stale.retain(|&s| head.is_some_and(|h| s > h));
        self.stats.tombstone_skips += (before - self.stale.len()) as u64;
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        let head = self.earliest().map(|(r, _)| r);
        self.shed(head);
        head.map(|r| r.0)
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let head = self.earliest();
        self.shed(head.map(|(r, _)| r));
        let ((t, _), k) = head?;
        self.current[k as usize] = None;
        self.stats.pops += 1;
        Some((t, k))
    }
}

proptest! {
    #[test]
    fn scheduler_matches_the_linear_scan_model(
        script in proptest::collection::vec((0u8..10, 0u32..KEYS as u32, 0u64..12), 1..400),
    ) {
        let mut sched: Scheduler<u32> = Scheduler::new();
        let mut model = Model::new();
        // Deadlines land on a coarse grid just ahead of the last pop, so
        // ties, re-keys to the same instant and past deadlines all occur.
        let mut now = 0u64;
        for (step, &(op, key, dt)) in script.iter().enumerate() {
            match op {
                0..=4 => {
                    let t = Some(SimTime::from_millis((now + dt).saturating_sub(3)));
                    sched.set_deadline(key, t);
                    model.set_deadline(key, t);
                }
                5 => {
                    sched.set_deadline(key, None);
                    model.set_deadline(key, None);
                }
                6 => prop_assert_eq!(sched.peek_time(), model.peek_time(), "step {}", step),
                _ => {
                    let got = sched.pop();
                    prop_assert_eq!(got, model.pop(), "step {}", step);
                    if let Some((t, _)) = got {
                        now = now.max(t.as_nanos() / 1_000_000);
                    }
                }
            }
            prop_assert_eq!(sched.stats(), model.stats, "step {}", step);
            prop_assert_eq!(sched.len(), model.current.iter().flatten().count());
        }
        // Drain: the rest pops in model order and leaves nothing behind.
        loop {
            let got = sched.pop();
            prop_assert_eq!(got, model.pop());
            prop_assert_eq!(sched.stats(), model.stats);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(sched.is_empty() && model.stale.is_empty());
    }
}
