//! Model-based property test for the calendar: random
//! `set_deadline(Some/None)` / `peek_time` / `pop` scripts run against
//! [`Scheduler`] and against a naive model — a table of registrations
//! scanned linearly, ties broken by registration order — must agree on
//! every result, on the work counters and on the calendar's length after
//! every step: one entry per registered key, never a stale one.

use proptest::prelude::*;
use sim::{SchedStats, Scheduler, SimTime};

const KEYS: usize = 64;

/// The calendar as a specification: each key's registration
/// `(time, registration number)`.
struct Model {
    current: Vec<Option<(SimTime, u64)>>,
    registrations: u64,
    stats: SchedStats,
}

impl Model {
    fn new() -> Model {
        Model {
            current: vec![None; KEYS],
            registrations: 0,
            stats: SchedStats::default(),
        }
    }

    fn set_deadline(&mut self, key: u32, deadline: Option<SimTime>) {
        let slot = &mut self.current[key as usize];
        if slot.map(|r| r.0) == deadline {
            self.stats.unchanged += 1;
            return;
        }
        if slot.take().is_some() {
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

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let ((t, _), k) = self.earliest()?;
        self.current[k as usize] = None;
        self.stats.pops += 1;
        Some((t, k))
    }

    fn registered(&self) -> usize {
        self.current.iter().flatten().count()
    }
}

/// The calendar and its specification, stepped together.
struct Pair {
    sched: Scheduler<u32>,
    model: Model,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            sched: Scheduler::new(),
            model: Model::new(),
        }
    }

    /// What must hold after every step: `pops`/`rekeys`/`unchanged` equal
    /// the model's (whose `tombstone_skips` stays 0) and the calendar
    /// holds exactly the registered keys.
    fn agree(&self, step: usize) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.sched.stats(), self.model.stats, "step {}", step);
        prop_assert_eq!(self.sched.stats().tombstone_skips, 0);
        prop_assert_eq!(self.sched.len(), self.model.registered(), "step {}", step);
        prop_assert_eq!(self.sched.is_empty(), self.model.registered() == 0);
        Ok(())
    }

    fn set(&mut self, step: usize, key: u32, t: Option<SimTime>) -> Result<(), TestCaseError> {
        self.sched.set_deadline(key, t);
        self.model.set_deadline(key, t);
        prop_assert_eq!(
            self.sched.deadline_of(key),
            self.model.current[key as usize].map(|r| r.0)
        );
        self.agree(step)
    }

    fn peek(&mut self, step: usize) -> Result<(), TestCaseError> {
        let head = self.model.earliest().map(|((t, _), _)| t);
        prop_assert_eq!(self.sched.peek_time(), head, "step {}", step);
        self.agree(step)
    }

    fn pop(&mut self, step: usize) -> Result<Option<(SimTime, u32)>, TestCaseError> {
        let got = self.sched.pop();
        prop_assert_eq!(got, self.model.pop(), "step {}", step);
        self.agree(step)?;
        Ok(got)
    }

    /// The rest pops in model order and leaves nothing behind.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        while self.pop(usize::MAX)?.is_some() {}
        prop_assert!(self.sched.is_empty());
        Ok(())
    }
}

proptest! {
    #[test]
    fn scheduler_matches_the_linear_scan_model(
        script in proptest::collection::vec((0u8..10, 0u32..KEYS as u32, 0u64..12), 1..400),
    ) {
        let mut pair = Pair::new();
        // Deadlines land on a coarse grid just ahead of the last pop, so
        // ties, re-keys to the same instant and past deadlines all occur.
        let mut now = 0u64;
        for (step, &(op, key, dt)) in script.iter().enumerate() {
            match op {
                0..=4 => {
                    let t = SimTime::from_millis((now + dt).saturating_sub(3));
                    pair.set(step, key, Some(t))?;
                }
                5 => pair.set(step, key, None)?,
                6 => pair.peek(step)?,
                _ => {
                    if let Some((t, _)) = pair.pop(step)? {
                        now = now.max(t.as_nanos() / 1_000_000);
                    }
                }
            }
        }
        pair.drain()?;
    }

    /// The `gw_flood` pattern: every key parked at a far deadline, and a
    /// script dominated by "re-key one earlier, pop it, re-register it
    /// far" with the odd cancel, peek and far-to-farther re-key between.
    /// A calendar that kept replaced registrations would grow by one
    /// entry per round; this one must stay at the registered count.
    #[test]
    fn flooded_keys_parked_far_are_rekeyed_in_place(
        script in proptest::collection::vec((0u8..10, 0u32..KEYS as u32, 1u64..200), 1..400),
    ) {
        let far = |now: u64, key: u32| Some(SimTime::from_micros(now + 100_000_000 + u64::from(key)));
        let mut pair = Pair::new();
        for key in 0..KEYS as u32 {
            pair.set(0, key, far(0, key))?;
        }
        let mut now = 0u64;
        for (step, &(op, key, dt)) in script.iter().enumerate() {
            match op {
                0..=6 => {
                    pair.set(step, key, Some(SimTime::from_micros(now + dt)))?;
                    let (t, popped) = pair.pop(step)?.expect("something is due");
                    now = t.as_nanos() / 1_000;
                    pair.set(step, popped, far(now, popped))?;
                }
                7 => pair.set(step, key, far(now + dt, key))?,
                8 => pair.set(step, key, None)?,
                _ => pair.peek(step)?,
            }
        }
        pair.drain()?;
    }
}
