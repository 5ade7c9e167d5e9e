//! A deadline-indexed component scheduler (the simulator's calendar).
//!
//! Instead of scanning every component for its `next_deadline()` on every
//! step, the world keeps one [`Scheduler`] entry per component. The entry
//! is **lazily re-keyed**: when a component's self-reported deadline
//! changes, the old entry is tombstoned (the [`EventQueue`] cancellation
//! machinery) and a fresh one scheduled; stale entries are skipped on pop.
//! Deadlines that did not change cost a hash lookup and nothing else.
//!
//! Two interchangeable backends are provided:
//!
//! * the default binary-heap [`EventQueue`] — O(log n) per re-key, exact
//!   (time, seq) order;
//! * an optional **hierarchical timer wheel** ([`TimerWheel`]) for the
//!   dense per-character band, where deadlines cluster a character-time
//!   apart — O(1) insert/cancel, entries sorted per slot on pop.
//!
//! Both backends yield the identical pop order: ties at equal time break
//! by schedule order (a monotone sequence number), never by container
//! internals. Determinism is the hard constraint here; the equivalence is
//! pinned by tests below and by the world-level scheduler proptest.

use crate::fxhash::{FxHashMap, FxHashSet};
use std::hash::Hash;

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Counters describing how much work the calendar did; reported by E2
/// alongside the buffer-pool counters so scheduler work is a measured
/// artifact.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Live (non-tombstone) entries popped.
    pub pops: u64,
    /// Deadline changes that cancelled + rescheduled an entry.
    pub rekeys: u64,
    /// `set_deadline` calls where the deadline had not changed (no heap
    /// traffic at all).
    pub unchanged: u64,
    /// Stale (cancelled) entries lazily dropped during pops/peeks.
    pub tombstone_skips: u64,
    /// Component poll/advance visits the world actually performed.
    pub polled: u64,
    /// Distinct instants the world stopped at.
    pub instants: u64,
    /// Serial characters the world delivered in line-paced runs (one
    /// calendar visit per frame boundary, not per character).
    pub batched_chars: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    time: SimTime,
    id: Handle,
}

#[derive(Debug, Clone, Copy)]
enum Handle {
    Heap(EventId),
    Wheel(u64),
}

#[derive(Debug)]
enum Backend<K> {
    Heap(EventQueue<K>),
    Wheel(TimerWheel<K>),
}

/// A per-component deadline index over a cancellable calendar queue.
///
/// # Examples
///
/// ```
/// use sim::sched::Scheduler;
/// use sim::SimTime;
///
/// let mut s: Scheduler<&str> = Scheduler::new();
/// s.set_deadline("line", Some(SimTime::from_millis(2)));
/// s.set_deadline("host", Some(SimTime::from_millis(1)));
/// s.set_deadline("line", Some(SimTime::from_millis(3))); // lazy re-key
/// assert_eq!(s.pop(), Some((SimTime::from_millis(1), "host")));
/// assert_eq!(s.pop(), Some((SimTime::from_millis(3), "line")));
/// assert_eq!(s.pop(), None);
/// ```
#[derive(Debug)]
pub struct Scheduler<K: Copy + Eq + Hash> {
    backend: Backend<K>,
    index: FxHashMap<K, Slot>,
    stats: SchedStats,
}

impl<K: Copy + Eq + Hash> Default for Scheduler<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash> Scheduler<K> {
    /// Creates an empty scheduler on the binary-heap backend.
    pub fn new() -> Self {
        Scheduler {
            backend: Backend::Heap(EventQueue::new()),
            index: FxHashMap::default(),
            stats: SchedStats::default(),
        }
    }

    /// Creates an empty scheduler on the hierarchical timer-wheel backend
    /// with the given slot granularity (e.g. one millisecond for the
    /// per-character serial band).
    pub fn with_wheel(granularity: SimDuration) -> Self {
        Scheduler {
            backend: Backend::Wheel(TimerWheel::new(granularity)),
            index: FxHashMap::default(),
            stats: SchedStats::default(),
        }
    }

    /// True if the timer-wheel backend is in use.
    pub fn is_wheel(&self) -> bool {
        matches!(self.backend, Backend::Wheel(_))
    }

    /// Registers `key`'s next deadline, re-keying only if it changed.
    ///
    /// `None` removes the registration. Unchanged deadlines are a no-op
    /// (counted in [`SchedStats::unchanged`]).
    pub fn set_deadline(&mut self, key: K, deadline: Option<SimTime>) {
        match (self.index.get(&key).copied(), deadline) {
            (Some(slot), Some(t)) if slot.time == t => {
                self.stats.unchanged += 1;
            }
            (Some(slot), Some(t)) => {
                self.cancel(slot.id);
                let id = self.schedule(t, key);
                self.index.insert(key, Slot { time: t, id });
                self.stats.rekeys += 1;
            }
            (Some(slot), None) => {
                self.cancel(slot.id);
                self.index.remove(&key);
                self.stats.rekeys += 1;
            }
            (None, Some(t)) => {
                let id = self.schedule(t, key);
                self.index.insert(key, Slot { time: t, id });
            }
            (None, None) => {}
        }
    }

    /// The deadline currently registered for `key`, if any.
    pub fn deadline_of(&self, key: &K) -> Option<SimTime> {
        self.index.get(key).map(|s| s.time)
    }

    /// The earliest registered deadline.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(q) => q.peek_time(),
            Backend::Wheel(w) => w.peek_time(),
        }
    }

    /// Pops the earliest registered (time, key); the key is deregistered
    /// and must be re-registered via [`Scheduler::set_deadline`] once its
    /// component has been serviced.
    pub fn pop(&mut self) -> Option<(SimTime, K)> {
        let popped = match &mut self.backend {
            Backend::Heap(q) => q.pop(),
            Backend::Wheel(w) => w.pop(),
        };
        if let Some((_, key)) = &popped {
            self.stats.pops += 1;
            self.index.remove(key);
        }
        popped
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Scheduler statistics (tombstone skips read through to the backend).
    pub fn stats(&self) -> SchedStats {
        let mut s = self.stats;
        s.tombstone_skips = match &self.backend {
            Backend::Heap(q) => q.tombstone_skips(),
            Backend::Wheel(w) => w.tombstone_skips(),
        };
        s
    }

    /// Mutable access for world-maintained counters (polls, instants,
    /// batched characters).
    pub fn stats_mut(&mut self) -> &mut SchedStats {
        &mut self.stats
    }

    fn schedule(&mut self, time: SimTime, key: K) -> Handle {
        match &mut self.backend {
            Backend::Heap(q) => Handle::Heap(q.schedule(time, key)),
            Backend::Wheel(w) => Handle::Wheel(w.schedule(time, key)),
        }
    }

    fn cancel(&mut self, id: Handle) {
        match (&mut self.backend, id) {
            (Backend::Heap(q), Handle::Heap(id)) => {
                q.cancel(id);
            }
            (Backend::Wheel(w), Handle::Wheel(seq)) => {
                w.cancel(seq);
            }
            // A handle from a previous backend cannot outlive the swap:
            // backends are chosen at construction time.
            _ => unreachable!("scheduler handle from a different backend"),
        }
    }
}

const L0_SLOTS: u64 = 256;
const L1_SLOTS: u64 = 64;

#[derive(Debug, Clone)]
struct WheelEntry<K> {
    time: SimTime,
    seq: u64,
    key: K,
}

/// A two-level hierarchical timer wheel with deterministic pop order.
///
/// Level 0 holds one slot per `granularity`; level 1 holds frames of
/// [`L0_SLOTS`] level-0 slots; everything beyond that horizon waits in an
/// overflow list and cascades down as the cursor reaches it. Entries in a
/// slot are sorted by (time, seq) when the slot becomes current, so pop
/// order is exactly the [`EventQueue`] order.
#[derive(Debug)]
pub struct TimerWheel<K> {
    granularity_ns: u64,
    l0: Vec<Vec<WheelEntry<K>>>,
    l1: Vec<Vec<WheelEntry<K>>>,
    overflow: Vec<WheelEntry<K>>,
    /// Absolute level-0 slot index; every live entry's slot is >= cursor.
    cursor: u64,
    /// Entries (live or tombstoned) per region, to allow cursor jumps.
    l0_count: usize,
    l1_count: usize,
    /// True when the current slot has been sorted since its last insert.
    head_sorted: bool,
    next_seq: u64,
    cancelled: FxHashSet<u64>,
    live: usize,
    skips: u64,
}

impl<K: Copy> TimerWheel<K> {
    fn new(granularity: SimDuration) -> TimerWheel<K> {
        TimerWheel {
            granularity_ns: granularity.as_nanos().max(1),
            l0: (0..L0_SLOTS).map(|_| Vec::new()).collect(),
            l1: (0..L1_SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            cursor: 0,
            l0_count: 0,
            l1_count: 0,
            head_sorted: false,
            next_seq: 0,
            cancelled: FxHashSet::default(),
            live: 0,
            skips: 0,
        }
    }

    fn slot_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.granularity_ns
    }

    fn schedule(&mut self, time: SimTime, key: K) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(WheelEntry { time, seq, key });
        self.live += 1;
        seq
    }

    fn insert(&mut self, e: WheelEntry<K>) {
        // Entries in the past (relative to the cursor) land in the current
        // slot; (time, seq) sorting still pops them first.
        let slot = self.slot_of(e.time).max(self.cursor);
        if slot - self.cursor < L0_SLOTS {
            if slot == self.cursor {
                self.head_sorted = false;
            }
            self.l0[(slot % L0_SLOTS) as usize].push(e);
            self.l0_count += 1;
        } else if slot / L0_SLOTS - self.cursor / L0_SLOTS < L1_SLOTS {
            self.l1[((slot / L0_SLOTS) % L1_SLOTS) as usize].push(e);
            self.l1_count += 1;
        } else {
            self.overflow.push(e);
        }
    }

    fn cancel(&mut self, seq: u64) -> bool {
        if seq < self.next_seq && self.cancelled.insert(seq) {
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// Advances the cursor to the slot holding the earliest live entry and
    /// sorts it. Returns false if the wheel is empty.
    fn settle_head(&mut self) -> bool {
        loop {
            if self.live == 0 {
                return false;
            }
            let idx = (self.cursor % L0_SLOTS) as usize;
            if !self.l0[idx].is_empty() {
                if !self.head_sorted {
                    self.l0[idx].sort_by_key(|e| (e.time, e.seq));
                    self.head_sorted = true;
                }
                // Shed tombstones at the front.
                while let Some(first) = self.l0[idx].first() {
                    if self.cancelled.remove(&first.seq) {
                        self.l0[idx].remove(0);
                        self.l0_count -= 1;
                        self.skips += 1;
                    } else {
                        return true;
                    }
                }
            }
            self.advance_cursor();
        }
    }

    fn advance_cursor(&mut self) {
        // Jump over regions that hold nothing at all.
        if self.l0_count == 0 && self.l1_count == 0 {
            let superframe = L0_SLOTS * L1_SLOTS;
            self.cursor = (self.cursor / superframe + 1) * superframe;
            self.cascade_overflow();
            self.cascade_l1();
            self.head_sorted = false;
            return;
        }
        if self.l0_count == 0 {
            self.cursor = (self.cursor / L0_SLOTS + 1) * L0_SLOTS;
        } else {
            self.cursor += 1;
        }
        if self.cursor.is_multiple_of(L0_SLOTS) {
            if (self.cursor / L0_SLOTS).is_multiple_of(L1_SLOTS) {
                self.cascade_overflow();
            }
            self.cascade_l1();
        }
        self.head_sorted = false;
    }

    fn cascade_l1(&mut self) {
        let fidx = ((self.cursor / L0_SLOTS) % L1_SLOTS) as usize;
        let pending = std::mem::take(&mut self.l1[fidx]);
        self.l1_count -= pending.len();
        for e in pending {
            self.insert(e);
        }
    }

    fn cascade_overflow(&mut self) {
        let horizon_frames = self.cursor / L0_SLOTS + L1_SLOTS;
        let pending = std::mem::take(&mut self.overflow);
        for e in pending {
            if self.slot_of(e.time).max(self.cursor) / L0_SLOTS < horizon_frames {
                self.insert(e);
            } else {
                self.overflow.push(e);
            }
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if self.settle_head() {
            let idx = (self.cursor % L0_SLOTS) as usize;
            self.l0[idx].first().map(|e| e.time)
        } else {
            None
        }
    }

    fn pop(&mut self) -> Option<(SimTime, K)> {
        if self.settle_head() {
            let idx = (self.cursor % L0_SLOTS) as usize;
            let e = self.l0[idx].remove(0);
            self.l0_count -= 1;
            self.live -= 1;
            Some((e.time, e.key))
        } else {
            None
        }
    }

    fn tombstone_skips(&self) -> u64 {
        self.skips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn rekey_only_on_change() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.set_deadline(1, Some(SimTime::from_millis(5)));
        s.set_deadline(1, Some(SimTime::from_millis(5)));
        s.set_deadline(1, Some(SimTime::from_millis(5)));
        let st = s.stats();
        assert_eq!(st.rekeys, 0);
        assert_eq!(st.unchanged, 2);
        s.set_deadline(1, Some(SimTime::from_millis(6)));
        assert_eq!(s.stats().rekeys, 1);
        assert_eq!(s.pop(), Some((SimTime::from_millis(6), 1)));
        assert_eq!(s.stats().tombstone_skips, 1, "stale entry shed on pop");
    }

    #[test]
    fn deregister_with_none() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.set_deadline(1, Some(SimTime::from_millis(5)));
        s.set_deadline(1, None);
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
        // None for an unknown key is fine.
        s.set_deadline(2, None);
    }

    #[test]
    fn pop_deregisters_key() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.set_deadline(7, Some(SimTime::from_millis(1)));
        assert_eq!(s.deadline_of(&7), Some(SimTime::from_millis(1)));
        s.pop();
        assert_eq!(s.deadline_of(&7), None);
        // Re-registering after a pop is a plain insert, not a re-key.
        s.set_deadline(7, Some(SimTime::from_millis(2)));
        assert_eq!(s.stats().rekeys, 0);
    }

    #[test]
    fn ties_pop_in_registration_order() {
        for wheel in [false, true] {
            let mut s: Scheduler<u32> = if wheel {
                Scheduler::with_wheel(SimDuration::from_millis(1))
            } else {
                Scheduler::new()
            };
            let t = SimTime::from_millis(9);
            for k in 0..10 {
                s.set_deadline(k, Some(t));
            }
            for k in 0..10 {
                assert_eq!(s.pop(), Some((t, k)), "wheel={wheel}");
            }
        }
    }

    #[test]
    fn wheel_spans_levels_and_overflow() {
        let mut s: Scheduler<u32> = Scheduler::with_wheel(SimDuration::from_millis(1));
        // Level 0 (within 256 ms), level 1 (within ~16 s), overflow (1 h).
        s.set_deadline(1, Some(SimTime::from_millis(3)));
        s.set_deadline(2, Some(SimTime::from_secs(4)));
        s.set_deadline(3, Some(SimTime::from_secs(3600)));
        assert_eq!(s.pop(), Some((SimTime::from_millis(3), 1)));
        assert_eq!(s.pop(), Some((SimTime::from_secs(4), 2)));
        assert_eq!(s.pop(), Some((SimTime::from_secs(3600), 3)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn wheel_cancel_and_past_insert() {
        let mut s: Scheduler<u32> = Scheduler::with_wheel(SimDuration::from_millis(1));
        s.set_deadline(1, Some(SimTime::from_secs(2)));
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2)));
        // Cursor has advanced to ~2 s; an earlier deadline still pops first
        // (it lands in the current slot, ordered by time).
        s.set_deadline(2, Some(SimTime::from_millis(10)));
        assert_eq!(s.pop(), Some((SimTime::from_millis(10), 2)));
        s.set_deadline(1, None);
        assert_eq!(s.pop(), None);
    }

    /// The wheel and the heap must agree on pop order for arbitrary
    /// interleavings of set/rekey/remove — the determinism contract.
    #[test]
    fn wheel_matches_heap_order_randomized() {
        let mut rng = SimRng::seed_from(0xC0FFEE);
        for round in 0..50 {
            let mut heap: Scheduler<u32> = Scheduler::new();
            let mut wheel: Scheduler<u32> =
                Scheduler::with_wheel(SimDuration::from_micros(1 + round % 7 * 499));
            let mut now = SimTime::ZERO;
            let mut log_h = Vec::new();
            let mut log_w = Vec::new();
            for _ in 0..200 {
                let op = rng.below(10);
                let key = rng.below(12) as u32;
                match op {
                    0..=5 => {
                        let t = now + SimDuration::from_micros(rng.below(40_000_000));
                        heap.set_deadline(key, Some(t));
                        wheel.set_deadline(key, Some(t));
                    }
                    6 => {
                        heap.set_deadline(key, None);
                        wheel.set_deadline(key, None);
                    }
                    _ => {
                        let a = heap.pop();
                        let b = wheel.pop();
                        assert_eq!(a, b, "round {round}");
                        if let Some((t, k)) = a {
                            now = now.max(t);
                            log_h.push((t, k));
                            log_w.push((t, k));
                        }
                    }
                }
            }
            loop {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "round {round} drain");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(log_h, log_w);
        }
    }
}
