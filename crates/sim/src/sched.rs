//! The simulator's calendar: one deadline per component, in one heap.
//!
//! Instead of scanning every component for its `next_deadline()` on every
//! step, the world keeps one [`Scheduler`] registration per component. A
//! registration is the pair `(time, seq)` held in the key's dense slot;
//! every [`Scheduler::set_deadline`] that moves the deadline writes a
//! fresh pair there and pushes a matching heap entry. Nothing is ever
//! removed from the middle of the heap: an entry whose `(time, seq)` is
//! no longer its key's registration is **stale** and is dropped when it
//! reaches the top. Deadlines that did not change cost one vector load.
//!
//! Determinism is the hard constraint: entries pop in `(time, seq)`
//! order, so ties at equal time break by registration order (a monotone
//! sequence number), never by heap internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Counters describing how much work the calendar did; reported by E2
/// alongside the buffer-pool counters so scheduler work is a measured
/// artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Live (non-stale) entries popped.
    pub pops: u64,
    /// Deadline changes that replaced or removed a registration.
    pub rekeys: u64,
    /// `set_deadline` calls where the deadline had not changed (no heap
    /// traffic at all).
    pub unchanged: u64,
    /// Stale entries lazily dropped during pops/peeks.
    pub tombstone_skips: u64,
    /// Component poll/advance visits the world actually performed.
    pub polled: u64,
    /// Distinct instants the world stopped at.
    pub instants: u64,
    /// Serial characters the world delivered in line-paced runs (one
    /// calendar visit per frame boundary, not per character).
    pub batched_chars: u64,
}

/// A calendar key: names a component by a small dense slot number, the
/// index of its registration in the scheduler's table. Distinct keys must
/// map to distinct slots; the table grows to the largest slot seen.
pub trait SlotKey: Copy {
    /// The key's slot.
    fn slot(self) -> usize;
}

impl SlotKey for u32 {
    fn slot(self) -> usize {
        self as usize
    }
}

#[derive(Debug)]
struct Entry<K> {
    time: SimTime,
    seq: u64,
    key: K,
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<K> Eq for Entry<K> {}

impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
        // pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A per-component deadline calendar with lazy deletion.
///
/// # Examples
///
/// ```
/// use sim::sched::Scheduler;
/// use sim::SimTime;
///
/// const LINE: u32 = 0;
/// const HOST: u32 = 1;
/// let mut s: Scheduler<u32> = Scheduler::new();
/// s.set_deadline(LINE, Some(SimTime::from_millis(2)));
/// s.set_deadline(HOST, Some(SimTime::from_millis(1)));
/// s.set_deadline(LINE, Some(SimTime::from_millis(3))); // lazy re-key
/// assert_eq!(s.pop(), Some((SimTime::from_millis(1), HOST)));
/// assert_eq!(s.pop(), Some((SimTime::from_millis(3), LINE)));
/// assert_eq!(s.pop(), None);
/// ```
#[derive(Debug)]
pub struct Scheduler<K: SlotKey> {
    heap: BinaryHeap<Entry<K>>,
    /// Per key slot, the `(time, seq)` of its current registration.
    current: Vec<Option<(SimTime, u64)>>,
    next_seq: u64,
    stats: SchedStats,
}

impl<K: SlotKey> Default for Scheduler<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: SlotKey> Scheduler<K> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            current: Vec::new(),
            next_seq: 0,
            stats: SchedStats::default(),
        }
    }

    /// Registers `key`'s next deadline, re-keying only if it changed.
    ///
    /// `None` removes the registration. Unchanged deadlines are a no-op
    /// (counted in [`SchedStats::unchanged`]).
    pub fn set_deadline(&mut self, key: K, deadline: Option<SimTime>) {
        let slot = key.slot();
        if slot >= self.current.len() {
            self.current.resize(slot + 1, None);
        }
        let was = self.current[slot];
        if was.map(|(t, _)| t) == deadline {
            self.stats.unchanged += 1;
            return;
        }
        if was.is_some() {
            self.stats.rekeys += 1;
        }
        self.current[slot] = deadline.map(|time| {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, key });
            (time, seq)
        });
    }

    /// Drops stale entries off the top of the heap.
    fn shed_stale(&mut self) {
        while let Some(e) = self.heap.peek() {
            if self.current[e.key.slot()].is_some_and(|(_, seq)| seq == e.seq) {
                return;
            }
            self.heap.pop();
            self.stats.tombstone_skips += 1;
        }
    }

    /// The earliest registered deadline.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.shed_stale();
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest registered (time, key); the key is deregistered
    /// and must be re-registered via [`Scheduler::set_deadline`] once its
    /// component has been serviced.
    pub fn pop(&mut self) -> Option<(SimTime, K)> {
        self.shed_stale();
        let e = self.heap.pop()?;
        self.current[e.key.slot()] = None;
        self.stats.pops += 1;
        Some((e.time, e.key))
    }

    /// `key`'s registered deadline (`None` once popped or deregistered).
    pub fn deadline_of(&self, key: K) -> Option<SimTime> {
        self.current.get(key.slot())?.map(|(time, _)| time)
    }

    /// Number of registered components (counted by scanning the table).
    pub fn len(&self) -> usize {
        self.current.iter().flatten().count()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scheduler statistics.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Mutable access for world-maintained counters (polls, instants,
    /// batched characters).
    pub fn stats_mut(&mut self) -> &mut SchedStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // None for an unknown key is fine: nothing to change.
        s.set_deadline(2, None);
        assert_eq!(s.stats().unchanged, 1);
        assert_eq!(s.stats().rekeys, 1);
    }

    #[test]
    fn pop_deregisters_key() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.set_deadline(7, Some(SimTime::from_millis(1)));
        assert_eq!(s.len(), 1);
        s.pop();
        assert!(s.is_empty());
        // Re-registering after a pop is a plain insert, not a re-key.
        s.set_deadline(7, Some(SimTime::from_millis(2)));
        assert_eq!(s.stats().rekeys, 0);
    }

    #[test]
    fn pops_in_time_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.set_deadline(3, Some(SimTime::from_secs(3)));
        s.set_deadline(1, Some(SimTime::from_secs(1)));
        s.set_deadline(2, Some(SimTime::from_secs(2)));
        assert_eq!(s.len(), 3);
        for k in 1..=3 {
            assert_eq!(s.pop(), Some((SimTime::from_secs(u64::from(k)), k)));
        }
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn ties_pop_in_registration_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_millis(9);
        // Keys in an order no container would produce by accident.
        let keys: Vec<u32> = (0..100).map(|i| (i * 37) % 100).collect();
        for &k in &keys {
            s.set_deadline(k, Some(t));
        }
        // A key re-keyed away and back re-joins at the end of the tie.
        s.set_deadline(keys[0], Some(SimTime::from_millis(1)));
        s.set_deadline(keys[0], Some(t));
        for &k in keys[1..].iter().chain(&keys[..1]) {
            assert_eq!(s.pop(), Some((t, k)));
        }
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn cancel_then_pop_skips_the_stale_entry() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.set_deadline(0, Some(SimTime::from_secs(1)));
        s.set_deadline(1, Some(SimTime::from_secs(2)));
        s.set_deadline(0, None);
        s.set_deadline(0, None);
        assert_eq!(s.stats().rekeys, 1, "a second cancel is not a re-key");
        assert_eq!(s.len(), 1);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(s.stats().tombstone_skips, 1, "peek shed the cancelled head");
        assert_eq!(s.pop(), Some((SimTime::from_secs(2), 1)));
        assert!(s.is_empty());
        // Cancelling a key that already fired leaves nothing behind.
        s.set_deadline(1, None);
        assert_eq!(s.pop(), None);
        assert_eq!(s.stats().rekeys, 1);
    }

    #[test]
    fn interleaved_register_and_pop() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let step = crate::time::SimDuration::from_millis(10);
        s.set_deadline(0, Some(SimTime::ZERO + step));
        let mut fired = Vec::new();
        while let Some((now, k)) = s.pop() {
            fired.push(k);
            if k < 5 {
                s.set_deadline(k + 1, Some(now + step));
            }
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4, 5]);
    }
}
