//! The simulator's calendar: one deadline per component, in one heap.
//!
//! Instead of scanning every component for its `next_deadline()` on every
//! step, the world keeps one [`Scheduler`] registration per component: an
//! entry `(time, seq, key)` in an indexed binary min-heap, plus a dense
//! table giving each key slot its entry's index. A
//! [`Scheduler::set_deadline`] that moves the deadline **re-keys that
//! entry in place** (fresh `seq`, then sift), so the heap's length *is*
//! the number of registered components however often they move.
//! Deadlines that did not change cost one table load and one compare.
//!
//! Determinism is the hard constraint: entries pop in `(time, seq)`
//! order, so ties at equal time break by registration order (a monotone
//! sequence number, refreshed by every re-key), never by heap internals.

use crate::time::SimTime;

/// Counters describing how much work the calendar did; reported by E2 so
/// scheduler work is a measured artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Entries popped.
    pub pops: u64,
    /// Deadline changes that replaced or removed a registration.
    pub rekeys: u64,
    /// `set_deadline` calls where the deadline had not changed (no heap
    /// traffic at all).
    pub unchanged: u64,
    /// Always 0: a re-key leaves no stale entry to skip (reports print it).
    pub tombstone_skips: u64,
    /// Component poll/advance visits the world actually performed.
    pub polled: u64,
    /// Distinct instants the world stopped at.
    pub instants: u64,
    /// Serial characters the world delivered in line-paced runs (one
    /// calendar visit per frame boundary, not per character).
    pub batched_chars: u64,
    /// Of those runs, the ones a host took as a sealed frame's verdict — a
    /// counter, with no character copied, deframed or parsed (DESIGN.md §6,
    /// judge once). Falling back to bytes is always correct, so only this
    /// count shows it happening.
    pub sealed_runs: u64,
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

#[derive(Debug, Clone, Copy)]
struct Entry<K> {
    rank: (SimTime, u64),
    key: K,
}

/// `pos` of a slot with no registration (indexes no heap entry).
const ABSENT: u32 = u32::MAX;

/// A per-component deadline calendar: an indexed heap, re-keyed in place.
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
/// s.set_deadline(LINE, Some(SimTime::from_millis(3))); // re-keyed in place
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.pop(), Some((SimTime::from_millis(1), HOST)));
/// assert_eq!(s.pop(), Some((SimTime::from_millis(3), LINE)));
/// assert_eq!(s.pop(), None);
/// ```
#[derive(Debug)]
pub struct Scheduler<K: SlotKey> {
    /// Min-heap on `(time, seq)`, one entry per registered key.
    heap: Vec<Entry<K>>,
    /// Per key slot, the index of its entry in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
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
            heap: Vec::new(),
            pos: Vec::new(),
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
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, ABSENT);
        }
        let mut at = self.pos[slot] as usize;
        let was = self.heap.get(at).map(|e| e.rank.0);
        if was == deadline {
            self.stats.unchanged += 1;
            return;
        }
        self.stats.rekeys += u64::from(was.is_some());
        let Some(time) = deadline else {
            self.remove(at);
            return;
        };
        let rank = (time, self.next_seq);
        self.next_seq += 1;
        let e = Entry { rank, key };
        if was.is_none() {
            at = self.heap.len();
            self.heap.push(e);
        }
        self.sift(at, e);
    }

    /// Writes `e` at heap index `i` and points its key's slot there.
    fn put(&mut self, i: usize, e: Entry<K>) {
        self.heap[i] = e;
        self.pos[e.key.slot()] = i as u32;
    }

    /// Settles `e` from the hole at `i`: up past later ancestors, else down.
    fn sift(&mut self, mut i: usize, e: Entry<K>) {
        while i > 0 && e.rank < self.heap[(i - 1) / 2].rank {
            self.put(i, self.heap[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        loop {
            let mut c = 2 * i + 1;
            if c + 1 < self.heap.len() && self.heap[c + 1].rank < self.heap[c].rank {
                c += 1;
            }
            match self.heap.get(c) {
                Some(&child) if child.rank < e.rank => self.put(i, child),
                _ => break,
            }
            i = c;
        }
        self.put(i, e);
    }

    /// Takes out the entry at `at`; the last one fills the hole and settles.
    fn remove(&mut self, at: usize) -> Entry<K> {
        let gone = self.heap.swap_remove(at);
        self.pos[gone.key.slot()] = ABSENT;
        if let Some(&moved) = self.heap.get(at) {
            self.sift(at, moved);
        }
        gone
    }

    /// The earliest registered deadline.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.rank.0)
    }

    /// Pops the earliest registered (time, key); the key is deregistered
    /// and must be re-registered via [`Scheduler::set_deadline`] once its
    /// component has been serviced.
    pub fn pop(&mut self) -> Option<(SimTime, K)> {
        self.peek_time()?;
        let e = self.remove(0);
        self.stats.pops += 1;
        Some((e.rank.0, e.key))
    }

    /// `key`'s registered deadline (`None` once popped or deregistered).
    pub fn deadline_of(&self, key: K) -> Option<SimTime> {
        let at = *self.pos.get(key.slot())?;
        self.heap.get(at as usize).map(|e| e.rank.0)
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    /// White-box: the heap is ordered and every slot points at its entry.
    fn assert_indexed(s: &Scheduler<u32>) {
        for (i, e) in s.heap.iter().enumerate() {
            assert_eq!(s.pos[e.key as usize] as usize, i, "slot of key {}", e.key);
            assert!(i == 0 || s.heap[(i - 1) / 2].rank <= e.rank, "order at {i}");
        }
        let registered = s.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(registered, s.heap.len());
    }

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
        assert_eq!(s.len(), 1, "the re-key moved the one entry");
        assert_eq!(s.deadline_of(1), Some(SimTime::from_millis(6)));
        assert_eq!(s.pop(), Some((SimTime::from_millis(6), 1)));
        assert_eq!(s.pop(), None, "nothing was left behind at 5 ms");
        assert_eq!(s.stats().tombstone_skips, 0);
    }

    #[test]
    fn rekeys_in_either_direction_keep_every_slot_pointing_at_its_entry() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut rng = crate::rng::SimRng::seed_from(17);
        for round in 0..2_000u64 {
            let key = rng.below(40) as u32;
            match rng.below(8) {
                0 => s.set_deadline(key, None),
                1 => drop(s.pop()),
                _ => s.set_deadline(key, Some(SimTime::from_millis(rng.below(50)))),
            }
            assert_indexed(&s);
            assert!(
                s.len() <= 40,
                "round {round}: {} entries for 40 keys",
                s.len()
            );
        }
        let mut last = None;
        while let Some((t, k)) = s.pop() {
            assert_indexed(&s);
            assert!(last <= Some(t), "popped {k} at {t:?} after {last:?}");
            last = Some(t);
        }
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
    fn cancel_removes_the_entry_at_once() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.set_deadline(0, Some(SimTime::from_secs(1)));
        s.set_deadline(1, Some(SimTime::from_secs(2)));
        s.set_deadline(2, Some(SimTime::from_secs(3)));
        s.set_deadline(0, None);
        s.set_deadline(0, None);
        assert_eq!(s.stats().rekeys, 1, "a second cancel is not a re-key");
        assert_eq!(s.len(), 2);
        assert_indexed(&s);
        assert_eq!(s.deadline_of(0), None);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2)));
        // Cancelling from the middle and from the end of the heap.
        s.set_deadline(2, None);
        assert_indexed(&s);
        assert_eq!(s.pop(), Some((SimTime::from_secs(2), 1)));
        assert!(s.is_empty());
        // Cancelling a key that already fired leaves nothing behind.
        s.set_deadline(1, None);
        assert_eq!(s.pop(), None);
        assert_eq!(s.stats().rekeys, 2);
        assert_eq!(s.stats().tombstone_skips, 0);
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
