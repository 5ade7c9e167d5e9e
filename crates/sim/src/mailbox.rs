//! Timed FIFO mailboxes for cross-shard hand-off.
//!
//! The sharded engine (DESIGN.md §11) moves packets between shards through
//! per-shard mailboxes: the coordinator pushes timed deliveries in
//! nondecreasing-time order between windows, the owning shard pops them
//! while it steps the next window. Both happen on one thread, one phase
//! after the other, so a plain ring buffer suffices. The ring keeps its
//! capacity across windows, so a
//! warmed-up mailbox performs zero allocations per hand-off — the same
//! contract as the §6 packet pool, asserted by the `shard_sync` ratchets.

use std::collections::VecDeque;

/// Mailbox occupancy and growth counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Entries ever pushed.
    pub pushed: u64,
    /// Entries ever popped.
    pub popped: u64,
    /// Times a push had to grow the ring (0 after warm-up).
    pub grows: u64,
    /// High-water mark of queued entries.
    pub peak: usize,
}

/// A FIFO hand-off ring with reusable capacity. See the module docs.
#[derive(Debug)]
pub struct Mailbox<T> {
    ring: VecDeque<T>,
    stats: MailboxStats,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox::new()
    }
}

impl<T> Mailbox<T> {
    /// An empty mailbox.
    pub fn new() -> Mailbox<T> {
        Mailbox {
            ring: VecDeque::new(),
            stats: MailboxStats::default(),
        }
    }

    /// An empty mailbox with room for `cap` entries before any growth.
    pub fn with_capacity(cap: usize) -> Mailbox<T> {
        Mailbox {
            ring: VecDeque::with_capacity(cap),
            stats: MailboxStats::default(),
        }
    }

    /// Appends an entry (producer side).
    pub fn push(&mut self, entry: T) {
        let cap = self.ring.capacity();
        self.ring.push_back(entry);
        if self.ring.capacity() != cap {
            self.stats.grows += 1;
        }
        self.stats.pushed += 1;
        self.stats.peak = self.stats.peak.max(self.ring.len());
    }

    /// The oldest entry, if any, without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.ring.front()
    }

    /// Removes and returns the oldest entry (consumer side).
    pub fn pop(&mut self) -> Option<T> {
        let e = self.ring.pop_front();
        if e.is_some() {
            self.stats.popped += 1;
        }
        e
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> MailboxStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_counters() {
        let mut m = Mailbox::new();
        m.push(1);
        m.push(2);
        m.push(3);
        assert_eq!(m.peek(), Some(&1));
        assert_eq!(m.pop(), Some(1));
        assert_eq!(m.pop(), Some(2));
        assert_eq!(m.pop(), Some(3));
        assert_eq!(m.pop(), None);
        let s = m.stats();
        assert_eq!((s.pushed, s.popped, s.peak), (3, 3, 3));
    }

    #[test]
    fn warm_ring_stops_growing() {
        let mut m = Mailbox::with_capacity(8);
        for round in 0..10 {
            for i in 0..8 {
                m.push(i);
            }
            while m.pop().is_some() {}
            if round == 0 {
                // Everything after the first full round reuses capacity.
                let grows = m.stats().grows;
                assert!(grows <= 1, "pre-sized ring grew {grows} times");
            }
        }
        assert!(m.stats().grows <= 1);
    }
}
