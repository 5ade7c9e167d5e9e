//! The `if_net` structure and the bounded BSD-style interface queue.
//!
//! §2.2: *"In order to get the kernel to recognize the packet radio
//! interface, we had to create and initialize a structure of the type
//! if_net. The if_net structure contains pointers to the procedures used
//! to initialize the interface, send packets, change parameters, and
//! perform other operations."* In Rust, the procedure pointers become the
//! driver types themselves and the stack's `IfaceConfig` holds each
//! interface's name and MTU; what survives here is the interface's
//! counters and the bounded `ifqueue` whose drops under load are
//! part of §4.1's story ("since these retransmissions are queued at the
//! gateway, they delay other packets").

use std::collections::VecDeque;

use sim::SimTime;

/// 4.3BSD's default interface queue depth.
pub const IFQ_MAXLEN: usize = 50;

/// Interface-level counters (the fields `netstat -i` would show).
#[derive(Debug, Clone, Copy, Default)]
pub struct IfStats {
    /// Packets received.
    pub ipackets: u64,
    /// Input errors (undecodable frames, bad checksums).
    pub ierrors: u64,
    /// Packets sent.
    pub opackets: u64,
    /// Output errors.
    pub oerrors: u64,
    /// Input-queue drops (queue full).
    pub iqdrops: u64,
}

/// A driver's `if_net` block: its counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct IfNet {
    /// Counters.
    pub stats: IfStats,
}

/// A bounded FIFO of work items with ready times — the `ifqueue`.
///
/// Items become visible to [`IfQueue::pop_due`] only once the simulated
/// clock passes their `ready` stamp (the CPU model sets that to the
/// moment protocol processing would actually run).
#[derive(Debug)]
pub struct IfQueue<T> {
    items: VecDeque<(SimTime, T)>,
    max: usize,
    drops: u64,
    /// High-water mark, for the queueing statistics in E3.
    peak: usize,
}

impl<T> IfQueue<T> {
    /// Creates a queue bounded at `max` items.
    pub fn new(max: usize) -> IfQueue<T> {
        IfQueue {
            items: VecDeque::new(),
            max,
            drops: 0,
            peak: 0,
        }
    }

    /// Enqueues an item that becomes processable at `ready`; returns
    /// `false` (and counts a drop) if the queue is full.
    pub fn push(&mut self, ready: SimTime, item: T) -> bool {
        if self.items.len() >= self.max {
            self.drops += 1;
            return false;
        }
        self.items.push_back((ready, item));
        self.peak = self.peak.max(self.items.len());
        true
    }

    /// Pops the next item whose ready time has passed. Items are strictly
    /// FIFO: a due item behind a not-yet-due one waits (the queue models
    /// one CPU working in order).
    pub fn pop_due(&mut self, now: SimTime) -> Option<T> {
        match self.items.front() {
            Some((ready, _)) if *ready <= now => self.items.pop_front().map(|(_, t)| t),
            _ => None,
        }
    }

    /// The head item's ready time.
    pub fn next_ready(&self) -> Option<SimTime> {
        self.items.front().map(|(t, _)| *t)
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of items dropped for overflow.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Deepest the queue has been.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;

    #[test]
    fn fifo_respects_ready_times() {
        let mut q = IfQueue::new(10);
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(5);
        assert!(q.push(t1, "late"));
        assert!(q.push(t0, "early-but-behind"));
        // Head not ready yet: nothing pops, even though the second item's
        // stamp has passed.
        assert_eq!(q.pop_due(t0), None);
        assert_eq!(q.next_ready(), Some(t1));
        assert_eq!(q.pop_due(t1), Some("late"));
        assert_eq!(q.pop_due(t1), Some("early-but-behind"));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut q = IfQueue::new(2);
        let t = SimTime::ZERO;
        assert!(q.push(t, 1));
        assert!(q.push(t, 2));
        assert!(!q.push(t, 3));
        assert_eq!(q.drops(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut q = IfQueue::new(100);
        let t = SimTime::ZERO;
        for i in 0..7 {
            q.push(t, i);
        }
        for _ in 0..3 {
            q.pop_due(t);
        }
        q.push(t, 99);
        assert_eq!(q.peak(), 7);
        assert_eq!(q.len(), 5);
    }
}
