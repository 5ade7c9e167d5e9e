//! The `if_net` structure and the bounded BSD-style interface queue.
//!
//! §2.2: *"In order to get the kernel to recognize the packet radio
//! interface, we had to create and initialize a structure of the type
//! if_net. The if_net structure contains pointers to the procedures used
//! to initialize the interface, send packets, change parameters, and
//! perform other operations."* In Rust, the procedure pointers become the
//! driver types themselves and the stack's `IfaceConfig` holds each
//! interface's name and MTU; what survives here is the interface's
//! counters, the bounded `ifqueue` whose drops under load are part of
//! §4.1's story ("since these retransmissions are queued at the gateway,
//! they delay other packets"), and `Links`, the host's one seam to its
//! drivers, each owning its output queue and ARP clock (BSD's `if_snd`,
//! `if_timer`).

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use filter::FilterEngine;
use netstack::ip::Ipv4Packet;
use netstack::pool::DgramPool;
use netstack::stack::IfaceId;
use sim::SimTime;

use crate::etherdrv::EtherDriver;
use crate::prdriver::PacketRadioDriver;

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

/// A host's links, each driver beside its stack interface id: the one
/// place the host reaches both through for what every link does alike.
#[derive(Debug)]
pub(crate) struct Links {
    /// The packet radio interface ("pr0").
    pub(crate) radio: Option<(IfaceId, PacketRadioDriver)>,
    /// The Ethernet interface ("qe0"), out of line: of a city's hosts
    /// only the gateways and the wired internet host have one.
    pub(crate) ether: Option<Box<(IfaceId, EtherDriver)>>,
}

impl Links {
    /// `if_output`: `packet` toward `next_hop` on the link behind
    /// `iface`, onto its driver's own output queue. `filter` is lent to
    /// the radio driver's output hook, the §4.3 gate's only one.
    pub(crate) fn output(
        &mut self,
        iface: IfaceId,
        now: SimTime,
        packet: Ipv4Packet,
        next_hop: Ipv4Addr,
        pool: &mut DgramPool,
        filter: Option<&mut FilterEngine>,
    ) {
        match (&mut self.radio, self.ether.as_deref_mut()) {
            (Some((i, d)), _) if *i == iface => d.output(now, packet, next_hop, pool, filter),
            (_, Some((i, d))) if *i == iface => d.output(now, packet, next_hop, pool),
            _ => {}
        }
    }

    /// Ticks each driver's ARP clock, the radio's first.
    pub(crate) fn age_arp(&mut self, now: SimTime, pool: &mut DgramPool) {
        self.radio
            .iter_mut()
            .for_each(|(_, d)| d.age_arp(now, pool));
        self.ether.iter_mut().for_each(|e| e.1.age_arp(now, pool));
    }

    /// Drops what each driver had queued (the host lost power).
    pub(crate) fn power_down(&mut self) {
        self.radio.iter_mut().for_each(|(_, d)| d.power_down());
        self.ether.iter_mut().for_each(|e| e.1.power_down());
    }

    /// The first link, the radio or else the Ethernet: id and `if_net`.
    pub(crate) fn first(&mut self) -> Option<(IfaceId, &mut IfNet)> {
        match (&mut self.radio, self.ether.as_deref_mut()) {
            (Some((i, d)), _) => Some((*i, &mut d.ifnet)),
            (None, Some((i, d))) => Some((*i, &mut d.ifnet)),
            (None, None) => None,
        }
    }

    /// Whether `iface` is the radio, the §4.3 gate's amateur side.
    pub(crate) fn is_radio(&self, iface: IfaceId) -> bool {
        self.radio.as_ref().is_some_and(|(i, _)| *i == iface)
    }
}

/// A bounded FIFO of work items with ready times — the `ifqueue`.
///
/// Items become visible to `pop_due` only once the simulated
/// clock passes their `ready` stamp (the CPU model sets that to the
/// moment protocol processing would actually run).
#[derive(Debug)]
pub struct IfQueue<T> {
    items: VecDeque<(SimTime, T)>,
    max: usize,
    /// High-water mark, for the queueing statistics in E3.
    peak: usize,
}

impl<T> IfQueue<T> {
    /// Creates a queue bounded at `max` items.
    pub fn new(max: usize) -> IfQueue<T> {
        IfQueue {
            items: VecDeque::new(),
            max,
            peak: 0,
        }
    }

    /// Enqueues an item that becomes processable at `ready`; returns
    /// `false` if the queue is full. The caller counts the drop against
    /// the interface it came in on ([`IfStats::iqdrops`]).
    pub fn push(&mut self, ready: SimTime, item: T) -> bool {
        if self.items.len() >= self.max {
            return false;
        }
        self.items.push_back((ready, item));
        self.peak = self.peak.max(self.items.len());
        true
    }

    /// Pops the next item whose ready time has passed. Items are strictly
    /// FIFO: a due item behind a not-yet-due one waits (the queue models
    /// one CPU working in order).
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<T> {
        match self.items.front() {
            Some((ready, _)) if *ready <= now => self.items.pop_front().map(|(_, t)| t),
            _ => None,
        }
    }

    /// Drops every queued item; the high-water mark stays.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    /// The head item's ready time.
    pub(crate) fn next_ready(&self) -> Option<SimTime> {
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
    fn overflow_refuses_the_item() {
        let mut q = IfQueue::new(2);
        let t = SimTime::ZERO;
        assert!(q.push(t, 1));
        assert!(q.push(t, 2));
        assert!(!q.push(t, 3));
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
