//! An ICMP echo workload with RTT recording.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use gateway::world::App;
use gateway::Host;
use netstack::stack::StackAction;
use sim::stats::Latency;
use sim::{SimDuration, SimTime};

/// Results of a ping run.
#[derive(Debug, Default)]
pub struct PingReport {
    /// Echo requests sent.
    pub sent: u32,
    /// Replies received.
    pub received: u32,
    /// Round-trip times of received replies.
    pub rtts: Latency,
}

/// A scripted `ping` process.
pub struct Pinger {
    dst: Ipv4Addr,
    id: u16,
    count: u32,
    interval: SimDuration,
    payload_len: usize,
    start_delay: SimDuration,
    next_at: Option<SimTime>,
    next_seq: u16,
    in_flight: HashMap<u16, SimTime>,
    report: crate::Shared<PingReport>,
}

impl Pinger {
    /// Pings `dst` `count` times, one request every `interval`, with
    /// `payload_len` data bytes; `id` disambiguates concurrent pingers.
    pub fn new(
        dst: Ipv4Addr,
        id: u16,
        count: u32,
        interval: SimDuration,
        payload_len: usize,
    ) -> Pinger {
        Pinger {
            dst,
            id,
            count,
            interval,
            payload_len,
            start_delay: SimDuration::ZERO,
            next_at: None,
            next_seq: 1,
            in_flight: HashMap::new(),
            report: crate::shared(PingReport::default()),
        }
    }

    /// Delays the first request by `delay` after start. Staggered starts
    /// keep a many-pinger scenario (E15's mesh) from synchronizing every
    /// station's first CSMA contention on the same instant.
    pub fn delayed(mut self, delay: SimDuration) -> Pinger {
        self.start_delay = delay;
        self
    }

    /// The shared report handle.
    pub fn report(&self) -> crate::Shared<PingReport> {
        self.report.clone()
    }
}

impl App for Pinger {
    fn on_start(&mut self, now: SimTime, _host: &mut Host) {
        self.next_at = Some(now + self.start_delay);
    }

    fn poll(&mut self, now: SimTime, host: &mut Host) {
        while let Some(at) = self.next_at {
            if at > now {
                break;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            host.stack_op(now, |st| st.ping(self.dst, self.id, seq, self.payload_len));
            self.in_flight.insert(seq, now);
            let mut r = self.report.borrow_mut();
            r.sent += 1;
            self.next_at = if r.sent < self.count {
                Some(at + self.interval)
            } else {
                None
            };
        }
    }

    fn on_event(&mut self, now: SimTime, event: &StackAction, _host: &mut Host) {
        if let StackAction::PingReply { id, seq, .. } = event {
            if *id == self.id {
                if let Some(sent_at) = self.in_flight.remove(seq) {
                    let mut r = self.report.borrow_mut();
                    r.received += 1;
                    r.rtts.record(now.saturating_since(sent_at));
                }
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.next_at
    }
}
