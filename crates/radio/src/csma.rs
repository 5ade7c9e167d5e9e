//! The p-persistent CSMA transmit discipline of a KISS TNC.
//!
//! The KISS parameters (§2.1's downloaded TNC code) govern when a queued
//! frame goes on the air: wait for a clear channel, then with probability
//! `p` transmit immediately, otherwise back off one slot and try again.
//! TXDELAY keys the transmitter up before data, TXTAIL holds it after.

use std::collections::VecDeque;

use sim::{SimDuration, SimRng, SimTime};

use crate::channel::{Channel, StationId};

/// KISS MAC parameters, in native units (the KISS wire encoding's 10 ms
/// units are converted by the TNC command handler).
#[derive(Debug, Clone, Copy)]
pub struct MacConfig {
    /// Transmitter key-up delay before data.
    pub tx_delay: SimDuration,
    /// Transmitter hold time after data.
    pub tx_tail: SimDuration,
    /// Persistence probability in `[0, 1]`.
    pub persistence: f64,
    /// Backoff slot length.
    pub slot_time: SimDuration,
    /// Full-duplex: transmit without carrier sense.
    pub full_duplex: bool,
}

impl Default for MacConfig {
    fn default() -> Self {
        // KISS defaults: TXDELAY 50 (500 ms is the spec default; 300 ms is
        // a common tuned value), P=63 (0.25), SlotTime 10 (100 ms).
        MacConfig {
            tx_delay: SimDuration::from_millis(300),
            tx_tail: SimDuration::from_millis(20),
            persistence: 0.25,
            slot_time: SimDuration::from_millis(100),
            full_duplex: false,
        }
    }
}

impl MacConfig {
    /// Total per-frame keying overhead (TXDELAY + TXTAIL).
    pub fn overhead(&self) -> SimDuration {
        self.tx_delay + self.tx_tail
    }
}

/// MAC statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsmaStats {
    /// Frames handed to the MAC.
    pub enqueued: u64,
    /// Frames put on the air.
    pub transmitted: u64,
    /// Persistence draws that deferred a slot.
    pub deferrals: u64,
    /// Polls that found the channel busy.
    pub busy_detects: u64,
}

/// A p-persistent CSMA transmitter for one station.
///
/// Sans-io: the owner calls [`Csma::poll`] whenever the channel might have
/// changed state (and at [`Csma::next_deadline`]); `poll` starts a
/// transmission on the channel when the rules allow.
#[derive(Debug)]
pub struct Csma {
    cfg: MacConfig,
    queue: VecDeque<Vec<u8>>,
    /// Earliest next persistence attempt (set after a deferral).
    retry_at: Option<SimTime>,
    /// End of our own transmission in progress.
    tx_end: Option<SimTime>,
    /// What the channel gave back for the frames put on the air: the
    /// buffers the next frames are built in ([`Csma::take_buffer`]). A
    /// frame takes one from here and a transmission returns at most one,
    /// so this never holds more than the queue has been deep.
    spares: Vec<Vec<u8>>,
    stats: CsmaStats,
}

impl Csma {
    /// Creates an idle MAC.
    pub fn new(cfg: MacConfig) -> Csma {
        Csma {
            cfg,
            queue: VecDeque::new(),
            retry_at: None,
            tx_end: None,
            spares: Vec::new(),
            stats: CsmaStats::default(),
        }
    }

    /// Current parameters.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// Mutable access for single-parameter updates.
    pub fn config_mut(&mut self) -> &mut MacConfig {
        &mut self.cfg
    }

    /// An empty buffer to build the next on-air frame in before
    /// [`Csma::enqueue`]: the allocation a finished transmission left
    /// behind, cleared, or an unallocated `Vec` when there is none.
    pub fn take_buffer(&mut self) -> Vec<u8> {
        let mut buf = self.spares.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Queues an on-air frame (AX.25 bytes + FCS).
    pub fn enqueue(&mut self, frame: Vec<u8>) {
        self.stats.enqueued += 1;
        self.queue.push_back(frame);
    }

    /// Frames waiting (not counting one in flight).
    #[inline]
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// True while our transmitter is keyed.
    #[inline]
    pub fn transmitting(&self, now: SimTime) -> bool {
        self.tx_end.is_some_and(|t| t > now)
    }

    /// True when the only thing between a queued frame and the air is
    /// the carrier: frames waiting, transmitter idle, no backoff pending.
    /// Such a station has no deadline of its own — it must be re-polled
    /// when the channel's state changes.
    #[inline]
    pub fn waiting_on_carrier(&self) -> bool {
        !self.queue.is_empty() && self.tx_end.is_none() && self.retry_at.is_none()
    }

    /// When `poll` should next be called even if nothing else happens:
    /// our own tx end (to start the next frame) or a backoff expiry.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        match (self.tx_end, self.retry_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Attempts to start a transmission; call on every channel state
    /// change and at [`Csma::next_deadline`].
    pub fn poll(&mut self, now: SimTime, me: StationId, ch: &mut Channel, rng: &mut SimRng) {
        if let Some(end) = self.tx_end {
            if end > now {
                return;
            }
            self.tx_end = None;
        }
        if self.queue.is_empty() {
            return;
        }
        if let Some(at) = self.retry_at {
            if at > now {
                return;
            }
            self.retry_at = None;
        }
        if !self.cfg.full_duplex && ch.carrier_busy(now, me) {
            // Wait for the channel to go idle; the owner polls us again on
            // the next channel event.
            self.stats.busy_detects += 1;
            return;
        }
        if !self.cfg.full_duplex && !rng.chance(self.cfg.persistence) {
            self.stats.deferrals += 1;
            self.retry_at = Some(now + self.cfg.slot_time);
            return;
        }
        let Some(frame) = self.queue.pop_front() else {
            return;
        };
        let (end, retired) = ch.transmit(now, me, frame, self.cfg.overhead());
        if retired.capacity() > 0 {
            self.spares.push(retired);
        }
        self.stats.transmitted += 1;
        self.tx_end = Some(end);
    }

    /// MAC statistics.
    pub fn stats(&self) -> CsmaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Heard;
    use sim::Bandwidth;

    /// Completes every transmission due by `now`, ignoring who hears it.
    fn drain(ch: &mut Channel, now: SimTime) {
        let mut heard = Heard::default();
        while ch.hear_next(now, &mut heard) {}
    }

    fn setup() -> (Channel, StationId, StationId, SimRng) {
        let mut ch = Channel::new(Bandwidth::RADIO_1200);
        let a = ch.add_station();
        let b = ch.add_station();
        (ch, a, b, SimRng::seed_from(42))
    }

    fn always_send() -> MacConfig {
        MacConfig {
            persistence: 1.0,
            tx_delay: SimDuration::from_millis(100),
            tx_tail: SimDuration::ZERO,
            ..MacConfig::default()
        }
    }

    #[test]
    fn transmits_when_idle_and_p_is_one() {
        let (mut ch, a, b, mut rng) = setup();
        let mut mac = Csma::new(always_send());
        mac.enqueue(vec![0; 120]); // 0.8s at 1200bps + 0.1s keyup
        mac.poll(SimTime::ZERO, a, &mut ch, &mut rng);
        assert!(mac.transmitting(SimTime::from_millis(10)));
        let end = ch.next_deadline().unwrap();
        assert_eq!(end, SimTime::from_millis(900));
        let mut heard = Heard::default();
        assert!(ch.hear_next(end, &mut heard));
        assert_eq!(heard.listeners(), [(b, false)]);
    }

    #[test]
    fn defers_while_carrier_busy() {
        let (mut ch, a, b, mut rng) = setup();
        ch.transmit(SimTime::ZERO, b, vec![0; 120], SimDuration::ZERO);
        let mut mac = Csma::new(always_send());
        mac.enqueue(vec![0; 10]);
        // Poll after the DCD assert time so the carrier is sensed.
        mac.poll(SimTime::from_millis(50), a, &mut ch, &mut rng);
        assert!(!mac.transmitting(SimTime::from_millis(50)));
        assert_eq!(mac.stats().busy_detects, 1);
        // After the other frame ends, the channel is idle and we go.
        let end = ch.next_deadline().unwrap();
        drain(&mut ch, end);
        mac.poll(end, a, &mut ch, &mut rng);
        assert!(mac.transmitting(end + SimDuration::from_millis(1)));
    }

    #[test]
    fn zero_persistence_always_defers() {
        let (mut ch, a, _b, mut rng) = setup();
        let cfg = MacConfig {
            persistence: 0.0,
            slot_time: SimDuration::from_millis(50),
            ..MacConfig::default()
        };
        let mut mac = Csma::new(cfg);
        mac.enqueue(vec![0; 10]);
        mac.poll(SimTime::ZERO, a, &mut ch, &mut rng);
        assert!(!mac.transmitting(SimTime::ZERO));
        assert_eq!(mac.next_deadline(), Some(SimTime::from_millis(50)));
        assert_eq!(mac.stats().deferrals, 1);
        // Premature poll does nothing; at the slot boundary it defers again.
        mac.poll(SimTime::from_millis(20), a, &mut ch, &mut rng);
        assert_eq!(mac.stats().deferrals, 1);
        mac.poll(SimTime::from_millis(50), a, &mut ch, &mut rng);
        assert_eq!(mac.stats().deferrals, 2);
    }

    #[test]
    fn frames_go_out_in_fifo_order_back_to_back() {
        let (mut ch, a, b, mut rng) = setup();
        let mut mac = Csma::new(always_send());
        mac.enqueue(vec![1; 10]);
        mac.enqueue(vec![2; 10]);
        mac.poll(SimTime::ZERO, a, &mut ch, &mut rng);
        let mut got = Vec::new();
        let mut heard = Heard::default();
        while let Some(t) = ch.next_deadline() {
            while ch.hear_next(t, &mut heard) {
                if heard.listeners().iter().any(|&(to, _)| to == b) {
                    got.push(heard.data()[0]);
                }
            }
            mac.poll(t, a, &mut ch, &mut rng);
        }
        assert_eq!(got, vec![1, 2]);
        assert_eq!(mac.stats().transmitted, 2);
        assert_eq!(mac.backlog(), 0);
    }

    #[test]
    fn full_duplex_ignores_carrier() {
        let (mut ch, a, b, mut rng) = setup();
        ch.transmit(SimTime::ZERO, b, vec![0; 120], SimDuration::ZERO);
        let cfg = MacConfig {
            full_duplex: true,
            ..always_send()
        };
        let mut mac = Csma::new(cfg);
        mac.enqueue(vec![0; 10]);
        mac.poll(SimTime::from_millis(10), a, &mut ch, &mut rng);
        assert!(mac.transmitting(SimTime::from_millis(20)));
    }

    #[test]
    fn persistence_fraction_is_roughly_p() {
        let (mut ch, a, _b, mut rng) = setup();
        let cfg = MacConfig {
            persistence: 0.25,
            slot_time: SimDuration::from_millis(10),
            tx_delay: SimDuration::ZERO,
            tx_tail: SimDuration::ZERO,
            ..MacConfig::default()
        };
        let mut mac = Csma::new(cfg);
        let mut sends = 0u32;
        let trials = 4000;
        let mut now = SimTime::ZERO;
        for _ in 0..trials {
            mac.enqueue(vec![0; 1]);
            // Poll until this frame goes out; count first-try successes.
            let before = mac.stats().deferrals;
            loop {
                mac.poll(now, a, &mut ch, &mut rng);
                if mac.transmitting(now) {
                    break;
                }
                now = mac.next_deadline().unwrap();
            }
            if mac.stats().deferrals == before {
                sends += 1;
            }
            // Let the frame finish.
            let end = ch.next_deadline().unwrap();
            drain(&mut ch, end);
            now = end;
            mac.poll(now, a, &mut ch, &mut rng);
        }
        let frac = f64::from(sends) / f64::from(trials);
        assert!((frac - 0.25).abs() < 0.03, "frac = {frac}");
    }
}
