//! Background traffic generators for channel-load experiments.
//!
//! §3 of the paper: *"the gateway slows considerably as traffic on the
//! packet radio subnet climbs"*. To reproduce that, experiment E2 loads
//! the channel with stations exchanging ordinary AX.25 chatter (UI frames
//! with PID "no layer 3") at a Poisson rate. These frames are not for the
//! gateway — a promiscuous TNC passes them to the host anyway.

use ax25::addr::Ax25Addr;
use ax25::fcs::append_fcs;
use ax25::frame::{Frame, Pid};
use sim::{SimDuration, SimRng, SimTime};

use crate::channel::{Channel, StationId};
use crate::csma::{Csma, MacConfig};

/// Configuration of one background station.
#[derive(Debug, Clone)]
pub struct BeaconConfig {
    /// The station's own address.
    pub from: Ax25Addr,
    /// Where its chatter is addressed (another background station).
    pub to: Ax25Addr,
    /// Info-field length of each generated frame.
    pub frame_len: usize,
    /// Mean inter-arrival time (exponential).
    pub mean_interval: SimDuration,
    /// When generation begins.
    pub start: SimTime,
    /// MAC parameters.
    pub mac: MacConfig,
}

/// Generator statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BeaconStats {
    /// Frames generated.
    pub generated: u64,
}

/// A station that generates Poisson UI-frame chatter onto the channel.
#[derive(Debug)]
pub struct BeaconStation {
    cfg: BeaconConfig,
    station: StationId,
    mac: Csma,
    next_gen: SimTime,
    rng: SimRng,
    mac_rng: SimRng,
    stats: BeaconStats,
    seq: u64,
}

impl BeaconStation {
    /// Creates a generator; `rng` drives both arrivals and CSMA draws.
    pub fn new(cfg: BeaconConfig, station: StationId, mut rng: SimRng) -> BeaconStation {
        let mac_rng = rng.fork();
        let first = cfg.start
            + SimDuration::from_secs_f64(rng.exponential(cfg.mean_interval.as_secs_f64()));
        let mac = Csma::new(cfg.mac);
        BeaconStation {
            cfg,
            station,
            mac,
            next_gen: first,
            rng,
            mac_rng,
            stats: BeaconStats::default(),
            seq: 0,
        }
    }

    /// The channel station id.
    pub fn station(&self) -> StationId {
        self.station
    }

    /// Earliest time this station needs attention.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        match self.mac.next_deadline() {
            Some(m) => Some(m.min(self.next_gen)),
            None => Some(self.next_gen),
        }
    }

    /// Generates due frames and drives the MAC.
    pub fn poll(&mut self, now: SimTime, ch: &mut Channel) {
        while self.next_gen <= now {
            self.seq += 1;
            self.stats.generated += 1;
            // Header, info text padded (or cut) to `frame_len`, FCS: the
            // info field is last on the wire, so one buffer takes all three.
            let header = Frame::ui(self.cfg.to, self.cfg.from, Pid::Text, Vec::new());
            let info_end = header.encoded_len() + self.cfg.frame_len;
            let mut on_air = ch.take_buffer();
            on_air.reserve(info_end + 2);
            header.encode_into(&mut on_air);
            beacon_text(&mut on_air, self.cfg.from, self.seq);
            on_air.resize(info_end, b'.');
            append_fcs(&mut on_air);
            self.mac.enqueue(on_air);
            let gap = self.rng.exponential(self.cfg.mean_interval.as_secs_f64());
            self.next_gen += SimDuration::from_secs_f64(gap);
        }
        self.mac.poll(now, self.station, ch, &mut self.mac_rng);
    }

    /// Frames generated so far.
    pub fn stats(&self) -> BeaconStats {
        self.stats
    }

    /// Frames queued for transmission.
    #[inline]
    pub fn tx_backlog(&self) -> usize {
        self.mac.backlog()
    }

    /// True when a queued frame is blocked only on carrier sense.
    #[inline]
    pub fn waiting_on_carrier(&self) -> bool {
        self.mac.waiting_on_carrier()
    }
}

/// Appends a beacon's text, `de <call>[-<ssid>] #<seq> ` with the
/// sequence number zero-padded to six digits, byte by byte: the text
/// `format!("de {from} #{seq:06} ")` would give, without `core::fmt`.
fn beacon_text(out: &mut Vec<u8>, from: Ax25Addr, seq: u64) {
    out.extend_from_slice(b"de ");
    out.extend_from_slice(from.call.as_str().as_bytes());
    if from.ssid != 0 {
        out.push(b'-');
        push_decimal(out, u64::from(from.ssid), 1);
    }
    out.extend_from_slice(b" #");
    push_decimal(out, seq, 6);
    out.push(b' ');
}

/// Appends `n` in decimal, zero-padded to at least `width` digits (at
/// most 20, the digits of `u64::MAX`).
fn push_decimal(out: &mut Vec<u8>, mut n: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut len = 0;
    for d in digits.iter_mut().rev() {
        *d = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
        if n == 0 && len >= width {
            break;
        }
    }
    out.extend_from_slice(digits.get(digits.len() - len..).unwrap_or_default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Heard;
    use sim::Bandwidth;

    fn cfg(mean_ms: u64) -> BeaconConfig {
        BeaconConfig {
            from: Ax25Addr::parse_or_panic("BG1"),
            to: Ax25Addr::parse_or_panic("BG2"),
            frame_len: 64,
            mean_interval: SimDuration::from_millis(mean_ms),
            start: SimTime::ZERO,
            mac: MacConfig {
                persistence: 1.0,
                tx_delay: SimDuration::ZERO,
                tx_tail: SimDuration::ZERO,
                ..MacConfig::default()
            },
        }
    }

    #[test]
    fn generates_at_roughly_the_configured_rate() {
        let mut ch = Channel::new(Bandwidth::bps(1_000_000));
        let sta = ch.add_station();
        let _listener = ch.add_station();
        let mut b = BeaconStation::new(cfg(100), sta, SimRng::seed_from(11));
        let horizon = SimTime::from_secs(60);
        let mut heard = Heard::default();
        let mut now = SimTime::ZERO;
        while now < horizon {
            b.poll(now, &mut ch);
            if let Some(t) = ch.next_deadline() {
                while t <= horizon && ch.hear_next(t, &mut heard) {}
            }
            now = b
                .next_deadline()
                .map(|d| d.max(now + SimDuration::from_millis(1)))
                .unwrap_or(horizon)
                .min(horizon);
        }
        // ~600 expected over 60s at 100ms mean.
        let n = b.stats().generated;
        assert!((450..=750).contains(&n), "generated {n}");
    }

    #[test]
    fn frames_carry_sequence_and_length() {
        let mut ch = Channel::new(Bandwidth::bps(1_000_000));
        let sta = ch.add_station();
        let listener = ch.add_station();
        let mut b = BeaconStation::new(cfg(10), sta, SimRng::seed_from(3));
        // Force a generation by polling past next_gen.
        let t = b.next_deadline().unwrap();
        b.poll(t, &mut ch);
        let end = ch.next_deadline().expect("frame on air");
        let mut heard = Heard::default();
        assert!(ch.hear_next(end, &mut heard));
        assert_eq!(heard.listeners(), [(listener, false)]);
        let frame = Frame::decode(ax25::fcs::verify_and_strip_fcs(heard.data()).unwrap()).unwrap();
        assert_eq!(frame.info.len(), 64);
        assert!(String::from_utf8_lossy(&frame.info).contains("de BG1"));
    }

    /// The frame the beacon built with `write!` before its text was
    /// composed byte by byte.
    fn formatted_frame(cfg: &BeaconConfig, seq: u64) -> Vec<u8> {
        use std::io::Write;
        let header = Frame::ui(cfg.to, cfg.from, Pid::Text, Vec::new());
        let mut on_air = Vec::new();
        header.encode_into(&mut on_air);
        write!(on_air, "de {} #{:06} ", cfg.from, seq).unwrap();
        on_air.resize(header.encoded_len() + cfg.frame_len, b'.');
        append_fcs(&mut on_air);
        on_air
    }

    #[test]
    fn beacon_text_is_the_formatted_text() {
        for from in ["BG1", "N7AKR-15", "KB7DZ-3", "Q"] {
            let from = Ax25Addr::parse_or_panic(from);
            for seq in [0, 1, 42, 999_999, 1_000_000, 123_456_789, u64::MAX] {
                let mut out = b"head".to_vec();
                beacon_text(&mut out, from, seq);
                assert_eq!(
                    String::from_utf8(out).unwrap(),
                    format!("headde {from} #{seq:06} ")
                );
            }
        }
    }

    #[test]
    fn frames_are_the_formatted_frames_across_six_digits() {
        for (from, frame_len) in [("BG1", 64), ("N7AKR-12", 64), ("N7AKR-12", 12)] {
            let cfg = BeaconConfig {
                from: Ax25Addr::parse_or_panic(from),
                frame_len,
                ..cfg(10)
            };
            let mut ch = Channel::new(Bandwidth::bps(1_000_000));
            let sta = ch.add_station();
            let _listener = ch.add_station();
            let mut b = BeaconStation::new(cfg.clone(), sta, SimRng::seed_from(5));
            b.seq = 999_997;
            let mut heard = Heard::default();
            let mut frames = Vec::new();
            while frames.len() < 4 {
                let now = b.next_deadline().unwrap();
                b.poll(now, &mut ch);
                while let Some(t) = ch.next_deadline() {
                    while ch.hear_next(t, &mut heard) {
                        frames.push(heard.data().to_vec());
                    }
                }
            }
            for (seq, frame) in (999_998..).zip(&frames) {
                assert_eq!(*frame, formatted_frame(&cfg, seq), "{from} #{seq}");
            }
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let make = || {
            let mut ch = Channel::new(Bandwidth::bps(1_000_000));
            let sta = ch.add_station();
            let _l = ch.add_station();
            let mut b = BeaconStation::new(cfg(50), sta, SimRng::seed_from(99));
            let mut times = Vec::new();
            let mut heard = Heard::default();
            for _ in 0..20 {
                let now = b.next_deadline().unwrap();
                b.poll(now, &mut ch);
                times.push(now);
                while let Some(t) = ch.next_deadline() {
                    while ch.hear_next(t, &mut heard) {}
                }
            }
            times
        };
        assert_eq!(make(), make());
    }
}
