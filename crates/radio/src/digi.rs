//! Standalone digipeater stations.
//!
//! §1 of the paper: digipeaters are relay stations "set up in strategic
//! locations so that messages could be received and passed along to their
//! destination". A digipeater hears a frame, checks whether it is the
//! next hop in the frame's source route, and if so retransmits the frame
//! with its own entry marked repeated. Because it retransmits on the
//! *same frequency*, every digipeater hop roughly doubles the airtime a
//! packet consumes — the cost quantified by experiment E7.

use ax25::addr::Ax25Addr;
use ax25::digipeat::{decide, DigipeatDecision};
use ax25::fcs::append_fcs;
use ax25::frame::Frame;
use sim::{SimRng, SimTime};

use crate::channel::{Channel, Heard, StationId};
use crate::csma::{Csma, MacConfig};

/// Digipeater statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DigiStats {
    /// Frames heard.
    pub heard: u64,
    /// Frames repeated.
    pub repeated: u64,
    /// Frames dropped for FCS errors.
    pub fcs_errors: u64,
    /// Frames heard but not addressed through this station.
    pub ignored: u64,
}

/// A standalone digipeater station.
#[derive(Debug)]
pub struct Digipeater {
    addr: Ax25Addr,
    station: StationId,
    mac: Csma,
    stats: DigiStats,
}

impl Digipeater {
    /// Creates a digipeater with address `addr` at channel station
    /// `station`.
    pub fn new(addr: Ax25Addr, station: StationId, mac: MacConfig) -> Digipeater {
        Digipeater {
            addr,
            station,
            mac: Csma::new(mac),
            stats: DigiStats::default(),
        }
    }

    /// The station's address.
    pub fn addr(&self) -> Ax25Addr {
        self.addr
    }

    /// The channel station id.
    pub fn station(&self) -> StationId {
        self.station
    }

    /// Processes this station's copy of a heard transmission, queueing a
    /// repeat, built in a buffer from `ch`'s free list, when this station
    /// is the next hop.
    pub fn on_reception(&mut self, heard: &mut Heard, corrupted: bool, ch: &mut Channel) {
        self.stats.heard += 1;
        if corrupted {
            self.stats.fcs_errors += 1;
            return;
        }
        let Some(body) = heard.body() else {
            self.stats.fcs_errors += 1;
            return;
        };
        let Ok(frame) = Frame::decode(body) else {
            self.stats.ignored += 1;
            return;
        };
        match decide(&frame, self.addr) {
            DigipeatDecision::Repeat(out) => {
                self.stats.repeated += 1;
                let mut on_air = ch.take_buffer();
                out.encode_into(&mut on_air);
                append_fcs(&mut on_air);
                self.mac.enqueue(on_air);
            }
            DigipeatDecision::Deliverable | DigipeatDecision::NotForUs => {
                self.stats.ignored += 1;
            }
        }
    }

    /// Drives the CSMA transmitter.
    #[inline]
    pub fn poll(&mut self, now: SimTime, ch: &mut Channel, rng: &mut SimRng) {
        self.mac.poll(now, self.station, ch, rng);
    }

    /// Earliest self-generated deadline.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.mac.next_deadline()
    }

    /// True when a queued frame is blocked only on carrier sense.
    #[inline]
    pub fn waiting_on_carrier(&self) -> bool {
        self.mac.waiting_on_carrier()
    }

    /// Station statistics.
    pub fn stats(&self) -> DigiStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax25::frame::Pid;
    use sim::{Bandwidth, SimDuration};

    fn a(s: &str) -> Ax25Addr {
        Ax25Addr::parse_or_panic(s)
    }

    fn fast() -> MacConfig {
        MacConfig {
            persistence: 1.0,
            tx_delay: SimDuration::ZERO,
            tx_tail: SimDuration::ZERO,
            ..MacConfig::default()
        }
    }

    fn on_air(f: &Frame) -> Vec<u8> {
        let mut b = f.encode();
        append_fcs(&mut b);
        b
    }

    #[test]
    fn repeats_frame_addressed_through_it() {
        let mut ch = Channel::new(Bandwidth::RADIO_1200);
        let src = ch.add_station();
        let digi_sta = ch.add_station();
        let dst_sta = ch.add_station();
        // Hidden ends: src and dst cannot hear each other; only the digi
        // bridges them — the classic digipeater purpose.
        ch.set_hears(dst_sta, src, false);
        ch.set_hears(src, dst_sta, false);
        let mut digi = Digipeater::new(a("DIGI"), digi_sta, fast());
        let mut rng = SimRng::seed_from(5);

        let f = Frame::ui(a("DST"), a("SRC"), Pid::Text, b"relay me".to_vec()).via(&[a("DIGI")]);
        let end = ch.transmit(SimTime::ZERO, src, on_air(&f), SimDuration::ZERO);

        let mut delivered_at_dst = None;
        let mut heard = Heard::default();
        let mut now = end;
        loop {
            while ch.hear_next(now, &mut heard) {
                for k in 0..heard.listeners().len() {
                    let (to, corrupted) = heard.listeners()[k];
                    if to == digi_sta {
                        digi.on_reception(&mut heard, corrupted, &mut ch);
                    }
                    if to == dst_sta && !corrupted {
                        let frame =
                            Frame::decode(ax25::fcs::verify_and_strip_fcs(heard.data()).unwrap())
                                .unwrap();
                        if frame.fully_repeated() {
                            delivered_at_dst = Some(frame);
                        }
                    }
                }
            }
            digi.poll(now, &mut ch, &mut rng);
            match ch.next_deadline() {
                Some(t) => now = t,
                None => break,
            }
        }
        let got = delivered_at_dst.expect("frame must reach DST via DIGI");
        assert_eq!(got.info, b"relay me");
        assert!(got.digipeaters[0].repeated);
        assert_eq!(digi.stats().repeated, 1);
    }

    #[test]
    fn ignores_unrelated_and_corrupt() {
        let mut ch = Channel::new(Bandwidth::RADIO_1200);
        let _src = ch.add_station();
        let digi_sta = ch.add_station();
        let mut digi = Digipeater::new(a("DIGI"), digi_sta, fast());

        let f = Frame::ui(a("DST"), a("SRC"), Pid::Text, vec![]).via(&[a("OTHER")]);
        let mut heard = Heard::new(StationId(0), SimTime::ZERO, on_air(&f));
        digi.on_reception(&mut heard, false, &mut ch);
        assert_eq!(digi.stats().ignored, 1);

        digi.on_reception(&mut heard, true, &mut ch);
        assert_eq!(digi.stats().fcs_errors, 1);
        assert_eq!(digi.stats().repeated, 0);
    }

    #[test]
    fn direct_frames_are_not_repeated() {
        let mut ch = Channel::new(Bandwidth::RADIO_1200);
        let _src = ch.add_station();
        let digi_sta = ch.add_station();
        let mut digi = Digipeater::new(a("DIGI"), digi_sta, fast());
        let f = Frame::ui(a("DIGI"), a("SRC"), Pid::Text, vec![]);
        let mut heard = Heard::new(StationId(0), SimTime::ZERO, on_air(&f));
        digi.on_reception(&mut heard, false, &mut ch);
        assert_eq!(digi.stats().repeated, 0);
        assert_eq!(digi.stats().ignored, 1);
    }
}
