//! The KISS TNC device: serial line on one side, radio channel on the other.
//!
//! §2.1 of the paper: the TNC is to the radio what an Ethernet controller
//! is to the wire, except it hangs off a serial line. With the KISS code
//! loaded it does exactly three jobs, all modelled here:
//!
//! * **host → air**: deframe KISS from the serial line, append the FCS,
//!   and transmit under p-persistent CSMA;
//! * **air → host**: verify the FCS, then pass the frame up the serial
//!   line KISS-framed;
//! * obey KISS parameter commands (TXDELAY, P, SlotTime, TXTAIL,
//!   FullDuplex).
//!
//! The receive path implements both TNC behaviours contrasted in §3 of
//! the paper: [`RxMode::Promiscuous`] ("passes every packet it receives to
//! the packet radio driver regardless of the destination address") and
//! [`RxMode::AddressFilter`] (the proposed fix: "selectively pass only
//! those packets destined for the broadcast or local AX.25 addresses").

use ax25::addr::Ax25Addr;
use ax25::fcs::{append_fcs, verify_and_strip_fcs};
use ax25::frame::Frame;
use kiss::{Command, Deframer};
use sim::{SimDuration, SimRng, SimTime};

use crate::channel::{Channel, Heard, StationId};
use crate::csma::{Csma, MacConfig};

/// The longest frame on the air, FCS included (330 octets): the size a
/// TNC's transmit buffer grows to, the one time it grows.
const ON_AIR_MAX: usize = ax25::MAX_FRAME_LEN + 2;

/// Receive filtering behaviour (§3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxMode {
    /// Pass every heard frame to the host (the 1988 stock behaviour).
    Promiscuous,
    /// §3's proposed fix: pass only frames addressed to this station or
    /// to the broadcast address ([`Ax25Addr::broadcast`], QST). Everything
    /// else is dropped inside the TNC — before it costs the host one
    /// interrupt per serial character. [`Tnc::set_mode`] switches it on
    /// and off at runtime.
    AddressFilter,
}

/// TNC configuration.
#[derive(Debug, Clone)]
pub struct TncConfig {
    /// The station's own AX.25 address (used by the filter).
    pub addr: Ax25Addr,
    /// Receive filtering mode.
    pub mode: RxMode,
    /// Initial MAC parameters (KISS commands can change them later).
    pub mac: MacConfig,
}

impl TncConfig {
    /// A stock promiscuous TNC for `addr` with default MAC parameters.
    pub fn new(addr: Ax25Addr) -> TncConfig {
        TncConfig {
            addr,
            mode: RxMode::Promiscuous,
            mac: MacConfig::default(),
        }
    }

    /// Builder: sets the receive mode.
    pub fn with_mode(mut self, mode: RxMode) -> TncConfig {
        self.mode = mode;
        self
    }

    /// Builder: sets the MAC parameters.
    pub fn with_mac(mut self, mac: MacConfig) -> TncConfig {
        self.mac = mac;
        self
    }
}

/// TNC statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TncStats {
    /// Frames heard on the air (any destination).
    pub heard: u64,
    /// Heard frames dropped for FCS failure (collisions, noise).
    pub fcs_errors: u64,
    /// Frames passed up the serial line to the host.
    pub passed_to_host: u64,
    /// Frames suppressed by the address filter.
    pub filtered: u64,
    /// Frames that arrived undecodable even with a good FCS.
    pub undecodable: u64,
    /// Data frames accepted from the host for transmission.
    pub from_host: u64,
    /// KISS parameter commands processed.
    pub params: u64,
}

/// The KISS TNC device model.
///
/// Sans-io: feed serial bytes with [`Tnc::on_serial_byte`], feed heard
/// transmissions with [`Tnc::on_reception`] (which returns serial bytes
/// for the host), and drive the MAC with [`Tnc::poll`] /
/// [`Tnc::next_deadline`].
#[derive(Debug)]
pub struct Tnc {
    cfg: TncConfig,
    station: StationId,
    deframer: Deframer,
    mac: Csma,
    stats: TncStats,
}

impl Tnc {
    /// Creates a TNC attached to channel station `station`.
    pub fn new(cfg: TncConfig, station: StationId) -> Tnc {
        let mac = Csma::new(cfg.mac);
        Tnc {
            cfg,
            station,
            deframer: Deframer::new(),
            mac,
            stats: TncStats::default(),
        }
    }

    /// The channel station this TNC transmits as.
    pub fn station(&self) -> StationId {
        self.station
    }

    /// The configured own address.
    pub fn addr(&self) -> Ax25Addr {
        self.cfg.addr
    }

    /// Current receive mode.
    pub fn mode(&self) -> RxMode {
        self.cfg.mode
    }

    /// Changes the receive mode at runtime (the paper considers "changing
    /// the TNC code" — this is that switch).
    pub fn set_mode(&mut self, mode: RxMode) {
        self.cfg.mode = mode;
    }

    /// Consumes one character from the host serial line.
    #[inline]
    pub fn on_serial_byte(&mut self, byte: u8) {
        // The deframed payload borrows the deframer's internal buffer, so
        // the handler takes the other fields as disjoint borrows.
        let Some(frame) = self.deframer.push(byte) else {
            return;
        };
        Tnc::on_kiss_frame(&mut self.stats, &mut self.mac, frame.command, frame.payload);
    }

    /// Consumes a whole run of host serial characters through the bulk
    /// deframer; behavior is identical to feeding each byte through
    /// [`Tnc::on_serial_byte`].
    pub fn on_serial_bytes(&mut self, bytes: &[u8]) {
        let Tnc {
            deframer,
            stats,
            mac,
            ..
        } = self;
        deframer.push_slice(bytes, |_, frame| {
            Tnc::on_kiss_frame(stats, mac, frame.command, frame.payload);
        });
    }

    fn on_kiss_frame(stats: &mut TncStats, mac: &mut Csma, command: Command, payload: &[u8]) {
        match command {
            Command::Data => {
                stats.from_host += 1;
                let need = payload.len() + 2;
                let mut on_air = mac.take_buffer();
                if on_air.capacity() < need {
                    // Grown once, to the longest frame: after that the
                    // traded buffer fits every frame the TNC sends.
                    on_air.reserve_exact(need.max(ON_AIR_MAX));
                }
                on_air.extend_from_slice(payload);
                append_fcs(&mut on_air);
                mac.enqueue(on_air);
            }
            Command::TxDelay => {
                stats.params += 1;
                if let Some(&v) = payload.first() {
                    mac.config_mut().tx_delay = SimDuration::from_millis(u64::from(v) * 10);
                }
            }
            Command::Persistence => {
                stats.params += 1;
                if let Some(&v) = payload.first() {
                    mac.config_mut().persistence = (f64::from(v) + 1.0) / 256.0;
                }
            }
            Command::SlotTime => {
                stats.params += 1;
                if let Some(&v) = payload.first() {
                    mac.config_mut().slot_time = SimDuration::from_millis(u64::from(v) * 10);
                }
            }
            Command::TxTail => {
                stats.params += 1;
                if let Some(&v) = payload.first() {
                    mac.config_mut().tx_tail = SimDuration::from_millis(u64::from(v) * 10);
                }
            }
            Command::FullDuplex => {
                stats.params += 1;
                if let Some(&v) = payload.first() {
                    mac.config_mut().full_duplex = v != 0;
                }
            }
            Command::SetHardware | Command::Return => {
                stats.params += 1;
            }
        }
    }

    /// Processes this station's copy of a transmission heard on the air.
    /// Returns the KISS-framed bytes to send up the serial line — the one
    /// encoding `heard` keeps for every TNC in range — or `None` if the
    /// frame was dropped (bad FCS or filtered).
    pub fn on_reception<'a>(&mut self, heard: &'a mut Heard, corrupted: bool) -> Option<&'a [u8]> {
        self.stats.heard += 1;
        if corrupted {
            self.stats.fcs_errors += 1;
            return None;
        }
        let Some(body) = heard.body() else {
            self.stats.fcs_errors += 1;
            return None;
        };
        if self.cfg.mode == RxMode::AddressFilter {
            // The filter needs only the destination address, exactly what
            // cheap TNC firmware could check.
            let dest = match Ax25Addr::decode(body) {
                Ok((dest, _, _)) => dest,
                Err(_) => {
                    self.stats.undecodable += 1;
                    return None;
                }
            };
            if dest != self.cfg.addr && dest != Ax25Addr::broadcast() {
                self.stats.filtered += 1;
                return None;
            }
        }
        self.stats.passed_to_host += 1;
        heard.kiss()
    }

    /// Drives the CSMA transmitter; call on channel events and deadlines.
    #[inline]
    pub fn poll(&mut self, now: SimTime, ch: &mut Channel, rng: &mut SimRng) {
        self.mac.poll(now, self.station, ch, rng);
    }

    /// Earliest time this TNC needs a `poll` independent of channel events.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.mac.next_deadline()
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

    /// Device statistics.
    pub fn stats(&self) -> TncStats {
        self.stats
    }

    /// MAC-layer statistics.
    pub fn mac_stats(&self) -> crate::csma::CsmaStats {
        self.mac.stats()
    }

    /// Parses a clean on-air reception into an AX.25 frame (helper for
    /// devices that bypass the serial line, e.g. digipeaters and tests).
    pub fn parse_on_air(data: &[u8]) -> Option<Frame> {
        let body = verify_and_strip_fcs(data)?;
        Frame::decode(body).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax25::frame::Pid;
    use sim::Bandwidth;

    fn addr(s: &str) -> Ax25Addr {
        Ax25Addr::parse_or_panic(s)
    }

    fn fast_mac() -> MacConfig {
        MacConfig {
            persistence: 1.0,
            tx_delay: SimDuration::ZERO,
            tx_tail: SimDuration::ZERO,
            ..MacConfig::default()
        }
    }

    fn setup(mode: RxMode) -> (Channel, Tnc, Tnc, SimRng) {
        let mut ch = Channel::new(Bandwidth::RADIO_1200);
        let sa = ch.add_station();
        let sb = ch.add_station();
        let a = Tnc::new(
            TncConfig::new(addr("AAA"))
                .with_mac(fast_mac())
                .with_mode(mode),
            sa,
        );
        let b = Tnc::new(
            TncConfig::new(addr("BBB"))
                .with_mac(fast_mac())
                .with_mode(mode),
            sb,
        );
        (ch, a, b, SimRng::seed_from(1))
    }

    fn host_sends(tnc: &mut Tnc, frame: &Frame) {
        for byte in kiss::encode(0, Command::Data, &frame.encode()) {
            tnc.on_serial_byte(byte);
        }
    }

    fn run_air(
        ch: &mut Channel,
        a: &mut Tnc,
        b: &mut Tnc,
        rng: &mut SimRng,
    ) -> Vec<(StationId, Vec<u8>)> {
        let mut out = Vec::new();
        let mut heard = Heard::default();
        a.poll(SimTime::ZERO, ch, rng);
        b.poll(SimTime::ZERO, ch, rng);
        while let Some(t) = ch.next_deadline() {
            while ch.hear_next(t, &mut heard) {
                for k in 0..heard.listeners().len() {
                    let (to, corrupted) = heard.listeners()[k];
                    for tnc in [&mut *a, &mut *b] {
                        if tnc.station() == to {
                            if let Some(bytes) = tnc.on_reception(&mut heard, corrupted) {
                                out.push((to, bytes.to_vec()));
                            }
                        }
                    }
                }
            }
            a.poll(t, ch, rng);
            b.poll(t, ch, rng);
        }
        out
    }

    #[test]
    fn host_frame_crosses_the_air_and_reaches_peer_host() {
        let (mut ch, mut a, mut b, mut rng) = setup(RxMode::Promiscuous);
        let f = Frame::ui(addr("BBB"), addr("AAA"), Pid::Ip, b"ip packet".to_vec());
        host_sends(&mut a, &f);
        assert_eq!(a.tx_backlog(), 1);
        let out = run_air(&mut ch, &mut a, &mut b, &mut rng);
        assert_eq!(out.len(), 1);
        // The bytes b hands its host are KISS; deframe and decode them.
        let frames = kiss::decode_stream(&out[0].1);
        assert_eq!(frames.len(), 1);
        let back = Frame::decode(&frames[0].payload).unwrap();
        assert_eq!(back, f);
        assert_eq!(b.stats().passed_to_host, 1);
    }

    #[test]
    fn a_short_frame_after_a_long_one_goes_out_as_only_its_own_bytes() {
        // The TNC builds each frame in a buffer an earlier transmission
        // left behind (the channel trades it back). Long frame first, then
        // short ones until that buffer has come round: none may carry a
        // stale tail, on the air or up the peer's serial line.
        let (mut ch, mut a, mut b, mut rng) = setup(RxMode::Promiscuous);
        let mut heard = Heard::default();
        let mut now = SimTime::ZERO;
        let mut long_buffer_came_back = false;
        let infos: Vec<Vec<u8>> = std::iter::once(vec![0xEE; 200])
            .chain((0u8..6).map(|i| vec![i; 3 + usize::from(i)]))
            .collect();
        let mut long_ptr = None;
        for info in &infos {
            let f = Frame::ui(addr("BBB"), addr("AAA"), Pid::Text, info.clone());
            host_sends(&mut a, &f);
            a.poll(now, &mut ch, &mut rng);
            now = ch.next_deadline().expect("keyed up");
            assert!(ch.hear_next(now, &mut heard));
            let mut on_air = f.encode();
            append_fcs(&mut on_air);
            assert_eq!(heard.data(), on_air, "{} info octets", info.len());
            long_ptr.get_or_insert(heard.data().as_ptr());
            long_buffer_came_back |= info.len() < 200 && Some(heard.data().as_ptr()) == long_ptr;
            let up = b
                .on_reception(&mut heard, false)
                .expect("clean, promiscuous");
            assert_eq!(up, kiss::encode(0, Command::Data, &f.encode()));
        }
        assert!(
            long_buffer_came_back,
            "a short frame rode in the long one's buffer"
        );
    }

    #[test]
    fn promiscuous_mode_passes_unrelated_traffic() {
        let (mut ch, mut a, mut b, mut rng) = setup(RxMode::Promiscuous);
        let f = Frame::ui(addr("ZZZ"), addr("AAA"), Pid::Text, b"chat".to_vec());
        host_sends(&mut a, &f);
        let out = run_air(&mut ch, &mut a, &mut b, &mut rng);
        assert_eq!(out.len(), 1, "promiscuous TNC passes everything");
        assert_eq!(b.stats().filtered, 0);
    }

    #[test]
    fn filter_mode_drops_unrelated_traffic() {
        let (mut ch, mut a, mut b, mut rng) = setup(RxMode::AddressFilter);
        let f = Frame::ui(addr("ZZZ"), addr("AAA"), Pid::Text, b"chat".to_vec());
        host_sends(&mut a, &f);
        let out = run_air(&mut ch, &mut a, &mut b, &mut rng);
        assert!(out.is_empty(), "filter drops frames for others");
        assert_eq!(b.stats().filtered, 1);
        assert_eq!(b.stats().passed_to_host, 0);
    }

    #[test]
    fn filter_mode_passes_own_and_broadcast() {
        let (mut ch, mut a, mut b, mut rng) = setup(RxMode::AddressFilter);
        host_sends(
            &mut a,
            &Frame::ui(addr("BBB"), addr("AAA"), Pid::Ip, vec![1]),
        );
        host_sends(
            &mut a,
            &Frame::ui(Ax25Addr::broadcast(), addr("AAA"), Pid::Text, vec![2]),
        );
        let out = run_air(&mut ch, &mut a, &mut b, &mut rng);
        assert_eq!(out.len(), 2);
        assert_eq!(b.stats().passed_to_host, 2);
    }

    #[test]
    fn address_filter_switches_at_runtime() {
        // Built promiscuous, flipped at runtime: traffic for strangers now
        // dies in the TNC; own and broadcast frames pass.
        let (mut ch, mut a, mut b, mut rng) = setup(RxMode::Promiscuous);
        assert_eq!(b.mode(), RxMode::Promiscuous);
        b.set_mode(RxMode::AddressFilter);
        for f in [
            Frame::ui(addr("ZZZ"), addr("AAA"), Pid::Text, vec![2]),
            Frame::ui(addr("BBB"), addr("AAA"), Pid::Ip, vec![3]),
            Frame::ui(Ax25Addr::broadcast(), addr("AAA"), Pid::Ip, vec![4]),
        ] {
            host_sends(&mut a, &f);
        }
        let out = run_air(&mut ch, &mut a, &mut b, &mut rng);
        assert_eq!(out.len(), 2, "stranger dropped, other two pass");
        assert_eq!(b.stats().filtered, 1);
        assert_eq!(b.mode(), RxMode::AddressFilter);
    }

    /// The filter decodes the destination and nothing else — "exactly
    /// what cheap TNC firmware could check" — so a body with a good FCS
    /// and a good destination that is no AX.25 frame past it is
    /// `filtered` or passed up like any other, and `undecodable` counts
    /// only unreadable destinations. The shared header peek
    /// ([`Heard::header`]) rejects all three bodies and must not leak
    /// into these counters, whoever asked for it first.
    #[test]
    fn address_filter_counts_by_destination_alone() {
        let heard_with = |body: &[u8]| {
            let mut on_air = body.to_vec();
            append_fcs(&mut on_air);
            Heard::new(StationId(0), SimTime::ZERO, on_air)
        };
        let truncated = |dest: &str| addr(dest).encode(false, false).to_vec();
        for peek_first in [false, true] {
            let (_ch, _a, mut b, _rng) = setup(RxMode::AddressFilter);
            for (body, passed) in [
                (truncated("ZZZ"), false),
                (truncated("BBB"), true),
                (vec![0xFF; 7], false),
            ] {
                let mut heard = heard_with(&body);
                if peek_first {
                    assert!(heard.header().is_none(), "seven octets are no frame");
                }
                assert_eq!(b.on_reception(&mut heard, false).is_some(), passed);
            }
            let s = b.stats();
            assert_eq!((s.filtered, s.passed_to_host, s.undecodable), (1, 1, 1));
        }
    }

    #[test]
    fn corrupted_reception_is_counted_as_fcs_error() {
        let (_ch, _a, mut b, _rng) = setup(RxMode::Promiscuous);
        let mut heard = Heard::new(StationId(0), SimTime::ZERO, vec![0; 20]);
        assert!(b.on_reception(&mut heard, true).is_none());
        assert_eq!(b.stats().fcs_errors, 1);
    }

    #[test]
    fn bad_fcs_bytes_are_dropped() {
        let (_ch, _a, mut b, _rng) = setup(RxMode::Promiscuous);
        let mut heard = Heard::new(StationId(0), SimTime::ZERO, b"not a real frame".to_vec());
        assert!(b.on_reception(&mut heard, false).is_none());
        assert_eq!(b.stats().fcs_errors, 1);
    }

    #[test]
    fn kiss_params_update_mac_config() {
        let (_ch, mut a, _b, _rng) = setup(RxMode::Promiscuous);
        for bytes in [
            kiss::encode_param(0, Command::TxDelay, 25),
            kiss::encode_param(0, Command::Persistence, 127),
            kiss::encode_param(0, Command::SlotTime, 5),
            kiss::encode_param(0, Command::TxTail, 3),
            kiss::encode_param(0, Command::FullDuplex, 1),
        ] {
            for byte in bytes {
                a.on_serial_byte(byte);
            }
        }
        assert_eq!(a.stats().params, 5);
        let cfg = a.mac_stats(); // stats unaffected
        assert_eq!(cfg.enqueued, 0);
    }

    #[test]
    fn parse_on_air_roundtrip() {
        let f = Frame::ui(addr("BBB"), addr("AAA"), Pid::Ip, vec![9, 9]);
        let mut on_air = f.encode();
        append_fcs(&mut on_air);
        assert_eq!(Tnc::parse_on_air(&on_air), Some(f));
        assert_eq!(Tnc::parse_on_air(b"junk"), None);
    }
}
