//! The shared radio channel.
//!
//! Model: a transmission occupies the medium from its start until its end
//! (key-up delay + serialization + tail). Every station the sender can
//! reach hears it. A receiver's copy is **corrupted** when
//!
//! * any other transmission it can hear overlapped the frame in time
//!   (a collision at that receiver — hidden terminals collide at the
//!   victim even when the senders cannot hear each other), or
//! * the receiver itself transmitted during the frame (half duplex), or
//! * injected bit errors hit the frame (probability per octet).
//!
//! Corrupted copies are still delivered, flagged, so the TNC model can
//! count FCS failures exactly where real hardware does.
//!
//! A completed transmission is handed out **once**, as a [`Heard`]: the
//! on-air bytes plus the list of stations in range, each with its own
//! corrupted flag. What every clean listener would compute identically —
//! the FCS check, the AX.25 header and the KISS encoding a TNC passes up
//! its serial line — is computed once on the `Heard` and shared.

use ax25::fcs::verify_and_strip_fcs;
use ax25::frame::FrameHeader;
use sim::{Bandwidth, SimDuration, SimRng, SimTime};

/// Identifies a station attached to a [`Channel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StationId(pub usize);

/// One completed transmission, as every station in range hears it.
///
/// Filled by [`Channel::hear_next`]; callers keep one and pass it back in,
/// so its buffers are reused from transmission to transmission.
#[derive(Debug, Default)]
pub struct Heard {
    from: StationId,
    at: SimTime,
    data: Vec<u8>,
    listeners: Vec<(StationId, bool)>,
    /// Verdict of the FCS check over `data`, once someone asked.
    fcs_ok: Option<bool>,
    /// The KISS data frame carrying [`Heard::body`]; empty until asked for.
    kiss: Vec<u8>,
    /// [`FrameHeader::peek`] of the body, once someone asked (`None`
    /// inside: it is not AX.25).
    header: Option<Option<FrameHeader>>,
}

impl Heard {
    /// A transmission of `data` by `from` ending at `at`, with nobody in
    /// range (for driving a [`crate::Tnc`] or digipeater directly).
    pub fn new(from: StationId, at: SimTime, data: Vec<u8>) -> Heard {
        Heard {
            from,
            at,
            data,
            ..Heard::default()
        }
    }

    /// The transmitting station.
    #[inline]
    pub fn from(&self) -> StationId {
        self.from
    }

    /// When the frame finished arriving.
    #[inline]
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// The on-air bytes (AX.25 frame + FCS) — one buffer, whoever listens.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The stations in range, in station order; the flag is true where a
    /// collision, self-transmission overlap, or bit error damaged that
    /// station's copy.
    #[inline]
    pub fn listeners(&self) -> &[(StationId, bool)] {
        &self.listeners
    }

    /// Length of the frame body if the FCS checks out (verified once).
    fn body_len(&mut self) -> Option<usize> {
        let data = &self.data;
        let ok = *self
            .fcs_ok
            .get_or_insert_with(|| verify_and_strip_fcs(data).is_some());
        ok.then(|| data.len() - 2)
    }

    /// The frame body, `None` on a bad FCS.
    pub fn body(&mut self) -> Option<&[u8]> {
        let n = self.body_len()?;
        Some(&self.data[..n])
    }

    /// The body's AX.25 header (peeked on the first call), `None` on a bad
    /// FCS or a body that is not a decodable frame.
    pub fn header(&mut self) -> Option<&FrameHeader> {
        let n = self.body_len()?;
        let body = &self.data[..n];
        self.header
            .get_or_insert_with(|| FrameHeader::peek(body).ok())
            .as_ref()
    }

    /// The KISS data frame a TNC sends up its serial line for this
    /// transmission (encoded on the first call), `None` on a bad FCS.
    pub fn kiss(&mut self) -> Option<&[u8]> {
        let n = self.body_len()?;
        if self.kiss.is_empty() {
            kiss::encode_into(0, kiss::Command::Data, &self.data[..n], &mut self.kiss);
        }
        Some(&self.kiss)
    }
}

#[derive(Debug)]
struct Tx {
    from: StationId,
    start: SimTime,
    end: SimTime,
    data: Vec<u8>,
    delivered: bool,
}

/// Channel-wide statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelStats {
    /// Transmissions started.
    pub transmissions: u64,
    /// Total airtime of all transmissions (sum, not union).
    pub airtime_ns: u64,
    /// Airtime during which the medium carried at least one transmission
    /// (union of intervals — never exceeds wall-clock span).
    pub occupied_ns: u64,
    /// Receptions delivered corrupted.
    pub corrupted_receptions: u64,
    /// Receptions delivered clean.
    pub clean_receptions: u64,
}

/// A shared half-duplex radio channel.
///
/// # Examples
///
/// ```
/// use radio::channel::{Channel, Heard};
/// use sim::{Bandwidth, SimDuration, SimTime};
///
/// let mut ch = Channel::new(Bandwidth::RADIO_1200);
/// let a = ch.add_station();
/// let b = ch.add_station();
/// let end = ch.transmit(SimTime::ZERO, a, vec![0u8; 30], SimDuration::ZERO);
/// assert_eq!(ch.next_deadline(), Some(end));
/// let t = ch.next_deadline().unwrap();
/// let mut heard = Heard::default();
/// assert!(ch.hear_next(t, &mut heard));
/// assert_eq!(heard.listeners(), [(b, false)]);
/// assert!(!ch.hear_next(t, &mut heard));
/// ```
#[derive(Debug)]
pub struct Channel {
    rate: Bandwidth,
    /// The hearing matrix, one row per station: `hears[listener * stride +
    /// speaker]`. The columns past the last station are `true`, so a new
    /// station is heard by every row already there; the stride doubles
    /// when a station finds no column left, and the buffer is reserved at
    /// `stride × stride`, so rows are appended without a reallocation.
    hears: Vec<bool>,
    stride: usize,
    stations: usize,
    txs: Vec<Tx>,
    byte_error_rate: f64,
    noise: Option<SimRng>,
    /// How long after key-up other stations can sense the carrier. This
    /// is the collision window of p-persistent CSMA: a real 1200-baud
    /// AFSK data-carrier-detect needs tens of milliseconds to assert, so
    /// two stations that decide to transmit within this window collide.
    detect_delay: SimDuration,
    stats: ChannelStats,
    /// Latest transmission end seen so far; the occupied-airtime union
    /// accrues only past this horizon, so overlapping transmissions are
    /// not double-counted.
    busy_horizon: SimTime,
    /// The channel's free on-air buffers: every buffer
    /// [`Channel::hear_next`] swaps out of the caller's [`Heard`] comes
    /// back here, and every station on the channel builds its next frame
    /// in one ([`Channel::take_buffer`]). A transmission takes one and
    /// gives one back, so the list never holds more than the channel has
    /// had frames queued or in flight at once.
    free: Vec<Vec<u8>>,
}

impl Channel {
    /// Default carrier-detect time (AFSK DCD assert at 1200 baud).
    pub const DEFAULT_DETECT_DELAY: SimDuration = SimDuration::from_millis(30);

    /// The longest frame on the air, FCS included (330 octets): the room
    /// every buffer the channel hands a station to build in has, so a station's
    /// frame never grows it.
    pub const ON_AIR_MAX: usize = ax25::MAX_FRAME_LEN + 2;

    /// Creates a channel at `rate` where every station hears every other.
    pub fn new(rate: Bandwidth) -> Channel {
        Channel {
            rate,
            hears: Vec::new(),
            stride: 0,
            stations: 0,
            txs: Vec::new(),
            byte_error_rate: 0.0,
            noise: None,
            detect_delay: Self::DEFAULT_DETECT_DELAY,
            stats: ChannelStats::default(),
            busy_horizon: SimTime::ZERO,
            free: Vec::new(),
        }
    }

    /// Enables random corruption: each delivered copy is independently
    /// corrupted with probability `1 - (1-rate)^len`.
    pub fn with_byte_errors(mut self, rate: f64, rng: SimRng) -> Channel {
        self.byte_error_rate = rate;
        self.noise = Some(rng);
        self
    }

    /// The channel bit rate.
    #[inline]
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Attaches a new station; it hears (and is heard by) everyone until
    /// [`Channel::set_hears`] says otherwise.
    pub fn add_station(&mut self) -> StationId {
        let n = self.stations;
        if n == self.stride {
            let stride = (2 * n).max(4);
            let mut hears = Vec::with_capacity(stride * stride);
            for row in self.hears.chunks_exact(n.max(1)) {
                hears.extend_from_slice(row);
                hears.resize(hears.len() + stride - n, true);
            }
            self.hears = hears;
            self.stride = stride;
        }
        self.hears.resize(self.hears.len() + self.stride, true);
        self.stations += 1;
        // A station does not hear itself.
        if let Some(own) = self.hears.get_mut(n * self.stride + n) {
            *own = false;
        }
        StationId(n)
    }

    /// Number of attached stations.
    #[inline]
    pub fn station_count(&self) -> usize {
        self.stations
    }

    /// Sets whether `listener` can hear `speaker` (asymmetric links are
    /// allowed; self-hearing and stations not on the channel are ignored).
    pub fn set_hears(&mut self, listener: StationId, speaker: StationId, hears: bool) {
        if listener == speaker || speaker.0 >= self.stations {
            return;
        }
        if let Some(cell) = self.hears.get_mut(listener.0 * self.stride + speaker.0) {
            *cell = hears;
        }
    }

    /// Whether `listener` can hear `speaker`.
    #[inline]
    fn hears(&self, listener: usize, speaker: StationId) -> bool {
        self.hears
            .get(listener * self.stride + speaker.0)
            .is_some_and(|&h| h)
    }

    /// True if `listener` currently senses carrier: its own transmission
    /// (known instantly), or another audible station's transmission that
    /// has been keyed at least [`Channel::DEFAULT_DETECT_DELAY`] (the DCD
    /// assert time — transmissions younger than that are invisible, which
    /// is CSMA's collision window).
    #[inline]
    pub(crate) fn carrier_busy(&self, now: SimTime, listener: StationId) -> bool {
        self.txs.iter().any(|tx| {
            if tx.delivered || now >= tx.end {
                return false;
            }
            if tx.from == listener {
                return tx.start <= now;
            }
            self.hears(listener.0, tx.from) && tx.start + self.detect_delay <= now
        })
    }

    /// An empty buffer with room for [`Channel::ON_AIR_MAX`] octets for a
    /// station to build its next on-air frame in: a finished
    /// transmission's buffer from the free list, or a new one born at that
    /// size when the list is empty.
    pub(crate) fn take_buffer(&mut self) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.reserve_exact(Self::ON_AIR_MAX);
        buf
    }

    /// Starts a transmission of `data` from `from`, occupying the channel
    /// for `overhead` (key-up + tail) plus the serialization time of the
    /// data; returns the completion time. The buffer comes back to the
    /// free list once the transmission has been heard.
    pub fn transmit(
        &mut self,
        now: SimTime,
        from: StationId,
        data: Vec<u8>,
        overhead: SimDuration,
    ) -> SimTime {
        let dur = self.rate.time_for_bytes(data.len()) + overhead;
        let end = now + dur;
        self.stats.transmissions += 1;
        self.stats.airtime_ns += dur.as_nanos();
        // Union of busy intervals: transmissions start at the current
        // clock, so the interval [max(now, horizon), end) is new coverage.
        let covered_from = now.max(self.busy_horizon);
        if end > covered_from {
            self.stats.occupied_ns += (end - covered_from).as_nanos();
            self.busy_horizon = end;
        }
        self.txs.push(Tx {
            from,
            start: now,
            end,
            data,
            delivered: false,
        });
        end
    }

    /// Earliest in-flight transmission end, if any.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.txs
            .iter()
            .filter(|t| !t.delivered)
            .map(|t| t.end)
            .min()
    }

    /// Completes the earliest undelivered transmission ending at or before
    /// `now` (ties in start order) into `heard`: its on-air bytes, moved
    /// not copied, and one `(station, corrupted)` entry per station in
    /// range. Returns `false`, leaving `heard` alone, when none is due —
    /// call until then to bring the channel up to `now`.
    pub fn hear_next(&mut self, now: SimTime, heard: &mut Heard) -> bool {
        let due = self
            .txs
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.delivered && t.end <= now)
            .min_by_key(|&(i, t)| (t.end, i));
        let Some((
            i,
            &Tx {
                from, start, end, ..
            },
        )) = due
        else {
            return false;
        };
        heard.from = from;
        heard.at = end;
        // The bytes move into `heard`; the buffer that comes back out of it
        // (the transmission before this one) goes back to the free list.
        let retiring = std::mem::replace(&mut heard.data, std::mem::take(&mut self.txs[i].data));
        if retiring.capacity() > 0 {
            self.free.push(retiring);
        }
        heard.fcs_ok = None;
        heard.kiss.clear();
        heard.header = None;
        heard.listeners.clear();
        for listener in 0..self.stations {
            let lid = StationId(listener);
            if lid == from || !self.hears(listener, from) {
                continue;
            }
            // Collision at this listener: any *other* transmission it
            // hears (or its own) overlapping [start, end).
            let collided = self.txs.iter().enumerate().any(|(j, other)| {
                j != i
                    && other.start < end
                    && other.end > start
                    && (other.from == lid || self.hears(listener, other.from))
            });
            let bit_error = match (&mut self.noise, self.byte_error_rate) {
                (Some(rng), rate) if rate > 0.0 => {
                    let p_clean = (1.0 - rate).powi(heard.data.len() as i32);
                    !rng.chance(p_clean)
                }
                _ => false,
            };
            let corrupted = collided || bit_error;
            if corrupted {
                self.stats.corrupted_receptions += 1;
            } else {
                self.stats.clean_receptions += 1;
            }
            heard.listeners.push((lid, corrupted));
        }
        self.txs[i].delivered = true;
        self.prune();
        true
    }

    /// Drops delivered transmissions that can no longer affect collision
    /// decisions (everything ending before the earliest undelivered start,
    /// or everything if the channel is idle).
    fn prune(&mut self) {
        let earliest_active = self
            .txs
            .iter()
            .filter(|t| !t.delivered)
            .map(|t| t.start)
            .min();
        match earliest_active {
            None => self.txs.clear(),
            Some(cutoff) => self.txs.retain(|t| !t.delivered || t.end > cutoff),
        }
    }

    /// Channel statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Fraction of the interval `[SimTime::ZERO, now]` spent transmitting
    /// (sum of airtime; can exceed 1.0 under heavy collisions). This is
    /// **offered load**, not utilization — see [`Channel::utilization`].
    pub fn offered_utilization(&self, now: SimTime) -> f64 {
        let span = now.as_nanos();
        if span == 0 {
            0.0
        } else {
            self.stats.airtime_ns as f64 / span as f64
        }
    }

    /// Fraction of the interval `[SimTime::ZERO, now]` during which the
    /// medium actually carried at least one transmission (union of busy
    /// intervals, clamped to 1.0 — overlap is not double-counted).
    pub fn utilization(&self, now: SimTime) -> f64 {
        let span = now.as_nanos();
        if span == 0 {
            0.0
        } else {
            (self.stats.occupied_ns as f64 / span as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, Strategy};
    use proptest::sample::Index;

    fn ch() -> Channel {
        Channel::new(Bandwidth::RADIO_1200)
    }

    /// One station's copy of one transmission.
    struct Rx {
        to: StationId,
        from: StationId,
        corrupted: bool,
        at: SimTime,
    }

    /// Everything heard up to `now`, flattened to one entry per listener.
    fn advance(c: &mut Channel, now: SimTime) -> Vec<Rx> {
        let mut heard = Heard::default();
        let mut out = Vec::new();
        while c.hear_next(now, &mut heard) {
            out.extend(heard.listeners().iter().map(|&(to, corrupted)| Rx {
                to,
                from: heard.from(),
                corrupted,
                at: heard.at(),
            }));
        }
        out
    }

    #[test]
    fn lone_transmission_is_clean_and_timed() {
        let mut c = ch();
        let a = c.add_station();
        let b = c.add_station();
        let _ = a;
        // 150 bytes at 1200 bit/s = 1s, plus 250ms overhead.
        let end = c.transmit(
            SimTime::ZERO,
            StationId(0),
            vec![0; 150],
            SimDuration::from_millis(250),
        );
        assert_eq!(end, SimTime::from_millis(1250));
        assert!(advance(&mut c, end - SimDuration::from_nanos(1)).is_empty());
        let rx = advance(&mut c, end);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].to, b);
        assert!(!rx[0].corrupted);
        assert_eq!(rx[0].at, end);
    }

    #[test]
    fn all_stations_in_range_hear() {
        let mut c = ch();
        let a = c.add_station();
        let _b = c.add_station();
        let _d = c.add_station();
        let end = c.transmit(SimTime::ZERO, a, vec![0; 10], SimDuration::ZERO);
        let rx = advance(&mut c, end);
        assert_eq!(rx.len(), 2);
        assert!(rx.iter().all(|r| r.to != a));
    }

    #[test]
    fn one_transmission_is_one_buffer_however_many_listen() {
        let mut c = ch();
        let a = c.add_station();
        let others = [c.add_station(), c.add_station(), c.add_station()];
        let mut on_air = b"some frame body".to_vec();
        ax25::fcs::append_fcs(&mut on_air);
        let (ptr, body_len) = (on_air.as_ptr(), on_air.len() - 2);
        let end = c.transmit(SimTime::ZERO, a, on_air, SimDuration::ZERO);
        let mut heard = Heard::default();
        assert!(c.hear_next(end, &mut heard));
        assert_eq!(heard.listeners(), others.map(|s| (s, false)));
        assert_eq!(
            heard.data().as_ptr(),
            ptr,
            "moved out of the channel, not copied"
        );
        assert_eq!(heard.body().unwrap().len(), body_len);
        // Every listener is handed the same encoding.
        let kiss = heard.kiss().unwrap().as_ptr();
        assert_eq!(heard.kiss().unwrap().as_ptr(), kiss);
        assert_eq!(
            heard.kiss().unwrap(),
            kiss::encode(0, kiss::Command::Data, b"some frame body")
        );
        assert!(heard.header().is_none(), "a good FCS over no AX.25 frame");
        assert!(!c.hear_next(end, &mut heard), "one Heard per transmission");
        // Refilling the same Heard forgets the previous verdict and bytes.
        let end = c.transmit(end, a, b"no fcs on this one".to_vec(), SimDuration::ZERO);
        assert!(c.hear_next(end, &mut heard));
        assert_eq!(heard.listeners().len(), 3);
        assert!(heard.body().is_none() && heard.kiss().is_none());
        assert!(heard.header().is_none());
        // ...and the previous header: every listener is handed one peek.
        let (dest, src) = ("W1GOH-2".parse().unwrap(), "KB7DZ".parse().unwrap());
        let frame = ax25::frame::Frame::ui(dest, src, ax25::frame::Pid::Text, b"hi".to_vec());
        let mut on_air = frame.encode();
        ax25::fcs::append_fcs(&mut on_air);
        let end = c.transmit(end, a, on_air, SimDuration::ZERO);
        assert!(c.hear_next(end, &mut heard));
        let peeked = *heard.header().expect("a UI frame");
        assert_eq!(Ok(peeked), FrameHeader::peek(heard.body().unwrap()));
        assert_eq!((peeked.dest, peeked.fully_repeated), (dest, true));
        assert_eq!(heard.header(), Some(&peeked));
        // Buffers come back: a transmission's buffer returns to the free
        // list once the transmission after it has been heard, stale bytes
        // and all — and a short frame built in what a long one left behind
        // goes out, and up every line, as exactly its own bytes.
        let mut long = vec![0xAA; 300];
        ax25::fcs::append_fcs(&mut long);
        let long_ptr = long.as_ptr();
        let end = c.transmit(end, a, long, SimDuration::ZERO);
        assert!(c.hear_next(end, &mut heard));
        let end = c.transmit(end, a, vec![1; 5], SimDuration::ZERO);
        assert!(c.hear_next(end, &mut heard), "the long one retires");
        let mut reused = c.take_buffer();
        assert_eq!(reused.as_ptr(), long_ptr, "the same allocation, reused");
        assert!(reused.is_empty());
        reused.extend_from_slice(b"short");
        ax25::fcs::append_fcs(&mut reused);
        let on_air = reused.clone();
        let end = c.transmit(end, a, reused, SimDuration::ZERO);
        assert!(c.hear_next(end, &mut heard));
        assert_eq!(heard.data(), on_air);
        assert_eq!(heard.data().as_ptr(), long_ptr);
        assert_eq!(heard.body(), Some(&b"short"[..]));
        assert_eq!(
            heard.kiss().unwrap(),
            kiss::encode(0, kiss::Command::Data, b"short")
        );
        // The list hands each buffer out once: draining it gives distinct
        // allocations, each empty with room for the longest frame, and
        // then a new one.
        let listed = c.free.len();
        assert!(listed > 0);
        let taken: Vec<Vec<u8>> = (0..=listed).map(|_| c.take_buffer()).collect();
        assert!(c.free.is_empty());
        let mut ptrs: Vec<_> = taken.iter().map(|b| b.as_ptr()).collect();
        ptrs.sort();
        ptrs.dedup();
        assert_eq!(ptrs.len(), listed + 1);
        assert!(taken
            .iter()
            .all(|b| b.is_empty() && b.capacity() >= Channel::ON_AIR_MAX));
    }

    #[test]
    fn overlapping_transmissions_collide() {
        let mut c = ch();
        let a = c.add_station();
        let b = c.add_station();
        let victim = c.add_station();
        let end_a = c.transmit(SimTime::ZERO, a, vec![0; 100], SimDuration::ZERO);
        let _end_b = c.transmit(
            SimTime::from_millis(100),
            b,
            vec![0; 100],
            SimDuration::ZERO,
        );
        let rx = advance(&mut c, end_a);
        let to_victim: Vec<_> = rx.iter().filter(|r| r.to == victim).collect();
        assert!(!to_victim.is_empty());
        assert!(to_victim.iter().all(|r| r.corrupted));
    }

    #[test]
    fn sequential_transmissions_do_not_collide() {
        let mut c = ch();
        let a = c.add_station();
        let b = c.add_station();
        let end_a = c.transmit(SimTime::ZERO, a, vec![1; 10], SimDuration::ZERO);
        let rx1 = advance(&mut c, end_a);
        assert!(rx1.iter().all(|r| !r.corrupted));
        let end_b = c.transmit(end_a, b, vec![2; 10], SimDuration::ZERO);
        let rx2 = advance(&mut c, end_b);
        assert!(rx2.iter().all(|r| !r.corrupted));
    }

    #[test]
    fn hidden_terminal_collides_at_victim_only() {
        let mut c = ch();
        let a = c.add_station();
        let b = c.add_station();
        let victim = c.add_station();
        let far = c.add_station();
        // a and b cannot hear each other; victim hears both; far hears only b.
        c.set_hears(a, b, false);
        c.set_hears(b, a, false);
        c.set_hears(far, a, false);
        let end = c.transmit(SimTime::ZERO, a, vec![0; 100], SimDuration::ZERO);
        c.transmit(SimTime::from_millis(10), b, vec![0; 100], SimDuration::ZERO);
        let rx = advance(&mut c, end + SimDuration::from_secs(2));
        let at_victim: Vec<_> = rx.iter().filter(|r| r.to == victim).collect();
        assert_eq!(at_victim.len(), 2);
        assert!(at_victim.iter().all(|r| r.corrupted), "victim loses both");
        // far only hears b's frame, uncorrupted (it cannot hear a).
        let at_far: Vec<_> = rx.iter().filter(|r| r.to == far).collect();
        assert_eq!(at_far.len(), 1);
        assert!(!at_far[0].corrupted);
    }

    #[test]
    fn half_duplex_receiver_loses_frame_while_transmitting() {
        let mut c = ch();
        let a = c.add_station();
        let b = c.add_station();
        // Make them mutually deaf so carrier sense would not have stopped
        // b from transmitting — but b still cannot receive while keyed.
        c.set_hears(a, b, false);
        c.set_hears(b, a, false);
        let third = c.add_station();
        let _ = third;
        let end_a = c.transmit(SimTime::ZERO, a, vec![0; 100], SimDuration::ZERO);
        c.transmit(SimTime::from_millis(1), b, vec![0; 200], SimDuration::ZERO);
        let rx = advance(&mut c, end_a + SimDuration::from_secs(3));
        // b cannot hear a at all (deaf), so look at third instead; but the
        // self-tx rule is what we check for... make b hear a again:
        let mut c2 = ch();
        let a2 = c2.add_station();
        let b2 = c2.add_station();
        c2.set_hears(a2, b2, false); // a deaf to b so no collision at a
        let end = c2.transmit(SimTime::ZERO, a2, vec![0; 100], SimDuration::ZERO);
        c2.transmit(SimTime::from_millis(1), b2, vec![0; 10], SimDuration::ZERO);
        let rx2 = advance(&mut c2, end + SimDuration::from_secs(2));
        let b_copy = rx2.iter().find(|r| r.to == b2 && r.from == a2).unwrap();
        assert!(b_copy.corrupted, "b was transmitting during a's frame");
        let _ = rx;
    }

    #[test]
    fn carrier_sense_tracks_activity_and_hearing() {
        let mut c = ch();
        let a = c.add_station();
        let b = c.add_station();
        let deaf = c.add_station();
        c.set_hears(deaf, a, false);
        assert!(!c.carrier_busy(SimTime::ZERO, b));
        let end = c.transmit(SimTime::ZERO, a, vec![0; 100], SimDuration::ZERO);
        let mid = SimTime::from_millis(100);
        assert!(c.carrier_busy(mid, b));
        assert!(c.carrier_busy(mid, a), "own transmission counts");
        assert!(!c.carrier_busy(mid, deaf), "deaf station senses idle");
        assert!(!c.carrier_busy(end, b), "end instant is idle");
    }

    #[test]
    fn byte_errors_corrupt_roughly_expected_fraction() {
        let mut c = Channel::new(Bandwidth::bps(1_000_000_000))
            .with_byte_errors(0.001, SimRng::seed_from(3));
        let a = c.add_station();
        let _b = c.add_station();
        let mut corrupted = 0;
        let mut now = SimTime::ZERO;
        let n = 2000;
        for _ in 0..n {
            let end = c.transmit(now, a, vec![0; 100], SimDuration::ZERO);
            let rx = advance(&mut c, end);
            corrupted += rx.iter().filter(|r| r.corrupted).count();
            now = end;
        }
        // P(corrupt) = 1 - 0.999^100 ≈ 0.095.
        let frac = corrupted as f64 / n as f64;
        assert!((frac - 0.095).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn stats_and_utilization() {
        let mut c = ch();
        let a = c.add_station();
        let _b = c.add_station();
        let end = c.transmit(SimTime::ZERO, a, vec![0; 150], SimDuration::ZERO);
        advance(&mut c, end);
        assert_eq!(c.stats().transmissions, 1);
        assert_eq!(c.stats().clean_receptions, 1);
        // 1s of airtime over a 2s window = 0.5.
        let u = c.offered_utilization(SimTime::from_secs(2));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn occupied_airtime_is_a_union_and_utilization_is_clamped() {
        let mut c = ch();
        let a = c.add_station();
        let b = c.add_station();
        let _v = c.add_station();
        // Two fully-overlapping 1s transmissions: offered load counts 2s,
        // occupied airtime counts 1s.
        c.transmit(SimTime::ZERO, a, vec![0; 150], SimDuration::ZERO);
        let end = c.transmit(SimTime::ZERO, b, vec![0; 150], SimDuration::ZERO);
        advance(&mut c, end);
        assert_eq!(c.stats().airtime_ns, 2_000_000_000);
        assert_eq!(c.stats().occupied_ns, 1_000_000_000);
        let span = SimTime::from_secs(1);
        assert!(c.offered_utilization(span) > 1.9);
        assert!((c.utilization(span) - 1.0).abs() < 1e-9, "clamped at 1.0");
        // A later partially-overlapping tx only accrues the new tail.
        let start2 = SimTime::from_millis(500);
        let mut c2 = ch();
        let a2 = c2.add_station();
        let _b2 = c2.add_station();
        c2.transmit(SimTime::ZERO, a2, vec![0; 150], SimDuration::ZERO);
        c2.transmit(start2, a2, vec![0; 150], SimDuration::ZERO);
        assert_eq!(c2.stats().occupied_ns, 1_500_000_000);
    }

    /// One step of building a hearing matrix.
    #[derive(Debug, Clone)]
    enum Build {
        Add,
        Set(Index, Index, bool),
    }

    proptest::proptest! {
        /// The flat matrix answers like the row-per-station one it
        /// replaced, whatever mix of stations and links built it, across
        /// every doubling of its stride.
        #[test]
        fn flat_matrix_hears_like_nested_rows(
            steps in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::prelude::Just(Build::Add),
                    proptest::prelude::Just(Build::Add),
                    (any::<Index>(), any::<Index>(), any::<bool>())
                        .prop_map(|(l, s, h)| Build::Set(l, s, h)),
                ],
                1..120,
            ),
        ) {
            let mut c = ch();
            let mut rows: Vec<Vec<bool>> = Vec::new();
            for step in &steps {
                match step {
                    Build::Add => {
                        let n = rows.len();
                        for row in &mut rows {
                            row.push(true);
                        }
                        let mut row = vec![true; n + 1];
                        row[n] = false;
                        rows.push(row);
                        proptest::prop_assert_eq!(c.add_station(), StationId(n));
                    }
                    Build::Set(l, s, h) if !rows.is_empty() => {
                        let (l, s) = (l.index(rows.len()), s.index(rows.len()));
                        if l != s {
                            rows[l][s] = *h;
                        }
                        c.set_hears(StationId(l), StationId(s), *h);
                    }
                    Build::Set(..) => {}
                }
                proptest::prop_assert_eq!(c.station_count(), rows.len());
                for (l, row) in rows.iter().enumerate() {
                    for (s, &h) in row.iter().enumerate() {
                        proptest::prop_assert_eq!(c.hears(l, StationId(s)), h, "{} hears {} after {:?}", l, s, step);
                    }
                }
            }
        }
    }

    #[test]
    fn prune_keeps_memory_bounded() {
        let mut c = ch();
        let a = c.add_station();
        let _b = c.add_station();
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let end = c.transmit(now, a, vec![0; 10], SimDuration::ZERO);
            advance(&mut c, end);
            now = end;
        }
        assert!(
            c.txs.len() <= 2,
            "delivered txs pruned, got {}",
            c.txs.len()
        );
    }
}
