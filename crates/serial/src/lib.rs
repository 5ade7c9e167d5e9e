//! RS-232 serial line model.
//!
//! In the paper's hardware (Figure 1) the host talks to the KISS TNC over a
//! DZ serial line: *"the TNC does not sit on the bus. Instead, one
//! communicates with it through a serial line"* (§2.2). This crate models
//! that line at the character level:
//!
//! * full duplex — each direction serializes independently;
//! * one character occupies the line for `10 / baud` seconds (10 bits per
//!   character for the usual 8N1 framing);
//! * the receiving end has a finite FIFO; characters arriving while it is
//!   full are dropped and counted as **overruns** (the DZ11's infamous silo
//!   overflow).
//!
//! The model is sans-io and can be driven at two granularities that
//! produce the same bytes at the same instants:
//!
//! * **per character** — callers [`SerialLine::send`] bytes, poll
//!   [`SerialLine::next_deadline`], call [`SerialLine::advance`] when the
//!   clock reaches it, and [`SerialLine::drain_rx`] the receive FIFO;
//! * **per frame** — callers poll [`SerialLine::next_boundary`] (the
//!   completion time of the next *closing* [`FRAME_END`] character) and
//!   pull whole line-paced runs with [`SerialLine::take_run`]. A receiver
//!   that only buffers and counts bytes until a frame delimiter closes a
//!   frame cannot tell the two apart (DESIGN.md §6). A sender that already
//!   knows what a receiver will make of a frame can say so beside the bytes
//!   ([`SerialLine::send_sealed`]); a run that is exactly that frame then
//!   reaches the receiver as its [`Seal`], not as a copy.
//!
//! # Examples
//!
//! ```
//! use serial::{End, SerialConfig, SerialLine};
//! use sim::SimTime;
//!
//! let mut line = SerialLine::new(SerialConfig::baud(9600));
//! line.send(SimTime::ZERO, End::A, b"hi");
//! // Each 8N1 character takes 10/9600 s ≈ 1.0417 ms.
//! let t1 = line.next_deadline().unwrap();
//! line.advance(t1);
//! let t2 = line.next_deadline().unwrap();
//! line.advance(t2);
//! let mut rx = Vec::new();
//! line.drain_rx(End::B, &mut rx);
//! assert_eq!(rx, b"hi");
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

use std::collections::VecDeque;

use sim::bytekernels::find_byte;
use sim::{Bandwidth, SimDuration, SimTime};

/// The frame delimiter that ends a run: `0xC0`, the KISS (and SLIP) `FEND`.
/// Every link protocol this workspace puts on a serial line delimits its
/// frames with it, so a character before the next `FRAME_END` can only be
/// buffered by the receiver.
///
/// Only a *closing* `FRAME_END` ends a run: one whose predecessor on the
/// wire is not itself a `FRAME_END`. A `FRAME_END` directly after another
/// (the leading delimiter of a back-to-back frame, idle padding) finds a
/// deframer the previous one just emptied and can complete nothing —
/// **provided the receiver saw that previous one**. The line cannot check
/// that; a receiver that discards input (a powered-down host) must come
/// back with an empty deframer (DESIGN.md §6).
pub const FRAME_END: u8 = 0xC0;

/// Characters a direction's transmit queue makes room for the first time
/// it must grow: a KISS frame around the longest AX.25 frame, unescaped
/// (`FEND`, command, 328 octets, `FEND`). Past that — an escape-heavy
/// frame, a backlog — it doubles as usual.
pub const TX_QUEUE_CHARS: usize = 331;

/// Index of the first closing [`FRAME_END`] in `bytes`, given the byte
/// that precedes them on the wire.
fn first_closing(prev: u8, bytes: &[u8]) -> Option<usize> {
    let skip = if prev == FRAME_END {
        bytes.iter().take_while(|&&b| b == FRAME_END).count()
    } else {
        0
    };
    // Whatever `find_byte` finds now follows `prev` or a data byte.
    find_byte(&bytes[skip..], FRAME_END).map(|i| skip + i)
}

/// Which end of the line a byte is sent from (the other end receives it).
///
/// By convention in this workspace, `A` is the host (DZ) side and `B` is
/// the device (TNC) side, but the model is symmetric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum End {
    /// The host side.
    A,
    /// The device side.
    B,
}

impl End {
    /// The opposite end.
    pub fn peer(self) -> End {
        match self {
            End::A => End::B,
            End::B => End::A,
        }
    }

    fn index(self) -> usize {
        match self {
            End::A => 0,
            End::B => 1,
        }
    }
}

/// Bits occupied per character including start/stop framing (8N1 = 10).
const BITS_PER_CHAR: u64 = 10;

/// Receive FIFO depth at each end: the DZ11's 64-character silo. A
/// character arriving while it is full is dropped as an overrun.
pub const RX_FIFO: usize = 64;

/// Static parameters of a serial line.
#[derive(Debug, Clone, Copy)]
pub struct SerialConfig {
    /// Line rate in baud (bits per second on the wire).
    pub baud: u32,
}

impl SerialConfig {
    /// A standard 8N1 line at the given baud rate.
    pub fn baud(baud: u32) -> SerialConfig {
        SerialConfig { baud }
    }

    /// Time one character occupies the line.
    pub fn char_time(&self) -> SimDuration {
        Bandwidth::bps(u64::from(self.baud)).time_for_bits(BITS_PER_CHAR)
    }
}

/// Per-direction transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Characters accepted for transmission.
    pub sent: u64,
    /// Characters delivered into the peer's FIFO.
    pub delivered: u64,
    /// Characters dropped because the peer's FIFO was full.
    pub overruns: u64,
}

/// Eight octets a sender attaches to a span of characters with
/// [`SerialLine::send_sealed`]: what it already knows about them that their
/// receiver would otherwise re-derive by reading them. Opaque to the line,
/// which only carries it beside the span; it must be a pure function of the
/// span's bytes, so that handing it over in their place loses nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Seal(pub [u8; 8]);

/// A run produced by [`SerialLine::take_run`]: character `i` of its `len`
/// completed at `t0 + i·char_time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunInfo {
    /// Delivery instant of the first character.
    pub t0: SimTime,
    /// Delivery instant of the last character.
    pub t_last: SimTime,
    /// Characters in the run.
    pub len: usize,
    /// The run was exactly a sealed span and the receiver accepted its
    /// seal in place of the bytes: nothing was copied out.
    pub seal: Option<Seal>,
}

/// A sealed span: `len` characters from stream position `start`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u64,
    len: usize,
    seal: Seal,
}

/// The sealed spans of one direction that have not started leaving the
/// wire, oldest first. Fixed size: a span sent while it is full travels as
/// plain bytes, so a sender whose receiver never takes runs leaks nothing.
#[derive(Debug, Default)]
struct SealStore {
    spans: [Span; SealStore::CAPACITY],
    len: usize,
}

impl SealStore {
    /// A line drains several times faster than a radio channel fills it,
    /// so more than one frame waiting is already rare.
    const CAPACITY: usize = 4;

    /// Forgets the spans that begin before stream position `pos`: their
    /// first character has left the wire, so no run can equal them.
    fn forget_before(&mut self, pos: u64) {
        let live = &self.spans[..self.len];
        let stale = live.iter().take_while(|s| s.start < pos).count();
        self.spans.copy_within(stale..self.len, 0);
        self.len -= stale;
    }

    fn push(&mut self, span: Span) {
        if self.len < Self::CAPACITY {
            self.spans[self.len] = span;
            self.len += 1;
        }
    }

    /// The seal of the span that is exactly the `len` characters from
    /// `pos` on.
    fn exactly(&mut self, pos: u64, len: usize) -> Option<Seal> {
        self.forget_before(pos);
        let first = self.spans[..self.len].first()?;
        (first.start == pos && first.len == len).then_some(first.seal)
    }
}

#[derive(Debug)]
struct Direction {
    /// Characters waiting to go onto the wire.
    tx_queue: VecDeque<u8>,
    /// The character currently on the wire and when it finishes.
    in_flight: Option<(SimTime, u8)>,
    /// The character that last left the wire (0 before the first).
    last_out: u8,
    /// Position of the first closing [`FRAME_END`] among the pending
    /// characters (0 = the one in flight, `i + 1` = `tx_queue[i]`), if
    /// there is one.
    delim_at: Option<usize>,
    /// Received characters waiting for the receiver to take them.
    rx_fifo: VecDeque<u8>,
    seals: SealStore,
    stats: DirStats,
}

impl Direction {
    fn new() -> Direction {
        Direction {
            tx_queue: VecDeque::new(),
            in_flight: None,
            last_out: 0,
            delim_at: None,
            rx_fifo: VecDeque::new(),
            seals: SealStore::default(),
            stats: DirStats::default(),
        }
    }

    /// Stream position of the next character to leave the wire: how many
    /// have left it, wherever they went.
    fn position(&self) -> u64 {
        self.stats.delivered + self.stats.overruns
    }

    /// Completion time of this direction's boundary character: the first
    /// pending closing [`FRAME_END`], else the last pending character.
    fn boundary(&self, char_time: SimDuration) -> Option<SimTime> {
        let (done, _) = self.in_flight?;
        let ahead = self.delim_at.unwrap_or(self.tx_queue.len());
        Some(done + char_time * ahead as u64)
    }

    /// After the first `n` pending characters have left, `last` the final
    /// one (the one in flight and `n − 1` already removed from the queue's
    /// front): puts the next queued character on the wire, completing at
    /// `next_done`, and re-derives `delim_at`.
    fn start_next(&mut self, n: usize, last: u8, next_done: SimTime) {
        self.last_out = last;
        self.in_flight = self.tx_queue.pop_front().map(|b| (next_done, b));
        self.delim_at = match self.delim_at {
            Some(k) if k >= n => Some(k - n),
            Some(_) => self.find_delim(),
            None => None,
        };
    }

    /// The last pending character, else the last one that left.
    fn last_byte(&self) -> u8 {
        let pending = self.tx_queue.back().copied();
        pending
            .or(self.in_flight.map(|f| f.1))
            .unwrap_or(self.last_out)
    }

    fn find_delim(&self) -> Option<usize> {
        let first = [self.in_flight?.1];
        let (head, tail) = self.tx_queue.as_slices();
        let (mut prev, mut base) = (self.last_out, 0);
        for part in [&first[..], head, tail] {
            if let Some(i) = first_closing(prev, part) {
                return Some(base + i);
            }
            prev = part.last().copied().unwrap_or(prev);
            base += part.len();
        }
        None
    }
}

/// A full-duplex, character-timed serial line between two endpoints.
///
/// See the [crate docs](crate) for the model and an example.
#[derive(Debug)]
pub struct SerialLine {
    cfg: SerialConfig,
    /// `cfg.char_time()`, computed once: every send, run and advance
    /// needs it, and deriving it is a 128-bit division.
    char_time: SimDuration,
    /// `dirs[0]` carries A→B traffic, `dirs[1]` carries B→A traffic.
    dirs: [Direction; 2],
    /// Min over both directions' in-flight completion times, maintained on
    /// every mutation so `next_deadline` is a field read, not a re-derive.
    cached_deadline: Option<SimTime>,
    /// Min over both directions' boundary completion times, likewise.
    cached_boundary: Option<SimTime>,
}

impl SerialLine {
    /// Creates an idle line.
    pub fn new(cfg: SerialConfig) -> SerialLine {
        SerialLine {
            cfg,
            char_time: cfg.char_time(),
            dirs: [Direction::new(), Direction::new()],
            cached_deadline: None,
            cached_boundary: None,
        }
    }

    /// The line's static configuration.
    #[inline]
    pub fn config(&self) -> &SerialConfig {
        &self.cfg
    }

    /// Time one character occupies this line (`config().char_time()`,
    /// cached at construction).
    #[inline]
    pub fn char_time(&self) -> SimDuration {
        self.char_time
    }

    /// Queues `bytes` for transmission from `from` toward its peer.
    ///
    /// The first character starts serializing immediately if the direction
    /// is idle; otherwise characters follow back-to-back.
    pub fn send(&mut self, now: SimTime, from: End, bytes: &[u8]) {
        let char_time = self.char_time;
        let dir = &mut self.dirs[from.index()];
        dir.stats.sent += bytes.len() as u64;
        if dir.delim_at.is_none() {
            let pending = dir.tx_queue.len() + usize::from(dir.in_flight.is_some());
            dir.delim_at = first_closing(dir.last_byte(), bytes).map(|i| pending + i);
        }
        let need = dir.tx_queue.len() + bytes.len();
        if need > dir.tx_queue.capacity() {
            dir.tx_queue
                .reserve(need.max(TX_QUEUE_CHARS) - dir.tx_queue.len());
        }
        dir.tx_queue.extend(bytes);
        if dir.in_flight.is_none() {
            if let Some(b) = dir.tx_queue.pop_front() {
                dir.in_flight = Some((now + char_time, b));
            }
        }
        self.recache();
    }

    /// [`SerialLine::send`] with a [`Seal`] on `bytes`: the same characters
    /// at the same instants, and a [`SerialLine::take_run`] that pulls
    /// exactly these characters — all of them, nothing before or after —
    /// offers its caller the seal in their place. Any other way the span
    /// leaves the wire (a run that ends inside it, per-character
    /// [`SerialLine::advance`]) silently forgets the seal.
    pub fn send_sealed(&mut self, now: SimTime, from: End, bytes: &[u8], seal: Seal) {
        let dir = &mut self.dirs[from.index()];
        if !bytes.is_empty() {
            dir.seals.forget_before(dir.position());
            dir.seals.push(Span {
                start: dir.stats.sent,
                len: bytes.len(),
                seal,
            });
        }
        self.send(now, from, bytes);
    }

    fn recache(&mut self) {
        let char_time = self.char_time;
        let min = |a: Option<SimTime>, b: Option<SimTime>| match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let [ab, ba] = &self.dirs;
        self.cached_deadline = min(ab.in_flight.map(|f| f.0), ba.in_flight.map(|f| f.0));
        self.cached_boundary = min(ab.boundary(char_time), ba.boundary(char_time));
    }

    /// The earliest time at which [`SerialLine::advance`] will have work.
    ///
    /// This is a cached field maintained by every mutation; polling it
    /// costs nothing.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.cached_deadline
    }

    /// The earliest time a receiver must look at this line when it pulls
    /// runs with [`SerialLine::take_run`]: per direction, the completion
    /// time of the first pending closing [`FRAME_END`] (see there), else of
    /// the last pending character. Everything completing before that is a
    /// character its receiver can only buffer, so it may be picked up late
    /// — at this instant, or at any earlier [`SerialLine::take_run`].
    ///
    /// Cached like `next_deadline`.
    #[inline]
    pub fn next_boundary(&self) -> Option<SimTime> {
        self.cached_boundary
    }

    /// Completes every character whose serialization finishes at or before
    /// `now`, moving it into the peer's receive FIFO (or dropping it on
    /// overrun). Returns the number of characters delivered.
    pub fn advance(&mut self, now: SimTime) -> usize {
        let char_time = self.char_time;
        let mut delivered = 0;
        for dir in &mut self.dirs {
            while let Some((done, byte)) = dir.in_flight {
                if done > now {
                    break;
                }
                if dir.rx_fifo.len() >= RX_FIFO {
                    dir.stats.overruns += 1;
                } else {
                    dir.rx_fifo.push_back(byte);
                    dir.stats.delivered += 1;
                    delivered += 1;
                }
                dir.start_next(1, byte, done + char_time);
            }
        }
        self.recache();
        delivered
    }

    /// Pulls the next line-paced run addressed to `to` off the wire: the
    /// pending characters that complete at or before `now`, up to and
    /// including the first closing [`FRAME_END`] — so a frame sent as
    /// `FEND cmd … FEND` behind another is one run, leading delimiter
    /// included. `out` is cleared and filled with
    /// the run; `None` (and an empty `out`) means nothing is due. Call
    /// until `None` to bring `to` fully up to `now`.
    ///
    /// A run that is exactly one [`SerialLine::send_sealed`] span is first
    /// offered to `accept` as its [`Seal`]. If that says yes the run comes
    /// back as [`RunInfo::seal`] and `out` stays empty: the characters
    /// leave the line uncopied. `|_| false` always gets the bytes.
    ///
    /// The effect on the line is exactly that of per-character
    /// [`SerialLine::advance`] with a receiver that drains its FIFO after
    /// every character: same bytes, same completion instants
    /// (`t0 + i·char_time`), same [`DirStats`], same character left on the
    /// wire. Runs bypass the receive FIFO, so do not mix the two styles
    /// without draining it. Each direction is independent of the other.
    pub fn take_run(
        &mut self,
        to: End,
        now: SimTime,
        out: &mut Vec<u8>,
        accept: impl FnOnce(Seal) -> bool,
    ) -> Option<RunInfo> {
        out.clear();
        let char_time = self.char_time;
        let dir = &mut self.dirs[to.peer().index()];
        debug_assert!(dir.rx_fifo.is_empty(), "runs bypass the receive FIFO");
        let (t0, first) = dir.in_flight.filter(|&(done, _)| done <= now)?;
        let due = (now.saturating_since(t0).as_nanos())
            .checked_div(char_time.as_nanos())
            .map_or(usize::MAX, |q| usize::try_from(q).unwrap_or(usize::MAX))
            .saturating_add(1);
        let n = due
            .min(1 + dir.tx_queue.len())
            .min(dir.delim_at.map_or(usize::MAX, |k| k + 1));
        let seal = dir.seals.exactly(dir.position(), n).filter(|&s| accept(s));
        let last = match n {
            1 => first,
            _ => dir.tx_queue[n - 2],
        };
        if seal.is_none() {
            out.push(first);
            let (head, tail) = dir.tx_queue.as_slices();
            let from_head = (n - 1).min(head.len());
            out.extend_from_slice(&head[..from_head]);
            out.extend_from_slice(&tail[..n - 1 - from_head]);
        }
        dir.tx_queue.drain(..n - 1);
        let t_last = t0 + char_time * (n as u64 - 1);
        dir.stats.delivered += n as u64;
        dir.start_next(n, last, t_last + char_time);
        self.recache();
        Some(RunInfo {
            t0,
            t_last,
            len: n,
            seal,
        })
    }

    /// Moves all characters waiting in the FIFO at `end` into `out`
    /// (cleared first); returns how many.
    pub fn drain_rx(&mut self, end: End, out: &mut Vec<u8>) -> usize {
        // Traffic *arriving at* `end` was sent by its peer.
        let dir = &mut self.dirs[end.peer().index()];
        out.clear();
        out.extend(dir.rx_fifo.drain(..));
        out.len()
    }

    /// Number of characters waiting in the FIFO at `end`.
    pub fn rx_len(&self, end: End) -> usize {
        self.dirs[end.peer().index()].rx_fifo.len()
    }

    /// Number of characters still queued or in flight from `from`.
    pub fn tx_backlog(&self, from: End) -> usize {
        let dir = &self.dirs[from.index()];
        dir.tx_queue.len() + usize::from(dir.in_flight.is_some())
    }

    /// True if neither direction has a character queued or on the wire.
    /// Characters already delivered into a receive FIFO and not yet
    /// drained do not count: see [`SerialLine::rx_len`].
    pub fn is_idle(&self) -> bool {
        self.dirs
            .iter()
            .all(|d| d.tx_queue.is_empty() && d.in_flight.is_none())
    }

    /// Statistics for the direction transmitting from `from`.
    pub fn stats(&self, from: End) -> DirStats {
        self.dirs[from.index()].stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx(line: &mut SerialLine, end: End) -> Vec<u8> {
        let mut out = Vec::new();
        line.drain_rx(end, &mut out);
        out
    }

    fn drain_all(line: &mut SerialLine) -> SimTime {
        let mut now = SimTime::ZERO;
        while let Some(t) = line.next_deadline() {
            now = t;
            line.advance(now);
        }
        now
    }

    #[test]
    fn bytes_arrive_in_order_with_char_timing() {
        let cfg = SerialConfig::baud(9600);
        let mut line = SerialLine::new(cfg);
        line.send(SimTime::ZERO, End::A, b"abc");
        // First char done at one char time.
        let t = line.next_deadline().unwrap();
        assert_eq!(t, SimTime::ZERO + cfg.char_time());
        let end = drain_all(&mut line);
        assert_eq!(end, SimTime::ZERO + cfg.char_time() * 3);
        assert_eq!(rx(&mut line, End::B), b"abc".to_vec());
    }

    #[test]
    fn full_duplex_directions_are_independent() {
        let cfg = SerialConfig::baud(1200);
        let mut line = SerialLine::new(cfg);
        line.send(SimTime::ZERO, End::A, b"x");
        line.send(SimTime::ZERO, End::B, b"y");
        drain_all(&mut line);
        assert_eq!(rx(&mut line, End::B), b"x".to_vec());
        assert_eq!(rx(&mut line, End::A), b"y".to_vec());
    }

    #[test]
    fn back_to_back_after_busy_line() {
        let cfg = SerialConfig::baud(9600);
        let mut line = SerialLine::new(cfg);
        line.send(SimTime::ZERO, End::A, b"a");
        // Queue more mid-character; it must serialize after the first.
        let mid = SimTime::ZERO + cfg.char_time() / 2;
        line.send(mid, End::A, b"b");
        let end = drain_all(&mut line);
        assert_eq!(end, SimTime::ZERO + cfg.char_time() * 2);
        assert_eq!(rx(&mut line, End::B), b"ab".to_vec());
    }

    #[test]
    fn idle_gap_restarts_clock() {
        let cfg = SerialConfig::baud(9600);
        let mut line = SerialLine::new(cfg);
        line.send(SimTime::ZERO, End::A, b"a");
        drain_all(&mut line);
        let later = SimTime::from_secs(5);
        line.send(later, End::A, b"b");
        assert_eq!(line.next_deadline(), Some(later + cfg.char_time()));
    }

    #[test]
    fn rx_fifo_overrun_drops_and_counts() {
        let mut line = SerialLine::new(SerialConfig::baud(9600));
        let data: Vec<u8> = (0..RX_FIFO as u8 + 2).collect();
        line.send(SimTime::ZERO, End::A, &data);
        drain_all(&mut line);
        assert_eq!(rx(&mut line, End::B), data[..RX_FIFO].to_vec());
        let s = line.stats(End::A);
        assert_eq!(s.sent, RX_FIFO as u64 + 2);
        assert_eq!(s.delivered, RX_FIFO as u64);
        assert_eq!(s.overruns, 2);
    }

    #[test]
    fn draining_fifo_prevents_overrun() {
        let mut line = SerialLine::new(SerialConfig::baud(9600));
        let data = [b'a'; 2 * RX_FIFO];
        line.send(SimTime::ZERO, End::A, &data);
        let mut got = Vec::new();
        while let Some(t) = line.next_deadline() {
            line.advance(t);
            got.extend(rx(&mut line, End::B));
        }
        assert_eq!(got, data.to_vec());
        assert_eq!(line.stats(End::A).overruns, 0);
    }

    #[test]
    fn backlog_and_idle_reporting() {
        let cfg = SerialConfig::baud(9600);
        let mut line = SerialLine::new(cfg);
        assert!(line.is_idle());
        line.send(SimTime::ZERO, End::A, b"abc");
        assert_eq!(line.tx_backlog(End::A), 3);
        assert!(!line.is_idle());
        drain_all(&mut line);
        assert!(line.is_idle());
        assert_eq!(line.tx_backlog(End::A), 0);
        // Idle is about the wire: what sits undrained in a FIFO is the
        // receiver's business.
        assert_eq!(line.rx_len(End::B), 3);
    }

    #[test]
    fn a_transmit_queue_grows_once_to_a_frame_and_a_send_that_fits_leaves_it() {
        let mut line = SerialLine::new(SerialConfig::baud(9600));
        let capacity = |line: &SerialLine| line.dirs[End::A.index()].tx_queue.capacity();
        assert_eq!(capacity(&line), 0, "a line that never sends holds nothing");
        line.send(SimTime::ZERO, End::A, &[1; 40]);
        let born = capacity(&line);
        assert!(born >= TX_QUEUE_CHARS, "{born}");
        line.send(SimTime::ZERO, End::A, &[2; 200]);
        assert_eq!(capacity(&line), born, "it fits: not reallocated");
        // A backlog past one frame grows it as any queue grows.
        line.send(SimTime::ZERO, End::A, &[3; 200]);
        assert!(capacity(&line) >= 439);
    }

    #[test]
    fn char_time_math() {
        // 9600 baud, 10 bits/char => 1.0416..ms, rounded up to ns.
        let cfg = SerialConfig::baud(9600);
        assert_eq!(cfg.char_time(), SimDuration::from_nanos(1_041_667));
    }

    /// Per-character reference: every delivery as `(time, byte)`, stopping
    /// after deadlines past `upto`.
    fn per_char(line: &mut SerialLine, to: End, upto: SimTime) -> Vec<(SimTime, u8)> {
        let mut got = Vec::new();
        while let Some(t) = line.next_deadline().filter(|&t| t <= upto) {
            line.advance(t);
            got.extend(rx(line, to).into_iter().map(|b| (t, b)));
            rx(line, to.peer());
        }
        got
    }

    /// Run delivery: visit the line at each boundary ≤ `upto`, then flush.
    fn by_runs(line: &mut SerialLine, to: End, upto: SimTime) -> Vec<(SimTime, u8)> {
        let ct = line.config().char_time();
        let mut got = Vec::new();
        let mut run = Vec::new();
        let mut pull = |line: &mut SerialLine, now: SimTime| {
            while let Some(info) = line.take_run(to, now, &mut run, |_| false) {
                assert_eq!(info.t_last, info.t0 + ct * (run.len() as u64 - 1));
                got.extend(
                    run.iter()
                        .enumerate()
                        .map(|(i, &b)| (info.t0 + ct * i as u64, b)),
                );
            }
        };
        while let Some(t) = line.next_boundary().filter(|&t| t <= upto) {
            pull(line, t);
        }
        pull(line, upto);
        got
    }

    /// Sends `wire` at `at` on a reference line (per character) and on
    /// `line` (one `take_run` per boundary); returns the runs after
    /// checking both saw the same bytes at the same instants.
    fn runs_of(
        reference: &mut SerialLine,
        line: &mut SerialLine,
        at: SimTime,
        wire: &[u8],
    ) -> Vec<Vec<u8>> {
        let ct = line.config().char_time();
        let far = at + SimDuration::from_secs(10);
        reference.send(at, End::A, wire);
        line.send(at, End::A, wire);
        let expect = per_char(reference, End::B, far);
        let (mut run, mut runs, mut got) = (Vec::new(), Vec::new(), Vec::new());
        while let Some(t) = line.next_boundary() {
            let info = line
                .take_run(End::B, t, &mut run, |_| false)
                .expect("boundary is due");
            assert_eq!(info.t_last, t, "a run ends exactly at its boundary");
            got.extend((0u64..).zip(&run).map(|(i, &b)| (info.t0 + ct * i, b)));
            runs.push(run.clone());
            assert!(line.take_run(End::B, t, &mut run, |_| false).is_none());
        }
        assert_eq!(got, expect);
        assert_eq!(expect.last().unwrap().0, at + ct * wire.len() as u64);
        assert_eq!(line.stats(End::A), reference.stats(End::A));
        assert!(line.is_idle());
        runs
    }

    #[test]
    fn runs_end_at_frame_delimiters_and_match_per_character_delivery() {
        let cfg = SerialConfig::baud(9600);
        let mut reference = SerialLine::new(cfg);
        let mut line = SerialLine::new(cfg);
        let mut at = SimTime::ZERO;
        let mut runs = |wire: &[u8]| {
            at += SimDuration::from_secs(20);
            runs_of(&mut reference, &mut line, at, wire)
        };
        // Boundaries: each closing FEND in turn, then the last queued
        // character. Nothing is known about what preceded a fresh line's
        // first byte, so a leading FEND there counts as closing.
        assert_eq!(
            runs(b"\xC0hello\xC0\xC0tail"),
            [&b"\xC0"[..], b"hello\xC0", b"\xC0tail"].map(<[u8]>::to_vec)
        );
        // Back-to-back KISS frames are one run each, leading FEND and all;
        // padding FENDs ride along with the frame that follows them.
        assert_eq!(
            runs(b"\xC0\x00ab\xC0\xC0\x00cd\xC0\xC0\xC0\xC0\x00ef\xC0"),
            [
                &b"\xC0"[..], // after "tail": closes whatever "tail" began
                b"\x00ab\xC0",
                b"\xC0\x00cd\xC0",
                b"\xC0\xC0\xC0\x00ef\xC0"
            ]
            .map(<[u8]>::to_vec)
        );
        // A lone FEND sent while idle, after a FEND: not closing, but the
        // last pending character is a boundary all the same.
        assert_eq!(runs(b"\xC0"), [b"\xC0".to_vec()]);
        // The wire remembers it across the idle gap.
        assert_eq!(runs(b"\xC0\x00gh\xC0"), [b"\xC0\x00gh\xC0".to_vec()]);
        // Idle padding alone never splits.
        assert_eq!(runs(b"\xC0\xC0\xC0"), [b"\xC0\xC0\xC0".to_vec()]);
        // A lone FEND after a data byte closes.
        assert_eq!(runs(b"x"), [b"x".to_vec()]);
        assert_eq!(runs(b"\xC0y"), [&b"\xC0"[..], b"y"].map(<[u8]>::to_vec));
    }

    #[test]
    fn catching_up_mid_frame_leaves_the_per_character_state() {
        let cfg = SerialConfig::baud(9600);
        let ct = cfg.char_time();
        let mut reference = SerialLine::new(cfg);
        let mut line = SerialLine::new(cfg);
        for l in [&mut reference, &mut line] {
            l.send(SimTime::ZERO, End::A, b"abcdef\xC0");
            l.send(SimTime::ZERO, End::B, b"\xC0xy");
        }
        // Mid-character, mid-frame: three and a half character times in.
        let mid = SimTime::ZERO + ct * 3 + ct / 2;
        let expect_b = per_char(&mut reference, End::B, mid);
        let mut run = Vec::new();
        let info = line.take_run(End::B, mid, &mut run, |_| false).unwrap();
        assert_eq!(run, b"abc");
        assert_eq!((info.t0, info.t_last), (expect_b[0].0, expect_b[2].0));
        assert!(line.take_run(End::B, mid, &mut run, |_| false).is_none());
        assert!(run.is_empty());
        // The other direction is untouched until its receiver asks.
        assert_eq!(line.tx_backlog(End::B), 3);
        let info = line.take_run(End::A, mid, &mut run, |_| false).unwrap();
        assert_eq!(
            (run.as_slice(), info.t0),
            (&b"\xC0"[..], SimTime::ZERO + ct)
        );
        line.take_run(End::A, mid, &mut run, |_| false).unwrap();
        assert_eq!(run, b"xy");
        for end in [End::A, End::B] {
            assert_eq!(line.stats(end), reference.stats(end));
            assert_eq!(line.tx_backlog(end), reference.tx_backlog(end));
        }
        assert_eq!(line.next_deadline(), reference.next_deadline());
        // Appending behind the backlog continues back to back.
        for l in [&mut reference, &mut line] {
            l.send(mid, End::A, b"gh");
        }
        let far = SimTime::from_secs(1);
        assert_eq!(
            by_runs(&mut line, End::B, far),
            per_char(&mut reference, End::B, far)
        );
    }

    const SEAL: Seal = Seal(*b"sealed!!");

    /// Takes one run for `End::A` at `now`, accepting any seal.
    fn take(line: &mut SerialLine, now: SimTime) -> (Option<Seal>, Vec<u8>) {
        let mut run = Vec::new();
        let info = line.take_run(End::A, now, &mut run, |_| true).unwrap();
        assert_eq!(info.len, if info.seal.is_some() { 7 } else { run.len() });
        (info.seal, run)
    }

    #[test]
    fn a_seal_comes_back_only_for_a_run_that_is_exactly_its_span() {
        let cfg = SerialConfig::baud(9600);
        let ct = cfg.char_time();
        let frame = b"\xC0\x00abcd\xC0";
        let at = SimTime::from_secs;
        let far = at(1);
        let mut line = SerialLine::new(cfg);
        // Nothing is known about what preceded a fresh line's first byte:
        // the leading FEND is a run of its own, and the rest is bytes.
        line.send_sealed(SimTime::ZERO, End::B, frame, SEAL);
        assert_eq!(take(&mut line, far), (None, b"\xC0".to_vec()));
        assert_eq!(take(&mut line, far), (None, b"\x00abcd\xC0".to_vec()));
        // Behind a FEND the whole frame is one run: the seal, no bytes.
        line.send_sealed(far, End::B, frame, SEAL);
        let mut run = Vec::new();
        let info = line.take_run(End::A, at(2), &mut run, |_| true).unwrap();
        assert_eq!((info.seal, info.len, run.len()), (Some(SEAL), 7, 0));
        assert_eq!((info.t0, info.t_last), (far + ct, far + ct * 7));
        assert_eq!(line.stats(End::B).delivered, 14);
        assert!(line.is_idle());
        // A receiver that declines the seal gets the bytes.
        line.send_sealed(at(2), End::B, frame, SEAL);
        let info = line.take_run(End::A, at(3), &mut run, |_| false).unwrap();
        assert_eq!((info.seal, run.as_slice()), (None, &frame[..]));
        // Caught up in the middle of the span, and never after that.
        line.send_sealed(at(3), End::B, frame, SEAL);
        let mid = at(3) + ct * 3 + ct / 2;
        assert_eq!(take(&mut line, mid), (None, b"\xC0\x00a".to_vec()));
        assert_eq!(take(&mut line, at(4)), (None, b"bcd\xC0".to_vec()));
        // An unsealed frame in front, two sealed ones behind it.
        line.send(at(4), End::B, frame);
        line.send_sealed(at(4), End::B, frame, SEAL);
        line.send_sealed(at(4), End::B, frame, Seal([7; 8]));
        assert_eq!(take(&mut line, at(5)), (None, frame.to_vec()));
        assert_eq!(take(&mut line, at(5)), (Some(SEAL), Vec::new()));
        assert_eq!(take(&mut line, at(5)), (Some(Seal([7; 8])), Vec::new()));
    }

    /// A sender whose receiver never takes runs (the reference stepper's
    /// world) fills the store and no more; spans beyond it travel as
    /// bytes, and the store comes back once runs are taken again.
    #[test]
    fn the_seal_store_is_bounded_and_recovers() {
        let frame = b"\xC0\x00abcd\xC0";
        let mut line = SerialLine::new(SerialConfig::baud(9600));
        let mut now = SimTime::ZERO;
        let mut rx = Vec::new();
        for _ in 0..100 {
            line.send_sealed(now, End::B, frame, SEAL);
            assert!(line.dirs[1].seals.len <= SealStore::CAPACITY);
            now += SimDuration::from_millis(10);
            line.advance(now);
            line.drain_rx(End::A, &mut rx);
        }
        for _ in 0..SealStore::CAPACITY + 2 {
            line.send_sealed(now, End::B, frame, SEAL);
        }
        assert_eq!(line.dirs[1].seals.len, SealStore::CAPACITY);
        let far = now + SimDuration::from_secs(1);
        // The store's worth of seals, then the two that found it full.
        let got: Vec<bool> = std::iter::from_fn(|| {
            let info = line.take_run(End::A, far, &mut rx, |_| true)?;
            Some(info.seal.is_some())
        })
        .collect();
        assert_eq!(got, [true, true, true, true, false, false]);
        line.send_sealed(far, End::B, frame, SEAL);
        assert_eq!(
            take(&mut line, far + SimDuration::from_secs(1)).0,
            Some(SEAL)
        );
    }

    #[test]
    fn advance_before_deadline_is_a_no_op() {
        let cfg = SerialConfig::baud(1200);
        let mut line = SerialLine::new(cfg);
        line.send(SimTime::ZERO, End::A, b"a");
        assert_eq!(line.advance(SimTime::from_micros(1)), 0);
        assert_eq!(line.rx_len(End::B), 0);
    }

    /// Scalar oracle for [`first_closing`]: the first `FRAME_END` whose
    /// predecessor on the wire (`prev` for the first byte) is not one.
    fn first_closing_oracle(prev: u8, bytes: &[u8]) -> Option<usize> {
        (0..bytes.len()).find(|&i| {
            let before = if i == 0 { prev } else { bytes[i - 1] };
            bytes[i] == FRAME_END && before != FRAME_END
        })
    }

    /// `first_closing` against the scalar scan on 2^20 inputs of 0..=40
    /// bytes, a quarter of them `FRAME_END`, after a `prev` that is
    /// `FRAME_END` half the time: runs of `FRAME_END` at the head (the
    /// skip) and in every word lane, every length modulo the word width.
    #[test]
    fn first_closing_matches_a_scalar_scan_on_a_million_inputs() {
        // splitmix64, fixed seed: the sweep is the same on every run.
        let mut state: u64 = 0x5EED_F1E5_C0C0_0001;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut bytes = [0u8; 40];
        for _ in 0..1 << 20 {
            for lane in bytes.chunks_mut(8) {
                let (data, sel) = (next(), next());
                for (k, b) in lane.iter_mut().enumerate() {
                    *b = if (sel >> (8 * k)) & 3 == 0 {
                        FRAME_END
                    } else {
                        (data >> (8 * k)) as u8
                    };
                }
            }
            let r = next();
            let prev = if r & 1 == 0 {
                FRAME_END
            } else {
                (r >> 8) as u8
            };
            let data = &bytes[..(r >> 32) as usize % (bytes.len() + 1)];
            assert_eq!(
                first_closing(prev, data),
                first_closing_oracle(prev, data),
                "prev {prev:#04x} bytes {data:02x?}"
            );
        }
    }
}
