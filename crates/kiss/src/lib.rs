//! The KISS host-to-TNC framing protocol.
//!
//! The paper (§2.1) replaces the TNC's ROM firmware with *"a stripped down
//! version of the software for it known as the KISS TNC code"* — the
//! protocol of Chepponis & Karn, *The KISS TNC: A Simple Host-to-TNC
//! Communications Protocol* (6th ARRL CNC, 1987). KISS delimits frames on
//! the serial line with `FEND` (0xC0) and escapes embedded `FEND`/`FESC`
//! bytes; the first byte of every frame is a command/port nibble pair.
//!
//! Two halves matter for the reproduction:
//!
//! * [`encode`] — what the driver's output path and the TNC's receive path
//!   produce;
//! * [`Deframer`] — an **incremental, one-byte-at-a-time** decoder. The
//!   paper's hardest routine (§2.2) is the tty interrupt handler that is
//!   called *"for each character in the packet"* and decodes *"escaped
//!   frame end characters … on the fly"*; `Deframer::push` is exactly that
//!   routine, and the gateway driver calls it from its simulated interrupt
//!   handler.
//!
//! The deframer is zero-allocation in steady state: it accumulates into a
//! preallocated internal buffer and hands completed frames out as
//! [`KissFrameRef`] borrows; callers that need ownership call
//! [`KissFrameRef::to_owned`], and the per-character fast path (the §3
//! promiscuous storm) never touches the heap.
//!
//! # Examples
//!
//! ```
//! use kiss::{encode, Command, Deframer};
//!
//! let wire = encode(0, Command::Data, &[0x01, 0xC0, 0x02]);
//! let mut d = Deframer::new();
//! let mut frames = Vec::new();
//! for b in wire {
//!     if let Some(f) = d.push(b) {
//!         frames.push(f.to_owned());
//!     }
//! }
//! assert_eq!(frames.len(), 1);
//! assert_eq!(frames[0].payload, vec![0x01, 0xC0, 0x02]);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

use sim::bytekernels::{find_byte, find_either};
use sim::ByteSink;

/// Frame delimiter.
pub const FEND: u8 = 0xC0;
/// Escape byte.
pub const FESC: u8 = 0xDB;
/// Escaped `FEND` (sent as `FESC TFEND`).
pub const TFEND: u8 = 0xDC;
/// Escaped `FESC` (sent as `FESC TFESC`).
pub const TFESC: u8 = 0xDD;

/// KISS command codes (the low nibble of the type byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Data frame: the payload is an AX.25 frame without FCS.
    Data,
    /// Transmitter keyup delay, in 10 ms units.
    TxDelay,
    /// CSMA persistence parameter `p` scaled to 0–255.
    Persistence,
    /// CSMA slot interval, in 10 ms units.
    SlotTime,
    /// Time to hold the transmitter after the frame, in 10 ms units.
    TxTail,
    /// Full-duplex flag (0 = CSMA half duplex).
    FullDuplex,
    /// Hardware-specific escape.
    SetHardware,
    /// Exit KISS mode and return to the TNC's normal firmware.
    Return,
}

impl Command {
    /// Wire encoding of the command nibble.
    pub fn code(self) -> u8 {
        match self {
            Command::Data => 0x0,
            Command::TxDelay => 0x1,
            Command::Persistence => 0x2,
            Command::SlotTime => 0x3,
            Command::TxTail => 0x4,
            Command::FullDuplex => 0x5,
            Command::SetHardware => 0x6,
            Command::Return => 0xF,
        }
    }

    /// Decodes a command nibble.
    pub fn from_code(code: u8) -> Option<Command> {
        match code & 0x0F {
            0x0 => Some(Command::Data),
            0x1 => Some(Command::TxDelay),
            0x2 => Some(Command::Persistence),
            0x3 => Some(Command::SlotTime),
            0x4 => Some(Command::TxTail),
            0x5 => Some(Command::FullDuplex),
            0x6 => Some(Command::SetHardware),
            0xF => Some(Command::Return),
            _ => None,
        }
    }
}

/// A decoded KISS frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KissFrame {
    /// TNC port (high nibble of the type byte); multi-port TNCs exist but
    /// the paper's setup uses port 0.
    pub port: u8,
    /// The command.
    pub command: Command,
    /// Unescaped payload (for [`Command::Data`], an AX.25 frame).
    pub payload: Vec<u8>,
}

impl KissFrame {
    /// Convenience constructor for a port-0 data frame.
    pub fn data(payload: Vec<u8>) -> KissFrame {
        KissFrame {
            port: 0,
            command: Command::Data,
            payload,
        }
    }
}

/// Encodes one KISS frame into `out` for the serial line.
///
/// The frame is wrapped in `FEND` bytes on both sides (a leading `FEND`
/// flushes any line noise at the receiver, as the KISS spec recommends).
/// Emitting into a [`ByteSink`] lets the datapath encode straight into
/// the buffer the bytes leave in (a host's tty output queue) without an
/// intermediate `Vec`.
pub fn encode_into(port: u8, command: Command, payload: &[u8], out: &mut impl ByteSink) {
    out.put(FEND);
    // The type byte is escaped like any other content byte: a data frame on
    // port 12 encodes its type byte 0xC0, which would otherwise read as FEND.
    push_escaped(out, (port << 4) | command.code());
    push_escaped_slice(out, payload);
    out.put(FEND);
}

/// Encodes one KISS frame into a fresh `Vec` (off the hot path).
pub fn encode(port: u8, command: Command, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    encode_into(port, command, payload, &mut out);
    out
}

fn push_escaped(out: &mut impl ByteSink, b: u8) {
    match b {
        FEND => {
            out.put(FESC);
            out.put(TFEND);
        }
        FESC => {
            out.put(FESC);
            out.put(TFESC);
        }
        other => out.put(other),
    }
}

/// KISS-escapes a whole slice into `out`, emitting each unescaped run as a
/// single `put_slice`.
///
/// This is the bulk form of the per-byte escape: a word-at-a-time scan
/// (`sim::bytekernels`) finds the next `FEND`/`FESC`, the clean span before
/// it lands in the sink in one copy, and only the special byte itself goes
/// through the two-byte escape. Most AX.25 payloads contain no specials at
/// all, so the common case is one memcpy.
pub fn push_escaped_slice(out: &mut impl ByteSink, bytes: &[u8]) {
    let mut rest = bytes;
    while !rest.is_empty() {
        match find_either(rest, FEND, FESC) {
            None => {
                out.put_slice(rest);
                return;
            }
            Some(off) => {
                if off > 0 {
                    out.put_slice(&rest[..off]);
                }
                push_escaped(out, rest[off]);
                rest = &rest[off + 1..];
            }
        }
    }
}

/// A [`ByteSink`] adapter that KISS-escapes everything written through it.
///
/// Obtained inside [`encode_frame_into`]; upper-layer codecs write their
/// wire form through it and the escapes land directly in the underlying
/// sink — no staging buffer between the AX.25 encoder and the serial line.
pub struct EscapedWriter<'a, S: ByteSink>(&'a mut S);

impl<S: ByteSink> ByteSink for EscapedWriter<'_, S> {
    fn put(&mut self, byte: u8) {
        push_escaped(self.0, byte);
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        push_escaped_slice(self.0, bytes);
    }
}

/// Encodes one KISS frame whose payload is written by `write_payload`
/// through an [`EscapedWriter`], escaping on the fly.
///
/// This is the single-pass form of [`encode_into`] for callers that can
/// stream their payload (e.g. `ax25::frame::Frame::encode_into`): the
/// payload bytes are escaped as they are produced, so a driver can go from
/// a structured frame to KISS serial bytes in its host's tty output queue
/// with no intermediate copy.
///
/// # Examples
///
/// ```
/// use kiss::{encode, encode_frame_into, Command};
/// use sim::ByteSink;
///
/// let payload = [0x01, kiss::FEND, 0x02];
/// let mut streamed = Vec::new();
/// encode_frame_into(0, Command::Data, &mut streamed, |esc| {
///     esc.put_slice(&payload);
/// });
/// assert_eq!(streamed, encode(0, Command::Data, &payload));
/// ```
pub fn encode_frame_into<S: ByteSink>(
    port: u8,
    command: Command,
    out: &mut S,
    write_payload: impl FnOnce(&mut EscapedWriter<'_, S>),
) {
    out.put(FEND);
    push_escaped(out, (port << 4) | command.code());
    write_payload(&mut EscapedWriter(out));
    out.put(FEND);
}

/// Counters kept by a [`Deframer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeframerStats {
    /// Complete frames produced.
    pub frames: u64,
    /// Bytes consumed (including delimiters and escapes).
    pub bytes: u64,
    /// Frames discarded for an invalid escape sequence.
    pub bad_escapes: u64,
    /// Frames discarded for an unknown command nibble.
    pub bad_commands: u64,
    /// Frames discarded for exceeding the maximum length.
    pub oversize: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for the first FEND (or discarding garbage/noise).
    Hunt,
    /// Inside a frame, accumulating unescaped bytes (the first accumulated
    /// byte is the type byte).
    Open,
    /// Saw FESC, expecting TFEND or TFESC.
    Escape,
    /// Discarding until the next FEND after an error.
    Drop,
}

/// A completed frame borrowed from a [`Deframer`]'s internal buffer.
///
/// The payload stays valid until the next [`Deframer::push`]; the receive
/// fast path inspects it in place (address filter, PID demux) and only
/// copies via [`to_owned`](KissFrameRef::to_owned) when the frame is
/// actually for us.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KissFrameRef<'a> {
    /// TNC port (high nibble of the type byte).
    pub port: u8,
    /// The command.
    pub command: Command,
    /// Unescaped payload, borrowed from the deframer.
    pub payload: &'a [u8],
}

impl KissFrameRef<'_> {
    /// Copies this frame into an owned [`KissFrame`].
    pub fn to_owned(&self) -> KissFrame {
        KissFrame {
            port: self.port,
            command: self.command,
            payload: self.payload.to_vec(),
        }
    }
}

/// Incremental KISS decoder — one byte per call, exactly like the paper's
/// tty interrupt handler.
///
/// Feed received characters to [`Deframer::push`]; a completed frame is
/// returned on the terminating `FEND` as a [`KissFrameRef`] borrowing the
/// deframer's reusable buffer. The decoder allocates that buffer at
/// construction with [`INITIAL_ROOM`](Deframer::INITIAL_ROOM) octets, room
/// for the longest AX.25 frame, and grows it at most once, straight to
/// its length cap, for a longer frame. Malformed input (bad escape,
/// unknown command, oversize frame) discards the current frame and
/// resynchronizes on the next `FEND`.
#[derive(Debug, Clone)]
pub struct Deframer {
    state: State,
    buf: Vec<u8>,
    /// The previous push returned a frame still sitting in `buf`; clear it
    /// on the next byte (we cannot clear eagerly while the borrow lives).
    pending_reset: bool,
    max_len: usize,
    stats: DeframerStats,
}

impl Default for Deframer {
    fn default() -> Self {
        Deframer::new()
    }
}

impl Deframer {
    /// Generous default payload cap: AX.25 allows 256-byte info fields plus
    /// a 72-byte header ceiling; 1024 leaves room for experimentation.
    pub const DEFAULT_MAX_LEN: usize = 1024;

    /// Octets the frame buffer is born with: the type byte and the longest
    /// AX.25 frame (328 octets, `ax25::MAX_FRAME_LEN`), the most any
    /// station on the channel sends.
    pub const INITIAL_ROOM: usize = 329;

    /// Creates a deframer in the hunting state, capped at `DEFAULT_MAX_LEN`.
    pub fn new() -> Deframer {
        Deframer {
            state: State::Hunt,
            buf: Vec::with_capacity(Self::INITIAL_ROOM),
            pending_reset: false,
            max_len: Self::DEFAULT_MAX_LEN,
            stats: DeframerStats::default(),
        }
    }

    /// A capacity-free stand-in for `mem::replace` detach patterns.
    ///
    /// A caller whose struct owns a deframer can move the live decoder out
    /// (so a [`push_slice`](Deframer::push_slice) callback may borrow the
    /// rest of the struct mutably) and park this in its place without
    /// touching the heap — the zero-allocation receive path depends on
    /// that. Never feed it bytes: its length cap is zero.
    pub fn placeholder() -> Deframer {
        Deframer {
            state: State::Hunt,
            buf: Vec::new(),
            pending_reset: false,
            max_len: 0,
            stats: DeframerStats::default(),
        }
    }

    /// Forgets any partial frame and goes back to hunting for a `FEND`, as
    /// a freshly powered receiver would; counters and capacity are kept.
    pub fn reset(&mut self) {
        self.state = State::Hunt;
        self.buf.clear();
        self.pending_reset = false;
    }

    /// Consumes one character from the serial line; returns a frame when
    /// the closing `FEND` arrives. The returned [`KissFrameRef`] borrows
    /// the deframer and is invalidated by the next `push`.
    pub fn push(&mut self, byte: u8) -> Option<KissFrameRef<'_>> {
        if self.pending_reset {
            self.pending_reset = false;
            self.buf.clear();
        }
        self.stats.bytes += 1;
        match self.state {
            State::Hunt => {
                if byte == FEND {
                    self.state = State::Open;
                    self.buf.clear();
                }
                None
            }
            State::Open => match byte {
                FEND => self.finish(),
                FESC => {
                    self.state = State::Escape;
                    None
                }
                other => {
                    self.accept(other);
                    None
                }
            },
            State::Escape => match byte {
                TFEND => {
                    self.state = State::Open;
                    self.accept(FEND);
                    None
                }
                TFESC => {
                    self.state = State::Open;
                    self.accept(FESC);
                    None
                }
                FEND => {
                    // Truncated escape; the FEND still resynchronizes.
                    self.stats.bad_escapes += 1;
                    self.buf.clear();
                    self.state = State::Open;
                    None
                }
                _ => {
                    self.stats.bad_escapes += 1;
                    self.state = State::Drop;
                    None
                }
            },
            State::Drop => {
                if byte == FEND {
                    self.state = State::Open;
                    self.buf.clear();
                }
                None
            }
        }
    }

    /// Consumes a whole slice of serial input, invoking `on_frame` for
    /// each completed frame together with the slice index of the `FEND`
    /// that terminated it.
    ///
    /// This is the bulk form of [`push`](Deframer::push), which stays as
    /// the executable reference (DESIGN.md §9). Observable behavior — the
    /// frames produced and every [`DeframerStats`] counter — is
    /// bit-identical to feeding the same bytes through `push` one at a
    /// time, at any chunking; the chunk-boundary differential proptest
    /// holds it to that. The speed comes from not running the per-byte
    /// state machine over frame bodies: a word-at-a-time scan
    /// (`sim::bytekernels`) finds the next `FEND`/`FESC`, and the clean
    /// span before it lands in the frame buffer as one `extend_from_slice`.
    ///
    /// Frame refs passed to `on_frame` borrow the deframer's buffer and
    /// are valid only for the duration of the call.
    pub fn push_slice(&mut self, bytes: &[u8], mut on_frame: impl FnMut(usize, KissFrameRef<'_>)) {
        if bytes.is_empty() {
            return;
        }
        if self.pending_reset {
            self.pending_reset = false;
            self.buf.clear();
        }
        let mut i = 0;
        while i < bytes.len() {
            match self.state {
                State::Hunt | State::Drop => {
                    // Both states discard everything up to the next FEND.
                    match find_byte(&bytes[i..], FEND) {
                        Some(off) => {
                            self.stats.bytes += off as u64 + 1;
                            i += off + 1;
                            self.state = State::Open;
                            self.buf.clear();
                        }
                        None => {
                            self.stats.bytes += (bytes.len() - i) as u64;
                            return;
                        }
                    }
                }
                State::Open => {
                    let rest = &bytes[i..];
                    let stop = find_either(rest, FEND, FESC);
                    let run = stop.unwrap_or(rest.len());
                    self.accept_run(&rest[..run]);
                    self.stats.bytes += run as u64;
                    i += run;
                    let Some(off) = stop else { return };
                    self.stats.bytes += 1;
                    i += 1;
                    if self.state != State::Open {
                        // accept_run hit the length cap, so the delimiter
                        // lands in Drop state where only FEND matters.
                        if rest[off] == FEND {
                            self.state = State::Open;
                            self.buf.clear();
                        }
                    } else if rest[off] == FESC {
                        self.state = State::Escape;
                    } else {
                        if let Some(frame) = self.finish() {
                            on_frame(i - 1, frame);
                        }
                        // The borrow ends with the callback; reset eagerly
                        // instead of deferring to the next push.
                        self.pending_reset = false;
                        self.buf.clear();
                    }
                }
                State::Escape => {
                    // Escapes are rare: run the scalar step for one byte.
                    self.stats.bytes += 1;
                    let byte = bytes[i];
                    i += 1;
                    match byte {
                        TFEND => {
                            self.state = State::Open;
                            self.accept(FEND);
                        }
                        TFESC => {
                            self.state = State::Open;
                            self.accept(FESC);
                        }
                        FEND => {
                            // Truncated escape; the FEND resynchronizes.
                            self.stats.bad_escapes += 1;
                            self.buf.clear();
                            self.state = State::Open;
                        }
                        _ => {
                            self.stats.bad_escapes += 1;
                            self.state = State::Drop;
                        }
                    }
                }
            }
        }
    }

    fn accept(&mut self, byte: u8) {
        // +1 accounts for the type byte occupying buf[0].
        if self.buf.len() > self.max_len {
            self.stats.oversize += 1;
            self.state = State::Drop;
            return;
        }
        self.make_room(1);
        self.buf.push(byte);
    }

    /// Makes room for `n` more octets of a frame the length cap admits.
    /// The one time a frame outgrows the buffer, it grows exactly to the
    /// `max_len + 1` octets (type byte + payload) any admitted frame fits.
    #[inline]
    fn make_room(&mut self, n: usize) {
        if self.buf.capacity() - self.buf.len() < n {
            self.buf.reserve_exact(self.max_len + 1 - self.buf.len());
        }
    }

    /// Bulk [`accept`](Deframer::accept) for a delimiter-free span,
    /// preserving the per-byte length-cap semantics: `accept` admits a byte
    /// while `buf.len() <= max_len`, so the buffer holds up to
    /// `max_len + 1` bytes (type byte + payload) and the *next* byte trips
    /// a single oversize drop without being stored.
    fn accept_run(&mut self, run: &[u8]) {
        if run.is_empty() {
            return;
        }
        let admit = (self.max_len + 1).saturating_sub(self.buf.len());
        self.make_room(run.len().min(admit));
        if run.len() <= admit {
            self.buf.extend_from_slice(run);
        } else {
            self.buf.extend_from_slice(&run[..admit]);
            self.stats.oversize += 1;
            self.state = State::Drop;
        }
    }

    fn finish(&mut self) -> Option<KissFrameRef<'_>> {
        self.state = State::Open;
        self.pending_reset = true;
        let Some((&type_byte, payload)) = self.buf.split_first() else {
            // Back-to-back FENDs are idle keepalives, not frames.
            return None;
        };
        let Some(command) = Command::from_code(type_byte) else {
            self.stats.bad_commands += 1;
            return None;
        };
        if payload.is_empty() && command == Command::Data {
            // Zero-length data frames are line idles, not packets.
            return None;
        }
        self.stats.frames += 1;
        Some(KissFrameRef {
            port: type_byte >> 4,
            command,
            payload,
        })
    }

    /// True when nothing of an earlier frame can leak into the next one:
    /// the decoder is discarding up to the next `FEND`, or is open with
    /// nothing buffered. A whole frame arriving now — leading `FEND`
    /// included — is deframed exactly as a new decoder would.
    #[inline]
    pub fn at_rest(&self) -> bool {
        match self.state {
            State::Hunt | State::Drop => true,
            State::Open => self.buf.is_empty() || self.pending_reset,
            State::Escape => false,
        }
    }

    /// Consumes, unseen, `n` characters the caller knows to be one whole
    /// data frame as [`encode`] writes it — `FEND`, type byte, 1 to
    /// `max_len` payload octets escaped, `FEND` — arriving
    /// [`at_rest`](Deframer::at_rest): the counters and the state
    /// [`push_slice`](Deframer::push_slice) would leave, and no frame
    /// handed out, because the caller has already decided to discard it.
    pub fn skip_frame(&mut self, n: usize) {
        debug_assert!(self.at_rest(), "a partial frame would be lost");
        self.stats.bytes += n as u64;
        self.stats.frames += 1;
        self.state = State::Open;
        self.pending_reset = false;
        self.buf.clear();
    }

    /// Decoder statistics so far.
    pub fn stats(&self) -> DeframerStats {
        self.stats
    }
}

/// Decodes a complete byte stream, returning every frame found.
///
/// Convenience wrapper over [`Deframer`] for tests and batch tools.
pub fn decode_stream(bytes: &[u8]) -> Vec<KissFrame> {
    let mut d = Deframer::new();
    bytes
        .iter()
        .filter_map(|&b| d.push(b).map(|f| f.to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_plain_payload() {
        let wire = encode(0, Command::Data, b"hello");
        let frames = decode_stream(&wire);
        assert_eq!(frames, vec![KissFrame::data(b"hello".to_vec())]);
    }

    #[test]
    fn roundtrip_payload_full_of_specials() {
        let payload = vec![FEND, FESC, FEND, FESC, 0x00, FEND];
        let wire = encode(2, Command::Data, &payload);
        let frames = decode_stream(&wire);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].port, 2);
        assert_eq!(frames[0].payload, payload);
    }

    #[test]
    fn escaping_is_minimal() {
        // "abc" has nothing to escape: FEND, type, a, b, c, FEND.
        assert_eq!(encode(0, Command::Data, b"abc").len(), 6);
        // A single FEND payload becomes FESC TFEND: FEND, type, 2 bytes, FEND.
        assert_eq!(encode(0, Command::Data, &[FEND]).len(), 5);
    }

    #[test]
    fn param_commands_roundtrip() {
        for (cmd, v) in [
            (Command::TxDelay, 30u8),
            (Command::Persistence, 63),
            (Command::SlotTime, 10),
            (Command::TxTail, 2),
            (Command::FullDuplex, 0),
        ] {
            let wire = encode(0, cmd, &[v]);
            let frames = decode_stream(&wire);
            assert_eq!(frames.len(), 1, "{cmd:?}");
            assert_eq!(frames[0].command, cmd);
            assert_eq!(frames[0].payload, vec![v]);
        }
    }

    #[test]
    fn skipping_a_frame_at_rest_leaves_what_deframing_it_leaves() {
        let frame = encode(0, Command::Data, &[1, FEND, 2, FESC, 3]);
        let next = encode(0, Command::Data, b"next");
        let oversize = encode(0, Command::Data, &[0; Deframer::DEFAULT_MAX_LEN + 1]);
        // Every way of being at rest: fresh, noise before any FEND, a
        // frame just closed (by `push` and by `push_slice`), a dropped
        // oversize frame, a bad command awaiting its FEND.
        let preludes: [&[u8]; 5] = [
            b"",
            b"noise",
            &next,
            &oversize[..oversize.len() - 1],
            &[FEND, 0x0B, 1, 2],
        ];
        for (k, prelude) in preludes.iter().enumerate() {
            for per_byte in [false, true] {
                let mut read = Deframer::new();
                if per_byte {
                    for &b in prelude.iter() {
                        let _ = read.push(b);
                    }
                } else {
                    read.push_slice(prelude, |_, _| {});
                }
                if k == 4 {
                    // Mid-frame is not rest; the closing FEND gets there.
                    assert!(!read.at_rest());
                    read.push_slice(&[FEND], |_, _| {});
                }
                assert!(read.at_rest(), "prelude {k}");
                let mut skipped = read.clone();
                let mut frames = 0;
                read.push_slice(&frame, |_, _| frames += 1);
                skipped.skip_frame(frame.len());
                assert_eq!(frames, 1);
                assert_eq!(skipped.stats(), read.stats(), "prelude {k}");
                assert!(skipped.at_rest() && read.at_rest());
                // And the stream goes on the same, split mid-escape or not.
                for cut in [3, next.len()] {
                    let (mut a, mut b) = (read.clone(), skipped.clone());
                    let mut got = [Vec::new(), Vec::new()];
                    for (d, got) in [&mut a, &mut b].into_iter().zip(&mut got) {
                        d.push_slice(&next[..cut], |i, f| got.push((i, f.to_owned())));
                        d.push_slice(&next[cut..], |i, f| got.push((i, f.to_owned())));
                    }
                    assert_eq!(got[0], got[1]);
                    assert_eq!(got[0].len(), 1);
                    assert_eq!(a.stats(), b.stats());
                }
            }
        }
        // Half a frame, or half an escape, is not rest.
        let mut d = Deframer::new();
        d.push_slice(&frame[..3], |_, _| {});
        assert!(!d.at_rest());
        d.push_slice(&frame[3..4], |_, _| {});
        assert!(frame[3] == FESC && !d.at_rest());
    }

    #[test]
    fn back_to_back_frames_share_delimiters() {
        let mut wire = encode(0, Command::Data, b"one");
        wire.extend(encode(0, Command::Data, b"two"));
        let frames = decode_stream(&wire);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].payload, b"one");
        assert_eq!(frames[1].payload, b"two");
    }

    #[test]
    fn repeated_fends_are_idle() {
        let mut wire = vec![FEND; 10];
        wire.extend(encode(0, Command::Data, b"x"));
        wire.extend(vec![FEND; 10]);
        let frames = decode_stream(&wire);
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn garbage_before_first_fend_is_ignored() {
        let mut wire = b"line noise!".to_vec();
        wire.extend(encode(0, Command::Data, b"ok"));
        let frames = decode_stream(&wire);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"ok");
    }

    #[test]
    fn bad_escape_drops_frame_and_resyncs() {
        let mut d = Deframer::new();
        let mut wire = vec![FEND, 0x00, b'a', FESC, 0x99, b'b', FEND];
        wire.extend(encode(0, Command::Data, b"good"));
        let frames: Vec<_> = wire
            .iter()
            .filter_map(|&b| d.push(b).map(|f| f.to_owned()))
            .collect();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"good");
        assert_eq!(d.stats().bad_escapes, 1);
    }

    #[test]
    fn escape_truncated_by_fend_counts_and_resyncs() {
        let wire = [FEND, 0x00, b'a', FESC, FEND, 0x00, b'z', FEND];
        let mut d = Deframer::new();
        let frames: Vec<_> = wire
            .iter()
            .filter_map(|&b| d.push(b).map(|f| f.to_owned()))
            .collect();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, b"z");
        assert_eq!(d.stats().bad_escapes, 1);
    }

    #[test]
    fn unknown_command_nibble_is_dropped() {
        let wire = [FEND, 0x07, b'a', FEND]; // 0x7 is undefined
        let mut d = Deframer::new();
        let frames: Vec<_> = wire
            .iter()
            .filter_map(|&b| d.push(b).map(|f| f.to_owned()))
            .collect();
        assert!(frames.is_empty());
        assert_eq!(d.stats().bad_commands, 1);
    }

    #[test]
    fn oversize_frame_is_dropped() {
        let mut d = Deframer::new();
        let wire = encode(0, Command::Data, &[b'x'; Deframer::DEFAULT_MAX_LEN + 1]);
        let frames: Vec<_> = wire
            .iter()
            .filter_map(|&b| d.push(b).map(|f| f.to_owned()))
            .collect();
        assert!(frames.is_empty());
        assert_eq!(d.stats().oversize, 1);
        // And it recovers for the next frame, one exactly at the cap.
        let wire2 = encode(0, Command::Data, &[b'y'; Deframer::DEFAULT_MAX_LEN]);
        let frames2: Vec<_> = wire2
            .iter()
            .filter_map(|&b| d.push(b).map(|f| f.to_owned()))
            .collect();
        assert_eq!(frames2.len(), 1);
        assert_eq!(frames2[0].payload.len(), Deframer::DEFAULT_MAX_LEN);
    }

    #[test]
    fn empty_data_frame_is_idle_not_packet() {
        let wire = vec![FEND, 0x00, FEND];
        assert!(decode_stream(&wire).is_empty());
    }

    #[test]
    fn return_command_roundtrips() {
        // The spec's 0xFF "return" byte: port nibble F, command nibble F.
        let wire = vec![FEND, 0xFF, FEND];
        let frames = decode_stream(&wire);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].command, Command::Return);
    }

    #[test]
    fn stats_count_bytes_and_frames() {
        let wire = encode(0, Command::Data, b"abc");
        let mut d = Deframer::new();
        for &b in &wire {
            d.push(b);
        }
        assert_eq!(d.stats().bytes, wire.len() as u64);
        assert_eq!(d.stats().frames, 1);
    }

    #[test]
    fn at_rest_reports_mid_frame() {
        let mut d = Deframer::new();
        assert!(d.at_rest());
        d.push(FEND);
        d.push(0x00);
        assert!(!d.at_rest(), "type byte consumed, frame is open");
        d.push(b'a');
        assert!(!d.at_rest());
        d.push(FEND);
        assert!(d.at_rest());
    }

    #[test]
    fn the_buffer_fits_the_longest_ax25_frame_and_grows_once_past_it() {
        for per_byte in [false, true] {
            let mut d = Deframer::new();
            let feed = |d: &mut Deframer, wire: &[u8]| {
                let mut got = Vec::new();
                if per_byte {
                    got.extend(wire.iter().filter_map(|&b| d.push(b).map(|f| f.to_owned())));
                } else {
                    d.push_slice(wire, |_, f| got.push(f.to_owned()));
                }
                got
            };
            assert_eq!(d.buf.capacity(), Deframer::INITIAL_ROOM);
            let longest = [0x11; Deframer::INITIAL_ROOM - 1];
            let got = feed(&mut d, &encode(0, Command::Data, &longest));
            assert_eq!(got, [KissFrame::data(longest.to_vec())]);
            assert_eq!(
                d.buf.capacity(),
                Deframer::INITIAL_ROOM,
                "per_byte {per_byte}"
            );
            // One octet longer: one growth, straight to the length cap.
            let longer = [0x22; Deframer::INITIAL_ROOM];
            let got = feed(&mut d, &encode(0, Command::Data, &longer));
            assert_eq!(got, [KissFrame::data(longer.to_vec())]);
            assert_eq!(d.buf.capacity(), Deframer::DEFAULT_MAX_LEN + 1);
            let capped = [0x33; Deframer::DEFAULT_MAX_LEN];
            let got = feed(&mut d, &encode(0, Command::Data, &capped));
            assert_eq!(got, [KissFrame::data(capped.to_vec())]);
            let oversize = [0x44; Deframer::DEFAULT_MAX_LEN + 1];
            assert!(feed(&mut d, &encode(0, Command::Data, &oversize)).is_empty());
            assert_eq!(d.stats().oversize, 1);
            assert_eq!(d.buf.capacity(), Deframer::DEFAULT_MAX_LEN + 1);
        }
    }

    /// Pushes a stream through `push_slice` in the given chunking and
    /// through per-byte `push`, asserting identical frames and stats.
    fn assert_slice_matches_per_byte(stream: &[u8], chunk: usize) {
        let mut per_byte = Deframer::new();
        let ref_frames: Vec<KissFrame> = stream
            .iter()
            .filter_map(|&b| per_byte.push(b).map(|f| f.to_owned()))
            .collect();
        let mut bulk = Deframer::new();
        let mut frames = Vec::new();
        for piece in stream.chunks(chunk.max(1)) {
            bulk.push_slice(piece, |_, f| frames.push(f.to_owned()));
        }
        assert_eq!(frames, ref_frames, "chunk {chunk}");
        assert_eq!(bulk.stats(), per_byte.stats(), "chunk {chunk}");
    }

    #[test]
    fn push_slice_matches_push_at_every_chunking() {
        // Noise, a good frame, an escaped frame, a bad escape, an oversize
        // frame, a frame exactly at the cap, idles, and a frame left open
        // at the end.
        let mut stream = b"garbage".to_vec();
        stream.extend(encode(0, Command::Data, b"hello"));
        stream.extend(encode(1, Command::Data, &[FEND, FESC, 0x00]));
        stream.extend([FEND, 0x00, b'a', FESC, 0x99, b'x', FEND]);
        stream.extend(encode(
            0,
            Command::Data,
            &[0x55; Deframer::DEFAULT_MAX_LEN + 1],
        ));
        stream.extend(encode(0, Command::Data, &[0x66; Deframer::DEFAULT_MAX_LEN]));
        stream.extend([FEND, FEND, FEND]);
        stream.extend(encode(0, Command::TxDelay, &[30]));
        stream.extend([FEND, 0x00, b'p', b'a', b'r', b't']);
        for chunk in 1..=stream.len() {
            assert_slice_matches_per_byte(&stream, chunk);
        }
    }

    #[test]
    fn push_slice_reports_the_terminating_fend_index() {
        let mut d = Deframer::new();
        let mut wire = encode(0, Command::Data, b"ab");
        let end_first = wire.len() - 1;
        wire.extend(encode(0, Command::Data, b"cd"));
        let mut seen = Vec::new();
        d.push_slice(&wire, |idx, f| seen.push((idx, f.to_owned())));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, end_first);
        assert_eq!(seen[1].0, wire.len() - 1);
        assert_eq!(seen[0].1.payload, b"ab");
        assert_eq!(seen[1].1.payload, b"cd");
    }

    #[test]
    fn push_slice_interoperates_with_per_byte_push() {
        // Switch paths mid-stream, including right after a completed frame
        // (the pending_reset hand-off).
        let mut d = Deframer::new();
        let wire = encode(0, Command::Data, b"one");
        let mut frames = Vec::new();
        d.push_slice(&wire, |_, f| frames.push(f.to_owned()));
        let wire2 = encode(0, Command::Data, b"two");
        for &b in &wire2 {
            if let Some(f) = d.push(b) {
                frames.push(f.to_owned());
            }
        }
        let wire3 = encode(0, Command::Data, b"three");
        d.push_slice(&wire3, |_, f| frames.push(f.to_owned()));
        let payloads: Vec<_> = frames.iter().map(|f| f.payload.clone()).collect();
        assert_eq!(
            payloads,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }

    #[test]
    fn escaped_slice_matches_per_byte_escaping() {
        let cases: [&[u8]; 5] = [
            b"no specials at all",
            &[FEND, FESC, FEND],
            &[0x01, FEND, 0x02, FESC, 0x03],
            &[],
            &[FESC],
        ];
        for payload in cases {
            let mut bulk = Vec::new();
            push_escaped_slice(&mut bulk, payload);
            let mut scalar = Vec::new();
            for &b in payload {
                push_escaped(&mut scalar, b);
            }
            assert_eq!(bulk, scalar);
        }
    }

    #[test]
    fn placeholder_is_heap_free_and_inert() {
        let d = Deframer::placeholder();
        assert_eq!(d.buf.capacity(), 0);
        assert!(d.at_rest());
    }

    #[test]
    fn command_codes_roundtrip() {
        for cmd in [
            Command::Data,
            Command::TxDelay,
            Command::Persistence,
            Command::SlotTime,
            Command::TxTail,
            Command::FullDuplex,
            Command::SetHardware,
            Command::Return,
        ] {
            assert_eq!(Command::from_code(cmd.code()), Some(cmd));
        }
        assert_eq!(Command::from_code(0x7), None);
    }
}
