//! TCP: segment codec and connection state machine.
//!
//! §4.1 of the paper is a TCP story. An Ethernet-side host talking
//! through the gateway to a 1200 bit/s radio host *"initially retransmits
//! packets several times before a response makes it back"*, wasting
//! bandwidth and clogging the gateway's queues; *"fortunately, many
//! implementations of TCP dynamically adjust their timeout values"*. This
//! module implements both behaviours so experiment E3 can put them side
//! by side:
//!
//! * [`RtoPolicy::Fixed`] — a constant retransmission timeout, the naive
//!   1988 implementation;
//! * [`RtoPolicy::Adaptive`] — Jacobson mean/deviation smoothing with
//!   Karn's rule (no RTT samples from retransmitted segments) and
//!   exponential backoff.
//!
//! The connection machine ([`Tcb`]) is sans-io and era-faithful in one
//! deliberate way: there is **no congestion window** (Tahoe arrived the
//! year this paper was published), so a fast sender pours its whole
//! offered window into the gateway — exactly the queueing the paper
//! observed.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use sim::wire::{internet_checksum, Reader};
use sim::{SimDuration, SimTime};

use crate::pool::DgramPool;
use crate::NetError;

// --- Segment codec -----------------------------------------------------

/// TCP header flags (the subset this stack uses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgement field significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push function (carried, not interpreted).
    pub psh: bool,
}

impl TcpFlags {
    fn encode(self) -> u8 {
        u8::from(self.fin)
            | (u8::from(self.syn) << 1)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.psh) << 3)
            | (u8::from(self.ack) << 4)
    }

    fn decode(v: u8) -> TcpFlags {
        TcpFlags {
            fin: v & 0x01 != 0,
            syn: v & 0x02 != 0,
            rst: v & 0x04 != 0,
            psh: v & 0x08 != 0,
            ack: v & 0x10 != 0,
        }
    }
}

/// A TCP header: everything a segment carries but its payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload octet (or of SYN/FIN).
    pub seq: u32,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// MSS option (SYN segments only).
    pub mss: Option<u16>,
}

impl TcpHeader {
    /// Octets on the wire: 20, or 24 with the MSS option.
    pub fn wire_len(&self) -> usize {
        if self.mss.is_some() {
            24
        } else {
            20
        }
    }

    /// Sequence space a segment with this header and `payload` octets
    /// consumes (payload + SYN + FIN).
    pub(crate) fn seq_len(&self, payload: usize) -> u32 {
        payload as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }
}

/// A TCP segment: a header and a payload borrowed from wherever it lives —
/// the datagram it was decoded from, or the send buffer of the connection
/// transmitting it ([`Tcb::segment`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment<'a> {
    /// The header.
    pub header: TcpHeader,
    /// Payload octets.
    pub payload: &'a [u8],
}

fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, len: u16) -> [u8; 12] {
    let s = src.octets();
    let d = dst.octets();
    [
        s[0],
        s[1],
        s[2],
        s[3],
        d[0],
        d[1],
        d[2],
        d[3],
        0,
        6,
        (len >> 8) as u8,
        len as u8,
    ]
}

impl<'a> TcpSegment<'a> {
    /// Sequence space consumed by this segment (payload + SYN + FIN).
    pub(crate) fn seq_len(&self) -> u32 {
        self.header.seq_len(self.payload.len())
    }

    /// Encodes the segment into a fresh buffer. A convenience for tests
    /// and reference code that have no pool; the datapath encodes into a
    /// pooled buffer with `encode_in`.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        self.encode_in(src, dst, &mut DgramPool::new())
    }

    /// Encodes the segment, computing the pseudo-header checksum, into a
    /// buffer from `pool` with room behind the segment for the IP header
    /// that [`crate::ip::Ipv4Packet::into_wire`] will write in front.
    pub(crate) fn encode_in(&self, src: Ipv4Addr, dst: Ipv4Addr, pool: &mut DgramPool) -> Vec<u8> {
        let h = &self.header;
        let header_len = h.wire_len();
        let total = header_len + self.payload.len();
        let mut out = pool.take(total + crate::ip::HEADER_LEN);
        let mut hdr = [0u8; 24];
        hdr[0..2].copy_from_slice(&h.src_port.to_be_bytes());
        hdr[2..4].copy_from_slice(&h.dst_port.to_be_bytes());
        hdr[4..8].copy_from_slice(&h.seq.to_be_bytes());
        hdr[8..12].copy_from_slice(&h.ack.to_be_bytes());
        hdr[12] = ((header_len / 4) as u8) << 4;
        hdr[13] = h.flags.encode();
        hdr[14..16].copy_from_slice(&h.window.to_be_bytes());
        // Checksum (16..18) and urgent pointer (18..20) start at zero.
        if let Some(mss) = h.mss {
            hdr[20] = 2; // kind: MSS
            hdr[21] = 4; // length
            hdr[22..24].copy_from_slice(&mss.to_be_bytes());
        }
        out.extend_from_slice(&hdr[..header_len]);
        out.extend_from_slice(self.payload);
        let ph = pseudo_header(src, dst, total as u16);
        let sum = internet_checksum(&[&ph, &out]);
        out[16..18].copy_from_slice(&sum.to_be_bytes());
        out
    }

    /// Decodes and verifies a segment arriving on `src`→`dst`. The payload
    /// is borrowed from `bytes`, not copied: the one copy a received
    /// octet sees is the one into the receiving connection's buffer.
    pub fn decode(
        bytes: &'a [u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<TcpSegment<'a>, NetError> {
        let hdr: &[u8; 20] = bytes
            .first_chunk()
            .ok_or(NetError::Malformed("tcp too short"))?;
        let ph = pseudo_header(src, dst, bytes.len() as u16);
        if internet_checksum(&[&ph, bytes]) != 0 {
            return Err(NetError::BadChecksum("tcp"));
        }
        let be16 = |i: usize| u16::from_be_bytes([hdr[i], hdr[i + 1]]);
        let be32 = |i: usize| u32::from_be_bytes([hdr[i], hdr[i + 1], hdr[i + 2], hdr[i + 3]]);
        let off = usize::from(hdr[12] >> 4) * 4;
        if off < 20 || off > bytes.len() {
            return Err(NetError::Malformed("tcp data offset"));
        }
        // Parse options for MSS.
        let mut mss = None;
        let mut opts = Reader::new(&bytes[20..off]);
        while let Ok(kind) = opts.u8() {
            match kind {
                0 => break,    // end of options
                1 => continue, // NOP
                2 => {
                    let len = opts.u8().map_err(|_| NetError::Malformed("mss opt"))?;
                    if len != 4 {
                        return Err(NetError::Malformed("mss opt length"));
                    }
                    mss = Some(opts.u16().map_err(|_| NetError::Malformed("mss opt"))?);
                }
                _ => {
                    // Unknown option: skip by its length byte.
                    let len = opts.u8().map_err(|_| NetError::Malformed("tcp opt"))?;
                    if len < 2 {
                        return Err(NetError::Malformed("tcp opt length"));
                    }
                    opts.skip(len as usize - 2)
                        .map_err(|_| NetError::Malformed("tcp opt"))?;
                }
            }
        }
        Ok(TcpSegment {
            header: TcpHeader {
                src_port: be16(0),
                dst_port: be16(2),
                seq: be32(4),
                ack: be32(8),
                flags: TcpFlags::decode(hdr[13]),
                window: be16(14),
                mss,
            },
            payload: &bytes[off..],
        })
    }
}

// --- Sequence arithmetic ------------------------------------------------

/// `a < b` in sequence space.
pub(crate) fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence space.
pub(crate) fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

// --- Retransmission policy ----------------------------------------------

/// How the retransmission timeout is chosen (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtoPolicy {
    /// A constant RTO, never adjusted — the misbehaving Ethernet-side
    /// implementation of the paper.
    Fixed(SimDuration),
    /// Jacobson smoothing + Karn's rule + exponential backoff.
    Adaptive,
}

/// Connection configuration.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Retransmission policy.
    pub rto: RtoPolicy,
    /// Send-buffer capacity in octets.
    pub send_buf: usize,
    /// Our MSS, announced on SYN.
    pub mss: u16,
}

/// Receive-buffer capacity in octets (advertised window ceiling).
const RECV_BUF: usize = 4096;
/// RTO before any RTT sample.
const INITIAL_RTO: SimDuration = SimDuration::from_millis(1500);
/// Lower clamp on the adaptive RTO.
const MIN_RTO: SimDuration = SimDuration::from_millis(500);
/// Upper clamp on any (backed-off) RTO.
const MAX_RTO: SimDuration = SimDuration::from_secs(64);
/// TIME-WAIT holds for `2 * MSL`.
const MSL: SimDuration = SimDuration::from_secs(15);

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            rto: RtoPolicy::Adaptive,
            send_buf: 4096,
            mss: 536,
        }
    }
}

// --- Connection state machine -------------------------------------------

/// TCP connection states (RFC 793 names; LISTEN lives in the stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum TcpState {
    Closed,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
}

/// Actions emitted by the state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum TcbEvent {
    /// Transmit this segment (the owner wraps it in IP).
    Transmit(Outgoing),
    /// The three-way handshake completed.
    Connected,
    /// New data is available to [`Tcb::recv`].
    DataReadable,
    /// The peer closed its direction (EOF after draining).
    PeerClosed,
    /// The connection fully terminated (normally or by reset).
    Closed {
        /// True if termination was a reset rather than an orderly close.
        reset: bool,
    },
}

/// A segment a [`Tcb`] asks its owner to transmit: the header, and how
/// many octets of the connection's send buffer it carries from its
/// sequence number on. The payload is not copied out; [`Tcb::segment`]
/// views it in place, which holds until that data is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outgoing {
    /// The segment's header.
    pub header: TcpHeader,
    /// Payload octets.
    len: usize,
}

/// Connection statistics, the raw material of experiment E3.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcbStats {
    /// Segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Payload octets transmitted (including retransmitted octets).
    pub bytes_sent: u64,
    /// Payload octets retransmitted.
    pub bytes_retransmitted: u64,
    /// RTT samples taken.
    pub rtt_samples: u64,
    /// Current smoothed RTT estimate in seconds (adaptive mode).
    pub srtt_secs: f64,
    /// Current RTO in seconds.
    pub rto_secs: f64,
    /// Segments received with valid checksums.
    pub segments_received: u64,
    /// In-sequence payload octets delivered.
    pub bytes_delivered: u64,
    /// Out-of-order segments dropped (this receiver does not buffer them).
    pub ooo_dropped: u64,
}

/// One endpoint of a TCP connection (sans-io).
///
/// Every verb appends what it produced to the caller's `ev` buffer — the
/// owner keeps one and reuses it, so driving a connection allocates no
/// event list.
#[derive(Debug)]
pub struct Tcb {
    cfg: TcpConfig,
    state: TcpState,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    /// Effective MSS (min of ours and the peer's announcement).
    mss: u16,

    // Send side.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u16,
    /// Unacknowledged + unsent payload, starting at `snd_una` (+1 while
    /// our SYN is unacked). One contiguous run, so a segment's payload is
    /// a slice of it ([`Tcb::segment`]).
    send_buf: Vec<u8>,
    fin_queued: bool,
    fin_sent: bool,

    // Receive side.
    rcv_nxt: u32,
    recv_buf: VecDeque<u8>,
    peer_fin_seen: bool,
    /// Window we advertised most recently.
    advertised_wnd: u16,

    // Timers & RTO state.
    rtx_deadline: Option<SimTime>,
    time_wait_deadline: Option<SimTime>,
    srtt: Option<f64>,
    rttvar: f64,
    backoff: u32,
    /// Outstanding RTT probe: (sequence that must be acked, send time).
    rtt_probe: Option<(u32, SimTime)>,
    /// Sequence space the next pump re-emits as retransmission (set by a
    /// go-back-N rewind; Karn: those octets must not carry an RTT probe).
    rtx_budget: usize,

    stats: TcbStats,
}

impl Tcb {
    /// Active open: creates a connection and emits the SYN.
    pub fn connect(
        now: SimTime,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        cfg: TcpConfig,
        ev: &mut Vec<TcbEvent>,
    ) -> Tcb {
        let mut tcb = Tcb::new(local, remote, iss, cfg);
        tcb.state = TcpState::SynSent;
        tcb.snd_nxt = iss.wrapping_add(1);
        let syn = TcpHeader {
            src_port: local.1,
            dst_port: remote.1,
            seq: iss,
            ack: 0,
            flags: TcpFlags {
                syn: true,
                ..TcpFlags::default()
            },
            window: RECV_BUF.min(65535) as u16,
            mss: Some(cfg.mss),
        };
        tcb.rtt_probe = Some((tcb.snd_nxt, now));
        tcb.transmit(now, syn, 0, false, ev);
        tcb.arm_rtx(now);
        tcb
    }

    /// Passive open: a listener received `syn`; answer with SYN-ACK.
    pub fn accept(
        now: SimTime,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        syn: &TcpHeader,
        iss: u32,
        cfg: TcpConfig,
        ev: &mut Vec<TcbEvent>,
    ) -> Tcb {
        debug_assert!(syn.flags.syn && !syn.flags.ack);
        let mut tcb = Tcb::new(local, remote, iss, cfg);
        tcb.state = TcpState::SynReceived;
        tcb.rcv_nxt = syn.seq.wrapping_add(1);
        tcb.snd_wnd = syn.window;
        if let Some(peer_mss) = syn.mss {
            tcb.mss = tcb.mss.min(peer_mss);
        }
        tcb.snd_nxt = iss.wrapping_add(1);
        let synack = TcpHeader {
            src_port: local.1,
            dst_port: remote.1,
            seq: iss,
            ack: tcb.rcv_nxt,
            flags: TcpFlags {
                syn: true,
                ack: true,
                ..TcpFlags::default()
            },
            window: tcb.window_to_advertise(),
            mss: Some(cfg.mss),
        };
        tcb.transmit(now, synack, 0, false, ev);
        tcb.arm_rtx(now);
        tcb
    }

    fn new(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16), iss: u32, cfg: TcpConfig) -> Tcb {
        Tcb {
            cfg,
            state: TcpState::Closed,
            local,
            remote,
            mss: cfg.mss,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            send_buf: Vec::new(),
            fin_queued: false,
            fin_sent: false,
            rcv_nxt: 0,
            recv_buf: VecDeque::new(),
            peer_fin_seen: false,
            advertised_wnd: RECV_BUF.min(65535) as u16,
            rtx_deadline: None,
            time_wait_deadline: None,
            srtt: None,
            rttvar: 0.0,
            backoff: 0,
            rtt_probe: None,
            rtx_budget: 0,
            stats: TcbStats::default(),
        }
    }

    /// The segment a [`TcbEvent::Transmit`] asked for, its payload viewed
    /// in the send buffer. The buffer starts at `snd_una`, so the payload
    /// is found from the header's sequence number and stays in view while
    /// later calls acknowledge the data in front of it. Panics if the
    /// payload itself has been acknowledged since.
    pub fn segment(&self, out: &Outgoing) -> TcpSegment<'_> {
        TcpSegment {
            header: out.header,
            payload: match out.len {
                0 => &[],
                len => {
                    let start = self.send_offset(out.header.seq);
                    &self.send_buf[start..start + len]
                }
            },
        }
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local (address, port).
    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.local
    }

    /// Remote (address, port).
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        self.remote
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TcbStats {
        let mut s = self.stats;
        s.srtt_secs = self.srtt.unwrap_or(0.0);
        s.rto_secs = self.current_rto().as_secs_f64();
        s
    }

    /// Effective MSS after option negotiation.
    pub fn mss(&self) -> u16 {
        self.mss
    }

    /// Octets sitting in the send buffer (unacked + unsent).
    pub fn send_backlog(&self) -> usize {
        self.send_buf.len()
    }

    /// Free space in the send buffer.
    pub fn send_capacity(&self) -> usize {
        self.cfg.send_buf.saturating_sub(self.send_buf.len())
    }

    /// Octets readable right now.
    pub(crate) fn recv_available(&self) -> usize {
        self.recv_buf.len()
    }

    /// True once the peer has closed and the buffer is drained.
    pub(crate) fn at_eof(&self) -> bool {
        self.peer_fin_seen && self.recv_buf.is_empty()
    }

    /// Earliest timer deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match (self.rtx_deadline, self.time_wait_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    // --- User calls -----------------------------------------------------

    /// Queues data for transmission; returns how many octets were accepted
    /// (bounded by send-buffer space). Emitted segments go to `ev`.
    pub fn send(&mut self, now: SimTime, data: &[u8], ev: &mut Vec<TcbEvent>) -> usize {
        if !matches!(
            self.state,
            TcpState::SynSent | TcpState::SynReceived | TcpState::Established | TcpState::CloseWait
        ) || self.fin_queued
        {
            return 0;
        }
        let take = data.len().min(self.send_capacity());
        self.send_buf.extend_from_slice(&data[..take]);
        if matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            self.pump(now, ev);
        }
        take
    }

    /// Drains received data, appended to `into` (a buffer the caller
    /// keeps, so a warm reader allocates nothing); returns the octets
    /// appended. `now` lets the receiver send a window update if the
    /// advertised window had collapsed.
    pub fn recv(&mut self, now: SimTime, into: &mut Vec<u8>, ev: &mut Vec<TcbEvent>) -> usize {
        let n = self.recv_buf.len();
        let (front, back) = self.recv_buf.as_slices();
        into.extend_from_slice(front);
        into.extend_from_slice(back);
        self.recv_buf.clear();
        if n > 0 && self.advertised_wnd == 0 && self.state == TcpState::Established {
            // Window reopened: tell the stalled sender.
            self.send_bare_ack(now, ev);
        }
        n
    }

    /// Closes the send direction (queues a FIN after pending data).
    pub fn close(&mut self, now: SimTime, ev: &mut Vec<TcbEvent>) {
        match self.state {
            TcpState::SynSent => {
                self.enter_closed(false, ev);
            }
            TcpState::SynReceived | TcpState::Established => {
                self.fin_queued = true;
                self.state = TcpState::FinWait1;
                self.pump(now, ev);
            }
            TcpState::CloseWait => {
                self.fin_queued = true;
                self.state = TcpState::LastAck;
                self.pump(now, ev);
            }
            _ => {}
        }
    }

    /// Aborts the connection with a RST.
    pub fn abort(&mut self, now: SimTime, ev: &mut Vec<TcbEvent>) {
        if !matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            let rst = TcpHeader {
                src_port: self.local.1,
                dst_port: self.remote.1,
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: TcpFlags {
                    rst: true,
                    ack: true,
                    ..TcpFlags::default()
                },
                window: 0,
                mss: None,
            };
            self.transmit(now, rst, 0, false, ev);
        }
        self.enter_closed(true, ev);
    }

    // --- Segment arrival --------------------------------------------------

    /// Processes an arriving segment.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment<'_>, ev: &mut Vec<TcbEvent>) {
        self.stats.segments_received += 1;
        if seg.header.flags.rst {
            if self.rst_acceptable(&seg.header) {
                self.enter_closed(true, ev);
            }
            return;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.seg_syn_sent(now, &seg.header, ev),
            _ => self.seg_synchronized(now, seg, ev),
        }
    }

    /// Whether a RST may end this connection, by RFC 793 §3.9 (SEGMENT
    /// ARRIVES): in SYN-SENT only one whose ACK acknowledges our SYN
    /// (`SEG.ACK = SND.NXT`); elsewhere only one whose sequence number
    /// lies in the window we advertised (`RCV.NXT ≤ SEG.SEQ < RCV.NXT +
    /// RCV.WND`, and with that window shut only `SEG.SEQ = RCV.NXT`). Any
    /// other RST is dropped silently. RFC 5961 (§3.2) would accept only
    /// the exact `RCV.NXT` and answer the rest of the window with a
    /// challenge ACK; this 1988 stack does neither, a named deviation.
    fn rst_acceptable(&self, hdr: &TcpHeader) -> bool {
        match self.state {
            TcpState::Closed => false,
            TcpState::SynSent => hdr.flags.ack && hdr.ack == self.snd_nxt,
            _ if self.advertised_wnd == 0 => hdr.seq == self.rcv_nxt,
            _ => hdr.seq.wrapping_sub(self.rcv_nxt) < u32::from(self.advertised_wnd),
        }
    }

    fn seg_syn_sent(&mut self, now: SimTime, seg: &TcpHeader, ev: &mut Vec<TcbEvent>) {
        if seg.flags.syn && seg.flags.ack {
            if seg.ack != self.snd_nxt {
                return; // bogus ack of our SYN
            }
            self.rcv_nxt = seg.seq.wrapping_add(1);
            self.snd_una = seg.ack;
            self.snd_wnd = seg.window;
            if let Some(peer_mss) = seg.mss {
                self.mss = self.mss.min(peer_mss);
            }
            self.take_rtt_sample(now);
            self.backoff = 0;
            self.state = TcpState::Established;
            self.rtx_deadline = None;
            ev.push(TcbEvent::Connected);
            // ACK the SYN (piggybacks on data if pump sends any).
            let before = ev.len();
            self.pump(now, ev);
            if ev.len() == before {
                self.send_bare_ack(now, ev);
            }
        }
        // Simultaneous open (bare SYN) is not supported; ignored.
    }

    fn seg_synchronized(&mut self, now: SimTime, seg: &TcpSegment<'_>, ev: &mut Vec<TcbEvent>) {
        let hdr = &seg.header;
        // --- ACK processing ---
        if hdr.flags.ack {
            let ack = hdr.ack;
            if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
                // New data acknowledged.
                let syn_unacked = self.state == TcpState::SynReceived
                    || (!self.fin_sent && self.snd_una == self.iss);
                let mut acked = ack.wrapping_sub(self.snd_una) as usize;
                if syn_unacked && acked > 0 {
                    acked -= 1; // the SYN octet
                }
                if self.fin_sent && ack == self.snd_nxt && acked > 0 {
                    acked -= 1; // the FIN octet
                }
                let drop = acked.min(self.send_buf.len());
                self.send_buf.drain(..drop);
                self.snd_una = ack;
                // Karn: only sample if the probe sequence is now covered,
                // and — crucially — keep the backed-off RTO until a valid
                // sample arrives. The naive fixed-RTO host resets its
                // backoff on any progress, which is exactly why it keeps
                // retransmitting on a long path (§4.1).
                if let Some((probe_seq, _)) = self.rtt_probe {
                    if seq_le(probe_seq, ack) {
                        self.take_rtt_sample(now);
                        self.backoff = 0;
                    }
                }
                if self.cfg.rto != RtoPolicy::Adaptive {
                    self.backoff = 0;
                }
                if self.state == TcpState::SynReceived {
                    self.state = TcpState::Established;
                    ev.push(TcbEvent::Connected);
                }
                let fin_acked = self.fin_sent && ack == self.snd_nxt;
                match (self.state, fin_acked) {
                    (TcpState::FinWait1, true) => self.state = TcpState::FinWait2,
                    (TcpState::Closing, true) => self.enter_time_wait(now),
                    (TcpState::LastAck, true) => {
                        self.enter_closed(false, ev);
                        return;
                    }
                    _ => {}
                }
                if self.outstanding() == 0 {
                    self.rtx_deadline = None;
                } else {
                    self.arm_rtx(now);
                }
            }
            self.snd_wnd = hdr.window;
        }

        if self.state == TcpState::Closed {
            return;
        }

        // --- Data processing ---
        let mut should_ack = false;
        if hdr.flags.syn {
            // A retransmitted SYN/SYN-ACK in a synchronized state means the
            // peer never saw our ACK of its SYN (RFC 793: unacceptable
            // segments elicit an ACK). Without this the peer stays in
            // SYN-RECEIVED retransmitting forever while we sit Established
            // with nothing to send.
            should_ack = true;
        }
        if !seg.payload.is_empty() {
            if hdr.seq == self.rcv_nxt && !self.peer_fin_seen {
                let room = RECV_BUF - self.recv_buf.len();
                let take = seg.payload.len().min(room);
                self.recv_buf.extend(&seg.payload[..take]);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
                self.stats.bytes_delivered += take as u64;
                if take > 0 {
                    ev.push(TcbEvent::DataReadable);
                }
                should_ack = true;
            } else {
                // Out of order or duplicate: this 1988-style receiver does
                // not buffer it; a duplicate ACK invites retransmission.
                self.stats.ooo_dropped += 1;
                should_ack = true;
            }
        }

        // --- FIN processing ---
        let fin_at = hdr.seq.wrapping_add(seg.payload.len() as u32);
        if hdr.flags.fin && fin_at == self.rcv_nxt && !self.peer_fin_seen {
            self.peer_fin_seen = true;
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            should_ack = true;
            ev.push(TcbEvent::PeerClosed);
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                TcpState::FinWait1 => {
                    // Our FIN not yet acked: simultaneous close.
                    self.state = TcpState::Closing;
                }
                TcpState::FinWait2 => self.enter_time_wait(now),
                _ => {}
            }
        } else if hdr.flags.fin && fin_at != self.rcv_nxt {
            should_ack = true; // out-of-order FIN: dup-ack it
        }

        // --- Output ---
        let before = ev.len();
        self.pump(now, ev);
        if should_ack && ev.len() == before {
            self.send_bare_ack(now, ev);
        }
    }

    // --- Timers -----------------------------------------------------------

    /// Fires expired timers.
    pub fn on_timer(&mut self, now: SimTime, ev: &mut Vec<TcbEvent>) {
        if self.time_wait_deadline.is_some_and(|t| t <= now) {
            self.time_wait_deadline = None;
            self.enter_closed(false, ev);
            return;
        }
        if self.rtx_deadline.is_some_and(|t| t <= now) {
            self.rtx_deadline = None;
            self.retransmit(now, ev);
        }
    }

    fn retransmit(&mut self, now: SimTime, ev: &mut Vec<TcbEvent>) {
        self.backoff = (self.backoff + 1).min(12);
        // Karn: a retransmission invalidates the outstanding probe.
        self.rtt_probe = None;
        match self.state {
            TcpState::SynSent => {
                let syn = TcpHeader {
                    src_port: self.local.1,
                    dst_port: self.remote.1,
                    seq: self.iss,
                    ack: 0,
                    flags: TcpFlags {
                        syn: true,
                        ..TcpFlags::default()
                    },
                    window: self.window_to_advertise(),
                    mss: Some(self.cfg.mss),
                };
                self.transmit(now, syn, 0, true, ev);
                self.arm_rtx(now);
            }
            TcpState::SynReceived => {
                let synack = TcpHeader {
                    src_port: self.local.1,
                    dst_port: self.remote.1,
                    seq: self.iss,
                    ack: self.rcv_nxt,
                    flags: TcpFlags {
                        syn: true,
                        ack: true,
                        ..TcpFlags::default()
                    },
                    window: self.window_to_advertise(),
                    mss: Some(self.cfg.mss),
                };
                self.transmit(now, synack, 0, true, ev);
                self.arm_rtx(now);
            }
            TcpState::Established
            | TcpState::CloseWait
            | TcpState::FinWait1
            | TcpState::Closing
            | TcpState::LastAck => {
                let outstanding = self.outstanding();
                if outstanding > 0 {
                    // Go-back-N: rewind to the first unacknowledged octet
                    // and resend everything in order. (Resending only the
                    // head chunk deadlocks behind a standing hole when the
                    // receiver, which buffers nothing out of order, has
                    // dropped the rest of the window.)
                    self.snd_nxt = self.snd_una;
                    if self.fin_sent {
                        self.fin_sent = false; // pump re-emits it in order
                    }
                    self.rtx_budget = outstanding as usize;
                    self.pump(now, ev);
                } else if !self.send_buf.is_empty() {
                    // Zero-window probe: one octet beyond the window.
                    let probe = TcpHeader {
                        src_port: self.local.1,
                        dst_port: self.remote.1,
                        seq: self.snd_una,
                        ack: self.rcv_nxt,
                        flags: TcpFlags {
                            ack: true,
                            ..TcpFlags::default()
                        },
                        window: self.window_to_advertise(),
                        mss: None,
                    };
                    self.snd_nxt = self.snd_una.wrapping_add(1);
                    self.transmit(now, probe, 1, true, ev);
                }
                self.arm_rtx(now);
            }
            _ => {}
        }
    }

    // --- Internals ----------------------------------------------------------

    /// Sequence space outstanding (sent, unacked).
    fn outstanding(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Octets of `send_buf` already transmitted.
    fn sent_unacked_payload(&self) -> usize {
        let mut o = self.outstanding() as usize;
        // Subtract SYN/FIN octets that are part of `outstanding`.
        if self.snd_una == self.iss && self.state != TcpState::Closed {
            o = o.saturating_sub(1);
        }
        if self.fin_sent {
            o = o.saturating_sub(1);
        }
        o
    }

    /// Where the data at sequence number `seq` sits in `send_buf`. Data is
    /// sent only once the SYN is acknowledged, so no SYN octet stands
    /// between `snd_una` and it.
    fn send_offset(&self, seq: u32) -> usize {
        seq.wrapping_sub(self.snd_una) as usize
    }

    /// Transmits new data allowed by the peer's window.
    fn pump(&mut self, now: SimTime, ev: &mut Vec<TcbEvent>) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        loop {
            let sent = self.sent_unacked_payload();
            let unsent = self.send_buf.len().saturating_sub(sent);
            let window_left = usize::from(self.snd_wnd).saturating_sub(self.outstanding() as usize);
            if unsent == 0 || window_left == 0 {
                break;
            }
            let n = unsent.min(window_left).min(usize::from(self.mss));
            let last = sent + n == self.send_buf.len();
            let fin_rides = self.fin_queued && !self.fin_sent && last && window_left > n;
            let header = TcpHeader {
                src_port: self.local.1,
                dst_port: self.remote.1,
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: TcpFlags {
                    ack: true,
                    psh: last,
                    fin: fin_rides,
                    ..TcpFlags::default()
                },
                window: self.window_to_advertise(),
                mss: None,
            };
            let seq_len = header.seq_len(n);
            self.snd_nxt = self.snd_nxt.wrapping_add(seq_len);
            if fin_rides {
                self.fin_sent = true;
            }
            let is_rtx = self.rtx_budget > 0;
            if !is_rtx && self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt, now));
            }
            self.rtx_budget = self.rtx_budget.saturating_sub(seq_len as usize);
            debug_assert_eq!(self.send_offset(header.seq), sent);
            self.transmit(now, header, n, is_rtx, ev);
            self.arm_rtx_if_unarmed(now);
        }
        // A bare FIN if queued, all data sent, and window allows.
        if self.fin_queued && !self.fin_sent && self.sent_unacked_payload() == self.send_buf.len() {
            let fin = TcpHeader {
                src_port: self.local.1,
                dst_port: self.remote.1,
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: TcpFlags {
                    fin: true,
                    ack: true,
                    ..TcpFlags::default()
                },
                window: self.window_to_advertise(),
                mss: None,
            };
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_sent = true;
            let is_rtx = self.rtx_budget > 0;
            self.rtx_budget = self.rtx_budget.saturating_sub(1);
            self.transmit(now, fin, 0, is_rtx, ev);
            self.arm_rtx_if_unarmed(now);
        }
        // Zero-window persist: data pending, nothing in flight — keep the
        // retransmission timer armed so a window probe eventually fires.
        if self.outstanding() == 0 && !self.send_buf.is_empty() {
            self.arm_rtx_if_unarmed(now);
        }
    }

    fn send_bare_ack(&mut self, now: SimTime, ev: &mut Vec<TcbEvent>) {
        let ack = TcpHeader {
            src_port: self.local.1,
            dst_port: self.remote.1,
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags: TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
            window: self.window_to_advertise(),
            mss: None,
        };
        self.transmit(now, ack, 0, false, ev);
    }

    fn window_to_advertise(&mut self) -> u16 {
        let w = (RECV_BUF - self.recv_buf.len()).min(65535) as u16;
        self.advertised_wnd = w;
        w
    }

    /// Emits a segment: `header`, and the `len` octets of the send buffer
    /// from `header.seq` on as its payload.
    fn transmit(
        &mut self,
        _now: SimTime,
        header: TcpHeader,
        len: usize,
        is_rtx: bool,
        ev: &mut Vec<TcbEvent>,
    ) {
        debug_assert!(len == 0 || self.send_offset(header.seq) + len <= self.send_buf.len());
        self.stats.segments_sent += 1;
        self.stats.bytes_sent += len as u64;
        if is_rtx {
            self.stats.retransmissions += 1;
            self.stats.bytes_retransmitted += len as u64;
        }
        ev.push(TcbEvent::Transmit(Outgoing { header, len }));
    }

    fn current_rto(&self) -> SimDuration {
        let base = match self.cfg.rto {
            RtoPolicy::Fixed(d) => d,
            RtoPolicy::Adaptive => match self.srtt {
                None => INITIAL_RTO,
                Some(srtt) => {
                    let rto = srtt + 4.0 * self.rttvar;
                    SimDuration::from_secs_f64(rto).max(MIN_RTO).min(MAX_RTO)
                }
            },
        };
        let backed = base.saturating_mul(1u64 << self.backoff.min(12));
        backed.min(MAX_RTO)
    }

    fn arm_rtx(&mut self, now: SimTime) {
        self.rtx_deadline = Some(now + self.current_rto());
    }

    fn arm_rtx_if_unarmed(&mut self, now: SimTime) {
        if self.rtx_deadline.is_none() {
            self.arm_rtx(now);
        }
    }

    fn take_rtt_sample(&mut self, now: SimTime) {
        let Some((_, sent_at)) = self.rtt_probe.take() else {
            return;
        };
        if self.cfg.rto != RtoPolicy::Adaptive {
            return;
        }
        let sample = now.saturating_since(sent_at).as_secs_f64();
        self.stats.rtt_samples += 1;
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(srtt) => {
                let err = sample - srtt;
                self.srtt = Some(srtt + err / 8.0);
                self.rttvar += (err.abs() - self.rttvar) / 4.0;
            }
        }
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.rtx_deadline = None;
        self.time_wait_deadline = Some(now + MSL * 2);
    }

    fn enter_closed(&mut self, reset: bool, ev: &mut Vec<TcbEvent>) {
        if self.state != TcpState::Closed {
            self.state = TcpState::Closed;
            ev.push(TcbEvent::Closed { reset });
        }
        self.rtx_deadline = None;
        self.time_wait_deadline = None;
        self.send_buf.clear();
    }
}

#[cfg(test)]
mod tests;
