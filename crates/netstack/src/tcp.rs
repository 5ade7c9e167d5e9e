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

use sim::wire::{internet_checksum, Reader, Writer};
use sim::{SimDuration, SimTime};

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

/// A TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
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
    /// Payload octets.
    pub payload: Vec<u8>,
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

impl TcpSegment {
    /// Sequence space consumed by this segment (payload + SYN + FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// Encodes the segment, computing the pseudo-header checksum. The
    /// buffer is born with room for the IP header that
    /// [`crate::ip::Ipv4Packet::into_wire`] will write in front.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let header_len: usize = if self.mss.is_some() { 24 } else { 20 };
        let total = header_len + self.payload.len();
        let mut w = Writer::with_capacity(total + crate::ip::HEADER_LEN);
        w.u16(self.src_port);
        w.u16(self.dst_port);
        w.u32(self.seq);
        w.u32(self.ack);
        w.u8(((header_len / 4) as u8) << 4);
        w.u8(self.flags.encode());
        w.u16(self.window);
        w.u16(0); // checksum placeholder
        w.u16(0); // urgent pointer
        if let Some(mss) = self.mss {
            w.u8(2); // kind: MSS
            w.u8(4); // length
            w.u16(mss);
        }
        w.bytes(&self.payload);
        let ph = pseudo_header(src, dst, total as u16);
        let sum = internet_checksum(&[&ph, w.as_slice()]);
        w.patch_u16(16, sum);
        w.into_bytes()
    }

    /// Decodes and verifies a segment arriving on `src`→`dst`.
    pub fn decode(bytes: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<TcpSegment, NetError> {
        if bytes.len() < 20 {
            return Err(NetError::Malformed("tcp too short"));
        }
        let ph = pseudo_header(src, dst, bytes.len() as u16);
        if internet_checksum(&[&ph, bytes]) != 0 {
            return Err(NetError::BadChecksum("tcp"));
        }
        let mut r = Reader::new(bytes);
        let src_port = r.u16().expect("len checked");
        let dst_port = r.u16().expect("len checked");
        let seq = r.u32().expect("len checked");
        let ack = r.u32().expect("len checked");
        let off = (r.u8().expect("len checked") >> 4) as usize * 4;
        let flags = TcpFlags::decode(r.u8().expect("len checked"));
        let window = r.u16().expect("len checked");
        let _sum = r.u16().expect("len checked");
        let _urg = r.u16().expect("len checked");
        if off < 20 || off > bytes.len() {
            return Err(NetError::Malformed("tcp data offset"));
        }
        // Parse options for MSS.
        let mut mss = None;
        let mut opts = Reader::new(&bytes[20..off]);
        while opts.remaining() > 0 {
            match opts.u8().expect("remaining checked") {
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
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            mss,
            payload: bytes[off..].to_vec(),
        })
    }
}

// --- Sequence arithmetic ------------------------------------------------

/// `a < b` in sequence space.
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence space.
pub fn seq_le(a: u32, b: u32) -> bool {
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
    Transmit(TcpSegment),
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
    /// our SYN is unacked).
    send_buf: VecDeque<u8>,
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
    ) -> (Tcb, Vec<TcbEvent>) {
        let mut tcb = Tcb::new(local, remote, iss, cfg);
        tcb.state = TcpState::SynSent;
        tcb.snd_nxt = iss.wrapping_add(1);
        let syn = TcpSegment {
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
            payload: Vec::new(),
        };
        let mut ev = Vec::new();
        tcb.rtt_probe = Some((tcb.snd_nxt, now));
        tcb.transmit(now, syn, false, &mut ev);
        tcb.arm_rtx(now);
        (tcb, ev)
    }

    /// Passive open: a listener received `syn`; answer with SYN-ACK.
    pub fn accept(
        now: SimTime,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        syn: &TcpSegment,
        iss: u32,
        cfg: TcpConfig,
    ) -> (Tcb, Vec<TcbEvent>) {
        debug_assert!(syn.flags.syn && !syn.flags.ack);
        let mut tcb = Tcb::new(local, remote, iss, cfg);
        tcb.state = TcpState::SynReceived;
        tcb.rcv_nxt = syn.seq.wrapping_add(1);
        tcb.snd_wnd = syn.window;
        if let Some(peer_mss) = syn.mss {
            tcb.mss = tcb.mss.min(peer_mss);
        }
        tcb.snd_nxt = iss.wrapping_add(1);
        let synack = TcpSegment {
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
            payload: Vec::new(),
        };
        let mut ev = Vec::new();
        tcb.transmit(now, synack, false, &mut ev);
        tcb.arm_rtx(now);
        (tcb, ev)
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
            send_buf: VecDeque::new(),
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
    pub fn recv_available(&self) -> usize {
        self.recv_buf.len()
    }

    /// True once the peer has closed and the buffer is drained.
    pub fn at_eof(&self) -> bool {
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
    /// (bounded by send-buffer space) plus any emitted segments.
    pub fn send(&mut self, now: SimTime, data: &[u8]) -> (usize, Vec<TcbEvent>) {
        if !matches!(
            self.state,
            TcpState::SynSent | TcpState::SynReceived | TcpState::Established | TcpState::CloseWait
        ) || self.fin_queued
        {
            return (0, Vec::new());
        }
        let take = data.len().min(self.send_capacity());
        self.send_buf.extend(&data[..take]);
        let mut ev = Vec::new();
        if matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            self.pump(now, &mut ev);
        }
        (take, ev)
    }

    /// Drains received data. `now` lets the receiver send a window update
    /// if the advertised window had collapsed.
    pub fn recv(&mut self, now: SimTime) -> (Vec<u8>, Vec<TcbEvent>) {
        let data: Vec<u8> = self.recv_buf.drain(..).collect();
        let mut ev = Vec::new();
        if !data.is_empty() && self.advertised_wnd == 0 && self.state == TcpState::Established {
            // Window reopened: tell the stalled sender.
            let ack = self.bare_ack();
            self.transmit(now, ack, false, &mut ev);
        }
        (data, ev)
    }

    /// Closes the send direction (queues a FIN after pending data).
    pub fn close(&mut self, now: SimTime) -> Vec<TcbEvent> {
        let mut ev = Vec::new();
        match self.state {
            TcpState::SynSent => {
                self.enter_closed(false, &mut ev);
            }
            TcpState::SynReceived | TcpState::Established => {
                self.fin_queued = true;
                self.state = TcpState::FinWait1;
                self.pump(now, &mut ev);
            }
            TcpState::CloseWait => {
                self.fin_queued = true;
                self.state = TcpState::LastAck;
                self.pump(now, &mut ev);
            }
            _ => {}
        }
        ev
    }

    /// Aborts the connection with a RST.
    pub fn abort(&mut self, now: SimTime) -> Vec<TcbEvent> {
        let mut ev = Vec::new();
        if !matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            let rst = TcpSegment {
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
                payload: Vec::new(),
            };
            self.transmit(now, rst, false, &mut ev);
        }
        self.enter_closed(true, &mut ev);
        ev
    }

    // --- Segment arrival --------------------------------------------------

    /// Processes an arriving segment.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) -> Vec<TcbEvent> {
        let mut ev = Vec::new();
        self.stats.segments_received += 1;
        if seg.flags.rst {
            if self.state != TcpState::Closed {
                self.enter_closed(true, &mut ev);
            }
            return ev;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.seg_syn_sent(now, seg, &mut ev),
            _ => self.seg_synchronized(now, seg, &mut ev),
        }
        ev
    }

    fn seg_syn_sent(&mut self, now: SimTime, seg: &TcpSegment, ev: &mut Vec<TcbEvent>) {
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
                let ack = self.bare_ack();
                self.transmit(now, ack, false, ev);
            }
        }
        // Simultaneous open (bare SYN) is not supported; ignored.
    }

    fn seg_synchronized(&mut self, now: SimTime, seg: &TcpSegment, ev: &mut Vec<TcbEvent>) {
        // --- ACK processing ---
        if seg.flags.ack {
            let ack = seg.ack;
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
                    (TcpState::Closing, true) => self.enter_time_wait(now, ev),
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
            self.snd_wnd = seg.window;
        }

        if self.state == TcpState::Closed {
            return;
        }

        // --- Data processing ---
        let mut should_ack = false;
        if seg.flags.syn {
            // A retransmitted SYN/SYN-ACK in a synchronized state means the
            // peer never saw our ACK of its SYN (RFC 793: unacceptable
            // segments elicit an ACK). Without this the peer stays in
            // SYN-RECEIVED retransmitting forever while we sit Established
            // with nothing to send.
            should_ack = true;
        }
        if !seg.payload.is_empty() {
            if seg.seq == self.rcv_nxt && !self.peer_fin_seen {
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
        let fin_at = seg.seq.wrapping_add(seg.payload.len() as u32);
        if seg.flags.fin && fin_at == self.rcv_nxt && !self.peer_fin_seen {
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
                TcpState::FinWait2 => self.enter_time_wait(now, ev),
                _ => {}
            }
        } else if seg.flags.fin && fin_at != self.rcv_nxt {
            should_ack = true; // out-of-order FIN: dup-ack it
        }

        // --- Output ---
        let before = ev.len();
        self.pump(now, ev);
        if should_ack && ev.len() == before {
            let ack = self.bare_ack();
            self.transmit(now, ack, false, ev);
        }
    }

    // --- Timers -----------------------------------------------------------

    /// Fires expired timers.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<TcbEvent> {
        let mut ev = Vec::new();
        if self.time_wait_deadline.is_some_and(|t| t <= now) {
            self.time_wait_deadline = None;
            self.enter_closed(false, &mut ev);
            return ev;
        }
        if self.rtx_deadline.is_some_and(|t| t <= now) {
            self.rtx_deadline = None;
            self.retransmit(now, &mut ev);
        }
        ev
    }

    fn retransmit(&mut self, now: SimTime, ev: &mut Vec<TcbEvent>) {
        self.backoff = (self.backoff + 1).min(12);
        // Karn: a retransmission invalidates the outstanding probe.
        self.rtt_probe = None;
        match self.state {
            TcpState::SynSent => {
                let syn = TcpSegment {
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
                    payload: Vec::new(),
                };
                self.transmit(now, syn, true, ev);
                self.arm_rtx(now);
            }
            TcpState::SynReceived => {
                let synack = TcpSegment {
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
                    payload: Vec::new(),
                };
                self.transmit(now, synack, true, ev);
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
                    let seg = TcpSegment {
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
                        payload: self.send_buf.iter().take(1).copied().collect(),
                    };
                    self.snd_nxt = self.snd_una.wrapping_add(1);
                    self.transmit(now, seg, true, ev);
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
            let chunk: Vec<u8> = self.send_buf.iter().skip(sent).take(n).copied().collect();
            let last = sent + n == self.send_buf.len();
            let fin_rides = self.fin_queued && !self.fin_sent && last && window_left > n;
            let seg = TcpSegment {
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
                payload: chunk,
            };
            self.snd_nxt = self.snd_nxt.wrapping_add(seg.seq_len());
            if fin_rides {
                self.fin_sent = true;
            }
            let is_rtx = self.rtx_budget > 0;
            if !is_rtx && self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt, now));
            }
            self.rtx_budget = self.rtx_budget.saturating_sub(seg.seq_len() as usize);
            self.transmit(now, seg, is_rtx, ev);
            self.arm_rtx_if_unarmed(now);
        }
        // A bare FIN if queued, all data sent, and window allows.
        if self.fin_queued && !self.fin_sent && self.sent_unacked_payload() == self.send_buf.len() {
            let fin = TcpSegment {
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
                payload: Vec::new(),
            };
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_sent = true;
            let is_rtx = self.rtx_budget > 0;
            self.rtx_budget = self.rtx_budget.saturating_sub(1);
            self.transmit(now, fin, is_rtx, ev);
            self.arm_rtx_if_unarmed(now);
        }
        // Zero-window persist: data pending, nothing in flight — keep the
        // retransmission timer armed so a window probe eventually fires.
        if self.outstanding() == 0 && !self.send_buf.is_empty() {
            self.arm_rtx_if_unarmed(now);
        }
    }

    fn bare_ack(&mut self) -> TcpSegment {
        TcpSegment {
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
            payload: Vec::new(),
        }
    }

    fn window_to_advertise(&mut self) -> u16 {
        let w = (RECV_BUF - self.recv_buf.len()).min(65535) as u16;
        self.advertised_wnd = w;
        w
    }

    fn transmit(&mut self, _now: SimTime, seg: TcpSegment, is_rtx: bool, ev: &mut Vec<TcbEvent>) {
        self.stats.segments_sent += 1;
        self.stats.bytes_sent += seg.payload.len() as u64;
        if is_rtx {
            self.stats.retransmissions += 1;
            self.stats.bytes_retransmitted += seg.payload.len() as u64;
        }
        ev.push(TcbEvent::Transmit(seg));
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

    fn enter_time_wait(&mut self, now: SimTime, _ev: &mut [TcbEvent]) {
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
