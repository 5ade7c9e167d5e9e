//! Ethernet substrate: the fast side of the paper's gateway.
//!
//! The MicroVAX in the paper sits on the department's 10 Mb/s Ethernet
//! (via a DEQNA controller, §2.2) and bridges it to the 1200 bit/s radio
//! subnet. Only two properties of the Ethernet matter for the reproduced
//! experiments: it is roughly four orders of magnitude faster than the
//! radio channel, and it delivers broadcasts (for ARP). The model here is
//! therefore a FIFO shared segment with per-frame serialization delay and
//! MAC-filtered delivery — no collision modelling, which at the offered
//! loads of these experiments would change nothing.
//!
//! # Examples
//!
//! ```
//! use ether::{EtherFrame, EtherType, MacAddr, Segment};
//! use sim::{Bandwidth, SimTime};
//!
//! let mut seg = Segment::new(Bandwidth::ETHERNET_10M);
//! let a = seg.attach(MacAddr::new([2, 0, 0, 0, 0, 1]));
//! let b = seg.attach(MacAddr::new([2, 0, 0, 0, 0, 2]));
//! let frame = EtherFrame::new(
//!     MacAddr::new([2, 0, 0, 0, 0, 2]),
//!     MacAddr::new([2, 0, 0, 0, 0, 1]),
//!     EtherType::Ipv4,
//!     vec![0u8; 100],
//! );
//! seg.send(SimTime::ZERO, a, frame);
//! let t = seg.next_deadline().unwrap();
//! let delivered = seg.advance(t);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].0, b);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;

use sim::pktbuf::ByteSink;
use sim::wire::WireError;
use sim::{Bandwidth, SimDuration, SimTime};

/// A 48-bit Ethernet MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The broadcast address, `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Creates an address from raw octets.
    pub const fn new(octets: [u8; 6]) -> MacAddr {
        MacAddr(octets)
    }

    /// A locally-administered unicast address derived from a small index,
    /// convenient for test topologies.
    pub const fn local(n: u16) -> MacAddr {
        MacAddr([0x02, 0x00, 0x00, 0x00, (n >> 8) as u8, n as u8])
    }

    /// The raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// True for the broadcast address.
    #[inline]
    pub fn is_broadcast(&self) -> bool {
        *self == MacAddr::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// The EtherType field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// 0x0800 — Internet Protocol version 4.
    Ipv4,
    /// 0x0806 — Address Resolution Protocol.
    Arp,
    /// Anything else, carried opaquely.
    Other(u16),
}

impl EtherType {
    /// Wire value.
    #[inline]
    pub fn code(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Decodes a wire value.
    #[inline]
    pub fn from_code(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// Ethernet v2 MTU.
pub const MTU: usize = 1500;
/// Minimum payload (frames are padded up to this).
pub const MIN_PAYLOAD: usize = 46;

/// An Ethernet II frame (FCS omitted; the segment model is lossless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EtherFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Payload octets (≤ [`MTU`]).
    pub payload: Vec<u8>,
}

impl EtherFrame {
    /// Creates a frame.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the [`MTU`].
    #[inline]
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Vec<u8>) -> EtherFrame {
        assert!(payload.len() <= MTU, "payload exceeds Ethernet MTU");
        EtherFrame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// An empty placeholder frame, useful as a reusable clone target for
    /// [`EtherFrame::clone_into`].
    pub fn empty() -> EtherFrame {
        EtherFrame {
            dst: MacAddr::new([0; 6]),
            src: MacAddr::new([0; 6]),
            ethertype: EtherType::Other(0),
            payload: Vec::new(),
        }
    }

    /// Copies this frame into `dst`, reusing `dst`'s payload allocation.
    /// A warmed-up target frame makes repeated copies allocation-free —
    /// the cross-shard delivery path relies on this (DESIGN.md §11).
    pub fn clone_into(&self, dst: &mut EtherFrame) {
        dst.dst = self.dst;
        dst.src = self.src;
        dst.ethertype = self.ethertype;
        dst.payload.clear();
        dst.payload.extend_from_slice(&self.payload);
    }

    /// On-wire length in octets, including header and minimum-size padding
    /// (used for serialization-delay math).
    #[inline]
    pub fn wire_len(&self) -> usize {
        14 + self.payload.len().max(MIN_PAYLOAD)
    }

    /// Encodes header + payload, padding the payload to [`MIN_PAYLOAD`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends header + padded payload to any [`ByteSink`].
    pub fn encode_into(&self, out: &mut impl ByteSink) {
        out.put_slice(&self.dst.octets());
        out.put_slice(&self.src.octets());
        out.put_slice(&self.ethertype.code().to_be_bytes());
        out.put_slice(&self.payload);
        for _ in self.payload.len()..MIN_PAYLOAD {
            out.put(0);
        }
    }

    /// Decodes a frame. Padding is preserved in `payload`; length-aware
    /// upper layers (IPv4's total-length field) trim it.
    pub fn decode(bytes: &[u8]) -> Result<EtherFrame, WireError> {
        let (&dst, rest) = bytes.split_first_chunk::<6>().ok_or(WireError::Truncated)?;
        let (&src, rest) = rest.split_first_chunk::<6>().ok_or(WireError::Truncated)?;
        let (&ty, rest) = rest.split_first_chunk::<2>().ok_or(WireError::Truncated)?;
        let payload = rest.to_vec();
        if payload.len() > MTU {
            return Err(WireError::BadLength);
        }
        Ok(EtherFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_code(u16::from_be_bytes(ty)),
            payload,
        })
    }
}

/// Handle for a NIC attached to a [`Segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NicId(usize);

impl NicId {
    /// The NIC's attachment index on its segment (dense from 0).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Per-segment statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentStats {
    /// Frames accepted for transmission.
    pub sent: u64,
    /// Frame deliveries (one per receiving NIC).
    pub delivered: u64,
    /// Octets serialized onto the segment.
    pub bytes_on_wire: u64,
}

/// A shared Ethernet segment: FIFO serialization, broadcast delivery.
#[derive(Debug)]
pub struct Segment {
    rate: Bandwidth,
    /// Each attached NIC's MAC, indexed by [`NicId`].
    nics: Vec<MacAddr>,
    /// Frames queued behind the one on the wire.
    queue: VecDeque<(NicId, EtherFrame)>,
    /// The frame currently serializing and its completion time.
    in_flight: Option<(SimTime, NicId, EtherFrame)>,
    stats: SegmentStats,
}

/// Interframe gap at 10 Mb/s (9.6 µs).
const IFG: SimDuration = SimDuration::from_micros(10);

impl Segment {
    /// Creates an empty segment at `rate`.
    pub fn new(rate: Bandwidth) -> Segment {
        Segment {
            rate,
            nics: Vec::new(),
            queue: VecDeque::new(),
            in_flight: None,
            stats: SegmentStats::default(),
        }
    }

    /// Attaches a NIC with the given MAC.
    pub fn attach(&mut self, mac: MacAddr) -> NicId {
        self.nics.push(mac);
        NicId(self.nics.len() - 1)
    }

    /// Queues a frame for transmission from `from`.
    #[inline]
    pub fn send(&mut self, now: SimTime, from: NicId, frame: EtherFrame) {
        self.stats.sent += 1;
        if self.in_flight.is_none() {
            self.start(now, from, frame);
        } else {
            self.queue.push_back((from, frame));
        }
    }

    fn start(&mut self, now: SimTime, from: NicId, frame: EtherFrame) {
        let tx_time = self.rate.time_for_bytes(frame.wire_len()) + IFG;
        self.stats.bytes_on_wire += frame.wire_len() as u64;
        self.in_flight = Some((now + tx_time, from, frame));
    }

    /// Time the frame on the wire completes, if any.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.in_flight.as_ref().map(|(t, _, _)| *t)
    }

    /// Completes any transmission due by `now`; returns `(nic, frame)`
    /// deliveries for every NIC that should receive it.
    pub fn advance(&mut self, now: SimTime) -> Vec<(NicId, EtherFrame)> {
        let mut out = Vec::new();
        self.advance_owned(now, |nic, frame| out.push((nic, frame.into_owned())));
        out
    }

    /// Like [`Segment::advance`], but hands each delivery to `deliver` by
    /// reference instead of returning clones, so the caller controls the
    /// copy (e.g. into a recycled frame — the sharded engine's zero-alloc
    /// delivery path).
    pub fn advance_with(&mut self, now: SimTime, mut deliver: impl FnMut(NicId, &EtherFrame)) {
        self.advance_owned(now, |nic, frame| deliver(nic, &frame));
    }

    /// The one delivery loop: completes every transmission due by `now`
    /// and hands the frame to each NIC that should receive it, in
    /// attachment order — borrowed, except that the last recipient gets
    /// the frame itself. A unicast frame therefore reaches its one
    /// receiver by value and its payload need never be copied.
    pub fn advance_owned(
        &mut self,
        now: SimTime,
        mut deliver: impl FnMut(NicId, Cow<'_, EtherFrame>),
    ) {
        while let Some((done, from, frame)) = self.in_flight.take_if(|(done, _, _)| *done <= now) {
            let mut last = None;
            for (i, &mac) in self.nics.iter().enumerate() {
                if NicId(i) == from {
                    continue;
                }
                if frame.dst.is_broadcast() || frame.dst == mac {
                    self.stats.delivered += 1;
                    if let Some(prev) = last.replace(NicId(i)) {
                        deliver(prev, Cow::Borrowed(&frame));
                    }
                }
            }
            if let Some(nic) = last {
                deliver(nic, Cow::Owned(frame));
            }
            if let Some((next_from, next_frame)) = self.queue.pop_front() {
                self.start(done, next_from, next_frame);
            }
        }
    }

    /// Frames queued or on the wire.
    #[inline]
    pub fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }

    /// Segment statistics.
    pub fn stats(&self) -> SegmentStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_to(dst: MacAddr, src: MacAddr, len: usize) -> EtherFrame {
        EtherFrame::new(dst, src, EtherType::Ipv4, vec![0xAA; len])
    }

    fn drain(seg: &mut Segment) -> Vec<(NicId, EtherFrame)> {
        let mut out = Vec::new();
        while let Some(t) = seg.next_deadline() {
            out.extend(seg.advance(t));
        }
        out
    }

    #[test]
    fn frame_codec_roundtrip() {
        let f = frame_to(MacAddr::local(2), MacAddr::local(1), 100);
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.wire_len());
        let back = EtherFrame::decode(&bytes).unwrap();
        assert_eq!(back.dst, f.dst);
        assert_eq!(back.src, f.src);
        assert_eq!(back.ethertype, f.ethertype);
        assert_eq!(&back.payload[..100], &f.payload[..]);
    }

    #[test]
    fn short_payload_is_padded() {
        let f = frame_to(MacAddr::local(2), MacAddr::local(1), 10);
        assert_eq!(f.wire_len(), 60);
        let back = EtherFrame::decode(&f.encode()).unwrap();
        assert_eq!(back.payload.len(), MIN_PAYLOAD);
    }

    #[test]
    fn decode_rejects_short_and_oversize() {
        assert!(EtherFrame::decode(&[0u8; 10]).is_err());
        let mut big = frame_to(MacAddr::local(2), MacAddr::local(1), 0).encode();
        big.extend(vec![0u8; MTU + 1]);
        assert!(EtherFrame::decode(&big).is_err());
    }

    #[test]
    fn unicast_reaches_only_target() {
        let mut seg = Segment::new(Bandwidth::ETHERNET_10M);
        let a = seg.attach(MacAddr::local(1));
        let b = seg.attach(MacAddr::local(2));
        let _c = seg.attach(MacAddr::local(3));
        seg.send(
            SimTime::ZERO,
            a,
            frame_to(MacAddr::local(2), MacAddr::local(1), 64),
        );
        let got = drain(&mut seg);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, b);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut seg = Segment::new(Bandwidth::ETHERNET_10M);
        let a = seg.attach(MacAddr::local(1));
        let _b = seg.attach(MacAddr::local(2));
        let _c = seg.attach(MacAddr::local(3));
        seg.send(
            SimTime::ZERO,
            a,
            frame_to(MacAddr::BROADCAST, MacAddr::local(1), 64),
        );
        let got = drain(&mut seg);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(nic, _)| *nic != a));
    }

    #[test]
    fn serialization_delay_matches_rate() {
        let mut seg = Segment::new(Bandwidth::ETHERNET_10M);
        let a = seg.attach(MacAddr::local(1));
        let _b = seg.attach(MacAddr::local(2));
        // 1500B payload -> 1514B wire -> 1.2112ms + 10us IFG.
        seg.send(
            SimTime::ZERO,
            a,
            frame_to(MacAddr::local(2), MacAddr::local(1), 1500),
        );
        let t = seg.next_deadline().unwrap();
        assert_eq!(
            t,
            SimTime::ZERO + Bandwidth::ETHERNET_10M.time_for_bytes(1514) + IFG
        );
    }

    #[test]
    fn fifo_ordering_under_contention() {
        let mut seg = Segment::new(Bandwidth::ETHERNET_10M);
        let a = seg.attach(MacAddr::local(1));
        let b = seg.attach(MacAddr::local(2));
        let _sink = seg.attach(MacAddr::local(3));
        let f1 = EtherFrame::new(
            MacAddr::local(3),
            MacAddr::local(1),
            EtherType::Ipv4,
            vec![1],
        );
        let f2 = EtherFrame::new(
            MacAddr::local(3),
            MacAddr::local(2),
            EtherType::Ipv4,
            vec![2],
        );
        seg.send(SimTime::ZERO, a, f1);
        seg.send(SimTime::ZERO, b, f2);
        assert_eq!(seg.backlog(), 2);
        let got = drain(&mut seg);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1.payload[0], 1);
        assert_eq!(got[1].1.payload[0], 2);
        assert_eq!(seg.backlog(), 0);
    }

    #[test]
    fn stats_account_traffic() {
        let mut seg = Segment::new(Bandwidth::ETHERNET_10M);
        let a = seg.attach(MacAddr::local(1));
        let _b = seg.attach(MacAddr::local(2));
        seg.send(
            SimTime::ZERO,
            a,
            frame_to(MacAddr::BROADCAST, MacAddr::local(1), 64),
        );
        drain(&mut seg);
        let s = seg.stats();
        assert_eq!(s.sent, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.bytes_on_wire, 78);
    }

    #[test]
    fn sender_does_not_hear_own_broadcast() {
        let mut seg = Segment::new(Bandwidth::ETHERNET_10M);
        let a = seg.attach(MacAddr::local(1));
        seg.send(
            SimTime::ZERO,
            a,
            frame_to(MacAddr::BROADCAST, MacAddr::local(1), 64),
        );
        assert!(drain(&mut seg).is_empty());
    }

    #[test]
    fn ethertype_codes() {
        assert_eq!(EtherType::Ipv4.code(), 0x0800);
        assert_eq!(EtherType::from_code(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from_code(0x1234), EtherType::Other(0x1234));
    }
}
