//! IPv4: packet codec, header checksum, fragmentation, reassembly.
//!
//! The gateway's two links have wildly different MTUs — 1500 octets on the
//! Ethernet, 256 on AX.25 — so forwarding from the fast side to the radio
//! side routinely fragments (experiment E9 measures the cost). The codec
//! is RFC 791 without options.

use std::collections::hash_map::{Entry, HashMap};
use std::net::Ipv4Addr;

use sim::pktbuf::ByteSink;
use sim::wire::internet_checksum;
use sim::{SimDuration, SimTime};

use crate::pool::DgramPool;
use crate::NetError;

/// IP protocol numbers used by this stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// 1 — ICMP.
    Icmp,
    /// 6 — TCP.
    Tcp,
    /// 17 — UDP.
    Udp,
    /// Anything else, carried opaquely.
    Other(u8),
}

impl Proto {
    /// Wire value.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            Proto::Icmp => 1,
            Proto::Tcp => 6,
            Proto::Udp => 17,
            Proto::Other(v) => v,
        }
    }

    /// Decodes a wire value.
    #[inline]
    pub fn from_code(v: u8) -> Proto {
        match v {
            1 => Proto::Icmp,
            6 => Proto::Tcp,
            17 => Proto::Udp,
            other => Proto::Other(other),
        }
    }
}

/// IP protocol 4 — IP-in-IP encapsulation (the AMPRnet tunnel mesh).
/// Decoded as [`Proto::Other`]`(IPIP)`; only stacks with decapsulation
/// enabled treat it specially.
pub const IPIP: u8 = 4;

/// IPv4 header length (no options).
pub const HEADER_LEN: usize = 20;

/// Default initial TTL.
pub const DEFAULT_TTL: u8 = 30;

/// An IPv4 packet (header without options, plus payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Type of service (carried, not interpreted).
    pub tos: u8,
    /// Identification, for reassembly.
    pub id: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-octet units.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: Proto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload octets.
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Creates an unfragmented packet with the default TTL.
    #[inline]
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: Proto, payload: Vec<u8>) -> Ipv4Packet {
        Ipv4Packet {
            tos: 0,
            id: 0,
            dont_fragment: false,
            more_fragments: false,
            frag_offset: 0,
            ttl: DEFAULT_TTL,
            proto,
            src,
            dst,
            payload,
        }
    }

    /// Total length on the wire.
    #[inline]
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// True if this is a fragment (not a whole datagram).
    #[inline]
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }

    /// Encodes header (with checksum) + payload into a fresh buffer, which
    /// nobody has to have left room for: this is the copying encoder. Only
    /// callers that keep the packet afterwards need it (ICMP error quotes,
    /// tests); an output site that owns the packet uses
    /// [`Ipv4Packet::into_wire`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends header (with checksum) + payload to any [`ByteSink`].
    pub fn encode_into(&self, out: &mut impl ByteSink) {
        out.put_slice(&self.header());
        out.put_slice(&self.payload);
    }

    /// Turns the packet into its wire bytes inside the payload's own
    /// allocation: the payload shifts up and the checksummed header is
    /// written in front of it. It never has to grow the buffer, because
    /// whoever made the payload left [`HEADER_LEN`] octets of spare
    /// capacity (DESIGN.md §6, born once): a transport encoder
    /// ([`crate::tcp::TcpSegment::encode`], UDP, ICMP, [`fragment`]) where
    /// a datagram is born, [`Ipv4Packet::decode_owned`] — the room the old
    /// header occupied — where one is forwarded, and the link driver's
    /// copy, which leaves room for a tunnel's outer header besides. A
    /// payload built any other way still works; it pays one reallocation
    /// here.
    pub fn into_wire(self) -> Vec<u8> {
        let hdr = self.header();
        let mut wire = self.payload;
        let n = wire.len();
        wire.reserve_exact(HEADER_LEN);
        wire.resize(n + HEADER_LEN, 0);
        wire.copy_within(..n, HEADER_LEN);
        wire[..HEADER_LEN].copy_from_slice(&hdr);
        wire
    }

    /// The one header writer: the 20 octets, checksum filled in.
    #[inline]
    fn header(&self) -> [u8; HEADER_LEN] {
        let mut hdr = [0u8; HEADER_LEN];
        hdr[0] = 0x45; // version 4, IHL 5
        hdr[1] = self.tos;
        hdr[2..4].copy_from_slice(&(self.total_len() as u16).to_be_bytes());
        hdr[4..6].copy_from_slice(&self.id.to_be_bytes());
        let flags = (u16::from(self.dont_fragment) << 14)
            | (u16::from(self.more_fragments) << 13)
            | (self.frag_offset & 0x1FFF);
        hdr[6..8].copy_from_slice(&flags.to_be_bytes());
        hdr[8] = self.ttl;
        hdr[9] = self.proto.code();
        hdr[12..16].copy_from_slice(&self.src.octets());
        hdr[16..20].copy_from_slice(&self.dst.octets());
        let sum = internet_checksum(&[&hdr]);
        hdr[10..12].copy_from_slice(&sum.to_be_bytes());
        hdr
    }

    /// Decodes and verifies a packet, copying the payload out of `bytes`.
    /// Trailing link-layer padding (e.g. from minimum-size Ethernet
    /// frames) is trimmed using the total-length field.
    pub fn decode(bytes: &[u8]) -> Result<Ipv4Packet, NetError> {
        let (mut packet, total_len) = Ipv4Packet::parse_header(bytes)?;
        packet.payload = bytes[HEADER_LEN..total_len].to_vec();
        Ok(packet)
    }

    /// [`Ipv4Packet::decode`] for a caller that owns the bytes: the same
    /// checks and the same result, but `bytes`' allocation becomes the
    /// payload (padding truncated, header shifted out) instead of being
    /// copied. The 20 octets the header occupied stay as spare capacity —
    /// the room [`Ipv4Packet::into_wire`] writes the next hop's header in.
    pub fn decode_owned(mut bytes: Vec<u8>) -> Result<Ipv4Packet, NetError> {
        let (mut packet, total_len) = Ipv4Packet::parse_header(&bytes)?;
        bytes.truncate(total_len);
        bytes.drain(..HEADER_LEN);
        packet.payload = bytes;
        Ok(packet)
    }

    /// The one header parser: validates the first 20 octets of `bytes`
    /// against its length and returns the packet (payload still empty)
    /// with the total-length field.
    fn parse_header(bytes: &[u8]) -> Result<(Ipv4Packet, usize), NetError> {
        const SHORT: NetError = NetError::Malformed("short header");
        let vihl = *bytes.first().ok_or(SHORT)?;
        if vihl >> 4 != 4 {
            return Err(NetError::Malformed("not IPv4"));
        }
        if usize::from(vihl & 0x0F) * 4 != HEADER_LEN {
            return Err(NetError::Malformed("options unsupported"));
        }
        let hdr: &[u8; HEADER_LEN] = bytes.first_chunk().ok_or(SHORT)?;
        let total_len = usize::from(u16::from_be_bytes([hdr[2], hdr[3]]));
        if total_len < HEADER_LEN || total_len > bytes.len() {
            return Err(NetError::Malformed("total length out of range"));
        }
        if internet_checksum(&[hdr]) != 0 {
            return Err(NetError::BadChecksum("ipv4 header"));
        }
        let flags = u16::from_be_bytes([hdr[6], hdr[7]]);
        let packet = Ipv4Packet {
            tos: hdr[1],
            id: u16::from_be_bytes([hdr[4], hdr[5]]),
            dont_fragment: flags & 0x4000 != 0,
            more_fragments: flags & 0x2000 != 0,
            frag_offset: flags & 0x1FFF,
            ttl: hdr[8],
            proto: Proto::from_code(hdr[9]),
            src: Ipv4Addr::new(hdr[12], hdr[13], hdr[14], hdr[15]),
            dst: Ipv4Addr::new(hdr[16], hdr[17], hdr[18], hdr[19]),
            payload: Vec::new(),
        };
        Ok((packet, total_len))
    }
}

/// Outcome of asking to fit a packet into an MTU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragResult {
    /// The packet already fits; send as-is.
    Fits(Ipv4Packet),
    /// The packet was split into these fragments.
    Fragmented(Vec<Ipv4Packet>),
    /// DF was set and the packet does not fit.
    WouldFragment,
}

/// Fragments `packet` to fit `mtu` (which must hold at least the header
/// plus 8 payload octets).
///
/// # Panics
///
/// Panics if `mtu < 28`.
pub fn fragment(packet: Ipv4Packet, mtu: usize) -> FragResult {
    assert!(mtu >= HEADER_LEN + 8, "mtu too small to fragment into");
    if packet.total_len() <= mtu {
        return FragResult::Fits(packet);
    }
    if packet.dont_fragment {
        return FragResult::WouldFragment;
    }
    // Payload bytes per fragment, in 8-octet units.
    let per = ((mtu - HEADER_LEN) / 8) * 8;
    let mut frags = Vec::new();
    let mut off = 0usize;
    while off < packet.payload.len() {
        let end = (off + per).min(packet.payload.len());
        let last_piece = end == packet.payload.len();
        // A fragment is a datagram born here: room for its header.
        let mut payload = Vec::with_capacity(end - off + HEADER_LEN);
        payload.extend_from_slice(&packet.payload[off..end]);
        let mut f = Ipv4Packet { payload, ..packet };
        f.frag_offset = packet.frag_offset + (off / 8) as u16;
        // The final piece keeps the original MF (we may be re-fragmenting
        // a middle fragment).
        f.more_fragments = if last_piece {
            packet.more_fragments
        } else {
            true
        };
        frags.push(f);
        off = end;
    }
    FragResult::Fragmented(frags)
}

/// Reassembly hole-filling buffer for one host.
#[derive(Debug, Default)]
pub struct Reassembler {
    pending: HashMap<(Ipv4Addr, Ipv4Addr, u16, u8), PendingDatagram>,
    /// Fragments refused, or their datagrams dropped, at the bounds.
    pub dropped: u64,
}

#[derive(Debug)]
struct PendingDatagram {
    /// (offset_bytes, payload) pieces, by offset, ties in arrival order.
    pieces: Vec<(usize, Vec<u8>)>,
    /// Payload octets held in `pieces`, overlaps counted twice.
    held: usize,
    /// Total payload length, known once the MF=0 fragment arrives.
    total: Option<usize>,
    /// Header of the first fragment seen, without its payload.
    template: Ipv4Packet,
    deadline: SimTime,
}

/// How long an incomplete datagram is retained.
pub const REASSEMBLY_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Most octets held for one datagram: the largest IPv4 payload, so
/// fragments that do not overlap always fit.
pub const REASSEMBLY_MAX_OCTETS: usize = u16::MAX as usize - HEADER_LEN;
/// Most incomplete datagrams held at once.
pub const REASSEMBLY_MAX_DATAGRAMS: usize = 64;

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Offers a packet; returns the complete datagram when its last hole
    /// fills. Whole packets pass straight through. A fragment of a new
    /// datagram past [`REASSEMBLY_MAX_DATAGRAMS`] is refused, and one that
    /// takes its datagram past [`REASSEMBLY_MAX_OCTETS`] drops it; both
    /// count in `dropped`. Every fragment buffer not kept — a duplicate's,
    /// a refused one's, the pieces of a dropped or completed datagram —
    /// goes back to `pool`.
    ///
    /// A fragment costs a binary search among its datagram's pieces; the
    /// walk that looks for holes runs only once the pieces hold at least
    /// the datagram's length.
    pub fn push(
        &mut self,
        now: SimTime,
        mut packet: Ipv4Packet,
        pool: &mut DgramPool,
    ) -> Option<Ipv4Packet> {
        if !packet.is_fragment() {
            return Some(packet);
        }
        let key = (packet.src, packet.dst, packet.id, packet.proto.code());
        let off = usize::from(packet.frag_offset) * 8;
        let last = !packet.more_fragments;
        let payload = std::mem::take(&mut packet.payload);
        let full = self.pending.len() >= REASSEMBLY_MAX_DATAGRAMS;
        let mut slot = match self.pending.entry(key) {
            Entry::Occupied(slot) => slot,
            Entry::Vacant(_) if full => {
                self.dropped += 1;
                pool.give(payload);
                return None;
            }
            Entry::Vacant(slot) => slot.insert_entry(PendingDatagram {
                pieces: Vec::new(),
                held: 0,
                total: None,
                template: packet,
                deadline: now + REASSEMBLY_TIMEOUT,
            }),
        };
        let entry = slot.get_mut();
        if last {
            entry.total = Some(off + payload.len());
        }
        // The pieces already at this offset, in arrival order: an exact
        // duplicate is one of them, and a new piece goes behind them.
        let from = entry.pieces.partition_point(|(o, _)| *o < off);
        let same = entry.pieces[from..].partition_point(|(o, _)| *o == off);
        let run = &entry.pieces[from..from + same];
        if run.iter().any(|(_, p)| p.len() == payload.len()) {
            pool.give(payload);
        } else {
            if entry.held + payload.len() > REASSEMBLY_MAX_OCTETS {
                for (_, p) in slot.remove().pieces {
                    pool.give(p);
                }
                pool.give(payload);
                self.dropped += 1;
                return None;
            }
            entry.held += payload.len();
            entry.pieces.insert(from + same, (off, payload));
        }
        let total = entry.total?;
        if entry.held < total {
            // Fewer octets than the datagram has: a hole for certain.
            return None;
        }
        // Check contiguity.
        let mut have = 0usize;
        for (o, p) in &entry.pieces {
            if *o > have || o + p.len() > total {
                // A hole, or a piece past the end (malformed: wait for
                // the timeout).
                return None;
            }
            have = have.max(o + p.len());
        }
        if have < total {
            return None;
        }
        let entry = slot.remove();
        let mut buf = vec![0u8; total];
        for (o, p) in entry.pieces {
            buf[o..o + p.len()].copy_from_slice(&p);
            pool.give(p);
        }
        let mut whole = entry.template;
        whole.payload = buf;
        whole.frag_offset = 0;
        whole.more_fragments = false;
        Some(whole)
    }

    /// Discards datagrams whose reassembly timer expired, giving their
    /// pieces' buffers back to `pool`; returns how many were dropped.
    pub fn expire(&mut self, now: SimTime, pool: &mut DgramPool) -> usize {
        let before = self.pending.len();
        self.pending.retain(|_, d| {
            if d.deadline > now {
                return true;
            }
            for (_, p) in d.pieces.drain(..) {
                pool.give(p);
            }
            false
        });
        before - self.pending.len()
    }

    /// Earliest reassembly deadline, if any datagram is pending.
    #[inline]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.values().map(|d| d.deadline).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn sample(len: usize) -> Ipv4Packet {
        let mut p = Ipv4Packet::new(
            ip(44, 24, 0, 28),
            ip(128, 95, 1, 4),
            Proto::Udp,
            (0..len).map(|i| (i % 251) as u8).collect(),
        );
        p.id = 0x1234;
        p
    }

    /// Encodes `p` in place and checks nothing moved: the buffer that
    /// went in is the buffer that comes out.
    fn into_wire_in_place(p: Ipv4Packet) -> Vec<u8> {
        let (ptr, want) = (p.payload.as_ptr(), p.encode());
        let wire = p.into_wire();
        assert_eq!(wire, want);
        assert_eq!(wire.as_ptr(), ptr, "the header's room was there at birth");
        wire
    }

    #[test]
    fn every_encoder_bears_its_payload_with_room_for_the_header() {
        use crate::icmp::{GateAuth, IcmpMessage, UnreachCode};
        use crate::tcp::{TcpHeader, TcpSegment};
        use crate::udp::UdpDatagram;
        let (src, dst) = (ip(44, 24, 0, 28), ip(128, 95, 1, 4));
        let mut born: Vec<(Proto, Vec<u8>)> = Vec::new();
        for (mss, len) in [
            (None, 0),
            (Some(216), 0),
            (None, 1),
            (None, 216),
            (None, 536),
        ] {
            let seg = TcpSegment {
                header: TcpHeader {
                    src_port: 1024,
                    dst_port: 23,
                    seq: 7,
                    ack: 9,
                    window: 4096,
                    mss,
                    ..TcpHeader::default()
                },
                payload: &[0x42; 536][..len],
            };
            born.push((Proto::Tcp, seg.encode(src, dst)));
        }
        for len in [0, 1, 512] {
            let dg = UdpDatagram {
                src_port: 4000,
                dst_port: 9,
                payload: vec![0x33; len],
            };
            born.push((Proto::Udp, dg.encode(src, dst)));
        }
        let auth = Some(GateAuth {
            callsign: "N7AKR".into(),
            password: "x".repeat(255),
        });
        for msg in [
            IcmpMessage::EchoRequest {
                id: 1,
                seq: 2,
                payload: vec![0xA5; 64],
            },
            IcmpMessage::EchoReply {
                id: 1,
                seq: 2,
                payload: Vec::new(),
            },
            IcmpMessage::DestUnreachable {
                code: UnreachCode::Port,
                original: vec![0x45; 28],
            },
            IcmpMessage::TimeExceeded {
                original: vec![0x45; 28],
            },
            IcmpMessage::GateOpen {
                amateur: src,
                foreign: dst,
                ttl_secs: 600,
                auth: auth.clone(),
            },
            IcmpMessage::GateClose {
                amateur: src,
                foreign: dst,
                auth,
            },
            IcmpMessage::GateClose {
                amateur: src,
                foreign: dst,
                auth: None,
            },
        ] {
            born.push((Proto::Icmp, msg.encode()));
        }
        for (proto, payload) in born {
            assert!(
                payload.capacity() - payload.len() >= HEADER_LEN,
                "{proto:?}, {} octets: {} spare",
                payload.len(),
                payload.capacity() - payload.len()
            );
            into_wire_in_place(Ipv4Packet::new(src, dst, proto, payload));
        }
        // A fragment is born here too, and a forwarded datagram keeps the
        // room its old header occupied.
        let FragResult::Fragmented(frags) = fragment(sample(1000), 256) else {
            panic!("must fragment");
        };
        for f in frags {
            into_wire_in_place(f);
        }
        let hop = Ipv4Packet::decode_owned(sample(100).encode()).unwrap();
        into_wire_in_place(hop);
    }

    #[test]
    fn codec_roundtrip() {
        let p = sample(100);
        let bytes = p.encode();
        assert_eq!(bytes.len(), 120);
        assert_eq!(Ipv4Packet::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn decode_trims_link_padding() {
        let p = sample(10);
        let mut bytes = p.encode();
        bytes.extend_from_slice(&[0u8; 20]); // Ethernet min-frame padding
        let back = Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(back.payload.len(), 10);
        assert_eq!(back, p);
    }

    #[test]
    fn decode_rejects_corruption() {
        let p = sample(40);
        let good = p.encode();
        // Header corruption -> checksum failure.
        let mut bad = good.clone();
        bad[8] ^= 0xFF; // ttl
        assert!(matches!(
            Ipv4Packet::decode(&bad),
            Err(NetError::BadChecksum(_))
        ));
        // Truncation below total_len.
        assert!(Ipv4Packet::decode(&good[..30]).is_err());
        // Not v4.
        let mut not4 = good.clone();
        not4[0] = 0x65;
        assert!(Ipv4Packet::decode(&not4).is_err());
    }

    #[test]
    fn fits_passes_through() {
        let p = sample(100);
        assert!(matches!(fragment(p, 256), FragResult::Fits(_)));
    }

    #[test]
    fn fragmentation_splits_on_8_byte_boundaries() {
        let p = sample(1000);
        let FragResult::Fragmented(frags) = fragment(p.clone(), 256) else {
            panic!("expected fragmentation");
        };
        // 236 bytes of payload per fragment (from 256-20 rounded down to 232).
        let per = ((256 - HEADER_LEN) / 8) * 8;
        assert_eq!(per, 232);
        assert_eq!(frags.len(), 1000usize.div_ceil(per));
        for (i, f) in frags.iter().enumerate() {
            assert!(f.total_len() <= 256);
            assert_eq!(usize::from(f.frag_offset) * 8, i * per);
            assert_eq!(f.more_fragments, i != frags.len() - 1);
            assert_eq!(f.id, p.id);
        }
        let rebuilt: Vec<u8> = frags.iter().flat_map(|f| f.payload.clone()).collect();
        assert_eq!(rebuilt, p.payload);
    }

    #[test]
    fn df_refuses_to_fragment() {
        let mut p = sample(1000);
        p.dont_fragment = true;
        assert_eq!(fragment(p, 256), FragResult::WouldFragment);
    }

    #[test]
    fn reassembly_in_order() {
        let p = sample(1000);
        let FragResult::Fragmented(frags) = fragment(p.clone(), 256) else {
            panic!()
        };
        let mut r = Reassembler::new();
        let mut pool = DgramPool::new();
        let mut done = None;
        for f in frags {
            done = r.push(SimTime::ZERO, f, &mut pool);
        }
        let whole = done.expect("complete after last fragment");
        assert_eq!(whole.payload, p.payload);
        assert!(!whole.is_fragment());
        assert_eq!(r.pending.len(), 0);
    }

    #[test]
    fn reassembly_out_of_order_and_duplicates() {
        let p = sample(700);
        let FragResult::Fragmented(mut frags) = fragment(p.clone(), 256) else {
            panic!()
        };
        frags.reverse();
        let dup = frags[1].clone();
        frags.insert(2, dup);
        let mut r = Reassembler::new();
        let mut pool = DgramPool::new();
        let mut done = None;
        for f in frags {
            if let Some(w) = r.push(SimTime::ZERO, f, &mut pool) {
                done = Some(w);
            }
        }
        assert_eq!(done.expect("reassembled").payload, p.payload);
    }

    #[test]
    fn interleaved_datagrams_reassemble_independently() {
        let mut p1 = sample(500);
        p1.id = 1;
        let mut p2 = sample(500);
        p2.id = 2;
        let FragResult::Fragmented(f1) = fragment(p1.clone(), 256) else {
            panic!()
        };
        let FragResult::Fragmented(f2) = fragment(p2.clone(), 256) else {
            panic!()
        };
        let mut r = Reassembler::new();
        let mut pool = DgramPool::new();
        let mut got = Vec::new();
        for (a, b) in f1.into_iter().zip(f2) {
            if let Some(w) = r.push(SimTime::ZERO, a, &mut pool) {
                got.push(w);
            }
            if let Some(w) = r.push(SimTime::ZERO, b, &mut pool) {
                got.push(w);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].id, 1);
        assert_eq!(got[1].id, 2);
    }

    #[test]
    fn missing_fragment_never_completes_and_expires() {
        let p = sample(700);
        let FragResult::Fragmented(frags) = fragment(p, 256) else {
            panic!()
        };
        let mut r = Reassembler::new();
        let mut pool = DgramPool::new();
        for f in frags.into_iter().skip(1) {
            assert!(r.push(SimTime::ZERO, f, &mut pool).is_none());
        }
        assert_eq!(r.pending.len(), 1);
        assert_eq!(r.next_deadline(), Some(SimTime::ZERO + REASSEMBLY_TIMEOUT));
        assert_eq!(
            r.expire(
                SimTime::ZERO + REASSEMBLY_TIMEOUT + SimDuration::from_nanos(1),
                &mut pool
            ),
            1
        );
        assert_eq!(r.pending.len(), 0);
    }

    #[test]
    fn a_datagram_that_never_completes_holds_at_most_the_octet_bound() {
        // 10,000 distinct fragments, none at offset 0: 120,000 octets
        // offered for one datagram that can never complete.
        let mut r = Reassembler::new();
        let mut pool = DgramPool::new();
        for i in 0..10_000u16 {
            let mut f = sample(8 * usize::from(1 + i / 5000));
            f.frag_offset = 1 + i % 5000;
            f.more_fragments = true;
            assert!(r.push(SimTime::ZERO, f, &mut pool).is_none());
        }
        assert_eq!(r.pending.len(), 1);
        let d = r.pending.values().next().unwrap();
        let held: usize = d.pieces.iter().map(|(_, p)| p.len()).sum();
        assert!(held <= REASSEMBLY_MAX_OCTETS, "{held}");
        assert_eq!(d.held, held);
        assert_eq!(r.dropped, 1);
    }

    #[test]
    fn a_datagram_whose_last_fragment_comes_first_completes_on_its_last_hole() {
        // The MF=0 fragment fixes the length up front; 7,999 eight-octet
        // fragments follow, a duplicate of each of the first hundred
        // among them, and only the one that fills the last hole completes
        // the datagram.
        const PIECES: u16 = 8_000;
        let whole = sample(8 * usize::from(PIECES));
        let piece = |k: u16| {
            let at = 8 * usize::from(k);
            let mut f = sample(0);
            f.payload.extend_from_slice(&whole.payload[at..at + 8]);
            f.frag_offset = k;
            f.more_fragments = k + 1 < PIECES;
            f
        };
        let mut r = Reassembler::new();
        let mut pool = DgramPool::new();
        assert!(r
            .push(SimTime::ZERO, piece(PIECES - 1), &mut pool)
            .is_none());
        for k in (1..PIECES - 1).rev() {
            assert!(r.push(SimTime::ZERO, piece(k), &mut pool).is_none(), "{k}");
            if k >= PIECES - 101 {
                assert!(r.push(SimTime::ZERO, piece(k), &mut pool).is_none());
            }
        }
        assert_eq!(r.pending.values().next().unwrap().pieces.len(), 7_999);
        // The duplicates' buffers went back to the pool; empty it, so
        // what it holds next is what completion gives back.
        let _ = (pool.take(0), pool.take(0));
        assert_eq!(pool.take(0).capacity(), 0);
        let done = r
            .push(SimTime::ZERO, piece(0), &mut pool)
            .expect("complete");
        assert_eq!(done.payload, whole.payload);
        assert!(!done.is_fragment());
        assert_eq!((r.pending.len(), r.dropped), (0, 0));
        assert_eq!(pool.take(0).capacity(), 8);
    }

    #[test]
    fn refragmenting_a_fragment_preserves_offsets() {
        let p = sample(1000);
        let FragResult::Fragmented(first) = fragment(p.clone(), 520) else {
            panic!()
        };
        // Re-fragment each piece to a smaller MTU (a second slow link).
        let mut all = Vec::new();
        for f in first {
            match fragment(f, 256) {
                FragResult::Fits(x) => all.push(x),
                FragResult::Fragmented(xs) => all.extend(xs),
                FragResult::WouldFragment => panic!(),
            }
        }
        let mut r = Reassembler::new();
        let mut pool = DgramPool::new();
        let mut done = None;
        for f in all {
            if let Some(w) = r.push(SimTime::ZERO, f, &mut pool) {
                done = Some(w);
            }
        }
        assert_eq!(done.expect("reassembled").payload, p.payload);
    }

    #[test]
    fn proto_codes() {
        assert_eq!(Proto::from_code(6), Proto::Tcp);
        assert_eq!(Proto::from_code(1), Proto::Icmp);
        assert_eq!(Proto::from_code(17), Proto::Udp);
        assert_eq!(Proto::from_code(89), Proto::Other(89));
        assert_eq!(Proto::Other(89).code(), 89);
    }
}
