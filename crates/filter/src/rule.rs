//! The per-packet facts the gate judges, read once at the hook point.
//!
//! [`PacketMeta`] is what the radio driver's `rint` and `output` hooks
//! hand [`crate::FilterEngine::eval`]: the addresses the §4.3 gate keys
//! its `(amateur, foreign)` pairs on, extracted from wire bytes or a
//! decoded packet. The gate reads only `src` and `dst`; `proto`,
//! `dport` and `has_port` are still filled in because the benchmark
//! harness builds a `PacketMeta` by struct literal (ROADMAP 2(a)).

use netstack::ip::Ipv4Packet;

/// The per-packet facts the filter judges, extracted once at the hook
/// point so wire bytes and decoded packets feed the same hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Source address, host byte order.
    pub src: u32,
    /// Destination address, host byte order.
    pub dst: u32,
    /// IP protocol number.
    pub proto: u8,
    /// Destination port, valid only when `has_port`.
    pub dport: u16,
    /// True when the packet is a TCP/UDP first fragment whose transport
    /// header (and thus destination port) is visible.
    pub has_port: bool,
}

impl PacketMeta {
    /// Extracts the fields straight from wire bytes — the `rint` hook,
    /// where the datagram has not been decoded (or even copied) yet.
    /// Returns `None` for anything too short or non-IPv4; the caller
    /// passes those on unjudged, to the stack's own input validation.
    #[inline]
    pub fn parse(bytes: &[u8]) -> Option<PacketMeta> {
        if bytes.len() < 20 || bytes[0] >> 4 != 4 {
            return None;
        }
        let ihl = usize::from(bytes[0] & 0x0F) * 4;
        let proto = bytes[9];
        let src = u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        let dst = u32::from_be_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
        let frag_offset = u16::from_be_bytes([bytes[6], bytes[7]]) & 0x1FFF;
        let mut meta = PacketMeta {
            src,
            dst,
            proto,
            dport: 0,
            has_port: false,
        };
        if (proto == 6 || proto == 17) && frag_offset == 0 && bytes.len() >= ihl + 4 {
            meta.dport = u16::from_be_bytes([bytes[ihl + 2], bytes[ihl + 3]]);
            meta.has_port = true;
        }
        Some(meta)
    }

    /// Extracts the match fields from a decoded packet — the `output`
    /// hook, where the stack already holds an [`Ipv4Packet`].
    #[inline]
    pub fn of(p: &Ipv4Packet) -> PacketMeta {
        let proto = p.proto.code();
        let mut meta = PacketMeta {
            src: u32::from(p.src),
            dst: u32::from(p.dst),
            proto,
            dport: 0,
            has_port: false,
        };
        if (proto == 6 || proto == 17) && p.frag_offset == 0 && p.payload.len() >= 4 {
            meta.dport = u16::from_be_bytes([p.payload[2], p.payload[3]]);
            meta.has_port = true;
        }
        meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::ip::Proto;
    use std::net::Ipv4Addr;

    #[test]
    fn wire_parse_matches_decoded_packet() {
        let mut payload = vec![0u8; 8];
        payload[0..2].copy_from_slice(&1024u16.to_be_bytes());
        payload[2..4].copy_from_slice(&23u16.to_be_bytes());
        let p = Ipv4Packet::new(
            Ipv4Addr::new(44, 24, 0, 5),
            Ipv4Addr::new(128, 95, 1, 4),
            Proto::Tcp,
            payload,
        );
        let from_wire = PacketMeta::parse(&p.encode()).unwrap();
        let from_packet = PacketMeta::of(&p);
        assert_eq!(from_wire, from_packet);
        assert_eq!(from_wire.dport, 23);
        assert!(from_wire.has_port);
    }

    #[test]
    fn non_first_fragments_hide_their_ports() {
        let mut p = Ipv4Packet::new(
            Ipv4Addr::new(44, 24, 0, 5),
            Ipv4Addr::new(128, 95, 1, 4),
            Proto::Udp,
            vec![0xAB; 16],
        );
        p.frag_offset = 3;
        let meta = PacketMeta::of(&p);
        assert!(!meta.has_port);
        let wire = PacketMeta::parse(&p.encode()).unwrap();
        assert!(!wire.has_port);
    }

    #[test]
    fn icmp_has_no_port() {
        let p = Ipv4Packet::new(
            Ipv4Addr::new(44, 24, 0, 5),
            Ipv4Addr::new(128, 95, 1, 4),
            Proto::Icmp,
            vec![8, 0, 0, 0],
        );
        assert!(!PacketMeta::of(&p).has_port);
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(PacketMeta::parse(&[0x60; 24]), None, "IPv6 version nibble");
        assert_eq!(PacketMeta::parse(&[0x45; 10]), None, "truncated header");
    }
}
