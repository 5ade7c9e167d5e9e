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
        let [vihl, _, _, _, _, _, f0, f1, _, proto, _, _, s0, s1, s2, s3, d0, d1, d2, d3] =
            *bytes.first_chunk::<20>()?;
        if vihl >> 4 != 4 {
            return None;
        }
        // An IHL under 5 is not refused here: the port is then read from
        // inside the header, and the stack's own validation drops it.
        let ihl = usize::from(vihl & 0x0F) * 4;
        let frag_offset = u16::from_be_bytes([f0, f1]) & 0x1FFF;
        let port = match bytes.get(ihl + 2..ihl + 4) {
            Some(&[p0, p1]) if frag_offset == 0 => Some(u16::from_be_bytes([p0, p1])),
            _ => None,
        };
        Some(PacketMeta::with_port(
            u32::from_be_bytes([s0, s1, s2, s3]),
            u32::from_be_bytes([d0, d1, d2, d3]),
            proto,
            port,
        ))
    }

    /// Extracts the match fields from a decoded packet — the `output`
    /// hook, where the stack already holds an [`Ipv4Packet`].
    #[inline]
    pub fn of(p: &Ipv4Packet) -> PacketMeta {
        let port = match p.payload.get(2..4) {
            Some(&[p0, p1]) if p.frag_offset == 0 => Some(u16::from_be_bytes([p0, p1])),
            _ => None,
        };
        PacketMeta::with_port(u32::from(p.src), u32::from(p.dst), p.proto.code(), port)
    }

    /// The meta of a packet whose transport header, if any, would put
    /// `port` in the destination-port field: only TCP and UDP have one.
    fn with_port(src: u32, dst: u32, proto: u8, port: Option<u16>) -> PacketMeta {
        let port = port.filter(|_| proto == 6 || proto == 17);
        PacketMeta {
            src,
            dst,
            proto,
            dport: port.unwrap_or(0),
            has_port: port.is_some(),
        }
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
