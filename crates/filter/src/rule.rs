//! The rule model: what the gateway operator writes, before compilation.
//!
//! A [`Rule`] is the human-shaped policy line — prefixes, an optional
//! protocol, an optional destination-port range, and an [`Action`]. The
//! engine never evaluates rules in this form: [`crate::FilterEngine`]
//! compiles them into flattened match arrays (DESIGN.md §13) and the
//! naive interpreter in [`crate::NaiveInterpreter`] keeps this form as
//! the executable reference spec.
//!
//! Match discipline: **most specific wins**, exactly the longest-prefix
//! discipline of `netstack::route::RouteTable` — the rule with the
//! longest combined `src.len + dst.len` that matches the packet is
//! applied, ties broken by insertion order (earlier wins). There is no
//! separate priority field; specificity *is* the priority, so a /32
//! block of one abusive host always beats a /8 allow of the whole
//! network no matter where it sits in the list.

use std::net::Ipv4Addr;

use netstack::ip::Ipv4Packet;
use netstack::route::Prefix;

/// What to do with a matching packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Action {
    /// Forward it.
    #[default]
    Allow,
    /// Drop it.
    Deny,
}

/// One policy line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Source prefix ([`Prefix::default_route`] matches anything).
    pub src: Prefix,
    /// Destination prefix.
    pub dst: Prefix,
    /// IP protocol, or `None` for any.
    pub proto: Option<u8>,
    /// Inclusive destination-port range (TCP/UDP first fragments only);
    /// `None` matches packets with or without ports.
    pub dports: Option<(u16, u16)>,
    /// The verdict when this rule is the most specific match.
    pub action: Action,
}

impl Rule {
    /// A match-anything rule with the given action.
    pub fn any(action: Action) -> Rule {
        Rule {
            src: Prefix::default_route(),
            dst: Prefix::default_route(),
            proto: None,
            dports: None,
            action,
        }
    }

    /// Narrows the source prefix.
    pub fn from(mut self, src: Prefix) -> Rule {
        self.src = src;
        self
    }

    /// Narrows the destination prefix.
    pub fn to(mut self, dst: Prefix) -> Rule {
        self.dst = dst;
        self
    }

    /// Narrows to one IP protocol.
    pub fn proto(mut self, proto: u8) -> Rule {
        self.proto = Some(proto);
        self
    }

    /// Narrows to an inclusive destination-port range.
    pub fn dports(mut self, lo: u16, hi: u16) -> Rule {
        self.dports = Some((lo, hi));
        self
    }

    /// Combined prefix specificity — the match-priority key shared with
    /// the route table's longest-prefix discipline.
    pub fn specificity(&self) -> u16 {
        u16::from(self.src.len) + u16::from(self.dst.len)
    }
}

/// The per-packet facts the filter matches on, extracted once at the
/// hook point so both the driver (wire bytes) and the stack (decoded
/// packets) feed the same hot path.
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
    /// Extracts the match fields straight from wire bytes — the
    /// `rint` hook, where the datagram has not been decoded (or even
    /// copied) yet. Returns `None` for anything too short or non-IPv4;
    /// the caller drops those as bad frames exactly as before.
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

    /// Extracts the match fields from a decoded packet — the forward
    /// and encapsulate hooks, where the stack already holds an
    /// [`Ipv4Packet`].
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

    /// The source as an address (for traces).
    #[inline]
    pub fn src_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.src)
    }

    /// The destination as an address (for traces).
    #[inline]
    pub fn dst_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::ip::Proto;

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
