//! RFC 826 ARP packets, hardware-type agnostic.
//!
//! §2.3 of the paper: Internet addresses are translated to AX.25
//! addresses *"using the address resolution protocol (ARP) in a manner
//! similar to the way that IP addresses are translated into Ethernet
//! addresses"*, but — because AX.25 addresses can carry digipeater paths —
//! *"a different set of ARP routines is needed for packet radio"*, living
//! inside each driver. This module therefore only defines the wire format
//! with variable-length hardware addresses; the per-link resolver engines
//! are in the `gateway` crate next to the drivers, exactly as in the
//! paper ("the ARP lookup occurs inside our code").

use std::net::Ipv4Addr;

use sim::pktbuf::ByteSink;
use sim::wire::Reader;

use crate::NetError;

/// ARP hardware types used here.
pub mod hw_type {
    /// Ethernet (10 Mb).
    pub const ETHERNET: u16 = 1;
    /// AX.25 — the assignment used by the KA9Q code.
    pub const AX25: u16 = 3;
}

/// ARP operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has.
    Request,
    /// Is-at.
    Reply,
}

impl ArpOp {
    fn code(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        }
    }

    fn from_code(v: u16) -> Option<ArpOp> {
        match v {
            1 => Some(ArpOp::Request),
            2 => Some(ArpOp::Reply),
            _ => None,
        }
    }
}

/// An ARP packet with opaque, variable-length hardware addresses (the
/// driver that owns the link interprets them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArpPacket {
    /// Hardware type ([`hw_type`]).
    pub hw: u16,
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_hw: Vec<u8>,
    /// Sender protocol (IP) address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (all-zero in requests).
    pub target_hw: Vec<u8>,
    /// Target protocol (IP) address.
    pub target_ip: Ipv4Addr,
}

/// Protocol type for IPv4 in ARP.
const PROTO_IPV4: u16 = 0x0800;

impl ArpPacket {
    /// Creates a who-has request.
    pub fn request(
        hw: u16,
        sender_hw: Vec<u8>,
        sender_ip: Ipv4Addr,
        target_ip: Ipv4Addr,
    ) -> ArpPacket {
        let hlen = sender_hw.len();
        ArpPacket {
            hw,
            op: ArpOp::Request,
            sender_hw,
            sender_ip,
            target_hw: vec![0; hlen],
            target_ip,
        }
    }

    /// Creates the matching is-at reply.
    pub fn reply_to(&self, my_hw: Vec<u8>) -> ArpPacket {
        ArpPacket {
            hw: self.hw,
            op: ArpOp::Reply,
            sender_hw: my_hw,
            sender_ip: self.target_ip,
            target_hw: self.sender_hw.clone(),
            target_ip: self.sender_ip,
        }
    }

    /// Encodes the packet.
    ///
    /// # Panics
    ///
    /// Panics if the two hardware addresses differ in length or exceed
    /// 255 octets.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 2 * (self.sender_hw.len() + 4));
        self.encode_into(&mut out);
        out
    }

    /// Appends the wire encoding to any [`ByteSink`].
    ///
    /// # Panics
    ///
    /// Panics if the two hardware addresses differ in length or exceed
    /// 255 octets.
    pub fn encode_into(&self, out: &mut impl ByteSink) {
        assert_eq!(
            self.sender_hw.len(),
            self.target_hw.len(),
            "hardware address lengths must match"
        );
        assert!(self.sender_hw.len() <= 255);
        out.put_slice(&self.hw.to_be_bytes());
        out.put_slice(&PROTO_IPV4.to_be_bytes());
        out.put(self.sender_hw.len() as u8);
        out.put(4);
        out.put_slice(&self.op.code().to_be_bytes());
        out.put_slice(&self.sender_hw);
        out.put_slice(&self.sender_ip.octets());
        out.put_slice(&self.target_hw);
        out.put_slice(&self.target_ip.octets());
    }

    /// Decodes a packet.
    pub fn decode(bytes: &[u8]) -> Result<ArpPacket, NetError> {
        let mut r = Reader::new(bytes);
        let hw = r.u16().map_err(|_| NetError::Malformed("arp header"))?;
        let proto = r.u16().map_err(|_| NetError::Malformed("arp header"))?;
        if proto != PROTO_IPV4 {
            return Err(NetError::Malformed("arp protocol not IPv4"));
        }
        let hlen = r.u8().map_err(|_| NetError::Malformed("arp header"))? as usize;
        let plen = r.u8().map_err(|_| NetError::Malformed("arp header"))?;
        if plen != 4 {
            return Err(NetError::Malformed("arp plen not 4"));
        }
        let op = ArpOp::from_code(r.u16().map_err(|_| NetError::Malformed("arp header"))?)
            .ok_or(NetError::Malformed("arp op"))?;
        let sender_hw = r
            .take(hlen)
            .map_err(|_| NetError::Malformed("arp sender hw"))?
            .to_vec();
        let sender_ip = read_ip(&mut r)?;
        let target_hw = r
            .take(hlen)
            .map_err(|_| NetError::Malformed("arp target hw"))?
            .to_vec();
        let target_ip = read_ip(&mut r)?;
        Ok(ArpPacket {
            hw,
            op,
            sender_hw,
            sender_ip,
            target_hw,
            target_ip,
        })
    }
}

fn read_ip(r: &mut Reader<'_>) -> Result<Ipv4Addr, NetError> {
    let raw = r.take(4).map_err(|_| NetError::Malformed("arp ip"))?;
    Ok(Ipv4Addr::from(<[u8; 4]>::try_from(raw).expect("len 4")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_style_roundtrip() {
        let req = ArpPacket::request(
            hw_type::ETHERNET,
            vec![2, 0, 0, 0, 0, 1],
            Ipv4Addr::new(128, 95, 1, 4),
            Ipv4Addr::new(128, 95, 1, 99),
        );
        let back = ArpPacket::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.target_hw, vec![0; 6]);
    }

    #[test]
    fn ax25_style_roundtrip_with_long_hw_addr() {
        // An AX.25 "hardware address" here is the encoded callsign+SSID,
        // 7 octets.
        let req = ArpPacket::request(
            hw_type::AX25,
            b"N7AKR-1".to_vec(),
            Ipv4Addr::new(44, 24, 0, 28),
            Ipv4Addr::new(44, 24, 0, 5),
        );
        let back = ArpPacket::decode(&req.encode()).unwrap();
        assert_eq!(back.hw, hw_type::AX25);
        assert_eq!(back.sender_hw, b"N7AKR-1".to_vec());
    }

    #[test]
    fn reply_swaps_roles() {
        let req = ArpPacket::request(
            hw_type::ETHERNET,
            vec![1; 6],
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let rep = req.reply_to(vec![9; 6]);
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(rep.sender_hw, vec![9; 6]);
        assert_eq!(rep.target_ip, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(rep.target_hw, vec![1; 6]);
        let back = ArpPacket::decode(&rep.encode()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(ArpPacket::decode(&[]).is_err());
        assert!(ArpPacket::decode(&[0u8; 8]).is_err());
        let mut ok = ArpPacket::request(
            hw_type::ETHERNET,
            vec![1; 6],
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        )
        .encode();
        ok[3] = 99; // protocol type
        assert!(ArpPacket::decode(&ok).is_err());
    }

    #[test]
    #[should_panic]
    fn mismatched_hw_lengths_panic_on_encode() {
        let p = ArpPacket {
            hw: hw_type::ETHERNET,
            op: ArpOp::Reply,
            sender_hw: vec![1; 6],
            sender_ip: Ipv4Addr::UNSPECIFIED,
            target_hw: vec![1; 7],
            target_ip: Ipv4Addr::UNSPECIFIED,
        };
        let _ = p.encode();
    }
}
