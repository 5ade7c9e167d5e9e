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

/// An opaque hardware address, held inline: a length and 70 octets.
///
/// An ARP packet carries two of these and every cache entry one, so they
/// are values — `Copy`, no heap — and a request → reply → learn round trip
/// allocates nothing. The cap is the longest address any driver here
/// builds (an AX.25 station plus eight digipeaters is 64 octets, a MAC 6);
/// [`ArpPacket::decode`] turns away anything longer. Equality, hashing and
/// `Debug` see only the live octets, never what an earlier, longer address
/// left in the tail.
#[derive(Clone, Copy)]
pub struct HwAddr {
    len: u8,
    octets: [u8; HwAddr::MAX_LEN],
}

impl HwAddr {
    /// Longest hardware address representable.
    pub const MAX_LEN: usize = 70;

    /// The address `octets`, or `None` if it is longer than
    /// [`HwAddr::MAX_LEN`].
    pub fn new(octets: &[u8]) -> Option<HwAddr> {
        let mut hw = HwAddr::zeros(octets.len())?;
        hw.octets[..octets.len()].copy_from_slice(octets);
        Some(hw)
    }

    /// The all-zero address of `len` octets (the target of a request), or
    /// `None` if `len` exceeds [`HwAddr::MAX_LEN`].
    pub(crate) fn zeros(len: usize) -> Option<HwAddr> {
        (len <= HwAddr::MAX_LEN).then_some(HwAddr {
            len: len as u8,
            octets: [0; HwAddr::MAX_LEN],
        })
    }

    /// The live octets.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.octets[..usize::from(self.len)]
    }
}

impl std::ops::Deref for HwAddr {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for HwAddr {
    fn eq(&self, other: &HwAddr) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for HwAddr {}

impl std::hash::Hash for HwAddr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Prints as the octet list a `Vec<u8>` would.
impl std::fmt::Debug for HwAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
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
    pub sender_hw: HwAddr,
    /// Sender protocol (IP) address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (all-zero in requests).
    pub target_hw: HwAddr,
    /// Target protocol (IP) address.
    pub target_ip: Ipv4Addr,
}

/// Protocol type for IPv4 in ARP.
const PROTO_IPV4: u16 = 0x0800;

impl ArpPacket {
    /// Creates a who-has request.
    pub fn request(
        hw: u16,
        sender_hw: HwAddr,
        sender_ip: Ipv4Addr,
        target_ip: Ipv4Addr,
    ) -> ArpPacket {
        ArpPacket {
            hw,
            op: ArpOp::Request,
            sender_hw,
            sender_ip,
            target_hw: HwAddr {
                octets: [0; HwAddr::MAX_LEN],
                ..sender_hw
            },
            target_ip,
        }
    }

    /// Creates the matching is-at reply.
    pub fn reply_to(&self, my_hw: HwAddr) -> ArpPacket {
        ArpPacket {
            hw: self.hw,
            op: ArpOp::Reply,
            sender_hw: my_hw,
            sender_ip: self.target_ip,
            target_hw: self.sender_hw,
            target_ip: self.sender_ip,
        }
    }

    /// Octets on the wire.
    pub fn wire_len(&self) -> usize {
        8 + 2 * (self.sender_hw.len() + 4)
    }

    /// Encodes the packet.
    ///
    /// # Panics
    ///
    /// Panics if the two hardware addresses differ in length.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the wire encoding to any [`ByteSink`].
    ///
    /// # Panics
    ///
    /// Panics if the two hardware addresses differ in length.
    pub fn encode_into(&self, out: &mut impl ByteSink) {
        assert_eq!(
            self.sender_hw.len(),
            self.target_hw.len(),
            "hardware address lengths must match"
        );
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

    /// Decodes a packet. A hardware-address length above
    /// [`HwAddr::MAX_LEN`] is malformed: no link here has such addresses.
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
        let sender_hw = read_hw(&mut r, hlen, "arp sender hw")?;
        let sender_ip = read_ip(&mut r)?;
        let target_hw = read_hw(&mut r, hlen, "arp target hw")?;
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

fn read_hw(r: &mut Reader<'_>, hlen: usize, what: &'static str) -> Result<HwAddr, NetError> {
    let raw = r.take(hlen).map_err(|_| NetError::Malformed(what))?;
    HwAddr::new(raw).ok_or(NetError::Malformed("arp hlen over the inline cap"))
}

fn read_ip(r: &mut Reader<'_>) -> Result<Ipv4Addr, NetError> {
    let raw = r.take(4).ok().and_then(<[u8]>::first_chunk::<4>);
    Ok(Ipv4Addr::from(*raw.ok_or(NetError::Malformed("arp ip"))?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hw(octets: &[u8]) -> HwAddr {
        HwAddr::new(octets).expect("fits the inline cap")
    }

    #[test]
    fn ethernet_style_roundtrip() {
        let req = ArpPacket::request(
            hw_type::ETHERNET,
            hw(&[2, 0, 0, 0, 0, 1]),
            Ipv4Addr::new(128, 95, 1, 4),
            Ipv4Addr::new(128, 95, 1, 99),
        );
        let back = ArpPacket::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.target_hw, hw(&[0; 6]));
    }

    #[test]
    fn ax25_style_roundtrip_with_long_hw_addr() {
        // An AX.25 "hardware address" here is the encoded callsign+SSID,
        // 7 octets.
        let req = ArpPacket::request(
            hw_type::AX25,
            hw(b"N7AKR-1"),
            Ipv4Addr::new(44, 24, 0, 28),
            Ipv4Addr::new(44, 24, 0, 5),
        );
        let back = ArpPacket::decode(&req.encode()).unwrap();
        assert_eq!(back.hw, hw_type::AX25);
        assert_eq!(back.sender_hw, hw(b"N7AKR-1"));
    }

    #[test]
    fn reply_swaps_roles() {
        let req = ArpPacket::request(
            hw_type::ETHERNET,
            hw(&[1; 6]),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let rep = req.reply_to(hw(&[9; 6]));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(rep.sender_hw, hw(&[9; 6]));
        assert_eq!(rep.target_ip, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(rep.target_hw, hw(&[1; 6]));
        let back = ArpPacket::decode(&rep.encode()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(ArpPacket::decode(&[]).is_err());
        assert!(ArpPacket::decode(&[0u8; 8]).is_err());
        let mut ok = ArpPacket::request(
            hw_type::ETHERNET,
            hw(&[1; 6]),
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
            sender_hw: hw(&[1; 6]),
            sender_ip: Ipv4Addr::UNSPECIFIED,
            target_hw: hw(&[1; 7]),
            target_ip: Ipv4Addr::UNSPECIFIED,
        };
        let _ = p.encode();
    }

    /// The decoder this one replaced, hardware addresses as `Vec<u8>` of
    /// any length: the reference [`ArpPacket::decode`] must agree with up
    /// to the inline cap.
    #[allow(clippy::type_complexity)]
    fn decode_with_vecs(
        bytes: &[u8],
    ) -> Result<(u16, ArpOp, Vec<u8>, Ipv4Addr, Vec<u8>, Ipv4Addr), NetError> {
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
        Ok((hw, op, sender_hw, sender_ip, target_hw, target_ip))
    }

    /// A wire image claiming `hlen`, its two address fields `sender` and
    /// `target` octets long (they need not match the claim).
    fn wire(hlen: u8, op: u16, sender: usize, target: usize) -> Vec<u8> {
        let mut w = vec![0, 3, 0x08, 0x00, hlen, 4];
        w.extend(op.to_be_bytes());
        w.extend((0..sender).map(|i| 0x40u8.wrapping_add(i as u8)));
        w.extend([44, 24, 0, 5]);
        w.extend((0..target).map(|i| 0x80u8.wrapping_add(i as u8)));
        w.extend([44, 24, 0, 28]);
        w
    }

    #[test]
    fn hostile_lengths_decode_as_the_vec_codec_did_up_to_the_cap() {
        for hlen in [0u8, 6, 7, 63, 64, 70, 71, 255] {
            let n = usize::from(hlen);
            let mut images = vec![
                wire(hlen, 1, n, n),
                wire(hlen, 2, n, n),
                wire(hlen, 9, n, n),
            ];
            // Mismatched sender/target field lengths: a short sender
            // shifts every later field, a short target truncates the tail.
            images.push(wire(hlen, 1, n.saturating_sub(1), n));
            images.push(wire(hlen, 1, n, n.saturating_sub(1)));
            images.push(wire(hlen, 1, n + 1, n));
            // Every truncation of the well-formed image, and trailing junk.
            let whole = wire(hlen, 1, n, n);
            images.extend((0..whole.len()).map(|cut| whole[..cut].to_vec()));
            images.push([whole.as_slice(), &[0xEE; 9]].concat());
            for image in &images {
                let got = ArpPacket::decode(image);
                let want = decode_with_vecs(image);
                if n > HwAddr::MAX_LEN {
                    assert!(
                        matches!(got, Err(NetError::Malformed(_))),
                        "hlen {hlen}, {} octets: {got:?}",
                        image.len()
                    );
                    continue;
                }
                match (got, want) {
                    (Ok(p), Ok((hw, op, sender_hw, sender_ip, target_hw, target_ip))) => {
                        assert_eq!((p.hw, p.op), (hw, op));
                        assert_eq!((&*p.sender_hw, p.sender_ip), (&*sender_hw, sender_ip));
                        assert_eq!((&*p.target_hw, p.target_ip), (&*target_hw, target_ip));
                        // Nothing past `len` was read into the address.
                        assert_eq!(p.sender_hw.len(), n);
                        assert_eq!(p.encode(), image[..p.encode().len()]);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "hlen {hlen}"),
                    (got, want) => panic!("hlen {hlen}: {got:?} vs {want:?}"),
                }
            }
        }
        assert!(ArpPacket::decode(&wire(70, 1, 70, 70)).is_ok());
        assert!(ArpPacket::decode(&wire(71, 1, 71, 71)).is_err());
        assert!(ArpPacket::decode(&wire(255, 1, 255, 255)).is_err());
    }

    fn hash_of(hw: &HwAddr) -> u64 {
        let mut h = DefaultHasher::new();
        hw.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_hash_ignore_the_dead_tail() {
        // The same seven live octets in two differently dirty arrays.
        let long_a = hw(&[0xAA; 64]);
        let long_b = hw(&[0x55; 22]);
        let mut a = long_a;
        let mut b = long_b;
        for dirty in [&mut a, &mut b] {
            dirty.len = 7;
            dirty.octets[..7].copy_from_slice(b"KB7DZ-0");
        }
        assert_ne!(a.octets, b.octets, "the tails differ");
        assert_eq!(a, b);
        assert_eq!(a, hw(b"KB7DZ-0"));
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(hash_of(&a), hash_of(&hw(b"KB7DZ-0")));
        assert_eq!(format!("{a:?}"), format!("{:?}", b"KB7DZ-0".to_vec()));
        // A direct address is not the same station via a path: the longer
        // one shares the prefix and differs only past the shorter's end.
        let direct = hw(b"KB7DZ-0");
        let via = hw(b"KB7DZ-0WA6BEV1");
        assert_ne!(direct, via);
        assert_ne!(via, direct);
        assert_ne!(hash_of(&direct), hash_of(&via));
        // Length is part of the value even when every live octet agrees.
        assert_ne!(hw(&[0; 6]), hw(&[0; 7]));
    }

    #[test]
    fn the_cap_is_enforced_at_construction() {
        assert_eq!(hw(&[7; HwAddr::MAX_LEN]).len(), HwAddr::MAX_LEN);
        assert!(HwAddr::new(&[7; HwAddr::MAX_LEN + 1]).is_none());
        assert!(HwAddr::zeros(HwAddr::MAX_LEN + 1).is_none());
        assert!(hw(&[]).is_empty());
    }
}
