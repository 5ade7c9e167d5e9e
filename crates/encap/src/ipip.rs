//! IP-in-IP (protocol 4) encapsulation.
//!
//! The outer header is a plain 20-octet IPv4 header with protocol 4 whose
//! payload is a complete inner IP datagram. Two surfaces are provided:
//!
//! * [`Ipip`] — an owned codec (`encode` / `decode`);
//! * [`encap_in_place`] / [`decap_in_place`] — wrap and unwrap a
//!   [`PacketBuf`] without copying the inner datagram: encapsulation
//!   prepends into headroom, decapsulation advances past the outer header.
//!   The gateways do not run them: a tunnel packet is wrapped by
//!   `NetStack::send_ip` (the inner datagram's encoding becomes the outer
//!   packet's payload) and unwrapped by `NetStack::input`. They remain for
//!   the benchmark harness's `encap` probe and go with it (ROADMAP 2(a)).
//!
//! Decoding is strict: short buffers, wrong IP version, options (IHL ≠ 5),
//! inconsistent total length, bad header checksum, and non-IPIP protocol
//! numbers are all rejected with a specific [`IpipError`] so a corrupted
//! tunnel packet can never smuggle bytes into the inner stack.

use std::fmt;
use std::net::Ipv4Addr;

use netstack::ip;
use sim::wire::internet_checksum;
use sim::PacketBuf;

/// Length of the outer header prepended by encapsulation.
pub const OUTER_HEADER_LEN: usize = 20;

/// Default TTL stamped on outer headers by the gateways.
pub const OUTER_TTL: u8 = 64;

/// Why a buffer failed to parse as an IPIP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpipError {
    /// Fewer than 20 octets, or fewer than the total-length field claims.
    Truncated,
    /// Outer version nibble is not 4.
    BadVersion,
    /// Outer header carries options (IHL ≠ 5); the tunnel never emits them.
    BadIhl,
    /// Total-length field disagrees with the buffer length.
    BadLength,
    /// Outer header checksum did not verify.
    BadChecksum,
    /// Outer protocol is not 4 (IPIP).
    NotIpip,
}

impl fmt::Display for IpipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpipError::Truncated => write!(f, "truncated outer header"),
            IpipError::BadVersion => write!(f, "outer version is not 4"),
            IpipError::BadIhl => write!(f, "outer header has options"),
            IpipError::BadLength => write!(f, "outer total length mismatch"),
            IpipError::BadChecksum => write!(f, "outer header checksum failed"),
            IpipError::NotIpip => write!(f, "outer protocol is not IPIP"),
        }
    }
}

impl std::error::Error for IpipError {}

/// The fields of a validated outer header, returned by decapsulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OuterHeader {
    /// Encapsulating gateway (outer source).
    pub src: Ipv4Addr,
    /// Tunnel endpoint (outer destination).
    pub dst: Ipv4Addr,
    /// Outer time-to-live as received.
    pub ttl: u8,
}

/// An IPIP packet: outer addressing plus the complete inner datagram.
///
/// # Examples
///
/// ```
/// use encap::ipip::Ipip;
/// use std::net::Ipv4Addr;
///
/// let p = Ipip::new(
///     Ipv4Addr::new(128, 95, 1, 100),
///     Ipv4Addr::new(128, 95, 1, 101),
///     vec![0xAA; 40],
/// );
/// let bytes = p.encode();
/// assert_eq!(Ipip::decode(&bytes).unwrap(), p);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipip {
    /// Encapsulating gateway (outer source).
    pub src: Ipv4Addr,
    /// Tunnel endpoint (outer destination).
    pub dst: Ipv4Addr,
    /// Outer time-to-live.
    pub ttl: u8,
    /// The complete inner IP datagram, carried opaquely.
    pub inner: Vec<u8>,
}

impl Ipip {
    /// Creates a packet with the default outer TTL.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, inner: Vec<u8>) -> Ipip {
        Ipip {
            src,
            dst,
            ttl: OUTER_TTL,
            inner,
        }
    }

    /// The wire encoding: outer header, then the inner datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut hdr = [0u8; OUTER_HEADER_LEN];
        build_outer(&mut hdr, self.src, self.dst, self.ttl, self.inner.len());
        [&hdr[..], &self.inner].concat()
    }

    /// Validates the outer header and copies the inner datagram out.
    pub fn decode(bytes: &[u8]) -> Result<Ipip, IpipError> {
        let outer = check_outer(bytes)?;
        Ok(Ipip {
            src: outer.src,
            dst: outer.dst,
            ttl: outer.ttl,
            inner: bytes[OUTER_HEADER_LEN..].to_vec(),
        })
    }
}

/// Fills `hdr` with a checksummed outer header for `inner_len` payload
/// octets.
fn build_outer(
    hdr: &mut [u8; OUTER_HEADER_LEN],
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ttl: u8,
    inner_len: usize,
) {
    let total = (OUTER_HEADER_LEN + inner_len) as u16;
    hdr[0] = 0x45; // version 4, IHL 5
    hdr[1] = 0; // TOS
    hdr[2..4].copy_from_slice(&total.to_be_bytes());
    hdr[4..8].copy_from_slice(&[0, 0, 0, 0]); // id 0, flags/frag 0
    hdr[8] = ttl;
    hdr[9] = ip::IPIP;
    hdr[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
    hdr[12..16].copy_from_slice(&src.octets());
    hdr[16..20].copy_from_slice(&dst.octets());
    let sum = internet_checksum(&[&hdr[..]]);
    hdr[10..12].copy_from_slice(&sum.to_be_bytes());
}

/// Validates the outer header at the front of `bytes`.
fn check_outer(bytes: &[u8]) -> Result<OuterHeader, IpipError> {
    let Some(hdr) = bytes.first_chunk::<OUTER_HEADER_LEN>() else {
        return Err(IpipError::Truncated);
    };
    // TOS, id, flags/frag and the checksum (verified over the whole) are
    // not read.
    let [ver_ihl, _, len0, len1, _, _, _, _, ttl, proto, _, _, s0, s1, s2, s3, d0, d1, d2, d3] =
        *hdr;
    if ver_ihl >> 4 != 4 {
        return Err(IpipError::BadVersion);
    }
    if ver_ihl & 0x0F != 5 {
        return Err(IpipError::BadIhl);
    }
    if usize::from(u16::from_be_bytes([len0, len1])) != bytes.len() {
        return Err(IpipError::BadLength);
    }
    if internet_checksum(&[&hdr[..]]) != 0 {
        return Err(IpipError::BadChecksum);
    }
    if proto != ip::IPIP {
        return Err(IpipError::NotIpip);
    }
    Ok(OuterHeader {
        src: Ipv4Addr::new(s0, s1, s2, s3),
        dst: Ipv4Addr::new(d0, d1, d2, d3),
        ttl,
    })
}

/// Wraps the datagram in `buf` with an outer IPIP header, in place.
///
/// The 20-octet header lands in the buffer's headroom (build it with
/// `PacketBuf::with_headroom(OUTER_HEADER_LEN, _)` and this never copies
/// the payload); without headroom [`PacketBuf::prepend`] shifts once.
pub fn encap_in_place(buf: &mut PacketBuf, src: Ipv4Addr, dst: Ipv4Addr, ttl: u8) {
    let mut hdr = [0u8; OUTER_HEADER_LEN];
    build_outer(&mut hdr, src, dst, ttl, buf.len());
    buf.prepend(&hdr);
}

/// Validates and strips the outer IPIP header from `buf`, in place.
///
/// On success the buffer's live bytes are exactly the inner datagram (no
/// copy — the start index advances past the header) and the outer
/// addressing is returned. On error the buffer is untouched.
pub fn decap_in_place(buf: &mut PacketBuf) -> Result<OuterHeader, IpipError> {
    let outer = check_outer(buf.as_slice())?;
    buf.advance(OUTER_HEADER_LEN);
    Ok(outer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipip {
        Ipip::new(
            Ipv4Addr::new(128, 95, 1, 100),
            Ipv4Addr::new(128, 95, 1, 101),
            b"inner datagram bytes".to_vec(),
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample();
        let bytes = p.encode();
        assert_eq!(bytes.len(), OUTER_HEADER_LEN + p.inner.len());
        assert_eq!(Ipip::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn outer_is_a_valid_ipv4_header() {
        // The outer header must parse as ordinary IPv4 so the tunnel
        // traverses unmodified routers (and our own NetStack).
        let bytes = sample().encode();
        let outer = netstack::ip::Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(outer.proto, netstack::ip::Proto::Other(ip::IPIP));
        assert_eq!(outer.payload, sample().inner);
    }

    #[test]
    fn truncated_inputs_are_rejected() {
        let bytes = sample().encode();
        for n in 0..OUTER_HEADER_LEN {
            assert_eq!(Ipip::decode(&bytes[..n]), Err(IpipError::Truncated));
        }
        // Losing tail bytes breaks the total-length invariant.
        assert_eq!(
            Ipip::decode(&bytes[..bytes.len() - 1]),
            Err(IpipError::BadLength)
        );
    }

    #[test]
    fn wrong_protocol_is_rejected() {
        let mut bytes = sample().encode();
        bytes[9] = 17; // claim UDP; refresh the checksum so only proto is wrong
        bytes[10] = 0;
        bytes[11] = 0;
        let sum = internet_checksum(&[&bytes[..OUTER_HEADER_LEN]]);
        bytes[10..12].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(Ipip::decode(&bytes), Err(IpipError::NotIpip));
    }

    #[test]
    fn in_place_encap_uses_headroom_and_matches_codec() {
        let mut buf = PacketBuf::with_headroom(OUTER_HEADER_LEN, 256);
        buf.extend_from_slice(&sample().inner);
        encap_in_place(&mut buf, sample().src, sample().dst, OUTER_TTL);
        assert_eq!(buf.headroom(), 0); // header fit exactly, no shift
        assert_eq!(buf.as_slice(), sample().encode().as_slice());
    }

    #[test]
    fn in_place_decap_strips_without_copying() {
        let mut buf = PacketBuf::from(sample().encode());
        let outer = decap_in_place(&mut buf).unwrap();
        assert_eq!(outer.src, sample().src);
        assert_eq!(outer.dst, sample().dst);
        assert_eq!(buf.as_slice(), sample().inner.as_slice());
    }

    #[test]
    fn failed_decap_leaves_buffer_untouched() {
        let mut bytes = sample().encode();
        bytes[0] = 0x65; // version 6
        let mut buf = PacketBuf::from(bytes.clone());
        assert_eq!(decap_in_place(&mut buf), Err(IpipError::BadVersion));
        assert_eq!(buf.as_slice(), bytes.as_slice());
    }
}
