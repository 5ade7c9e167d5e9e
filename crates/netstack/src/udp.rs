//! UDP datagrams (RFC 768), with the IPv4 pseudo-header checksum.
//!
//! The distributed callbook service the paper sketches in §5 runs over
//! UDP in this reproduction — "send off a query to the appropriate
//! server" is a single datagram each way.

use std::net::Ipv4Addr;

use sim::wire::{internet_checksum, Reader, Writer};

use crate::NetError;

/// Octets of the UDP header in front of the payload.
pub const HEADER_LEN: usize = 8;

/// A UDP datagram (header + payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload octets.
    pub payload: Vec<u8>,
}

fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) -> [u8; 12] {
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
        proto,
        (len >> 8) as u8,
        len as u8,
    ]
}

impl UdpDatagram {
    /// Encodes the datagram, computing the checksum over the IPv4
    /// pseudo-header. The buffer is born with room for the IP header that
    /// [`crate::ip::Ipv4Packet::into_wire`] will write in front.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let len = (8 + self.payload.len()) as u16;
        let mut w = Writer::with_capacity(usize::from(len) + crate::ip::HEADER_LEN);
        w.u16(self.src_port);
        w.u16(self.dst_port);
        w.u16(len);
        w.u16(0);
        w.bytes(&self.payload);
        let ph = pseudo_header(src, dst, 17, len);
        let mut sum = internet_checksum(&[&ph, w.as_slice()]);
        if sum == 0 {
            sum = 0xFFFF; // transmitted all-ones means "zero"
        }
        w.patch_u16(6, sum);
        w.into_bytes()
    }

    /// Decodes and verifies a datagram arriving on `src`→`dst`.
    pub fn decode(bytes: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram, NetError> {
        let (src_port, dst_port, payload) = UdpDatagram::decode_ref(bytes, src, dst)?;
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: payload.to_vec(),
        })
    }

    /// Decodes and verifies a datagram without copying the payload:
    /// `(src_port, dst_port, payload)` borrowed from `bytes`, which may
    /// run past the datagram's UDP length.
    pub(crate) fn decode_ref(
        bytes: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<(u16, u16, &[u8]), NetError> {
        let mut r = Reader::new(bytes);
        let src_port = r.u16().map_err(|_| NetError::Malformed("udp header"))?;
        let dst_port = r.u16().map_err(|_| NetError::Malformed("udp header"))?;
        let len = r.u16().map_err(|_| NetError::Malformed("udp header"))? as usize;
        let checksum = r.u16().map_err(|_| NetError::Malformed("udp header"))?;
        if len < HEADER_LEN || len > bytes.len() {
            return Err(NetError::Malformed("udp length"));
        }
        if checksum != 0 {
            let ph = pseudo_header(src, dst, 17, len as u16);
            if internet_checksum(&[&ph, &bytes[..len]]) != 0 {
                return Err(NetError::BadChecksum("udp"));
            }
        }
        Ok((src_port, dst_port, &bytes[HEADER_LEN..len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(44, 24, 0, 5), Ipv4Addr::new(128, 95, 1, 4))
    }

    #[test]
    fn roundtrip() {
        let (s, d) = addrs();
        let dg = UdpDatagram {
            src_port: 2001,
            dst_port: 4242,
            payload: b"QUERY N7AKR".to_vec(),
        };
        let bytes = dg.encode(s, d);
        assert_eq!(UdpDatagram::decode(&bytes, s, d).unwrap(), dg);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (s, d) = addrs();
        let dg = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            payload: vec![],
        };
        let bytes = dg.encode(s, d);
        assert_eq!(bytes.len(), 8);
        assert_eq!(UdpDatagram::decode(&bytes, s, d).unwrap(), dg);
    }

    #[test]
    fn wrong_addresses_fail_checksum() {
        let (s, d) = addrs();
        let dg = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            payload: b"data".to_vec(),
        };
        let bytes = dg.encode(s, d);
        // Note: merely swapping src/dst would NOT change the checksum (the
        // ones-complement sum is commutative); use a different host.
        let other = Ipv4Addr::new(44, 56, 0, 9);
        assert!(matches!(
            UdpDatagram::decode(&bytes, other, d),
            Err(NetError::BadChecksum(_))
        ));
    }

    #[test]
    fn payload_corruption_detected() {
        let (s, d) = addrs();
        let dg = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            payload: b"data!".to_vec(),
        };
        let mut bytes = dg.encode(s, d);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(UdpDatagram::decode(&bytes, s, d).is_err());
    }

    #[test]
    fn trailing_padding_is_trimmed_by_length_field() {
        let (s, d) = addrs();
        let dg = UdpDatagram {
            src_port: 5,
            dst_port: 6,
            payload: b"xy".to_vec(),
        };
        let mut bytes = dg.encode(s, d);
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(UdpDatagram::decode(&bytes, s, d).unwrap(), dg);
    }

    #[test]
    fn short_or_lying_length_rejected() {
        let (s, d) = addrs();
        assert!(UdpDatagram::decode(&[0u8; 4], s, d).is_err());
        let dg = UdpDatagram {
            src_port: 5,
            dst_port: 6,
            payload: b"xy".to_vec(),
        };
        let bytes = dg.encode(s, d);
        assert!(UdpDatagram::decode(&bytes[..9], s, d).is_err());
    }
}
