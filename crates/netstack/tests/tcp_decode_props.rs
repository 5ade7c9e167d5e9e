//! Hostile bytes into the borrowed TCP decode. Whatever arrives —
//! arbitrary bytes, a valid segment cut short inside its header, every
//! value of the data-offset field, option lists of every kind at the edge
//! lengths, flipped bits — `TcpSegment::decode` never panics, rejects
//! exactly what the copying decode it replaced rejected, and accepts with
//! the same header and payload, the payload borrowed in place. That
//! copying decode lives on here only, as the oracle.

use netstack::tcp::{TcpFlags, TcpHeader, TcpSegment};
use netstack::NetError;
use proptest::prelude::*;
use sim::wire::{internet_checksum, Reader};
use std::net::Ipv4Addr;

fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, len: u16) -> [u8; 12] {
    let (s, d) = (src.octets(), dst.octets());
    let [hi, lo] = len.to_be_bytes();
    [s[0], s[1], s[2], s[3], d[0], d[1], d[2], d[3], 0, 6, hi, lo]
}

/// The decode `TcpSegment::decode` replaced, as it was but for its result:
/// the header, and the payload copied out.
fn owned_decode(
    bytes: &[u8],
    src: Ipv4Addr,
    dst: Ipv4Addr,
) -> Result<(TcpHeader, Vec<u8>), NetError> {
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
    let f = r.u8().expect("len checked");
    let window = r.u16().expect("len checked");
    let _sum = r.u16().expect("len checked");
    let _urg = r.u16().expect("len checked");
    if off < 20 || off > bytes.len() {
        return Err(NetError::Malformed("tcp data offset"));
    }
    let mut mss = None;
    let mut opts = Reader::new(&bytes[20..off]);
    while opts.remaining() > 0 {
        match opts.u8().expect("remaining checked") {
            0 => break,
            1 => continue,
            2 => {
                let len = opts.u8().map_err(|_| NetError::Malformed("mss opt"))?;
                if len != 4 {
                    return Err(NetError::Malformed("mss opt length"));
                }
                mss = Some(opts.u16().map_err(|_| NetError::Malformed("mss opt"))?);
            }
            _ => {
                let len = opts.u8().map_err(|_| NetError::Malformed("tcp opt"))?;
                if len < 2 {
                    return Err(NetError::Malformed("tcp opt length"));
                }
                opts.skip(len as usize - 2)
                    .map_err(|_| NetError::Malformed("tcp opt"))?;
            }
        }
    }
    let flags = TcpFlags {
        fin: f & 0x01 != 0,
        syn: f & 0x02 != 0,
        rst: f & 0x04 != 0,
        psh: f & 0x08 != 0,
        ack: f & 0x10 != 0,
    };
    let header = TcpHeader {
        src_port,
        dst_port,
        seq,
        ack,
        flags,
        window,
        mss,
    };
    Ok((header, bytes[off..].to_vec()))
}

/// Rewrites the checksum of a segment at least 18 octets long, so a
/// mutation reaches the parse behind the checksum test.
fn fix_checksum(bytes: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr) {
    if bytes.len() >= 18 {
        bytes[16..18].fill(0);
        let sum = internet_checksum(&[&pseudo_header(src, dst, bytes.len() as u16), bytes]);
        bytes[16..18].copy_from_slice(&sum.to_be_bytes());
    }
}

/// What hostile bytes a case sends, built from a valid segment.
#[derive(Debug, Clone)]
enum Hostile {
    /// Arbitrary bytes, no segment behind them.
    Arbitrary(Vec<u8>),
    /// The segment cut at every length up to its data offset.
    Truncated,
    /// The data-offset field set to this, the checksum fixed.
    Offset(u8),
    /// An option list of `(kind, length)` elements, each followed by the
    /// body its length claims (as much as fits the 40-octet area), the
    /// checksum fixed.
    Options(Vec<(u8, u8)>),
    /// These bits flipped; then the checksum fixed, or not.
    Flipped(Vec<usize>, bool),
}

fn arb_option() -> impl Strategy<Value = (u8, u8)> {
    let kind = prop_oneof![Just(2u8), Just(1u8), Just(0u8), 3u8..=255];
    let len = prop_oneof![Just(0u8), Just(1u8), Just(3u8), Just(4u8), Just(255u8)];
    (kind, len)
}

fn arb_hostile() -> impl Strategy<Value = Hostile> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..100).prop_map(Hostile::Arbitrary),
        Just(Hostile::Truncated),
        (0u8..16).prop_map(Hostile::Offset),
        proptest::collection::vec(arb_option(), 1..6).prop_map(Hostile::Options),
        (
            proptest::collection::vec(any::<usize>(), 1..4),
            any::<bool>()
        )
            .prop_map(|(bits, fix)| Hostile::Flipped(bits, fix)),
    ]
}

prop_compose! {
    fn arb_header()(
        ports in (any::<u16>(), any::<u16>()),
        seq in any::<u32>(), ack in any::<u32>(),
        f in any::<u8>(),
        window in any::<u16>(),
        mss in proptest::option::of(any::<u16>()),
    ) -> TcpHeader {
        TcpHeader {
            src_port: ports.0,
            dst_port: ports.1,
            seq,
            ack,
            flags: TcpFlags {
                fin: f & 0x01 != 0,
                syn: f & 0x02 != 0,
                rst: f & 0x04 != 0,
                psh: f & 0x08 != 0,
                ack: f & 0x10 != 0,
            },
            window,
            mss,
        }
    }
}

/// The byte strings one case sends.
fn cases(
    header: TcpHeader,
    payload: &[u8],
    src: Ipv4Addr,
    dst: Ipv4Addr,
    h: &Hostile,
) -> Vec<Vec<u8>> {
    let valid = TcpSegment { header, payload }.encode(src, dst);
    match h {
        Hostile::Arbitrary(bytes) => vec![bytes.clone()],
        Hostile::Truncated => (0..=header.wire_len())
            .map(|n| valid[..n].to_vec())
            .collect(),
        Hostile::Offset(off) => {
            let mut b = valid;
            b[12] = (b[12] & 0x0F) | (off << 4);
            fix_checksum(&mut b, src, dst);
            vec![b]
        }
        Hostile::Options(list) => {
            let mut opts = Vec::new();
            for &(kind, len) in list {
                opts.extend([kind, len]);
                opts.resize(opts.len() + usize::from(len.saturating_sub(2)), 0x5A);
            }
            opts.truncate(40);
            opts.resize(opts.len().div_ceil(4) * 4, 0);
            let mut b = valid[..20].to_vec();
            b[12] = (((20 + opts.len()) / 4) as u8) << 4;
            b.extend(opts);
            b.extend_from_slice(payload);
            fix_checksum(&mut b, src, dst);
            vec![b]
        }
        Hostile::Flipped(bits, fix) => {
            let mut b = valid;
            for &bit in bits {
                let i = bit % (b.len() * 8);
                b[i / 8] ^= 1 << (i % 8);
            }
            if *fix {
                fix_checksum(&mut b, src, dst);
            }
            vec![b]
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn borrowed_decode_agrees_with_the_copying_oracle_on_hostile_bytes(
        header in arb_header(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        addrs in (any::<u32>(), any::<u32>()),
        hostile in arb_hostile(),
    ) {
        let (src, dst) = (Ipv4Addr::from(addrs.0), Ipv4Addr::from(addrs.1));
        for bytes in cases(header, &payload, src, dst, &hostile) {
            let got = TcpSegment::decode(&bytes, src, dst);
            if let Ok(seg) = &got {
                let tail = &bytes[bytes.len() - seg.payload.len()..];
                prop_assert!(std::ptr::eq(seg.payload, tail), "payload borrowed in place");
            }
            let got = got.map(|seg| (seg.header, seg.payload.to_vec()));
            prop_assert_eq!(got, owned_decode(&bytes, src, dst), "{:?} {:02x?}", hostile, bytes);
        }
    }
}
