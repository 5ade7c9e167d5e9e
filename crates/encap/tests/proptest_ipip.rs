//! Property tests for the IPIP codec and the in-place pair.

use encap::ipip::{decap_in_place, encap_in_place, Ipip, OUTER_HEADER_LEN};
use proptest::prelude::*;
use sim::PacketBuf;
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

prop_compose! {
    fn arb_ipip()(
        src in arb_ip(),
        dst in arb_ip(),
        ttl in 1u8..=255,
        inner in proptest::collection::vec(any::<u8>(), 0..1500),
    ) -> Ipip {
        Ipip { src, dst, ttl, inner }
    }
}

proptest! {
    /// encap ∘ decap ≡ id, through the owned codec.
    #[test]
    fn codec_roundtrip(p in arb_ipip()) {
        prop_assert_eq!(Ipip::decode(&p.encode()).unwrap(), p);
    }

    /// The in-place pair agrees byte-for-byte with the codec and restores
    /// the original payload.
    #[test]
    fn in_place_matches_codec_and_roundtrips(p in arb_ipip()) {
        let mut buf = PacketBuf::with_headroom(OUTER_HEADER_LEN, p.inner.len());
        buf.extend_from_slice(&p.inner);
        encap_in_place(&mut buf, p.src, p.dst, p.ttl);
        let encoded = p.encode();
        prop_assert_eq!(buf.as_slice(), encoded.as_slice());
        let outer = decap_in_place(&mut buf).unwrap();
        prop_assert_eq!(outer.src, p.src);
        prop_assert_eq!(outer.dst, p.dst);
        prop_assert_eq!(outer.ttl, p.ttl);
        prop_assert_eq!(buf.as_slice(), p.inner.as_slice());
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        let _ = Ipip::decode(&bytes);
    }

    /// Truncating an encoded packet anywhere is always rejected.
    #[test]
    fn truncation_is_always_rejected(p in arb_ipip(), cut in any::<proptest::sample::Index>()) {
        let bytes = p.encode();
        let n = cut.index(bytes.len());
        prop_assert!(Ipip::decode(&bytes[..n]).is_err());
    }

    /// Any single-byte corruption of the outer header is rejected (the
    /// ones-complement checksum catches every single-octet change, and the
    /// version/IHL/length checks catch the fields it covers twice).
    #[test]
    fn corrupt_outer_header_is_always_rejected(
        p in arb_ipip(),
        idx in any::<proptest::sample::Index>(),
        delta in 1u8..=255,
    ) {
        let good = p.encode();
        let i = idx.index(OUTER_HEADER_LEN);
        let mut bad = good.clone();
        bad[i] = bad[i].wrapping_add(delta);
        prop_assert!(Ipip::decode(&bad).is_err());
        let mut buf = PacketBuf::from(bad.clone());
        prop_assert!(decap_in_place(&mut buf).is_err());
        prop_assert_eq!(buf.as_slice(), bad.as_slice());
    }
}
