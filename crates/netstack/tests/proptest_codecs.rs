//! Property tests over the netstack codecs and the fragmentation /
//! reassembly pipeline.

use netstack::icmp::{GateAuth, IcmpMessage, UnreachCode};
use netstack::ip::{fragment, FragResult, Ipv4Packet, Proto, Reassembler, HEADER_LEN};
use netstack::pool::DgramPool;
use netstack::stack::NetStack;
use netstack::tcp::{TcpFlags, TcpHeader, TcpSegment};
use netstack::udp::UdpDatagram;
use proptest::prelude::*;
use sim::SimTime;
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

prop_compose! {
    fn arb_packet()(
        src in arb_ip(),
        dst in arb_ip(),
        proto in prop_oneof![Just(Proto::Icmp), Just(Proto::Tcp), Just(Proto::Udp), (0u8..=255).prop_map(Proto::from_code)],
        tos in any::<u8>(),
        id in any::<u16>(),
        ttl in 1u8..=64,
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
    ) -> Ipv4Packet {
        let mut p = Ipv4Packet::new(src, dst, proto, payload);
        p.tos = tos;
        p.id = id;
        p.ttl = ttl;
        p
    }
}

/// One way a link can hand the stack something other than the packet that
/// was sent. Everything but `Intact` and `Padded` must be rejected.
#[derive(Debug, Clone)]
enum Damage {
    Intact,
    /// Trailing link padding (minimum-size Ethernet frames).
    Padded(usize),
    /// Cut somewhere below the total-length field's claim.
    Truncated(proptest::sample::Index),
    /// Total length below the header's own size.
    TotalLenShort(u16),
    /// Total length beyond the bytes present.
    TotalLenLong(u16),
    /// Header length other than five words.
    Ihl(u8),
    /// Version other than four.
    Version(u8),
    /// One flipped header bit, checksum left as it was.
    FlippedBit(usize),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::Intact),
        (1usize..64).prop_map(Damage::Padded),
        any::<proptest::sample::Index>().prop_map(Damage::Truncated),
        (0u16..HEADER_LEN as u16).prop_map(Damage::TotalLenShort),
        (1u16..512).prop_map(Damage::TotalLenLong),
        (0u8..16).prop_map(Damage::Ihl),
        (0u8..16).prop_map(Damage::Version),
        (0usize..HEADER_LEN * 8).prop_map(Damage::FlippedBit),
    ]
}

impl Damage {
    /// Applies the damage to an encoded packet. A rewritten field gets
    /// the checksum fixed up again, so that field is what is rejected.
    fn apply(&self, mut wire: Vec<u8>) -> Vec<u8> {
        let rewrote_a_field = match *self {
            Damage::Intact => false,
            Damage::Padded(n) => {
                wire.resize(wire.len() + n, 0);
                false
            }
            Damage::Truncated(at) => {
                wire.truncate(at.index(wire.len()));
                false
            }
            Damage::FlippedBit(bit) => {
                wire[bit / 8] ^= 1 << (bit % 8);
                false
            }
            Damage::TotalLenShort(v) => {
                wire[2..4].copy_from_slice(&v.to_be_bytes());
                true
            }
            Damage::TotalLenLong(extra) => {
                let v = (wire.len() as u16).saturating_add(extra);
                wire[2..4].copy_from_slice(&v.to_be_bytes());
                true
            }
            Damage::Ihl(v) => {
                wire[0] = 0x40 | v;
                true
            }
            Damage::Version(v) => {
                wire[0] = v << 4 | 5;
                true
            }
        };
        if rewrote_a_field {
            wire[10..12].fill(0);
            let sum = sim::wire::internet_checksum(&[&wire[..HEADER_LEN]]);
            wire[10..12].copy_from_slice(&sum.to_be_bytes());
        }
        wire
    }

    fn must_be_rejected(&self) -> bool {
        match *self {
            Damage::Intact | Damage::Padded(_) => false,
            Damage::Ihl(v) => v != 5,
            Damage::Version(v) => v != 4,
            _ => true,
        }
    }
}

proptest! {
    /// `decode_owned` is `decode` without the copy: same packet, same
    /// error, whatever arrives.
    #[test]
    fn ipv4_decode_owned_matches_decode(p in arb_packet(), damage in arb_damage()) {
        let wire = damage.apply(p.encode());
        let borrowed = Ipv4Packet::decode(&wire);
        prop_assert_eq!(Ipv4Packet::decode_owned(wire), borrowed.clone());
        prop_assert_eq!(borrowed.is_err(), damage.must_be_rejected(), "{:?}", borrowed);
        if let Ok(back) = borrowed {
            prop_assert_eq!(back, p);
        }
    }

    #[test]
    fn ipv4_decode_owned_matches_decode_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(Ipv4Packet::decode_owned(bytes.clone()), Ipv4Packet::decode(&bytes));
    }

    /// `into_wire` writes what `encode` writes, and inside the payload's
    /// own allocation whenever that has the 20 octets to spare.
    #[test]
    fn ipv4_into_wire_matches_encode(p in arb_packet(), spare in 0usize..64) {
        let mut p = p;
        let mut payload = Vec::with_capacity(p.payload.len() + spare);
        payload.extend_from_slice(&p.payload);
        p.payload = payload;
        let (at, capacity) = (p.payload.as_ptr(), p.payload.capacity());
        let expect = p.encode();
        let wire = p.into_wire();
        prop_assert_eq!(&wire, &expect);
        if capacity >= expect.len() {
            prop_assert_eq!(wire.as_ptr(), at, "moved although it had room");
            prop_assert_eq!(wire.capacity(), capacity);
        }
    }

    /// The forwarding hop end to end: the room `decode_owned` frees is the
    /// room `into_wire` needs, so the driver's buffer is the next driver's.
    #[test]
    fn ipv4_owned_hop_reuses_the_buffer(p in arb_packet(), pad in 0usize..32) {
        let mut wire = p.encode();
        wire.resize(wire.len() + pad, 0);
        let (at, capacity) = (wire.as_ptr(), wire.capacity());
        let mut hop = Ipv4Packet::decode_owned(wire).unwrap();
        hop.ttl -= 1;
        let expect = hop.encode();
        let out = hop.into_wire();
        prop_assert_eq!(out.as_ptr(), at);
        prop_assert_eq!(out.capacity(), capacity);
        prop_assert_eq!(out, expect);
    }

    /// Every damaged class through the stack's one input body: no panic,
    /// one `bad_packets`, nothing queued for the owner.
    #[test]
    fn stack_input_owned_counts_and_drops_damaged_packets(
        p in arb_packet(),
        damage in arb_damage(),
    ) {
        prop_assume!(damage.must_be_rejected());
        let (mut st, ifid) = NetStack::simple_host(Ipv4Addr::new(44, 24, 0, 5), 16, 256, None);
        st.set_forwarding(true);
        st.input_owned(SimTime::ZERO, ifid, damage.apply(p.encode()));
        prop_assert_eq!(st.stats().ip_in, 1);
        prop_assert_eq!(st.stats().bad_packets, 1);
        prop_assert_eq!(st.stats().forward_requests, 0);
        prop_assert!(st.actions_empty());
    }

    #[test]
    fn ipv4_roundtrip(p in arb_packet()) {
        let bytes = p.encode();
        prop_assert_eq!(Ipv4Packet::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn ipv4_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Ipv4Packet::decode(&bytes);
    }

    #[test]
    fn ipv4_single_byte_corruption_never_yields_wrong_header(
        p in arb_packet(),
        idx in any::<proptest::sample::Index>(),
        delta in 1u8..=255,
    ) {
        let good = p.encode();
        let i = idx.index(netstack::ip::HEADER_LEN); // corrupt the header only
        let mut bad = good.clone();
        bad[i] = bad[i].wrapping_add(delta);
        // Either rejected, or (checksum can't catch reordered words in
        // theory, but single-byte changes it always catches) — assert
        // rejection outright.
        prop_assert!(Ipv4Packet::decode(&bad).is_err());
    }

    /// Fragmenting at any legal MTU and reassembling in any order yields
    /// the original datagram.
    #[test]
    fn fragment_reassemble_any_mtu_any_order(
        p in arb_packet(),
        mtu in 28usize..600,
        shuffle_seed in any::<u64>(),
    ) {
        prop_assume!(!p.is_fragment());
        let mut q = p.clone();
        q.dont_fragment = false;
        let frags = match fragment(q.clone(), mtu) {
            FragResult::Fits(x) => vec![x],
            FragResult::Fragmented(xs) => xs,
            FragResult::WouldFragment => unreachable!("df is clear"),
        };
        for f in &frags {
            prop_assert!(f.total_len() <= mtu.max(netstack::ip::HEADER_LEN + 8));
        }
        let mut order: Vec<usize> = (0..frags.len()).collect();
        let mut rng = sim::SimRng::seed_from(shuffle_seed);
        rng.shuffle(&mut order);
        let mut r = Reassembler::new();
        let mut pool = DgramPool::new();
        let mut done = None;
        for i in order {
            if let Some(w) = r.push(SimTime::ZERO, frags[i].clone(), &mut pool) {
                done = Some(w);
            }
        }
        let whole = done.expect("must reassemble");
        prop_assert_eq!(whole.payload, q.payload);
        prop_assert_eq!(whole.src, q.src);
        prop_assert_eq!(whole.dst, q.dst);
    }

    #[test]
    fn tcp_segment_roundtrip(
        src in arb_ip(), dst in arb_ip(),
        sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        syn in any::<bool>(), ackf in any::<bool>(), fin in any::<bool>(),
        rst in any::<bool>(), psh in any::<bool>(),
        window in any::<u16>(),
        mss in proptest::option::of(any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let seg = TcpSegment {
            header: TcpHeader {
                src_port: sp, dst_port: dp, seq, ack,
                flags: TcpFlags { syn, ack: ackf, fin, rst, psh },
                window, mss,
            },
            payload: &payload,
        };
        let bytes = seg.encode(src, dst);
        prop_assert_eq!(TcpSegment::decode(&bytes, src, dst).unwrap(), seg);
    }

    #[test]
    fn udp_roundtrip(
        src in arb_ip(), dst in arb_ip(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let dg = UdpDatagram { src_port: sp, dst_port: dp, payload };
        let bytes = dg.encode(src, dst);
        prop_assert_eq!(UdpDatagram::decode(&bytes, src, dst).unwrap(), dg);
    }

    #[test]
    fn icmp_roundtrip(
        which in 0usize..6,
        id in any::<u16>(), seq in any::<u16>(),
        a in arb_ip(), b in arb_ip(),
        ttl in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        call in "[A-Z0-9]{1,6}",
        pw in "[ -~]{0,16}",
        with_auth in any::<bool>(),
    ) {
        let auth = with_auth.then_some(GateAuth { callsign: call, password: pw });
        let msg = match which {
            0 => IcmpMessage::EchoRequest { id, seq, payload },
            1 => IcmpMessage::EchoReply { id, seq, payload },
            2 => IcmpMessage::DestUnreachable { code: UnreachCode::Host, original: payload },
            3 => IcmpMessage::TimeExceeded { original: payload },
            4 => IcmpMessage::GateOpen { amateur: a, foreign: b, ttl_secs: ttl, auth },
            _ => IcmpMessage::GateClose { amateur: a, foreign: b, auth },
        };
        let bytes = msg.encode();
        prop_assert_eq!(IcmpMessage::decode(&bytes).unwrap(), msg);
    }
}
