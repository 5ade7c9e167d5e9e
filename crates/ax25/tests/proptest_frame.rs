//! Property tests for the AX.25 frame codec and the digipeater rule.

use ax25::addr::{Ax25Addr, Callsign};
use ax25::digipeat::{decide, DigipeatDecision};
use ax25::fcs::{append_fcs, verify_and_strip_fcs};
use ax25::frame::{Frame, FrameHeader, FrameKind, Pid};
use ax25::MAX_INFO_LEN;
use proptest::prelude::*;

fn arb_callsign() -> impl Strategy<Value = Callsign> {
    "[A-Z0-9]{1,6}".prop_map(|s| Callsign::new(&s).expect("generated valid"))
}

fn arb_addr() -> impl Strategy<Value = Ax25Addr> {
    (arb_callsign(), 0u8..16).prop_map(|(call, ssid)| Ax25Addr::new(call, ssid).unwrap())
}

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        (0u8..8, 0u8..8, any::<bool>()).prop_map(|(ns, nr, poll)| FrameKind::I { ns, nr, poll }),
        (0u8..8, any::<bool>()).prop_map(|(nr, pf)| FrameKind::Rr { nr, pf }),
        (0u8..8, any::<bool>()).prop_map(|(nr, pf)| FrameKind::Rnr { nr, pf }),
        (0u8..8, any::<bool>()).prop_map(|(nr, pf)| FrameKind::Rej { nr, pf }),
        any::<bool>().prop_map(|poll| FrameKind::Sabm { poll }),
        any::<bool>().prop_map(|poll| FrameKind::Disc { poll }),
        any::<bool>().prop_map(|fin| FrameKind::Ua { fin }),
        any::<bool>().prop_map(|fin| FrameKind::Dm { fin }),
        any::<bool>().prop_map(|pf| FrameKind::Ui { pf }),
    ]
}

prop_compose! {
    fn arb_frame()(
        dest in arb_addr(),
        source in arb_addr(),
        digis in proptest::collection::vec((arb_addr(), any::<bool>()), 0..8),
        command in any::<bool>(),
        kind in arb_kind(),
        // Canonicalize raw codes so e.g. Other(0xCC) becomes Ip, matching
        // what any decode will produce.
        pid in (0u8..=255).prop_map(Pid::from_code),
        info in proptest::collection::vec(any::<u8>(), 0..MAX_INFO_LEN),
    ) -> Frame {
        let mut f = Frame {
            dest,
            source,
            digipeaters: Vec::new(),
            command,
            kind,
            pid: kind.has_pid().then_some(pid),
            info: if kind.has_pid() { info } else { Vec::new() },
        };
        f = f.via(&digis.iter().map(|(a, _)| *a).collect::<Vec<_>>());
        for (d, (_, rep)) in f.digipeaters.iter_mut().zip(&digis) {
            d.repeated = *rep;
        }
        f
    }
}

/// `peek(bytes)` and `decode(bytes)` accept and reject together, with the
/// same error, and agree on every field peek reports.
fn check_peek_matches_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
    match (FrameHeader::peek(bytes), Frame::decode(bytes)) {
        (Ok(hdr), Ok(frame)) => {
            prop_assert_eq!(hdr.dest, frame.dest);
            prop_assert_eq!(hdr.source, frame.source);
            prop_assert_eq!(hdr.command, frame.command);
            prop_assert_eq!(hdr.kind, frame.kind);
            prop_assert_eq!(hdr.pid, frame.pid);
            prop_assert_eq!(hdr.num_digipeaters, frame.digipeaters.len());
            prop_assert_eq!(hdr.fully_repeated, frame.fully_repeated());
            prop_assert_eq!(&bytes[hdr.info_start..], &frame.info[..]);
            Ok(())
        }
        (Err(pe), Err(de)) => {
            prop_assert_eq!(pe, de);
            Ok(())
        }
        (p, d) => Err(TestCaseError::fail(format!(
            "peek/decode disagree: peek={p:?} decode={}",
            d.is_ok()
        ))),
    }
}

proptest! {
    /// Every structurally valid frame round-trips through encode/decode.
    #[test]
    fn frame_roundtrip(frame in arb_frame()) {
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), frame.encoded_len());
        let back = Frame::decode(&bytes).expect("decode");
        prop_assert_eq!(back, frame);
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = Frame::decode(&bytes);
    }

    /// The allocation-free header peek accepts exactly the byte strings the
    /// full decode accepts, and its fields agree with the decoded frame.
    #[test]
    fn peek_is_consistent_with_decode(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        check_peek_matches_decode(&bytes)?;
    }

    /// The same on frames whose address fields hold what random bytes
    /// almost never do: a well-formed frame with one callsign rewritten to
    /// a non-canonical spelling. Lowercase decodes to its upcased form;
    /// an interior space or an all-space field is rejected by both.
    #[test]
    fn peek_is_consistent_with_decode_on_odd_callsigns(
        frame in arb_frame(),
        which in any::<proptest::sample::Index>(),
        raw in prop_oneof![
            "[a-z0-9]{1,6}".prop_map(|s| (s.to_ascii_uppercase(), s)),
            "[A-Za-z0-9]{1,2} [A-Za-z0-9]{1,3}".prop_map(|s| (String::new(), s)),
            Just((String::new(), String::new())),
        ],
    ) {
        let (upcased, spelled) = raw;
        let mut bytes = frame.encode();
        let field = which.index(2 + frame.digipeaters.len()) * 7;
        let mut padded = [b' '; 6];
        padded[..spelled.len()].copy_from_slice(spelled.as_bytes());
        for (dst, b) in bytes[field..field + 6].iter_mut().zip(padded) {
            *dst = b << 1;
        }
        check_peek_matches_decode(&bytes)?;
        match Frame::decode(&bytes) {
            Ok(back) => {
                let calls: Vec<String> = [back.dest, back.source]
                    .into_iter()
                    .chain(back.digipeaters.iter().map(|d| d.addr))
                    .map(|a| a.call.to_string())
                    .collect();
                prop_assert_eq!(&calls[field / 7], &upcased);
            }
            Err(_) => prop_assert!(upcased.is_empty(), "{spelled:?} must decode"),
        }
    }

    /// Peek on a round-tripped frame sees the fields that went in.
    #[test]
    fn peek_sees_encoded_fields(frame in arb_frame()) {
        let bytes = frame.encode();
        let hdr = FrameHeader::peek(&bytes).expect("peek");
        prop_assert_eq!(hdr.dest, frame.dest);
        prop_assert_eq!(hdr.fully_repeated, frame.fully_repeated());
    }

    /// FCS round-trips and any single-byte change is caught.
    #[test]
    fn fcs_detects_single_byte_change(
        mut body in proptest::collection::vec(any::<u8>(), 1..300),
        idx in any::<proptest::sample::Index>(),
        delta in 1u8..=255,
    ) {
        append_fcs(&mut body);
        let framed = body.clone();
        prop_assert!(verify_and_strip_fcs(&framed).is_some());
        let i = idx.index(framed.len());
        let mut corrupt = framed.clone();
        corrupt[i] = corrupt[i].wrapping_add(delta);
        prop_assert!(verify_and_strip_fcs(&corrupt).is_none());
    }

    /// A digipeater chain walked in order always ends deliverable, and
    /// each hop flips exactly one H bit.
    #[test]
    fn digipeat_chain_progresses(hops in proptest::collection::vec(arb_addr(), 1..8)) {
        // De-duplicate: repeated digi addresses would legitimately match
        // an earlier pending entry.
        let mut unique = hops.clone();
        unique.sort();
        unique.dedup();
        prop_assume!(unique.len() == hops.len());
        let src = Ax25Addr::parse_or_panic("SRC");
        let dst = Ax25Addr::parse_or_panic("DST");
        prop_assume!(!hops.contains(&src) && !hops.contains(&dst));
        let mut f = Frame::ui(dst, src, Pid::Text, vec![]).via(&hops);
        for (i, hop) in hops.iter().enumerate() {
            prop_assert!(!f.fully_repeated());
            match decide(&f, *hop) {
                DigipeatDecision::Repeat(out) => {
                    let flipped = out
                        .digipeaters
                        .iter()
                        .zip(&f.digipeaters)
                        .filter(|(a, b)| a.repeated != b.repeated)
                        .count();
                    prop_assert_eq!(flipped, 1, "hop {} flips one bit", i);
                    f = *out;
                }
                other => return Err(TestCaseError::fail(format!("hop {i}: {other:?}"))),
            }
        }
        prop_assert!(f.fully_repeated());
        prop_assert_eq!(decide(&f, dst), DigipeatDecision::Deliverable);
    }
}
