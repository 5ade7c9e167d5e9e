//! End-to-end properties of the RFC 1144 header compressor (`vj`):
//! whatever the compressor emits — passthrough, refresh, or compressed
//! deltas — the receiver must reconstruct the original datagram **byte
//! for byte** on a lossless channel; and on a lossy channel it must
//! never deliver a corrupted segment (the carried TCP checksum catches
//! stale contexts) and must resynchronise as soon as the TCP sender's
//! retransmission forces an uncompressed (PID 0x07) refresh through.

use proptest::prelude::*;
use vj::{VjCompressor, VjDecompressor, VjOutcome};

/// RFC 1071 ones-complement checksum of `bytes` (odd tail zero-padded).
fn cksum(bytes: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in bytes.chunks(2) {
        let w = u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]);
        sum += u32::from(w);
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Builds a checksummed 40-byte-header TCP/IP datagram on connection
/// `conn` (distinct endpoints per index), independent of the vj crate's
/// own encoders so the property does not test the code against itself.
fn tcp_dgram(
    conn: u8,
    ipid: u16,
    seq: u32,
    ack: u32,
    win: u16,
    flags: u8,
    payload: &[u8],
) -> Vec<u8> {
    let total = 40 + payload.len();
    let mut d = vec![0u8; total];
    d[0] = 0x45;
    d[2..4].copy_from_slice(&(total as u16).to_be_bytes());
    d[4..6].copy_from_slice(&ipid.to_be_bytes());
    d[8] = 30;
    d[9] = 6;
    d[12..16].copy_from_slice(&[44, 24, 0, 1 + conn]);
    d[16..20].copy_from_slice(&[128, 95, 1, 10 + conn]);
    d[20..22].copy_from_slice(&(1024 + u16::from(conn)).to_be_bytes());
    d[22..24].copy_from_slice(&23u16.to_be_bytes());
    d[24..28].copy_from_slice(&seq.to_be_bytes());
    d[28..32].copy_from_slice(&ack.to_be_bytes());
    d[32] = 5 << 4;
    d[33] = flags;
    d[34..36].copy_from_slice(&win.to_be_bytes());
    d[40..].copy_from_slice(payload);
    let mut pseudo = vec![0u8; 12];
    pseudo[0..8].copy_from_slice(&d[12..20]);
    pseudo[9] = 6;
    pseudo[10..12].copy_from_slice(&((d.len() - 20) as u16).to_be_bytes());
    pseudo.extend_from_slice(&d[20..]);
    let tck = cksum(&pseudo);
    d[36..38].copy_from_slice(&tck.to_be_bytes());
    let ick = cksum(&d[..20]);
    d[10..12].copy_from_slice(&ick.to_be_bytes());
    d
}

/// A UDP datagram: the compressor must pass it through untouched.
fn udp_dgram(payload: &[u8]) -> Vec<u8> {
    let total = 28 + payload.len();
    let mut d = vec![0u8; total];
    d[0] = 0x45;
    d[2..4].copy_from_slice(&(total as u16).to_be_bytes());
    d[8] = 30;
    d[9] = 17;
    d[12..16].copy_from_slice(&[44, 24, 0, 9]);
    d[16..20].copy_from_slice(&[128, 95, 1, 9]);
    d[20..22].copy_from_slice(&4000u16.to_be_bytes());
    d[22..24].copy_from_slice(&53u16.to_be_bytes());
    d[24..26].copy_from_slice(&((8 + payload.len()) as u16).to_be_bytes());
    d[28..].copy_from_slice(payload);
    let ick = cksum(&d[..20]);
    d[10..12].copy_from_slice(&ick.to_be_bytes());
    d
}

proptest! {
    /// Lossless channel: four interleaved TCP connections (plus UDP
    /// noise) with arbitrarily evolving seq/ack/window/IP-ID and every
    /// flag shape — ACK-only streams compress, SYN/FIN/RST/URG and
    /// oversized deltas fall back — and every packet the receiver hands
    /// up equals the original datagram exactly.
    #[test]
    fn compress_decompress_is_identity(
        specs in proptest::collection::vec(
            (
                (0u8..5, 0u16..3),
                0u32..70_000,
                0u32..70_000,
                any::<u16>(),
                prop_oneof![
                    Just(0x10u8), // ACK
                    Just(0x18u8), // ACK|PSH
                    Just(0x30u8), // ACK|URG
                    Just(0x02u8), // SYN
                    Just(0x12u8), // SYN|ACK
                    Just(0x11u8), // ACK|FIN
                    Just(0x14u8), // ACK|RST
                ],
                proptest::collection::vec(any::<u8>(), 0..8),
            ),
            0..40,
        ),
    ) {
        let mut comp = VjCompressor::new();
        let mut deco = VjDecompressor::new();
        let mut seq = [1_000u32, 2_000, 3_000, 4_000];
        let mut ack = [500u32; 4];
        let mut ipid = [1u16; 4];
        let mut out = Vec::new();
        for ((conn, ipid_step), seq_step, ack_step, win, flags, payload) in specs {
            let pristine = if conn == 4 {
                udp_dgram(&payload)
            } else {
                let c = usize::from(conn);
                seq[c] = seq[c].wrapping_add(seq_step);
                ack[c] = ack[c].wrapping_add(ack_step);
                ipid[c] = ipid[c].wrapping_add(ipid_step);
                tcp_dgram(conn, ipid[c], seq[c], ack[c], win, flags, &payload)
            };
            let mut wire = pristine.clone();
            match comp.compress(&mut wire) {
                VjOutcome::Ip => {
                    prop_assert_eq!(&wire, &pristine, "passthrough must not touch the packet");
                }
                VjOutcome::Uncompressed => {
                    prop_assert!(deco.refresh(&mut wire).is_ok(), "refresh on lossless channel");
                    prop_assert_eq!(&wire, &pristine, "refresh must restore the datagram");
                }
                VjOutcome::Compressed { start } => {
                    prop_assert!(
                        deco.decompress(&wire[start..], &mut out).is_ok(),
                        "lossless channel stays in sync"
                    );
                    prop_assert_eq!(&out, &pristine, "reconstruction must be byte-identical");
                }
            }
        }
    }

    /// Lossy channel: arbitrary frames of a data stream vanish in
    /// transit. The receiver may toss while desynchronised but must
    /// never hand up a corrupted segment, and the sender's eventual
    /// retransmission (seq moves backwards) must go out as an
    /// uncompressed refresh that resynchronises the link for good.
    #[test]
    fn lossy_channel_tosses_but_never_corrupts_and_refresh_resyncs(
        stream in proptest::collection::vec((1usize..8, any::<bool>()), 2..25),
    ) {
        let mut comp = VjCompressor::new();
        let mut deco = VjDecompressor::new();
        let mut seq = 5_000u32;
        let mut ipid = 1u16;
        let mut out = Vec::new();
        let mut last = (seq, Vec::new());
        for (i, &(len, dropped)) in stream.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|j| (i + j) as u8).collect();
            let pristine = tcp_dgram(0, ipid, seq, 9_000, 4_096, 0x18, &payload);
            last = (seq, payload);
            seq = seq.wrapping_add(len as u32);
            ipid = ipid.wrapping_add(1);
            let mut wire = pristine.clone();
            let outcome = comp.compress(&mut wire);
            if dropped {
                continue;
            }
            match outcome {
                VjOutcome::Ip => prop_assert!(false, "stream packets are compressible TCP"),
                VjOutcome::Uncompressed => {
                    prop_assert!(deco.refresh(&mut wire).is_ok());
                    prop_assert_eq!(&wire, &pristine);
                }
                VjOutcome::Compressed { start } => {
                    // While desynchronised the carried TCP checksum must
                    // reject the reconstruction — corrupt delivery is the
                    // one unforgivable outcome.
                    if deco.decompress(&wire[start..], &mut out).is_ok() {
                        prop_assert_eq!(&out, &pristine, "delivered segment must be intact");
                    }
                }
            }
        }

        // The TCP sender times out and retransmits its last segment: a
        // non-advancing sequence number must force a refresh, and the
        // refresh (which does get through) resynchronises the receiver.
        let (rseq, rpay) = last;
        let pristine = tcp_dgram(0, ipid, rseq, 9_000, 4_096, 0x18, &rpay);
        ipid = ipid.wrapping_add(1);
        let mut wire = pristine.clone();
        let outcome = comp.compress(&mut wire);
        prop_assert!(
            matches!(outcome, VjOutcome::Uncompressed),
            "retransmission must be sent uncompressed"
        );
        prop_assert!(deco.refresh(&mut wire).is_ok());
        prop_assert_eq!(&wire, &pristine);

        // Back in steady state: the next fresh segment compresses and is
        // reconstructed exactly.
        let pristine = tcp_dgram(0, ipid, seq, 9_000, 4_096, 0x18, &[0xAA]);
        let mut wire = pristine.clone();
        match comp.compress(&mut wire) {
            VjOutcome::Ip => prop_assert!(false, "fresh data segment is compressible"),
            VjOutcome::Uncompressed => {
                prop_assert!(deco.refresh(&mut wire).is_ok());
                prop_assert_eq!(&wire, &pristine);
            }
            VjOutcome::Compressed { start } => {
                prop_assert!(deco.decompress(&wire[start..], &mut out).is_ok(), "resynced");
                prop_assert_eq!(&out, &pristine, "post-resync reconstruction is exact");
            }
        }
    }
}
