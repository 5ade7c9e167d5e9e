//! Differential properties for the bulk byte kernels (DESIGN.md §9): the
//! SWAR/bulk implementations must be **observably identical** to the
//! scalar reference paths they replaced, over arbitrary inputs and — for
//! the streaming deframer — arbitrary chunk boundaries, including splits
//! that land between a FESC and its escape code.

use ax25::fcs::{crc16_x25, crc16_x25_ref};
use proptest::prelude::*;

/// Bytes biased heavily toward the KISS specials so frames, escapes, bad
/// escapes, and resyncs all appear in short streams.
fn arb_kiss_stream() -> impl Strategy<Value = Vec<u8>> {
    let byte = (any::<u8>(), any::<u8>()).prop_map(|(sel, raw)| match sel % 8 {
        0 | 1 => kiss::FEND,
        2 => kiss::FESC,
        3 => kiss::TFEND,
        4 => kiss::TFESC,
        // Mostly-valid type bytes keep whole frames alive often enough.
        5 => raw & 0x0F,
        _ => raw,
    });
    proptest::collection::vec(byte, 0..200)
}

/// A deframer with `room` payload octets left before its length cap: at
/// rest when `room` is the whole cap, otherwise inside an open data frame
/// that already holds the rest. Both paths of a comparison start from a
/// clone of the same one.
fn deframer_with_room(room: usize) -> kiss::Deframer {
    let mut d = kiss::Deframer::new();
    let held = kiss::Deframer::DEFAULT_MAX_LEN.saturating_sub(room);
    if held > 0 {
        for b in [kiss::FEND, 0x00]
            .into_iter()
            .chain(std::iter::repeat_n(0x55, held))
        {
            assert!(d.push(b).is_none());
        }
    }
    d
}

/// Feeds `stream` one byte at a time through the scalar reference path.
fn deframe_per_byte(
    stream: &[u8],
    start: &kiss::Deframer,
) -> (Vec<(u8, kiss::Command, Vec<u8>)>, kiss::DeframerStats) {
    let mut d = start.clone();
    let mut frames = Vec::new();
    for &b in stream {
        if let Some(f) = d.push(b) {
            frames.push((f.port, f.command, f.payload.to_vec()));
        }
    }
    (frames, d.stats())
}

/// Feeds `stream` through the bulk path, split at the given cut points.
fn deframe_chunked(
    stream: &[u8],
    start: &kiss::Deframer,
    cuts: &[usize],
) -> (Vec<(u8, kiss::Command, Vec<u8>)>, kiss::DeframerStats) {
    let mut d = start.clone();
    let mut frames = Vec::new();
    let mut start = 0;
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
    bounds.push(stream.len());
    bounds.sort_unstable();
    for end in bounds {
        let chunk = &stream[start..end.max(start)];
        start = start.max(end);
        d.push_slice(chunk, |_, f| {
            frames.push((f.port, f.command, f.payload.to_vec()));
        });
    }
    (frames, d.stats())
}

/// Scalar oracle for KISS escaping, written independently of the crate:
/// appends the escaped `bytes` to `out`.
fn escape_oracle(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        match b {
            kiss::FEND => out.extend_from_slice(&[kiss::FESC, kiss::TFEND]),
            kiss::FESC => out.extend_from_slice(&[kiss::FESC, kiss::TFESC]),
            other => out.push(other),
        }
    }
}

proptest! {
    /// The bulk deframer produces the same frames (port, command, payload)
    /// and the same statistics as the per-byte reference, no matter where
    /// the input is cut into chunks — including cuts that split a FESC
    /// from its escape code or a frame across many `push_slice` calls.
    /// The stream may begin inside a frame close to the length cap, and a
    /// frame whose clean body ends just below, at or past the cap may be
    /// spliced in anywhere, so oversize frames are cut too.
    #[test]
    fn bulk_deframing_matches_per_byte_at_any_chunking(
        stream in arb_kiss_stream(),
        room in (0usize..4).prop_map(|i| [1usize, 8, 16, kiss::Deframer::DEFAULT_MAX_LEN][i]),
        long in (0usize..4).prop_map(|i| [0usize, 1023, 1024, 1025][i]),
        at in any::<usize>(),
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let mut stream = stream;
        if long > 0 {
            let at = at % (stream.len() + 1);
            let body = [kiss::FEND, 0x00].into_iter().chain(std::iter::repeat_n(0x55, long));
            stream.splice(at..at, body);
        }
        let start = deframer_with_room(room);
        let (ref_frames, ref_stats) = deframe_per_byte(&stream, &start);
        let (bulk_frames, bulk_stats) = deframe_chunked(&stream, &start, &cuts);
        prop_assert_eq!(&bulk_frames, &ref_frames, "frames diverged");
        prop_assert_eq!(bulk_stats, ref_stats, "stats diverged");
    }

    /// A chunk boundary placed directly between FESC and its escape code
    /// (the nastiest split) never changes the outcome.
    #[test]
    fn fesc_straddling_a_chunk_boundary_is_transparent(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        escaped_at in any::<usize>(),
    ) {
        let mut p = payload;
        if !p.is_empty() {
            let at = escaped_at % p.len();
            p[at] = kiss::FEND; // guarantees a FESC on the wire
        }
        let wire = kiss::encode(0, kiss::Command::Data, &p);
        // Split exactly after each FESC in turn.
        for (i, &b) in wire.iter().enumerate() {
            if b != kiss::FESC {
                continue;
            }
            let mut d = kiss::Deframer::new();
            let mut got = Vec::new();
            d.push_slice(&wire[..=i], |_, f| got.push(f.payload.to_vec()));
            d.push_slice(&wire[i + 1..], |_, f| got.push(f.payload.to_vec()));
            prop_assert_eq!(got.len(), 1, "one frame expected");
            prop_assert_eq!(&got[0], &p, "payload corrupted at split {}", i);
        }
    }

    /// Bulk escaping emits exactly what the byte-at-a-time oracle does.
    #[test]
    fn bulk_escaping_matches_the_scalar_oracle(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        kiss::push_escaped_slice(&mut got, &payload);
        escape_oracle(&mut want, &payload);
        prop_assert_eq!(got, want);
    }

    /// The slice-by-8 CRC equals the bitwise reference on any input,
    /// whatever its length modulo the 8-byte chunk width.
    #[test]
    fn sliced_crc_matches_bitwise_reference(
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        prop_assert_eq!(crc16_x25(&data), crc16_x25_ref(&data));
    }

}

/// splitmix64: the inner generator of the million-case sweeps below, one
/// proptest case seeding 1,024 inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for lane in buf.chunks_mut(8) {
            lane.copy_from_slice(&self.next().to_ne_bytes()[..lane.len()]);
        }
    }
}

// A million inputs per kernel (1,024 cases x 1,024 inputs): a fast kernel
// that is wrong on a few inputs per million passes the short sweeps above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The slice-by-8 CRC against the bitwise one on a million frames of
    /// 0..=40 bytes: every length modulo the chunk width, head and tail.
    #[test]
    fn sliced_crc_matches_reference_on_a_million_frames(seed in any::<u64>()) {
        let mut rng = SplitMix(seed);
        let mut frame = [0u8; 40];
        for _ in 0..1024 {
            rng.fill(&mut frame);
            let data = &frame[..rng.next() as usize % (frame.len() + 1)];
            prop_assert_eq!(crc16_x25(data), crc16_x25_ref(data), "frame {:02x?}", data);
        }
    }

    /// `push_slice` against per-byte `push` on a million 32-byte streams,
    /// half of every stream `FEND`/`FESC`/`TFEND`/`TFESC`, each cut into
    /// chunks at up to three random places; half of them begin inside a
    /// frame 8 octets short of the length cap.
    #[test]
    fn bulk_deframing_matches_per_byte_on_a_million_streams(seed in any::<u64>()) {
        let starts = [deframer_with_room(8), kiss::Deframer::new()];
        let mut rng = SplitMix(seed);
        let (mut stream, mut sel) = ([0u8; 32], [0u8; 32]);
        for _ in 0..1024 {
            rng.fill(&mut stream);
            rng.fill(&mut sel);
            for (b, sel) in stream.iter_mut().zip(sel) {
                match sel & 7 {
                    0 | 1 => *b = kiss::FEND,
                    2 => *b = kiss::FESC,
                    3 => *b = [kiss::TFEND, kiss::TFESC][usize::from(sel >> 7)],
                    // A valid type byte now and then keeps whole frames alive.
                    4 => *b &= 0x0F,
                    _ => {}
                }
            }
            let cut = rng.next();
            let cuts = [cut as usize, (cut >> 16) as usize, (cut >> 32) as usize];
            let cuts = &cuts[..(cut >> 62) as usize];
            let start = &starts[(cut >> 61 & 1) as usize];
            prop_assert_eq!(
                deframe_chunked(&stream, start, cuts),
                deframe_per_byte(&stream, start),
                "stream {:02x?} cuts {:?} start at rest {}",
                stream, cuts, start.at_rest()
            );
        }
    }

    /// `push_escaped_slice` against the byte-at-a-time oracle on a million
    /// payloads of 0..=40 bytes, a quarter of them `FEND`/`FESC`, each
    /// appended after a short prefix already in the buffer: every length
    /// modulo the word width, specials in every lane, head and tail.
    #[test]
    fn bulk_escaping_matches_the_oracle_on_a_million_payloads(seed in any::<u64>()) {
        let mut rng = SplitMix(seed);
        let (mut payload, mut sel) = ([0u8; 40], [0u8; 40]);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for _ in 0..1024 {
            rng.fill(&mut payload);
            rng.fill(&mut sel);
            for (b, sel) in payload.iter_mut().zip(sel) {
                match sel & 7 {
                    0 => *b = kiss::FEND,
                    1 => *b = kiss::FESC,
                    _ => {}
                }
            }
            let r = rng.next();
            let data = &payload[..r as usize % (payload.len() + 1)];
            let prefix = &payload[..(r >> 32) as usize % 4];
            got.clear();
            got.extend_from_slice(prefix);
            kiss::push_escaped_slice(&mut got, data);
            want.clear();
            want.extend_from_slice(prefix);
            escape_oracle(&mut want, data);
            prop_assert_eq!(&got, &want, "payload {:02x?}", data);
        }
    }
}
