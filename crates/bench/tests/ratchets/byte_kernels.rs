//! The byte kernels (DESIGN.md §9) — KISS deframing and escaping, the
//! AX.25 CRC-16/X.25, the RFC 1071 internet checksum — never touch the
//! heap in steady state. That the bulk ones stay bit-identical to their
//! scalar reference paths is `tests/byte_kernel_props.rs`.

use crate::allocs_during;
use ax25::fcs::crc16_x25;
use sim::wire::internet_checksum;
use sim::ByteSink;
use std::hint::black_box;

/// A frame-sized payload with both escape triggers present, the shape the
/// gateway sees from a promiscuous TNC.
fn frame_payload() -> Vec<u8> {
    let mut payload = vec![0u8; 220];
    for (i, b) in payload.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31).wrapping_add(7);
    }
    payload[40] = kiss::FEND;
    payload[80] = kiss::FESC;
    payload
}

#[test]
fn deframe_bulk() {
    // A serial burst of KISS data frames carrying `frame_payload`.
    let burst = kiss::encode(0, kiss::Command::Data, &frame_payload()).repeat(8);
    let mut bulk = kiss::Deframer::new();
    let mut deframe = || {
        bulk.push_slice(&burst, |_, f| {
            black_box(f.payload.len());
        })
    };
    deframe(); // sizes the deframer's frame buffer
    let allocs = allocs_during(deframe);
    assert_eq!(allocs, 0, "warm bulk deframing must not touch the heap");
}

#[test]
fn escape_bulk() {
    let payload = frame_payload();
    let mut out: Vec<u8> = Vec::with_capacity(payload.len() * 2 + 8);
    let allocs = allocs_during(|| {
        kiss::encode_frame_into(0, kiss::Command::Data, &mut out, |esc| {
            esc.put_slice(&payload);
        });
    });
    assert_eq!(allocs, 0, "warm bulk escaping must not touch the heap");
}

#[test]
fn crc16_sliced() {
    let data: Vec<u8> = (0..256u32)
        .map(|i| (i.wrapping_mul(37) >> 2) as u8)
        .collect();
    let allocs = allocs_during(|| {
        black_box(crc16_x25(&data));
    });
    assert_eq!(allocs, 0, "CRC kernel must not touch the heap");
}

#[test]
fn checksum_over_parts() {
    // An MTU-ish datagram body plus a small pseudo-header part, the shape
    // the TCP/UDP checksummers pass in.
    let header = vec![0x11u8; 12];
    let body: Vec<u8> = (0..1480u32)
        .map(|i| (i.wrapping_mul(101) >> 3) as u8)
        .collect();
    let allocs = allocs_during(|| {
        black_box(internet_checksum(&[&header, &body]));
    });
    assert_eq!(allocs, 0, "the internet checksum must not touch the heap");
}
