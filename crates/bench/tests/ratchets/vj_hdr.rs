//! The RFC 1144 header compression hot path: the steady-state keystroke
//! stream (one byte of payload, SPECIAL_D deltas) compressed and
//! reconstructed. Both directions run on stack buffers and a reused
//! output `Vec`, and both stay zero-allocation like the rest of the
//! datapath.

use crate::allocs_during;
use std::hint::black_box;
use vj::{VjCompressor, VjDecompressor, VjOutcome};

/// One keystroke datagram: 40-byte TCP/IP header + 1 payload byte.
const DGRAM_LEN: usize = 41;

/// Writes packet `n` of the keystroke stream into `buf`: seq and IP ID
/// advance by one each packet, everything else is constant, and the TCP
/// checksum is correct (the decompressor verifies it).
fn make_packet(buf: &mut [u8; DGRAM_LEN], n: u32) {
    *buf = [0; DGRAM_LEN];
    buf[0] = 0x45;
    buf[2..4].copy_from_slice(&(DGRAM_LEN as u16).to_be_bytes());
    buf[4..6].copy_from_slice(&((7 + n) as u16).to_be_bytes());
    buf[8] = 30;
    buf[9] = 6;
    buf[12..16].copy_from_slice(&[44, 24, 0, 5]);
    buf[16..20].copy_from_slice(&[128, 95, 1, 4]);
    buf[20..22].copy_from_slice(&1024u16.to_be_bytes());
    buf[22..24].copy_from_slice(&7u16.to_be_bytes());
    buf[24..28].copy_from_slice(&(100 + n).to_be_bytes());
    buf[28..32].copy_from_slice(&9000u32.to_be_bytes());
    buf[32] = 5 << 4;
    buf[33] = 0x10 | 0x08; // ACK + PSH
    buf[34..36].copy_from_slice(&4096u16.to_be_bytes());
    buf[40] = b'a' + (n % 26) as u8;
    let ck = tcp_checksum(buf);
    buf[36..38].copy_from_slice(&ck.to_be_bytes());
    // IP header checksum: the compressor ignores it, but keep the packet
    // honest for the refresh path.
    buf[10..12].copy_from_slice(&[0, 0]);
    let ipck = ones_complement(&buf[..20], &[]);
    buf[10..12].copy_from_slice(&ipck.to_be_bytes());
}

/// RFC 1071 checksum over two slices (on the stack, no allocation).
fn ones_complement(a: &[u8], b: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut carry: Option<u8> = None;
    for &byte in a.iter().chain(b) {
        match carry.take() {
            None => carry = Some(byte),
            Some(hi) => sum += u32::from(u16::from_be_bytes([hi, byte])),
        }
    }
    if let Some(hi) = carry {
        sum += u32::from(u16::from_be_bytes([hi, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

fn tcp_checksum(dgram: &[u8; DGRAM_LEN]) -> u16 {
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&dgram[12..16]);
    pseudo[4..8].copy_from_slice(&dgram[16..20]);
    pseudo[9] = 6;
    pseudo[10..12].copy_from_slice(&((DGRAM_LEN - 20) as u16).to_be_bytes());
    ones_complement(&pseudo, &dgram[20..])
}

#[test]
fn compress() {
    let mut comp = VjCompressor::new();
    let mut n = 0u32;
    let mut buf = [0u8; DGRAM_LEN];
    let mut compress = || {
        make_packet(&mut buf, n);
        n += 1;
        black_box(comp.compress(&mut buf));
    };
    compress(); // packet 0 seeds the slot (refresh); steady state after
    let allocs = allocs_during(compress);
    eprintln!("vj_hdr/compress: {allocs} heap allocations per packet");
    assert_eq!(
        allocs, 0,
        "the VJ compress fast path must not touch the heap"
    );
}

#[test]
fn compress_decompress() {
    let mut comp = VjCompressor::new();
    let mut deco = VjDecompressor::new();
    let mut out = Vec::with_capacity(4 * DGRAM_LEN);
    let mut m = 0u32;
    let mut roundtrip = || {
        let mut dgram = [0u8; DGRAM_LEN];
        make_packet(&mut dgram, m);
        m += 1;
        match comp.compress(&mut dgram) {
            VjOutcome::Compressed { start } => {
                deco.decompress(&dgram[start..], &mut out).expect("in sync");
            }
            VjOutcome::Uncompressed => {
                deco.refresh(&mut dgram).expect("refresh ok");
                out.clear();
                out.extend_from_slice(&dgram);
            }
            VjOutcome::Ip => unreachable!("keystroke stream is compressible"),
        }
        black_box(out.len());
    };
    roundtrip(); // refresh seeds the slot and warms `out`
    let allocs = allocs_during(roundtrip);
    eprintln!("vj_hdr/compress_decompress: {allocs} heap allocations per packet");
    assert_eq!(
        allocs, 0,
        "the VJ decompress fast path must not touch the heap"
    );
}
