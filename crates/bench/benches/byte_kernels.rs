//! Criterion benchmarks for the bulk byte kernels against their scalar
//! reference paths (DESIGN.md §9): KISS deframing and escaping, the
//! AX.25 CRC-16/X.25, and the RFC 1071 internet checksum.
//!
//! Each kernel is measured next to the per-byte/bitwise implementation it
//! must stay bit-identical to, so the speedup — and any regression — is
//! visible in one report. A counting global allocator asserts the bulk
//! paths never touch the heap in steady state.

use ax25::fcs::{crc16_x25, crc16_x25_ref};
use bench::alloc_count::allocs_during;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sim::wire::{internet_checksum, internet_checksum_ref};
use sim::ByteSink;
use std::hint::black_box;

bench::install_counting_alloc!();

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

/// A serial burst of KISS data frames carrying [`frame_payload`].
fn kiss_burst() -> Vec<u8> {
    let frame = kiss::encode(0, kiss::Command::Data, &frame_payload());
    let mut burst = Vec::new();
    for _ in 0..8 {
        burst.extend_from_slice(&frame);
    }
    burst
}

fn bench_deframe(c: &mut Criterion) {
    let burst = kiss_burst();
    let mut g = c.benchmark_group("byte_kernels");
    g.throughput(Throughput::Bytes(burst.len() as u64));
    let mut bulk = kiss::Deframer::new();
    g.bench_function("deframe_bulk", |b| {
        b.iter(|| {
            let mut frames = 0u32;
            bulk.push_slice(&burst, |_, f| frames += f.payload.len() as u32);
            black_box(frames)
        })
    });
    let allocs = allocs_during(|| {
        bulk.push_slice(&burst, |_, f| {
            black_box(f.payload.len());
        });
    });
    assert_eq!(allocs, 0, "warm bulk deframing must not touch the heap");
    let mut scalar = kiss::Deframer::new();
    g.bench_function("deframe_per_byte", |b| {
        b.iter(|| {
            let mut frames = 0u32;
            for &byte in &burst {
                if let Some(f) = scalar.push(byte) {
                    frames += f.payload.len() as u32;
                }
            }
            black_box(frames)
        })
    });
    g.finish();
}

fn bench_escape(c: &mut Criterion) {
    let payload = frame_payload();
    let mut g = c.benchmark_group("byte_kernels");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    let mut out: Vec<u8> = Vec::with_capacity(payload.len() * 2 + 8);
    g.bench_function("escape_bulk", |b| {
        b.iter(|| {
            out.clear();
            kiss::encode_frame_into(0, kiss::Command::Data, &mut out, |esc| {
                esc.put_slice(&payload);
            });
            black_box(out.len())
        })
    });
    let allocs = allocs_during(|| {
        out.clear();
        kiss::encode_frame_into(0, kiss::Command::Data, &mut out, |esc| {
            esc.put_slice(&payload);
        });
    });
    assert_eq!(allocs, 0, "warm bulk escaping must not touch the heap");
    g.bench_function("escape_per_byte", |b| {
        b.iter(|| {
            out.clear();
            kiss::encode_frame_into(0, kiss::Command::Data, &mut out, |esc| {
                for &byte in &payload {
                    esc.put(byte);
                }
            });
            black_box(out.len())
        })
    });
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let data: Vec<u8> = (0..256u32)
        .map(|i| (i.wrapping_mul(37) >> 2) as u8)
        .collect();
    let mut g = c.benchmark_group("byte_kernels");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("crc16_sliced", |b| b.iter(|| black_box(crc16_x25(&data))));
    let allocs = allocs_during(|| {
        black_box(crc16_x25(&data));
    });
    assert_eq!(allocs, 0, "CRC kernel must not touch the heap");
    g.bench_function("crc16_bitwise", |b| {
        b.iter(|| black_box(crc16_x25_ref(&data)))
    });
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    // An MTU-ish datagram body plus a small pseudo-header part, the shape
    // the TCP/UDP checksummers pass in.
    let header = vec![0x11u8; 12];
    let body: Vec<u8> = (0..1480u32)
        .map(|i| (i.wrapping_mul(101) >> 3) as u8)
        .collect();
    let mut g = c.benchmark_group("byte_kernels");
    g.throughput(Throughput::Bytes((header.len() + body.len()) as u64));
    g.bench_function("checksum_folded", |b| {
        b.iter(|| black_box(internet_checksum(&[&header, &body])))
    });
    let allocs = allocs_during(|| {
        black_box(internet_checksum(&[&header, &body]));
    });
    assert_eq!(allocs, 0, "checksum kernel must not touch the heap");
    g.bench_function("checksum_scalar", |b| {
        b.iter(|| black_box(internet_checksum_ref(&[&header, &body])))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_deframe,
    bench_escape,
    bench_crc,
    bench_checksum
);
criterion_main!(benches);
