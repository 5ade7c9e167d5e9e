//! The ratchets: allocation counts and heap bytes under the counting
//! allocator, `len()` and ring-growth bounds, poll counts, inline sizes —
//! invariants of the datapath that may only tighten, one module per layer. They time nothing; how many
//! nanoseconds a layer costs is a `benchmarks/` row (`BENCHMARK.json`,
//! `scripts/bench_pairs.sh`).
//!
//! The allocator counts per thread, so the tests run under libtest's
//! default parallelism without seeing each other.

use bench::alloc_count::allocs_during;

bench::install_counting_alloc!();

mod byte_kernels;
mod driver_rx;
mod encap_fwd;
mod engine;
mod filter_eval;
mod footprint;
mod route_lookup;
mod shard_sync;
mod socket_ops;
mod vj_hdr;
mod workload_gen;

/// What lets the modules above share one process: an allocation another
/// thread makes while the closure runs is that thread's, not ours.
#[test]
fn a_neighbouring_threads_allocations_are_not_counted() {
    // Two rendezvous (a `Barrier` wait does not allocate): the first once
    // our closure is counting, the second once the neighbour's `Vec` exists.
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let neighbour = s.spawn(|| {
            barrier.wait();
            let theirs = allocs_during(|| drop(std::hint::black_box(vec![0u8; 64])));
            barrier.wait();
            theirs
        });
        let ours = allocs_during(|| {
            barrier.wait();
            barrier.wait();
        });
        let theirs = neighbour.join().expect("the neighbour does not panic");
        assert_eq!(theirs, 1, "the neighbour's own count sees its Vec");
        assert_eq!(ours, 0, "and ours does not");
    });
}
