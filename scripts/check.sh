#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, and the datapath allocation check.
# Run from the repo root (or anywhere inside it).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark harness builds against the crates' public surface (no run)"
cargo build --release --offline --manifest-path benchmarks/Cargo.toml

# The zero-allocation benches: `--test` runs each closure once, and each
# bench asserts 0 allocations on its hot paths (bench::alloc_count).
# driver_rx also pins the two whole-world transit paths at their measured
# counts, all of them the sender's own: world/denied_transit (Ethernet ->
# gateway -> deny at the radio output hook) and world/ether_forward
# (Ethernet -> router -> Ethernet -> UDP socket), 3 allocations per
# datagram each.
for b in driver_rx encap_fwd vj_hdr byte_kernels socket_ops shard_sync \
         workload_gen filter_eval route_lookup; do
    echo "==> cargo bench -p bench --bench $b -- --test"
    cargo bench -p bench --bench "$b" -- --test
done

# The calendar's ratchet: re-keying a parked key earlier, popping it and
# parking it again neither allocates nor grows the heap (one entry per key).
echo "==> cargo bench -p bench --bench engine -- --test scheduler"
cargo bench -p bench --bench engine -- --test scheduler

echo "==> sharded-engine digest smoke (2 workers vs reference)"
cargo test -q -p gateway --test shard_equivalence two_worker_digest_smoke

echo "==> E1-E18 outputs byte-identical to results/ (E17 checks its acceptance bars on the way)"
scripts/run_all_experiments.sh --check

echo "==> all checks passed"
