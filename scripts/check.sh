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

echo "==> cargo bench -p bench --bench driver_rx -- --test"
cargo bench -p bench --bench driver_rx -- --test

echo "==> cargo bench -p bench --bench encap_fwd -- --test"
cargo bench -p bench --bench encap_fwd -- --test

echo "==> cargo bench -p bench --bench vj_hdr -- --test"
cargo bench -p bench --bench vj_hdr -- --test

echo "==> cargo bench -p bench --bench byte_kernels -- --test"
cargo bench -p bench --bench byte_kernels -- --test

echo "==> cargo bench -p bench --bench socket_ops -- --test"
cargo bench -p bench --bench socket_ops -- --test

echo "==> cargo bench -p bench --bench shard_sync -- --test"
cargo bench -p bench --bench shard_sync -- --test

echo "==> cargo bench -p bench --bench workload_gen -- --test (asserts 0-alloc recorder path)"
cargo bench -p bench --bench workload_gen -- --test

echo "==> cargo bench -p bench --bench filter_eval -- --test (asserts 0-alloc eval paths)"
cargo bench -p bench --bench filter_eval -- --test

echo "==> cargo bench -p bench --bench route_lookup -- --test (asserts 0-alloc lookup paths)"
cargo bench -p bench --bench route_lookup -- --test

echo "==> sharded-engine digest smoke (2 workers vs reference)"
cargo test -q -p gateway --test shard_equivalence two_worker_digest_smoke

echo "==> E17 flood smoke (filter engine acceptance bars)"
cargo build --release -p bench --bin e17_filter_flood
./target/release/e17_filter_flood > /dev/null

echo "==> scripts/bench.sh (non-gating)"
bash scripts/bench.sh || echo "WARN: bench snapshot failed (non-gating)"

echo "==> all checks passed"
