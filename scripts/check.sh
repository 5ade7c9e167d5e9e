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

# The ratchets: every file in crates/bench/benches/ is a bench target that
# asserts something (allocation counts, same-run ratios, len() bounds), and
# `--test` runs each closure once, so this loop is the whole set by
# construction. driver_rx also pins the two whole-world transit paths at
# their measured counts, all of them the sender's own: world/denied_transit
# (Ethernet -> gateway -> deny at the radio output hook) and
# world/ether_forward (Ethernet -> router -> Ethernet -> UDP socket), 3
# allocations per datagram each; engine is the calendar's ratchet.
declared=$(sed -n '/^\[\[bench\]\]/{n;s/^name = "\(.*\)"$/\1/p;}' crates/bench/Cargo.toml | sort)
present=$(basename -s .rs crates/bench/benches/*.rs | sort)
if [ "$declared" != "$present" ]; then
    echo "crates/bench/Cargo.toml [[bench]] entries and crates/bench/benches/*.rs differ" >&2
    exit 1
fi
for b in $present; do
    grep -q 'assert' "crates/bench/benches/$b.rs" ||
        { echo "crates/bench/benches/$b.rs asserts nothing" >&2; exit 1; }
    echo "==> cargo bench -p bench --bench $b -- --test"
    cargo bench -p bench --bench "$b" -- --test
done

echo "==> sharded-engine digest smoke (2 workers vs reference)"
cargo test -q -p gateway --test shard_equivalence two_worker_digest_smoke

echo "==> E1-E18 outputs byte-identical to results/ (E17 checks its acceptance bars on the way)"
scripts/run_all_experiments.sh --check

echo "==> all checks passed"
