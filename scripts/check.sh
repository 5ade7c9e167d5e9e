#!/usr/bin/env bash
# Tier-1 gate: build, tests (the datapath ratchets among them), lints, goldens.
# Run from the repo root (or anywhere inside it).
#
#   scripts/check.sh             the gate
#   scripts/check.sh --mutants   instead: the mutation checks of mutants/
#                                (scripts/mutants.sh; one build per mutant)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--mutants" ]; then
    shift
    exec scripts/mutants.sh "$@"
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The workspace run above already held the ratchets (allocation counts, len()
# bounds, poll counts) in the dev profile; hold them in the profile the
# benchmark ships too. The two agree today — keep it that way.
echo "==> cargo test -q --release -p bench --test ratchets"
cargo test -q --release -p bench --test ratchets

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark harness builds against the crates' public surface (no run)"
cargo build --release --offline --manifest-path benchmarks/Cargo.toml

echo "==> sharded-engine digest smoke (2 workers vs reference)"
cargo test -q -p gateway --test shard_equivalence two_worker_digest_smoke

echo "==> E1-E18 and the claims ledger byte-identical to results/; every experiment's claims hold"
cargo run -q --release -p bench -- --check results

echo "==> EXPERIMENTS.md quotes the claims ledger verbatim"
if grep -vxFf EXPERIMENTS.md results/claims.txt; then
    echo "the lines above are in results/claims.txt but not in EXPERIMENTS.md"
    exit 1
fi

echo "==> all checks passed"
