#!/usr/bin/env bash
# The benchmark's one command: build the harness (release, offline, no
# external crates), then run it with the given arguments.
#
#   benchmarks/run.sh                       whole suite, seed 1988
#   benchmarks/run.sh --seed 2244           whole suite, another seed
#   benchmarks/run.sh --selfcheck           suite twice, compared
#   benchmarks/run.sh --workload gw_flood --seed 7 --seconds 8 --trace 0
#                                           one workload (the driver's form)
#
# Run from anywhere. Build output goes to $CARGO_TARGET_DIR when set,
# else to benchmarks/target; results and traces go to benchmarks/out.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
export BENCHMARKS_DIR="$here"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build chatter goes to stderr: stdout carries only the benchmark's own
# output, whose last line is the JSON result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/benchmarks" "$@"
