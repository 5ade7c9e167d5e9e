#!/usr/bin/env bash
# Performance snapshot: runs the `engine` bench groups (full-scan
# reference stepper vs the deadline-indexed scheduler, plus the sharded
# engine's worker sweep), the `driver_rx` datapath group, the `encap_fwd`
# tunnel hot path, the `vj_hdr` RFC 1144 header compression path, the
# `byte_kernels` bulk/scalar pairs, the `socket_ops` shim, the
# `shard_sync` cross-shard hand-off, the `workload_gen` fleet
# schedule/recorder group, the `filter_eval` packet-filter hot path,
# and the E15/E16 city-scale scaling runs,
# and APPENDS every measurement to BENCH_engine.json as
#   {"bench": <name>, "median_ns": <ns/iter>, "threads": <n>, "timestamp": <utc>}
# so the file accumulates a history. The `threads` field is parsed from a
# `_<n>w` suffix in the bench name (1 when absent) — the sharded-engine
# rows are only comparable at equal worker counts. Each fresh median is
# diffed against the BEST of that bench's last five recorded runs;
# anything more than BENCH_REGRESSION_PCT percent slower (default 10)
# than the recent best is flagged with a REGRESSION line. Only fresh rows
# are compared: a bench that no longer exists has no fresh row, so it is
# absent from the report (its history stays in the file), never a
# regression. This is informational and run by hand — scripts/check.sh
# does not call it, so the tier-1 gate writes no tracked file. Tighten or
# loosen the threshold per run:
#   BENCH_REGRESSION_PCT=25 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

regression_pct=${BENCH_REGRESSION_PCT:-10}

out=BENCH_engine.json
tmp=$(mktemp)
new_rows=$(mktemp)
rows=$(mktemp)
trap 'rm -f "$tmp" "$new_rows" "$rows"' EXIT

echo "==> cargo bench -p bench --bench engine -- engine"
cargo bench -p bench --bench engine -- engine | tee "$tmp"
echo "==> cargo bench -p bench --bench driver_rx"
cargo bench -p bench --bench driver_rx | tee -a "$tmp"
echo "==> cargo bench -p bench --bench encap_fwd"
cargo bench -p bench --bench encap_fwd | tee -a "$tmp"
echo "==> cargo bench -p bench --bench vj_hdr"
cargo bench -p bench --bench vj_hdr | tee -a "$tmp"
echo "==> cargo bench -p bench --bench byte_kernels"
cargo bench -p bench --bench byte_kernels | tee -a "$tmp"
echo "==> cargo bench -p bench --bench socket_ops"
cargo bench -p bench --bench socket_ops | tee -a "$tmp"
echo "==> cargo bench -p bench --bench shard_sync"
cargo bench -p bench --bench shard_sync | tee -a "$tmp"

echo "==> cargo bench -p bench --bench workload_gen"
cargo bench -p bench --bench workload_gen | tee -a "$tmp"

echo "==> cargo bench -p bench --bench filter_eval"
cargo bench -p bench --bench filter_eval | tee -a "$tmp"

echo "==> cargo bench -p bench --bench route_lookup"
cargo bench -p bench --bench route_lookup | tee -a "$tmp"

echo "==> E15 city-scale scaling run (scaled-down mesh; see EXPERIMENTS.md)"
cargo build --release -p bench --bin e15_city_scale
E15_BENCH=1 E15_GATEWAYS=32 E15_HOSTS=4 E15_SECONDS=30 \
    ./target/release/e15_city_scale | tee -a "$tmp"

echo "==> E16 fleet-load scaling run (scaled-down mesh; see EXPERIMENTS.md)"
cargo build --release -p bench --bin e16_load_sweep
E16_BENCH=1 E16_GATEWAYS=32 E16_HOSTS=4 E16_SECONDS=60 E16_SWEEP=0 \
    ./target/release/e16_load_sweep | tee -a "$tmp"

echo "==> E18 forwarding-plane mesh run (cached vs cache-off wall clock)"
cargo build --release -p bench --bin e18_forwarding_plane
E18_BENCH=1 ./target/release/e18_forwarding_plane | tee -a "$tmp"

# "name median" pairs from Criterion's "<name> ... <median> ns/iter" lines.
awk '
    { for (i = 3; i <= NF; i++) if ($i == "ns/iter") { print $1, $(i - 1); break } }
' "$tmp" > "$new_rows"

# Regression guard: compare each fresh median against the best (lowest)
# of that bench's last five recorded rows. Informational only — the exit
# status stays 0.
if [ -f "$out" ]; then
    echo "==> comparing against best of last 5 rows in $out (threshold +${regression_pct}%)"
    awk -v pct="$regression_pct" '
        NR == FNR {
            if (match($0, /"bench": "[^"]*"/)) {
                name = substr($0, RSTART + 10, RLENGTH - 11)
                if (match($0, /"median_ns": [0-9.]+/)) {
                    cnt[name]++
                    vals[name, cnt[name]] = substr($0, RSTART + 13, RLENGTH - 13) + 0
                }
            }
            next
        }
        {
            if ($1 in cnt) {
                lo = cnt[$1] - 4 > 1 ? cnt[$1] - 4 : 1
                best = vals[$1, lo]
                for (j = lo + 1; j <= cnt[$1]; j++)
                    if (vals[$1, j] < best) best = vals[$1, j]
                if (best > 0 && $2 > best * (1 + pct / 100))
                    printf "REGRESSION %s: %.1f ns/iter vs best-of-5 %.1f ns/iter (+%.0f%%)\n", \
                        $1, $2, best, ($2 / best - 1) * 100
                else
                    printf "ok %s: %.1f ns/iter (best-of-5 %.1f)\n", $1, $2, best
            } else {
                printf "new %s: %.1f ns/iter\n", $1, $2
            }
        }
    ' "$out" "$new_rows"
fi

# Append the fresh rows, preserving all history. Worker count comes from
# the bench name's `_<n>w` suffix; plain benches are single-threaded.
if [ -f "$out" ]; then
    grep '"bench"' "$out" | sed 's/,$//' > "$rows" || true
fi
ts=$(date -u +"%Y-%m-%dT%H:%M:%SZ")
awk -v ts="$ts" '
    {
        threads = 1
        if (match($1, /_[0-9]+w$/))
            threads = substr($1, RSTART + 1, RLENGTH - 2) + 0
        printf "  {\"bench\": \"%s\", \"median_ns\": %s, \"threads\": %d, \"timestamp\": \"%s\"}\n", \
            $1, $2, threads, ts
    }
' "$new_rows" >> "$rows"
{
    echo "["
    sed '$!s/$/,/' "$rows"
    echo "]"
} > "$out"

echo "==> appended $(wc -l < "$new_rows") rows to $out"
