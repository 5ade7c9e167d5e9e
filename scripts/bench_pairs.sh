#!/usr/bin/env bash
# Parent-vs-working-tree comparison of benchmark workloads, by the
# choosing-metrics §8 procedure: N pairs of runs per workload, alternating
# which side goes first, each side's median [q1, q3] per end-to-end
# metric, and for every end-to-end metric of BENCHMARK.json in every
# workload a verdict: the change's median relative to the parent's as a
# signed percentage, how many pairs the working tree was better in and how
# many worse ("better" in the direction BENCHMARK.json gives), and a flag
# where the change's median is worse than the metric's `bound`.
#
#   scripts/bench_pairs.sh <parent-rev> <workload[,workload…]> [pairs=10] [seed=1988]
#   scripts/bench_pairs.sh HEAD~1 city_fleet_1w 10 2244
#   scripts/bench_pairs.sh HEAD~1 gw_flood,paper_promisc,city_fleet_1w
#                          (the claim and both must-not-move workloads: one
#                           invocation, one table; pair i runs every workload)
#
# The parent is exported (git archive) into a scratch directory and both
# sides build into their own target directories there, so nothing tracked
# is written. Scratch goes to $BENCH_PAIRS_DIR (default target/bench_pairs,
# which .gitignore covers). Run by hand; scripts/check.sh does not call it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    sed -n '2,20p' "$0" >&2
    exit 2
fi
rev=$1
workloads=${2//,/ }
pairs=${3:-10}
seed=${4:-1988}
seconds=$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' BENCHMARK.json)

scratch=${BENCH_PAIRS_DIR:-target/bench_pairs}
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
rm -rf "$scratch/parent-src"
mkdir -p "$scratch/parent-src"
git archive "$rev" | tar -x -C "$scratch/parent-src"

# One run of one side: prints its `metric` lines as "<name> <value>".
run_side() { # <side> <workload>
    local src=.
    [ "$1" = parent ] && src="$scratch/parent-src"
    CARGO_TARGET_DIR="$scratch/$1-target" bash "$src/benchmarks/run.sh" \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 |
        awk '$1 == "metric" { print $3, $4 }'
}

echo "==> building both sides (the first run of each is discarded)" >&2
run_side parent "${workloads%% *}" > /dev/null
run_side change "${workloads%% *}" > /dev/null

: > "$scratch/runs.txt"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for workload in $workloads; do
        for side in $order; do
            run_side "$side" "$workload" | sed "s/^/$i $side $workload:/" >> "$scratch/runs.txt"
        done
        awk -v i="$i" -v m="$workload:host_us_per_sim_s" '$1 == i && $3 == m { v[$2] = $4 }
            END { printf "pair %d %s: parent %.1f change %.1f\n", i, m, v["parent"], v["change"] }' \
            "$scratch/runs.txt" >&2
    done
done

echo "${workloads// /, } seed $seed, $pairs alternating pairs of ${seconds}s runs, $(nproc) core(s); median [q1, q3]"
sort -k3,3 -k2,2 -k4,4g "$scratch/runs.txt" | awk '
    function quart(q,   pos, lo, frac) {
        pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
        return lo < n ? v[lo] + frac * (v[lo + 1] - v[lo]) : v[n]
    }
    function flush_group() {
        if (n) printf "%-34s %-6s %.6g [%.6g, %.6g]\n", metric, side, quart(0.5), quart(0.25), quart(0.75)
        n = 0
    }
    $3 != metric || $2 != side { flush_group(); metric = $3; side = $2 }
    { v[++n] = $4 }
    END { flush_group() }'
# "<metric> <lower|higher> <bound>" for each end-to-end metric, in BENCHMARK.json order.
awk '/"end_to_end"/ { inside = 1 }
    inside && /\]/ { inside = 0 }
    inside && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    inside && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    inside && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }' BENCHMARK.json > "$scratch/better.txt"
echo
echo "verdict: change median vs parent median (signed, + is a larger value); pairs better / worse"
awk -v workloads="$workloads" '
    function median(side, key,   k, m, i, j, t, a) {
        m = 0
        for (k = 1; k <= n; k++) if ((k, side, key) in v) a[++m] = v[k, side, key]
        for (i = 2; i <= m; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
        if (m == 0) return ""
        return m % 2 ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
    }
    NR == FNR { metric[++nm] = $1; better[$1] = $2; bound[$1] = $3; next }
    { v[$1, $2, $3] = $4 + 0; if ($1 > n) n = $1 }
    END {
        nw = split(workloads, w, " ")
        flagged = 0
        for (i = 1; i <= nw; i++) for (j = 1; j <= nm; j++) {
            name = metric[j]; key = w[i] ":" name; wins = losses = pairs = 0
            for (p = 1; p <= n; p++) {
                if (!((p, "change", key) in v) || !((p, "parent", key) in v)) continue
                pairs++
                c = v[p, "change", key]; q = v[p, "parent", key]
                if (c != q && (c < q) == (better[name] == "lower")) wins++
                else if (c != q) losses++
            }
            if (pairs == 0) {
                printf "%-34s no runs\n", key
                continue
            }
            mc = median("change", key); mp = median("parent", key)
            if (mp != 0) {
                rel = (mc - mp) / (mp < 0 ? -mp : mp)
                shown = sprintf("%+.2f %%", 100 * rel)
            } else {
                rel = mc == 0 ? 0 : (mc > 0 ? 1e9 : -1e9)
                shown = mc == 0 ? "+0.00 %" : "n/a (parent 0)"
            }
            worse = better[name] == "lower" ? rel : -rel
            flag = ""
            if (worse > bound[name] + 0) { flag = "  WORSE THAN BOUND " bound[name]; flagged++ }
            printf "%-34s %-14s (%s is better) better in %d, worse in %d of %d pairs%s\n",
                key, shown, better[name], wins, losses, pairs, flag
        }
        printf "%d metric(s) worse than their bound\n", flagged
    }' "$scratch/better.txt" "$scratch/runs.txt"
