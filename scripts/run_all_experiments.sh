#!/bin/sh
# Regenerates every experiment output in results/ (see EXPERIMENTS.md).
# All runs are deterministic; outputs should be byte-identical across
# machines.
#
#   scripts/run_all_experiments.sh           rewrite results/
#   scripts/run_all_experiments.sh --check   regenerate into a temp dir and
#                                            cmp against results/; names the
#                                            files that differ, exits 1 if any
set -eu
cd "$(dirname "$0")/.."

out=results
if [ "${1:-}" = --check ]; then
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
fi

cargo build --release -p bench --bins
mkdir -p "$out"

for e in e1_latency_breakdown e2_promiscuous_load e3_timeouts e4_routing \
         e5_access_control e6_services e7_digipeaters e8_appgw \
         e9_fragmentation e10_csma_ablation e11_netrom_backbone \
         e12_route_exchange e13_vj_compression e14_sockets_dns \
         e15_city_scale e17_filter_flood e18_forwarding_plane; do
    echo "running $e …"
    ./target/release/"$e" > "$out/$e.txt" 2>&1
done

# E16 at full city scale takes a minute; the recorded output is the small
# deterministic smoke configuration (full-size knobs in EXPERIMENTS.md).
echo "running e16_load_sweep (smoke mesh) …"
E16_GATEWAYS=4 E16_HOSTS=4 E16_SECONDS=150 \
    ./target/release/e16_load_sweep > "$out/e16_load_sweep.txt" 2>&1

if [ "$out" = results ]; then
    echo "all experiment outputs written to results/"
    exit 0
fi

differ=0
for f in "$out"/*.txt; do
    name=$(basename "$f")
    if ! cmp -s "$f" "results/$name"; then
        echo "DIFFERS: results/$name"
        differ=1
    fi
done
[ "$differ" -eq 0 ] && echo "all experiment outputs match results/"
exit "$differ"
