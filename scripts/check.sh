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

# The counting allocator of crates/bench is the one place unsafe code may
# live; every other library crate forbids it, so the compiler keeps it out.
echo "==> every crates/*/src/lib.rs but bench's says #![forbid(unsafe_code)]"
for lib in crates/*/src/lib.rs; do
    dir=${lib%/src/lib.rs}
    crate=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    [ "$crate" = bench ] && continue
    if ! grep -qxF '#![forbid(unsafe_code)]' "$lib"; then
        echo "crate $crate ($lib) lacks #![forbid(unsafe_code)]"
        exit 1
    fi
done

# No explicit panic reachable from the wire (ROADMAP item 3, step 1): the
# wire-facing crates already at zero deny them outside their tests, so
# clippy below fails on a new one.
echo "==> kiss serial socket netrom vj filter encap ether radio netstack ax25 deny unwrap/expect/panic/unreachable"
for crate in kiss serial socket netrom vj filter encap ether radio netstack ax25; do
    for deny in '#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]' \
        '#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]'; do
        if ! grep -qxF "$deny" "crates/$crate/src/lib.rs"; then
            echo "crate $crate (crates/$crate/src/lib.rs) lacks $deny"
            exit 1
        fi
    done
done

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

# Counts held exactly, per crate, each against its line in a ceiling file
# (no line: 0), so a rise fails and so does a fall nobody recorded. One
# census.sh run (it runs clippy for the indexing count) feeds both gates.
census=$(scripts/census.sh)
# $1: what is counted; $2: the ceiling file; $3: the heading census.sh
# prints above its `    crate count` lines.
hold_counts() {
    awk -v what="$1" -v file="$2" '
        NR == FNR { if ($1 !~ /^#/) ceiling[$1] = $2; next }
        { count[$1] = $2 }
        END {
            for (c in count)
                if (!(c in ceiling)) {
                    printf "crate %s has %d %s and no line in %s\n", c, count[c], what, file
                    bad = 1
                }
            for (c in ceiling) {
                n = (c in count) ? count[c] : 0
                if (n > ceiling[c]) {
                    printf "crate %s: %d %s exceed the ceiling %d in %s\n", c, n, what, ceiling[c], file
                    bad = 1
                } else if (n < ceiling[c]) {
                    printf "crate %s: %d %s, below the ceiling %d in %s: lower its line\n", c, n, what, ceiling[c], file
                    bad = 1
                }
            }
            exit bad
        }' "$2" <(awk -v head="$3" '
        index($0, head) == 1 { on = 1; next }
        on && /^    / { print $1, $2; next }
        { on = 0 }' <<<"$census")
}

# Owned state (ROADMAP item 11): a RefCell is state shared behind the
# borrow checker's back. A crate at 0 has no line.
echo "==> RefCell< sites per crate equal scripts/refcell_ceiling.txt"
hold_counts "RefCell< sites" scripts/refcell_ceiling.txt "RefCell< sites"

# No index or slice expression that panics on a bad offset joins the
# wire-facing crates unrecorded (ROADMAP item 3, step 2).
echo "==> indexing_slicing sites per wire-facing crate and core equal scripts/indexing_ceiling.txt"
hold_counts "indexing_slicing sites" scripts/indexing_ceiling.txt "indexing_slicing sites"

# A doc link to a name that no longer exists (or to a private one) fails
# here, so deleting an API cannot leave its docs pointing at nothing.
echo "==> cargo doc --workspace --no-deps with rustdoc warnings denied"
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline -q

echo "==> benchmark harness builds against the crates' public surface (no run)"
cargo build --release --offline --manifest-path benchmarks/Cargo.toml

# The harness counts every heap allocation of the run loop and the count
# repeats exactly, so this cannot flake: a path that starts allocating again
# fails here, by workload and seed, and so does a fall nobody recorded (as
# hold_counts does for the census counts). Lower a line when a PR lowers the
# count.
echo "==> allocs_per_sim_s equal to scripts/alloc_ceiling.txt (exact counts, per workload and seed)"
while read -r workload seed ceiling; do
    got=$(bash benchmarks/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 0 |
        awk '$1 == "metric" && $3 == "allocs_per_sim_s" { print $4 }')
    case $(awk -v got="$got" -v ceiling="$ceiling" 'BEGIN {
        if (got == "") print "missing"
        else if (got + 0 > ceiling + 0) print "above"
        else if (got + 0 < ceiling + 0) print "below" }') in
    missing)
        echo "$workload (seed $seed): allocs_per_sim_s missing"
        exit 1
        ;;
    above)
        echo "$workload (seed $seed): allocs_per_sim_s $got exceeds the ceiling $ceiling"
        exit 1
        ;;
    below)
        echo "$workload (seed $seed): allocs_per_sim_s $got, below the ceiling $ceiling in scripts/alloc_ceiling.txt: lower its line"
        exit 1
        ;;
    esac
    echo "    $workload (seed $seed): $got (ceiling $ceiling)"
done < <(grep -v '^#' scripts/alloc_ceiling.txt)

echo "==> sharded-engine digest smoke (sharded vs reference)"
cargo test -q -p gateway --test shard_equivalence sharded_digest_smoke

echo "==> E1-E18 and the claims ledger byte-identical to results/; every experiment's claims hold"
cargo run -q --release -p bench -- --check results

echo "==> EXPERIMENTS.md quotes the claims ledger verbatim"
if grep -vxFf EXPERIMENTS.md results/claims.txt; then
    echo "the lines above are in results/claims.txt but not in EXPERIMENTS.md"
    exit 1
fi

echo "==> all checks passed"
