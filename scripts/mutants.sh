#!/usr/bin/env bash
# Mutation checks as files (ROADMAP item 9): every mutants/*.patch breaks
# the code in one small way and names, in its header, the tests that must
# notice:
#
#   # what: one line saying what the mutant gets wrong
#   # kill: -p serial --lib a_seal_comes_back_only
#   # kill: -p gateway --test sched_equivalence discarded_frames
#   diff --git …
#
# Each `kill` line is the argument list of one `cargo test`. The script
# copies the working tree (tracked and new files, nothing ignored) into a
# scratch directory, checks there that every named test passes unmutated,
# then applies each patch in turn and fails if the patch no longer applies
# (the code moved: refresh it, or drop it with a reason), if the mutant does
# not compile (it proves nothing), or if a named test still passes (a
# survivor). One incremental build per mutant; run by hand or as
# `scripts/check.sh --mutants`, never on the default path.
#
#   scripts/mutants.sh [patch…]      default: every mutants/*.patch
#
# Scratch goes to $MUTANTS_DIR (default target/mutants, which .gitignore
# covers); nothing tracked is written.
set -euo pipefail
cd "$(dirname "$0")/.."

scratch=${MUTANTS_DIR:-target/mutants}
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
if [ $# -gt 0 ]; then
    patches=()
    for p in "$@"; do patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")"); done
else
    patches=("$PWD"/mutants/*.patch)
fi

rm -rf "$scratch/src"
mkdir -p "$scratch/src"
# -m: every copied file is new to cargo, so what an earlier invocation's
# last mutant left in the shared target directory is never taken for fresh.
git ls-files -co --exclude-standard -z | tar -c --null -T - | tar -x -m -C "$scratch/src"
cd "$scratch/src"
export CARGO_TARGET_DIR="$scratch/target"

kills() { sed -n 's/^# kill: //p' "$1"; }

echo "==> every named test passes on the unmutated tree"
for p in "${patches[@]}"; do kills "$p"; done | sort -u | while read -r args; do
    # shellcheck disable=SC2086
    cargo test -q $args > "$scratch/log.txt" 2>&1 || {
        cat "$scratch/log.txt"
        echo "FAILED unmutated: cargo test $args"
        exit 1
    }
done

survivors=0
for p in "${patches[@]}"; do
    name=$(basename "$p" .patch)
    echo "==> $name: $(sed -n 's/^# what: //p' "$p")"
    if [ -z "$(kills "$p")" ]; then
        echo "    names no test (# kill: …)"
        exit 1
    fi
    # patch(1), not `git apply`: the scratch copy sits inside this
    # repository's ignored target/, where git would resolve the patch's
    # paths against the real tree.
    if ! patch -p1 -s --forward --fuzz=0 < "$p"; then
        echo "    no longer applies: refresh it or drop it with a reason"
        exit 1
    fi
    while read -r args; do
        # shellcheck disable=SC2086
        if ! cargo test -q --no-run $args > "$scratch/log.txt" 2>&1; then
            cat "$scratch/log.txt"
            echo "    does not compile under: cargo test $args"
            exit 1
        fi
        # shellcheck disable=SC2086
        if cargo test -q $args > "$scratch/log.txt" 2>&1; then
            echo "    SURVIVED cargo test $args"
            survivors=$((survivors + 1))
        else
            echo "    killed by cargo test $args"
        fi
    done < <(kills "$p")
    patch -p1 -s -R < "$p"
done

if [ "$survivors" -gt 0 ]; then
    echo "==> $survivors survivor(s)"
    exit 1
fi
echo "==> all ${#patches[@]} mutants killed"
