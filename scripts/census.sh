#!/usr/bin/env bash
# The per-PR numbers ROADMAP.md and CHANGES.md report, from one definition
# each. Reads only tracked files (git ls-files), so build output and untracked
# files never count. Run from anywhere inside the repo:
#
#   scripts/census.sh
#
# Definitions:
#
#   non-test lines   Lines of tracked .rs files outside any tests/, examples/
#                    or benchmarks/ directory, each file counted up to (not
#                    including) its first line that starts with #[cfg(test)]
#                    in column 0 -- the file's test module. A file named
#                    tests.rs is a test module declared elsewhere
#                    (`#[cfg(test)] mod tests;`) and is left out whole.
#                    Per crate: crates/<name>/...; the root package's src/
#                    is "root".
#   tracked files    git ls-files, every kind.
#   unsafe sites     Uses of the `unsafe` keyword as code in a crate's src/:
#                    `unsafe {`, `unsafe fn`, `unsafe impl`. Comments and the
#                    unsafe_code lint name in #[allow]/#[forbid] attributes
#                    are not sites. Listed per crate (only crates that have
#                    any), then crates/core/src on its own line.
#   RefCell< sites   Occurrences of `RefCell<` in the non-test lines above
#                    (same files, same column-0 #[cfg(test)] cut), comments
#                    included: each is a cell some state is shared through.
#                    Per crate, crates with none not listed. ROADMAP item 11
#                    (owned state) counts down on this line.
#   panic sites      Occurrences of .unwrap(), .expect(, panic! and
#                    unreachable! in src/ of the 11 wire-facing crates
#                    (netstack radio serial socket ax25 encap netrom vj ether
#                    filter kiss), in-file tests included. A line with two
#                    calls is two sites.
#   indexing sites   Warnings of one `cargo clippy --workspace --lib -- -A
#                    clippy::all -W clippy::indexing_slicing` (index and
#                    slice expressions that panic on a bad offset, in
#                    non-test library code), tallied by the crate of each
#                    warning's `--> crates/<name>/` path. Listed for the
#                    same 11 wire-facing crates and for core (the gateway
#                    crate, whose drivers parse ARP and IP bytes off the
#                    air), zeros included. This one builds: it runs clippy
#                    over the workspace.
#
# Why earlier quotes differ (all of them counted on one and the same tree):
#   - 31,781 non-test lines counted the two src/**/tests.rs modules
#     (1,028 lines); stopping at an *indented* #[cfg(test)] instead of a
#     column-0 one gives 30,840, because it drops the production code that
#     follows a test-only helper inside an impl.
#   - 303 panic sites (ROADMAP) counted lines; two lines (one in radio, one
#     in encap) carry two sites each, hence 305 here.
#   - 16 / 17 unsafe counted every line containing the word: doc comments
#     and three #[allow(unsafe_code)] attributes (16), plus lib.rs's
#     #![deny(unsafe_code)] (17). The keyword itself appears on 12 lines.
set -euo pipefail
cd "$(dirname "$0")/.."

wire_crates="netstack radio serial socket ax25 encap netrom vj ether filter kiss"
indexed_crates="$wire_crates core"

non_test_files() {
    git ls-files '*.rs' | grep -vE '(^|/)(tests|examples|benchmarks)/' | grep -vE '(^|/)tests\.rs$'
}

echo "non-test .rs lines, by crate:"
non_test_files | xargs awk '
    FNR == 1 {
        skip = 0
        n = split(FILENAME, part, "/")
        crate = (part[1] == "crates" && n > 2) ? part[2] : "root"
    }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip { lines[crate]++; total++ }
    END {
        for (c in lines) printf "    %-10s %6d\n", c, lines[c] | "sort"
        close("sort")
        printf "non-test .rs lines total: %d\n", total
    }'

echo "tracked files: $(git ls-files | wc -l)"

echo "RefCell< sites in non-test code, by crate (crates with none are not listed):"
non_test_files | xargs awk '
    FNR == 1 {
        skip = 0
        n = split(FILENAME, part, "/")
        crate = (part[1] == "crates" && n > 2) ? part[2] : "root"
    }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip { sites[crate] += gsub(/RefCell</, "") }
    END {
        for (c in sites) if (sites[c] > 0) printf "    %-10s %6d\n", c, sites[c] | "sort"
        close("sort")
    }'

unsafe_sites() {
    git ls-files "$1/*.rs" |
        xargs -r grep -hE '\bunsafe[[:space:]]*(\{|fn\b|impl\b)' |
        grep -cvE '^[[:space:]]*//' || true
}
echo "unsafe sites, by crate (src/ only; crates with none are not listed):"
for dir in crates/*/src src; do
    n=$(unsafe_sites "$dir")
    if [ "$n" -gt 0 ]; then
        name=$(dirname "$dir")
        [ "$name" = . ] && name=root || name=$(basename "$name")
        printf "    %-10s %6d\n" "$name" "$n"
    fi
done
echo "unsafe sites in crates/core/src: $(unsafe_sites crates/core/src)"

total=0
per=""
for c in $wire_crates; do
    n=$(git ls-files "crates/$c/src/*.rs" | xargs awk '
        { n += gsub(/\.unwrap\(\)|\.expect\(|panic!|unreachable!/, "") }
        END { print n + 0 }')
    per="$per $c=$n"
    total=$((total + n))
done
echo "panic sites in the wire-facing crates: $total ($per )"

echo "indexing_slicing sites in the wire-facing crates and core (clippy, non-test library code), by crate:"
cargo clippy -q --workspace --lib -- -A clippy::all -W clippy::indexing_slicing 2>&1 |
    awk -v crates="$indexed_crates" '
        /^ *--> crates\// { split($2, part, "/"); n[part[2]]++ }
        END {
            split(crates, c, " ")
            for (i in c) printf "    %-10s %6d\n", c[i], n[c[i]] | "sort"
            close("sort")
        }'
