#!/usr/bin/env bash
# Non-test lines per library crate, by ROADMAP.md's rule: the `src` tree
# of every crate under `crates/` but the two test shims, each `.rs` file
# counted up to its first `#[cfg(test)]`.
#
#   ci/loc.sh         counts the working tree
#   ci/loc.sh REV     also counts REV's tree (extracted with `git archive`)
#                     and prints each crate's delta and the total's
#
# Exits 1 when a counted file has a top-level item after its first
# `#[cfg(test)]` that is not itself under `#[cfg(test)]`, or a first
# `#[cfg(test)]` that is not top-level: the rule would miss that code.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)

# Prints "crate lines" for each library crate under $1, and the files that
# break the rule on stderr; fails when one does.
count() {
    local files
    files=$(cd "$1" && find crates/*/src -name '*.rs' -not -path 'crates/*-shim/*' | sort)
    (cd "$1" && echo "$files" | xargs awk '
        function bad(why) { print FILENAME ":" FNR ": " why > "/dev/stderr"; failed = 1 }
        FNR == 1 { split(FILENAME, p, "/"); crate = p[2]; lines[crate] += 0; test = 0; armed = 0 }
        /#\[cfg\(test\)\]/ {
            if (!test && $0 !~ /^#\[cfg\(test\)\]/) bad("the first #[cfg(test)] is not top-level")
            test = 1
            armed = $0 ~ /^#\[cfg\(test\)\]/
            next
        }
        !test { lines[crate]++; next }
        # After it, each top-level item must carry its own #[cfg(test)].
        /^[^[:space:]}\/#]/ {
            if (!armed) bad("a top-level item after the first #[cfg(test)]")
            armed = 0
        }
        END {
            for (c in lines) print c, lines[c]
            exit failed
        }' | sort)
}

now=$(count "$root") || exit 1
if [ $# -eq 0 ]; then
    echo "$now" | awk '{ printf "%-10s %7d\n", $1, $2; t += $2 } END { printf "%-10s %7d\n", "total", t }'
    exit 0
fi

rev=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$rev" crates | tar -x -C "$tmp"
then=$(count "$tmp") || exit 1
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(echo "$then") <(echo "$now") | awk -v rev="$rev" '
    BEGIN { printf "%-10s %7s %7s %6s\n", "crate", substr(rev, 1, 7), "tree", "delta" }
    { printf "%-10s %7d %7d %+6d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-10s %7d %7d %+6d\n", "total", a, b, b - a }'
