#!/usr/bin/env bash
# Non-test lines per crate: every `.rs` under `crates/*/src` and
# `vendor/*/src` minus its `#[cfg(test)] mod … { … }` blocks, plus the
# files under `crates/*/tests/` counted whole. Blank and comment lines
# count. A `#[cfg(test)]` on anything but a `mod` block (a statement, a
# helper `impl`) does not end the count: the rest of the file is code.
# Prints one row per crate, the five runtime crates' sum and the total;
# gates nothing.
#
# Usage: .github/scripts/nontest_lines.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

# Lines of one source file outside its `#[cfg(test)] mod` blocks. A
# block opens with the attribute line and `mod name {` at the same
# indent, and closes at the first `}` at that indent (rustfmt's layout).
non_test_lines() {
    awk '
        closing != "" { if ($0 == closing) closing = ""; next }
        armed {
            armed = 0
            if (index($0, indent) == 1 &&
                substr($0, length(indent) + 1) ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/) {
                closing = indent "}"
                next
            }
            n++
        }
        /^[ \t]*#\[cfg\(test\)\]$/ {
            armed = 1
            match($0, /^[ \t]*/)
            indent = substr($0, 1, RLENGTH)
            next
        }
        { n++ }
        END { print n + armed }
    ' "$1"
}

runtime="monitor shard collector server query"
runtime_sum=0
total=0
for dir in crates/*/ vendor/*/; do
    dir=${dir%/}
    lines=0
    while IFS= read -r f; do
        lines=$((lines + $(non_test_lines "$f")))
    done < <(find "$dir/src" -name '*.rs' | sort)
    if [ "${dir%%/*}" = crates ] && [ -d "$dir/tests" ]; then
        lines=$((lines + $(find "$dir/tests" -name '*.rs' -exec cat {} + | wc -l)))
    fi
    printf '%-24s %7d\n' "$dir" "$lines"
    total=$((total + lines))
    case " $runtime " in *" ${dir#crates/} "*) runtime_sum=$((runtime_sum + lines)) ;; esac
done
printf '%-24s %7d\n' "runtime ($runtime)" "$runtime_sum"
printf '%-24s %7d\n' "total" "$total"
