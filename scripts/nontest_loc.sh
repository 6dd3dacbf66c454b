#!/usr/bin/env bash
# Non-test Rust line count, the number every ROADMAP aim-2 PR reports.
#
# Counting rule: every line of `crates/*/src/**/*.rs` before the file's
# first `#[cfg(test)]` (blank lines and comments included — deleting
# prose is not a reduction, so it must not look like one). `vendor/`,
# `benchmark/`, `tests/`, `benches/` and `examples/` are outside the rule.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # lines before the first #[cfg(test)] of each file, summed
    local total=0 n f
    while IFS= read -r f; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        total=$((total + n))
    done
    echo "$total"
}

total=$(find crates/*/src -name '*.rs' | sort | count)
experiments=$(find crates/core/src/experiments -name '*.rs' | sort | count)
printf 'non-test LoC: %d total, %d under crates/core/src/experiments/\n' "$total" "$experiments"
