#!/usr/bin/env bash
# The benchmark at BASE and at the current checkout, compared under the
# bounds of BENCHMARK.json:
#
#   scripts/bench_gate.sh BASE
#
# Checks BASE out in a `git worktree` and runs `benchmark/run.sh --all
# --runs 1` there and here (each side builds in its own tree's
# `benchmark/target`) in three rounds, alternating which side goes
# first, so drift of the host over the ~10 minutes the gate takes lands
# on both sides alike rather than reading as a verdict. Each side's three
# results files are merged with `jq`: every end-to-end `values` array is
# the concatenation of the three rounds' (what `--compare` judges), and
# `per_layer` is round 1's (the EXACT counts are exact). The cost is 48
# runs (3 rounds x 2 sides x 4 workloads x one untraced and one traced
# run), all on seed 1, where three runs a side once made 32. The two
# sides are judged with `benchmark/run.sh --compare`. Writes
# target/bench-gate/{base,head}.json and compare.txt, and appends the
# table to $GITHUB_STEP_SUMMARY when that is set.
#
# Exits 1 when a compare row reads `worse` or any `--all` fails (a
# failed output check ends it non-zero); `unresolved` and `DIFFERS` rows
# are printed but pass (an engine change may move exact counts on
# purpose). When BENCHMARK.json or benchmark/ differ between BASE and
# here the two sides would not run the same benchmark: it says so and
# exits 0 without measuring. A bad argument, an unresolvable BASE or a
# failed `--compare` exits 2.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: scripts/bench_gate.sh BASE" >&2; exit 2; }
rounds=3
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

base=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "error: BASE '$1' does not name a commit" >&2
    exit 2
}
if ! git diff --quiet "$base" -- BENCHMARK.json benchmark/; then
    echo "skip: BENCHMARK.json or benchmark/ differ between $1 and this checkout," \
        "so the two sides would not run the same benchmark; nothing compared"
    exit 0
fi

out="$root/target/bench-gate"
tree="$out/base-tree"
mkdir -p "$out"
rm -rf "$tree" "$out"/{base,head}*.json "$out/compare.txt"
git worktree prune
git worktree add --quiet --detach "$tree" "$base"
trap 'git worktree remove --force "$tree"' EXIT
unset CARGO_TARGET_DIR

# A run whose output check fails exits non-zero, and so does `--all`;
# the failure itself is on stderr as `[benchmark] FAILED ...`.
measure() { # DIR RESULTS
    (cd "$1" && benchmark/run.sh --all --runs 1 --out "$2") || {
        echo "FAIL: the benchmark failed in $1" >&2
        exit 1
    }
}
for round in $(seq 1 "$rounds"); do
    if [ $((round % 2)) -eq 1 ]; then
        measure "$tree" "$out/base.$round.json"
        measure "$root" "$out/head.$round.json"
    else
        measure "$root" "$out/head.$round.json"
        measure "$tree" "$out/base.$round.json"
    fi
done
# Round 1's file, with each end-to-end `values` array replaced by the
# concatenation of that metric's values over every round.
merge() { # SIDE
    jq -s '. as $rounds | .[0] | .workloads |= map(.name as $w
        | .end_to_end |= map(.name as $m | .values = [$rounds[].workloads[]
            | select(.name == $w).end_to_end[] | select(.name == $m).values[]]))' \
        "$out/$1".*.json >"$out/$1.json"
}
merge base
merge head

code=0
benchmark/run.sh --compare "$out/base.json" "$out/head.json" >"$out/compare.txt" || code=$?
[ "$code" -le 1 ] || { echo "error: --compare failed (exit $code)" >&2; exit 2; }
echo "== $1 ($base) against this checkout =="
cat "$out/compare.txt"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    printf '### Benchmark, %s against head\n\n```\n%s\n```\n' "$1" "$(cat "$out/compare.txt")" \
        >>"$GITHUB_STEP_SUMMARY"
fi

worse=$(awk '$3 == "worse"' "$out/compare.txt")
if [ -n "$worse" ]; then
    printf 'FAIL: worse than %s on:\n%s\n' "$1" "$worse"
    exit 1
fi
echo "PASS: no row worse than $1, every output check passed"
