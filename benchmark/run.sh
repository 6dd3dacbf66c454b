#!/usr/bin/env bash
# The benchmark's one entry point: build, then hand the arguments on.
#
#   benchmark/run.sh                      every workload, every metric
#   benchmark/run.sh --all --runs 10      the same, ten untraced runs each
#   benchmark/run.sh --compare A B        judge two results files
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
[ $# -gt 0 ] || set -- --all
exec "${CARGO_TARGET_DIR:-$here/target}/release/lcc-benchmark" "$@"
