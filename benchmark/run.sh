#!/usr/bin/env bash
# The repository's benchmark. Builds the daemon binary (root workspace) and
# the harness (this directory's own workspace) in release, then runs:
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload untraced, then traced; prints every metric by name
#       with its unit and writes benchmark/out/ledger.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#       object BENCHMARK.json describes
#   benchmark/run.sh --check
#       one round per workload at a small scale with full verification
#
# Everything it writes stays under the build directory and benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One build directory for both workspaces, so the harness finds td_serve
# next to itself. A caller's CARGO_TARGET_DIR is honoured (relative to the
# repository root).
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr; stdout carries only the harness's output.
cargo build --release --offline --quiet -p td-bench --bin td_serve 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/td-ledger" "$@" --commit "$commit" --rustc "$(rustc --version)"
