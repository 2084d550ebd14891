#!/usr/bin/env bash
# benchmark/compare.sh before.json after.json
#
# Compares two ledgers written by benchmark/run.sh: for every (workload,
# end-to-end metric) pair prints within / REGRESSED / unresolved against the
# bounds in BENCHMARK.json (unresolved when the spread between a side's own
# rounds is wider than the bound). Exits 1 if anything regressed.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: benchmark/compare.sh before.json after.json" >&2
  exit 2
fi
before="$(realpath "$1")"
after="$(realpath "$2")"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/td-ledger" compare "$before" "$after"
