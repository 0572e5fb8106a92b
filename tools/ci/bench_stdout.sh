#!/usr/bin/env bash
# Print one sha256 digest per paper bench's stdout, so two builds can be
# checked for byte-identical bench output:
#
#   tools/ci/bench_stdout.sh base-build > base.txt
#   tools/ci/bench_stdout.sh build > change.txt
#   diff base.txt change.txt
#
# Runs every BUILD_DIR/bench/bench_* with --jobs $(nproc) in a temporary
# directory (benches write their BENCH_*.json artifacts into the cwd),
# except bench_eventqueue and bench_table4_microbench, which print host
# timings. bench_fleet's wall-clock events/s line is dropped. Prints
# "<sha256>  <bench>" per bench in name order; a bench that exits non-zero
# prints "failed" in place of the digest.

set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
bench_dir="$(cd "$1/bench" && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

for bench in "$bench_dir"/bench_*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    case "$name" in
      bench_eventqueue | bench_table4_microbench) continue ;;
    esac
    if ! "$bench" --jobs "$jobs" > "$name.out" 2> /dev/null; then
        echo "failed  $name"
        continue
    fi
    if [ "$name" = bench_fleet ]; then
        grep -v 'events/s' "$name.out" > "$name.kept" || true
        mv "$name.kept" "$name.out"
    fi
    echo "$(sha256sum < "$name.out" | cut -d' ' -f1)  $name"
done
