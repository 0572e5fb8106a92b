#!/usr/bin/env bash
# Refresh every baseline CI gates against. Run from anywhere inside the
# repo; commits nothing — inspect `git diff` and commit what you meant.
#
# Baselines refreshed:
#   BENCH_eventqueue.json        perf-bench gates allocs_per_op at zero
#                                tolerance against this committed file
#                                (ns_per_op is report-only noise).
#   BENCH_fleet.json             committed reference fleet artifact.
#   tools/leaselint/baseline.lint  accepted-debt ledger for the lint
#                                gate (--diff-baseline on PRs).
#
# The nightly trend gate needs NO refresh here: its baseline is last
# night's rollup artifact, so an intended drift self-heals after one
# (red) night. Use this script when a deliberate change moves a
# committed baseline — e.g. a new allocation in the event loop you have
# justified, or a leaselint rule landing with pre-existing findings.

set -euo pipefail

root="$(git rev-parse --show-toplevel)"
build="${BUILD_DIR:-$root/build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cd "$root"

echo "== configure + build (RelWithDebInfo, tracing off — the gated" \
     "config) =="
cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLEASEOS_TRACING=OFF >/dev/null
cmake --build "$build" --target bench_eventqueue bench_fleet leaselint \
    -j"$jobs"

echo "== BENCH_eventqueue.json (allocs/op is the gated column) =="
"$build/bench/bench_eventqueue" >/dev/null
test -s BENCH_eventqueue.json

echo "== BENCH_fleet.json (checkpointed, so checkpoint-size rows" \
     "refresh too) =="
"$build/bench/bench_fleet" --devices=50 --minutes=30 \
    --checkpoint-minutes=10 --jobs "$jobs" >/dev/null
test -s BENCH_fleet.json

echo "== tools/leaselint/baseline.lint =="
"$build/tools/leaselint/leaselint" --root "$root" --jobs "$jobs" \
    --write-baseline "$root/tools/leaselint/baseline.lint" || true

echo
echo "Refreshed. Review before committing:"
git -C "$root" status --short -- BENCH_eventqueue.json \
    BENCH_fleet.json tools/leaselint/baseline.lint
