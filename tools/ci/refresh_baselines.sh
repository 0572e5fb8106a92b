#!/usr/bin/env bash
# Refresh every baseline CI gates against. Run from anywhere inside the
# repo; commits nothing — inspect `git diff` and commit what you meant.
#
# Baselines refreshed:
#   BENCH_eventqueue.json        perf-bench gates allocs_per_op at zero
#                                tolerance against this committed file
#                                (ns/op is wall time: stdout only).
#   BENCH_fleet.json             committed reference fleet artifact.
#                                Its throughput row counts allocations
#                                on every worker thread, so the count
#                                depends on the job count (11,641,
#                                11,644 and 11,646 at --jobs 1, 2 and
#                                4). The run is pinned to --jobs 4, the
#                                count behind the committed file, so a
#                                refresh reproduces it on any host.
#
# The nightly trend gate needs NO refresh here: its baseline is last
# night's rollup artifact, so an intended drift self-heals after one
# (red) night. Use this script when a deliberate change moves a
# committed baseline — e.g. a new allocation in the event loop you have
# justified.

set -euo pipefail

root="$(git rev-parse --show-toplevel)"
build="${BUILD_DIR:-$root/build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cd "$root"

echo "== configure + build (RelWithDebInfo, tracing off — the gated" \
     "config) =="
cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLEASEOS_TRACING=OFF >/dev/null
cmake --build "$build" --target bench_eventqueue bench_fleet -j"$jobs"

echo "== BENCH_eventqueue.json (allocs/op is the gated column) =="
# The committed rows record 2 M ops: 1 M iterations per workload.
"$build/bench/bench_eventqueue" --ops=1000000 >/dev/null
test -s BENCH_eventqueue.json

echo "== BENCH_fleet.json =="
"$build/bench/bench_fleet" --devices=50 --minutes=30 --jobs 4 >/dev/null
test -s BENCH_fleet.json

echo
echo "Refreshed. Review before committing:"
git -C "$root" status --short -- BENCH_eventqueue.json BENCH_fleet.json
