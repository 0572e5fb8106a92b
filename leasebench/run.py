#!/usr/bin/env python3
"""Build and run the leaseos benchmark.

    python3 leasebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 leasebench/run.py --smoke

The first call configures and builds leasebench/ (which pulls in ../src)
into .bench_build/leasebench at the checkout root; later calls only let
the build tool confirm it is up to date. Tracing off runs the `leasebench`
binary and prints the end-to-end metrics; tracing on runs
`leasebench_traced`, prints the per-layer metrics and writes the spans to
.bench_build/spans/. The last stdout line is the binary's JSON result.

--smoke runs every workload of BENCHMARK.json at short horizons, traced and
untraced, and checks that each named metric is printed with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "leasebench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[leasebench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no leaseos sources under {ROOT}/src")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (exit code, stdout lines)."""
    exe = os.path.join(BUILD, "leasebench_traced" if trace else "leasebench")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans",
                             f"{workload}-seed{seed}.jsonl")
        cmd += ["--span-out", spans]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The binary's last line as a dict, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys \
        else None


def smoke():
    """Every workload, traced and untraced, prints every metric by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            code, lines = run_binary(workload, 1, 1, trace, smoke=True)
            result = parse_result(lines)
            if code != 0 or result is None:
                log(f"FAIL {workload} trace {trace}: no result")
                ok = False
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics {sorted(set(got) ^ set(want))} "
                                "missing or extra, or units differ")
            if not result["correct"] or result["failed"]:
                problems.append("incorrect output")
            status = "FAIL" if problems else "ok"
            log(f"{status} {workload} trace {trace}: "
                f"{len(got)} metrics, {result['attempted']} runs "
                + "; ".join(problems))
            ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    if args.smoke:
        return 0 if smoke() else 1
    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace)
    if code != 0 or parse_result(lines) is None:
        print("\n".join(lines), file=sys.stderr)
        log(f"benchmark binary failed (exit {code})")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
