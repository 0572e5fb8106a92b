#!/usr/bin/env python3
"""Record the benchmark's baseline for the current commit.

    python3 leasebench/baseline.py [--seeds 10] [--out leasebench/BASELINE.json]

Runs every workload of BENCHMARK.json untraced once per seed 1..N and
traced once with seed 1, then writes each end-to-end metric's median and
quartile spread, the traced per-layer table, and the host, sim_digest,
fidelity and census lines the benchmark printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

PREFIXES = ("host ", "sim_digest ", "fidelity ", "census ")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def report_lines(lines):
    return [line for line in lines if line.startswith(PREFIXES)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out",
                        default=os.path.join(run.HERE, "BASELINE.json"))
    args = parser.parse_args()
    if not run.build():
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip()
    out = {"commit": commit, "cpu": cpu_model(), "nproc": os.cpu_count(),
           "run_seconds": bench["run_seconds"],
           "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        values, seed1 = {}, None
        for seed in out["seeds"]:
            code, lines = run.run_binary(workload, seed,
                                         bench["run_seconds"], 0)
            result = run.parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                run.log(f"{workload} seed {seed} failed")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if seed == 1:
                seed1 = report_lines(lines)
            run.log(f"{workload} seed {seed} done")
        end_to_end = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            end_to_end[m["name"]] = {
                "unit": m["unit"], "median": med,
                "iqr_share": (q[2] - q[0]) / med if med else 0.0,
                "values": v}
        code, lines = run.run_binary(workload, 1, bench["run_seconds"], 1)
        result = run.parse_result(lines)
        if code != 0 or result is None or not result["correct"]:
            run.log(f"{workload} traced run failed")
            return 1
        out["workloads"][workload] = {
            "untraced_seed1": seed1,
            "end_to_end": end_to_end,
            "traced_seed1": report_lines(lines),
            "per_layer": {k: v["value"]
                          for k, v in result["metrics"].items()},
        }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    run.log(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
