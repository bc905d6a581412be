#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each metric is.

    python3 perfbench/spread.py --workload replay --runs 10 [--seconds 15] [--trace 0] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) from
the current directory, then prints for every metric its median, first
and third quartile (Python's statistics.quantiles, n=4) and the
interquartile range as a share of the median, next to the bound that
BENCHMARK.json gives the metric. Exits non-zero if a run fails or
reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, runner, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit("run with seed %d failed (exit %d)" % (seed, out.returncode))
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit("run with seed %d reported incorrect output" % seed)
        env = [l.split("env:", 1)[1].strip() for l in lines if "env:" in l]
        print("seed %d: %s  %s" % (seed, " ".join(
            "%s=%.5g" % (k, v["value"]) for k, v in sorted(res["metrics"].items())), " | ".join(env)),
            flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("\n%-40s %12s %12s %12s %9s %7s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-40s %12.6g %12.6g %12.6g %9.4f %7s %s" % (
            name, med, q1, q3, share, "-" if bound is None else bound, units[name]))


if __name__ == "__main__":
    main()
