#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The binary, the Go build cache and
everything a run writes stay under .bench_build/ in the checkout. Exits
non-zero without a result when the build fails (for example when the
repository's sources are missing) or when any part of the run fails.

An end-to-end run (--trace 0) is split into PARTS processes of equal
length, run one after another with the same seed; each metric is the
median of the parts' values, and the operation counts are summed. One Go
process can run the same input about 10% faster or slower than the next
for its whole life, so only fresh processes average that out. A traced
run (--trace 1) is one process.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

PARTS = 4


def build(root):
    src = os.path.dirname(os.path.abspath(__file__))
    cache = os.path.join(root, ".bench_build")
    for d in ("gocache", "gotmp", "gomodcache"):
        os.makedirs(os.path.join(cache, d), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(cache, "gocache"),
        GOTMPDIR=os.path.join(cache, "gotmp"),
        GOMODCACHE=os.path.join(cache, "gomodcache"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(cache, "perfbench")
    if subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env).returncode != 0:
        return None
    return binary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", args.seed, "--trace", args.trace]
    if args.trace != "0" or args.seconds < PARTS:
        return subprocess.run(cmd + ["--seconds", str(args.seconds)], cwd=root).returncode

    results = []
    for part in range(PARTS):
        seconds = args.seconds // PARTS + (1 if part < args.seconds % PARTS else 0)
        out = subprocess.run(cmd + ["--seconds", str(seconds)], cwd=root, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("perfbench: part %d failed (exit %d)" % (part + 1, out.returncode), file=sys.stderr)
            return out.returncode or 1
        for line in lines[:-1]:
            print("[part %d] %s" % (part + 1, line))
        results.append(json.loads(lines[-1]))

    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
        print("  %-40s median of %s" % (name, ", ".join("%.6g" % v for v in values)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
