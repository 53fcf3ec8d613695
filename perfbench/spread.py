#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each end-to-end metric's
median and its quartile spread (Q3 - Q1) / median, the statistic a
benchmark's bounds are judged against.

  python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for k, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(k)
        flag = "" if bound is None else f" bound {bound} {'OK' if spread < bound / 3 else 'WIDE'}"
        print(f"{k:36s} median {med:.6g} spread {spread:.4f}{flag}")


if __name__ == "__main__":
    main()
