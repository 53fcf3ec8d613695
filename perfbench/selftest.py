#!/usr/bin/env python3
"""Self-tests for the benchmark itself. Run from the repository root:

  python3 perfbench/selftest.py [--seconds 1]

1. The metrics the harness declares (`perfbench --list-metrics`) and the
   names and units every workload prints, traced and untraced, equal
   BENCHMARK.json.
2. Every span of every traced run nests inside its parent (same run, start
   and end within the parent's), and each batch workload's spans cover at
   least 95% of its timed part. dht_crosscheck's traced run reports the
   build and crawl layers of its set-up.
3. A snapshot with one flipped byte fails the run: exit code non-zero and
   "correct": false, on both workloads that write snapshots.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""
import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
SEED = 7
BATCH = ("pipeline_signature", "dht_crosscheck", "analysis_scale")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seconds, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds",
           str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def spans_nest(path):
    spans = [json.loads(line) for line in open(path)]
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            return False, f"span {s['id']} ends before it starts"
        if s["parent"] < 0:
            continue
        p = spans[s["parent"]]
        if (s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]
                or s["run"] != p["run"]):
            return False, f"span {s['id']} ({s['name']}) outside parent {p['id']}"
    return True, f"{len(spans)} spans"


def coverage(path):
    """Share of the bench.run roots' time covered by their children."""
    spans = [json.loads(line) for line in open(path)]
    total = covered = 0
    for root in (s for s in spans if s["parent"] < 0 and s["name"] == "bench.run"):
        kids = sorted((s["start_ns"], s["end_ns"]) for s in spans
                      if s["parent"] == root["id"])
        end = root["start_ns"]
        for a, b in kids:
            covered += max(0, b - max(a, end))
            end = max(end, b)
        total += root["end_ns"] - root["start_ns"]
    return covered / total if total else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in spec["workloads"]]

    # 1. Declared metrics.
    for f in glob.glob(os.path.join(BUILD, "work", f"trace-*-{SEED}.jsonl")):
        os.remove(f)
    proc, _ = run(workloads[0], 0, args.seconds)  # also builds
    listed = subprocess.run([os.path.join(BUILD, "perfbench"), "--list-metrics"],
                            capture_output=True, text=True).stdout.split("\n")
    declared = [f"{kind} {m['name']} {m['unit']} {m['better']}"
                for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    check([l for l in listed if l] == declared,
          "perfbench --list-metrics equals BENCHMARK.json")

    for w in workloads:
        for trace in (0, 1):
            proc, result = run(w, trace, args.seconds)
            kind = "per_layer" if trace else "end_to_end"
            names = {m["name"]: m["unit"] for m in spec[kind]}
            ok = (proc.returncode == 0 and result is not None
                  and result["correct"] is True and result["attempted"] >= 1
                  and {k: v["unit"] for k, v in result["metrics"].items()} == names)
            check(ok, f"{w} --trace {trace}: exit 0, correct, prints the {kind} metrics")
            if not ok:
                sys.stderr.write(proc.stdout + proc.stderr)
            elif w == "dht_crosscheck" and trace:
                m = result["metrics"]
                check(m["core.build_s"]["value"] > 0 and m["crawler.crawl_s"]["value"] > 0,
                      f"{w} --trace 1: reports its set-up's build and crawl layers")

    # 2. Span nesting and coverage.
    for w in workloads:
        files = sorted(glob.glob(os.path.join(BUILD, "work", f"trace-{w}*-{SEED}.jsonl")))
        check(bool(files), f"{w}: traced run wrote its spans")
        for path in files:
            ok, detail = spans_nest(path)
            check(ok, f"{os.path.basename(path)}: every span nests in its parent ({detail})")
        if w in BATCH:
            main_trace = os.path.join(BUILD, "work", f"trace-{w}-{SEED}.jsonl")
            cov = coverage(main_trace) if os.path.exists(main_trace) else 0.0
            check(cov >= 0.95, f"{w}: spans cover {cov:.4f} of run_s (>= 0.95)")

    # 3. A corrupted snapshot fails the run.
    for w in ("pipeline_signature", "analysis_scale"):
        proc, result = run(w, 0, args.seconds, "--corrupt-snapshot")
        check(proc.returncode != 0 and result is not None and result["correct"] is False,
              f"{w} with one flipped snapshot byte: exit {proc.returncode}, correct=false")

    # 4. Without the program's sources the benchmark fails without a result.
    bare = os.path.join(BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    proc, result = run(workloads[0], 0, args.seconds, cwd=bare)
    check(proc.returncode != 0 and result is None,
          f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
