#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build (CMake, Release) goes to
$CARGO_TARGET_DIR, or .bench_build when unset; build output goes to stderr.
The last stdout line is the JSON result; its metric names are checked
against BENCHMARK.json. Exits non-zero when the build fails, a correctness
check fails or the result does not match the declared metrics.
"""
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 170


def build(build_dir):
    cmake = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (cmake, ["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    proc = subprocess.Popen([binary, *argv, "--work-dir", work_dir],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: no result within {TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(out)
        sys.exit(f"perfbench: exit {proc.returncode}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = json.loads(lines[-1])
    traced = argv[argv.index("--trace") + 1] == "1"
    kind = "per_layer" if traced else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        sys.stderr.write(out)
        sys.exit(f"perfbench: printed metrics differ from BENCHMARK.json {kind}")
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
