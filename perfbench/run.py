#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds the library and
the benchmark from source (Release) into .bench_build/, then runs the
workload.  Build output goes to standard error; the benchmark's own
lines go to standard output, the last one being the result JSON, whose
metrics must be exactly those BENCHMARK.json declares for the mode
(end_to_end untraced, per_layer traced), with the declared units.
The exit code is non-zero, and no result is printed, when the build
fails, the run overruns its time limit or the result does not match.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("v4_dfz_read", "v6_churn")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no repository sources next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "chisel_perfbench",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Scratch directories a killed run may have left behind.
    if os.path.isdir(WORK):
        for entry in os.listdir(WORK):
            path = os.path.join(WORK, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)

    cmd = [os.path.join(BUILD, "chisel_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", WORK]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print("\n".join(lines))
        return run.returncode or 1
    problem = check_result(lines[-1], args.trace == "1")
    if problem:
        print("\n".join(lines[:-1]))
        print("perfbench: %s" % problem, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


def check_result(line, traced):
    """Why the result line does not match BENCHMARK.json, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct, attempted, failed, metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 \
            or not isinstance(result["failed"], int):
        return "attempted and failed must be counts, attempted >= 1"
    metrics = result["metrics"]
    if set(metrics) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(metrics)),
            sorted(set(metrics) - set(want)))
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != want[name] or isinstance(value, bool) or \
                not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            return "bad value or unit for %s: %r" % (name, m)
    return None


if __name__ == "__main__":
    sys.exit(main())
