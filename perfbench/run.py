#!/usr/bin/env python3
"""End-to-end benchmark of CauSumX: build, self-test, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-explain --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (which builds the library from the repository's own
sources) in Release mode into .bench_build/ (or $CARGO_TARGET_DIR when
set), runs the trace-arithmetic self-test, then runs the workload. The
last stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; its metric names and units are checked against
BENCHMARK.json. Every result is also stored with its environment stamp
under <build dir>/results/. Exit status is 0 only for a correct run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "causumx.h")):
        fail("the CauSumX sources (src/) are not next to perfbench/")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}, spec["workloads"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected, workloads = declared_metrics(args.trace == 1)
    if args.workload not in {w["name"] for w in workloads}:
        fail(f"unknown workload {args.workload!r}")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build or self-test failed: {e}")

    work_dir = os.path.join(
        build_dir, "work", f"{args.workload}-{args.seed}-{args.trace}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"no output (exit status {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result object: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has the wrong keys")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        wrong_units = sorted(
            n for n in got if n in expected and got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}, units {wrong_units}")

    env = next((l for l in lines if l.startswith("env: ")), "env: unknown")
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"env": env[len("env: "):], "result": result}, f)

    print(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
