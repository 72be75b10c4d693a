#!/usr/bin/env python3
"""Run one ctamem benchmark workload and print its result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds perfbench/ (the repository's src/ plus the ctabench
binary) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs the
workload.  Untraced runs also start the binary SETUP_REPEATS - 1 more
times in set-up-only mode and report the median set-up time of all
those processes.  Traced runs write a Chrome trace to
<build dir>/traces/<workload>-seed<n>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The metric names are checked
against BENCHMARK.json: end_to_end untraced, per_layer traced.  Any
failure to build or to run exits non-zero without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 7
# A run must end within 180 s of its start, the build excepted.
RUN_DEADLINE_S = 170
# Inputs the benchmark reads from the checkout besides its own files.
REQUIRED = [
    "src/CMakeLists.txt",
    "scenarios/paper-default.json",
    "scenarios/aarch64-default.json",
    "scenarios/trr-arms-race.json",
    "BENCH_table1.json",
    "BENCH_fuzz.json",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("checkout lacks " + ", ".join(missing))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ctabench"])
    for step in steps:
        # Build output goes to stderr: stdout carries the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return build_dir


def run_binary(build_dir, args, deadline):
    command = [os.path.join(build_dir, "ctabench"), "--root", ROOT] + args
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("ctabench timed out: " + " ".join(args))
    if done.returncode != 0:
        fail(f"ctabench exited with {done.returncode}: " + " ".join(args))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("ctabench printed nothing")
    for note in lines[:-1]:
        print(note)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_binary(build_dir, common + ["--setup-only"],
                                     deadline)["setup_s"])
        traced = []
    else:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")
        traced = ["--trace", "1", "--trace-out", trace_out]
    result = run_binary(build_dir, common + traced, deadline)

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    if sorted(metrics) != sorted(expected):
        fail("metrics do not match BENCHMARK.json: " + ", ".join(
            sorted(set(metrics) ^ set(expected))))
    print(json.dumps({
        "correct": bool(result["checks_ok"]) and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in expected},
    }))


if __name__ == "__main__":
    main()
