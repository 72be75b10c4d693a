#!/usr/bin/env python3
"""Measure how steady the benchmark is and record it.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 101]
                                    [--workloads a,b] [--out FILE]

For each workload of BENCHMARK.json this runs perfbench/run.py --runs
times untraced, each with its own seed, and once traced.  For every
end-to-end metric it records the ten values, their median and
quartiles (statistics.quantiles(values, n=4)), and the spread: the
distance between the quartiles as a share of the median.  The traced
run's per-layer metrics are kept too, with the tracing overhead: the
traced op medians minus the median of the untraced op medians.

Check findings other than the self-test lines, such as derived-seed
CTA breaches, are kept per workload.  The record goes to --out as JSON
(default: perfbench/results/steadiness.json) and a table is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.exit(f"steadiness: {' '.join(command)} exited "
                 f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out",
                        default=os.path.join(HERE, "results",
                                             "steadiness.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    record = {"run_seconds": seconds, "workloads": {}}
    for workload in names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = []
        findings = []
        for seed in seeds:
            result, notes = run(workload, seed, seconds, 0)
            results.append(result)
            findings += [f"seed {seed}: {note}" for note in notes
                         if not note.startswith("self-test:")]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = summary(values)
            metrics[name]["bound"] = bounds[name]
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        traced, notes = run(workload, seeds[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "findings": findings,
            "end_to_end": metrics,
            "traced": {
                "seed": seeds[0],
                "correct": traced["correct"],
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "per_layer": layers,
                "notes": notes,
                "overhead_op_p50_s": layers["trace.op_p50_s"] -
                metrics["op_p50_s"]["median"],
                "overhead_op_p90_s": layers["trace.op_p90_s"] -
                metrics["op_p90_s"]["median"],
            },
        }

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, entry in record["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print(f"| {workload} | {name} | {m['median']:.6g} | "
                  f"{m['q1']:.6g} | {m['q3']:.6g} | {m['spread']:.3f} | "
                  f"{m['bound']} |")


if __name__ == "__main__":
    main()
