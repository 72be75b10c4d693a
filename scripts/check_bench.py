#!/usr/bin/env python3
"""Gate a benchmark report against its checked-in baseline.

Compares fresh reports (``--current``) against the repository baseline
(``--baseline``) and fails when a gated metric regresses by more than
the tolerance.  ``--suite`` picks the gated metric set:

  hotpath (default, bench_hotpath_micro vs BENCH_hotpath.json):
    campaign_sweep   wall seconds, lower is better
    walk_tlb_off     walks/s,      higher is better
    walk_tlb_on      translations/s, higher is better

  svc (bench_svc vs BENCH_svc.json):
    jobs_per_s_cached  cells/s,  higher is better
    cache_hit_rate     fraction, higher is better

  fuzz (bench_fuzz vs BENCH_fuzz.json):
    patterns_per_s     patterns/s, higher is better
    bypass_found       1.0 when the search still finds a TRR-sampler
                       bypass — deterministic, so any drop is real
    replays, best_flips, generations_to_first_bypass
                       compared for EXACT equality in every run: the
                       search is counter-seeded, so its work and its
                       answer repeat exactly; a diff is a real change

  table1 (bench_table1_attack_matrix vs BENCH_table1.json):
    every "<attack>__<defense>" cell, compared for EXACT equality
    (outcome name, flips, hammer passes) — the sweep is deterministic
    given the seed, so the only thing allowed to change between runs
    is wall-clock.  Any cell diff flags a real behavior change; if
    intentional, refresh the baseline.

The DRAM store numbers (``dram_read``/``dram_write`` sequential,
``dram_read_sparse`` row-stride over absent frames) are reported for
information only — they swing with machine load far beyond any real
code-level change.

``--current`` accepts several reports; each metric uses its best
value across them (min for lower-is-better, max otherwise).  On a
shared box single runs swing far more than real regressions do —
best-of-N is the de-noising; pass 3 runs.  The same reasoning shapes
the baseline: capture it on a *busy* box (and say so in its
``_note``), so that co-tenant load on the machine running the gate
never reads as a regression.  A real one clears 10% regardless.

Usage:
  check_bench.py --baseline BENCH_hotpath.json \
                 --current run1.json run2.json run3.json \
                 [--tolerance 0.10] [--suite hotpath|svc|fuzz]

Exit status: 0 when every gated metric is within tolerance, 1 on
regression or malformed input.
"""

import argparse
import json
import sys

# suite -> {metric -> direction ("lower" / "higher" is better)}.
# hotpath gates the mask-engine/VMA-index numbers; svc gates the
# campaign service's cached-resubmission path (BENCH_svc.json).  The
# svc cold and boot numbers stay informational: they measure full
# simulations and machine boots, which swing with box load, while the
# cached path and the hit rate are what the memoization layer
# guarantees.
GATED = {
    "hotpath": {
        "campaign_sweep": "lower",
        "walk_tlb_off": "higher",
        "walk_tlb_on": "higher",
    },
    "svc": {
        "jobs_per_s_cached": "higher",
        "cache_hit_rate": "higher",
    },
    "fuzz": {
        "patterns_per_s": "higher",
        "bypass_found": "higher",
    },
}
INFORMATIONAL = {
    "hotpath": ["dram_read", "dram_write", "dram_read_sparse"],
    "svc": ["jobs_per_s_cold", "cached_speedup", "cold_boot",
            "cell_latency_p50", "cell_latency_p99"],
    "fuzz": [],
}
# suite -> metrics every current run must match exactly: deterministic
# work counts and answers, where any diff is a real change.
EXACT = {
    "fuzz": ["replays", "best_flips", "generations_to_first_bypass"],
}


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"check_bench: cannot read {path}: {exc}")


def metric(report, path, name):
    entry = report.get(name)
    if not isinstance(entry, dict) or "value" not in entry:
        sys.exit(f"check_bench: {path} is missing metric '{name}'")
    return float(entry["value"]), entry.get("unit", "")


def check_table1(base, baseline_path, currents):
    """Exact-match gate: every cell of every current report must equal
    the baseline cell bit-for-bit (value = flips, unit = outcome,
    iterations = hammer passes).  No tolerance, no best-of-N — the
    sweep is deterministic, so any diff is a real behavior change."""
    failures = []
    print(f"check_bench: suite table1, exact match, "
          f"{len(currents)} run(s) vs {baseline_path}")
    for path, rep in currents:
        missing = sorted(set(base) - set(rep))
        extra = sorted(set(rep) - set(base))
        for name in missing:
            failures.append(name)
            print(f"  FAIL {name}: missing from {path}")
        for name in extra:
            failures.append(name)
            print(f"  FAIL {name}: not in baseline (new cell? "
                  f"refresh the baseline)")
        for name in sorted(set(base) & set(rep)):
            bent, cent = base[name], rep[name]
            same = all(bent.get(k) == cent.get(k)
                       for k in ("value", "unit", "iterations"))
            if same:
                continue
            failures.append(name)
            print(f"  FAIL {name}: baseline "
                  f"{bent.get('unit')} flips={bent.get('value')} "
                  f"passes={bent.get('iterations')}  now "
                  f"{cent.get('unit')} flips={cent.get('value')} "
                  f"passes={cent.get('iterations')}")
    if failures:
        print("check_bench: Table-1 cells drifted from the baseline. "
              "If intentional, refresh with "
              "bench_table1_attack_matrix --out BENCH_table1.json.")
        return 1
    print(f"check_bench: all {len(base)} Table-1 cells bit-identical "
          f"to baseline")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="checked-in reference report (repo root)")
    ap.add_argument("--current", required=True, nargs="+",
                    help="freshly produced report(s); best-of-N per metric")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional regression (default 0.10)")
    ap.add_argument("--suite",
                    choices=sorted(GATED) + ["table1"],
                    default="hotpath",
                    help="which gated metric set to check "
                         "(default hotpath)")
    args = ap.parse_args()

    if args.suite == "table1":
        return check_table1(load(args.baseline), args.baseline,
                            [(path, load(path))
                             for path in args.current])

    gated = GATED[args.suite]
    informational = INFORMATIONAL[args.suite]
    base = load(args.baseline)
    currents = [(path, load(path)) for path in args.current]

    def best(name, direction):
        vals = [metric(rep, path, name)[0] for path, rep in currents]
        return min(vals) if direction == "lower" else max(vals)

    failures = []
    print(f"check_bench: suite {args.suite}, "
          f"tolerance {args.tolerance:.0%}, "
          f"best of {len(currents)} run(s) vs {args.baseline}")
    for name, direction in gated.items():
        bval, unit = metric(base, args.baseline, name)
        cval = best(name, direction)
        if direction == "lower":
            # e.g. 0.25 -> 0.30 s is a 20% regression
            change = cval / bval - 1.0
        else:
            change = bval / cval - 1.0
        verdict = "FAIL" if change > args.tolerance else "ok"
        print(f"  {verdict:4} {name:16} base {bval:>14.6g} {unit:>16}"
              f"  now {cval:>14.6g}  regression {change:+.1%}")
        if verdict == "FAIL":
            failures.append(name)

    for name in EXACT.get(args.suite, []):
        bval, unit = metric(base, args.baseline, name)
        for path, rep in currents:
            cval = metric(rep, path, name)[0]
            verdict = "ok" if cval == bval else "FAIL"
            print(f"  {verdict:4} {name:16} base {bval:>14.6g} {unit:>16}"
                  f"  now {cval:>14.6g}  (exact, {path})")
            if verdict == "FAIL" and name not in failures:
                failures.append(name)

    for name in informational:
        if name in base and all(name in rep for _, rep in currents):
            bval, unit = metric(base, args.baseline, name)
            cval = best(name, "higher")
            print(f"  info {name:16} base {bval:>14.6g} {unit:>16}"
                  f"  now {cval:>14.6g}  (not gated)")

    if failures:
        refresh = {
            "hotpath": "bench_hotpath_micro --out BENCH_hotpath.json",
            "svc": "bench_svc --out BENCH_svc.json",
            "fuzz": "bench_fuzz --out BENCH_fuzz.json",
        }[args.suite]
        print(f"check_bench: REGRESSION in {', '.join(failures)} "
              f"(> {args.tolerance:.0%} worse than baseline, or an "
              f"exact metric differs). "
              f"If intentional, refresh the baseline with {refresh}.")
        return 1
    print("check_bench: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
