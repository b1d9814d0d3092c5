#!/usr/bin/env python3
"""Compare two sets of benchmark runs, for example a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files run.py writes (`--out DIR`), one per
workload and seed; make both sets with the same --seconds, the same seeds,
and, run by run, alternate which side goes first.  For every workload and
end-to-end metric of BENCHMARK.json this prints each side's median and
quartiles, the pair win ratio (runs paired by seed; ties count for neither
side) and a verdict against the metric's bound:

  unresolved  the spread (quartile distance / median) of either side exceeds
              the bound, and not every change run beats every base run
  regression  the change's median is worse than the base's by more than the bound
  gain        the change wins at least 9 of 10 pairs, the medians differ by
              more than the base's own quartile distance, and no more
              operations fail than on the base
  same        none of the above

Exits 1 when any metric regresses or any change run has a failed operation.

Traced result files (--trace 1) are compared the same way for the per-layer
metrics, without a verdict: counts should repeat exactly within each side.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def load(directory: str, trace: int) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result file contents."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, f"*-trace{trace}.json"))):
        with open(path) as fh:
            result = json.load(fh)
        stamp = result["stamp"]
        runs.setdefault(stamp["workload"], {})[stamp["seed"]] = result
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def win_ratio(pairs: list[tuple[float, float]], better: str) -> float:
    """Share of (base, change) pairs the change wins; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for b, c in pairs if sign * (c - b) > 0) / len(pairs) if pairs else 0.0


def verdict(base: list[float], change: list[float], wins: float, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    if sign * (cmed - bmed) < -bound * abs(bmed):
        return "regression"
    if wins >= WIN_SHARE and sign * (cmed - bmed) > b3 - b1:
        return "gain"
    return "same"


def compare(base_dir: str, change_dir: str, declared: dict) -> int:
    regressions = 0
    for trace, metrics in ((0, declared["end_to_end"]), (1, declared["per_layer"])):
        base_runs, change_runs = load(base_dir, trace), load(change_dir, trace)
        for workload in sorted(set(base_runs) | set(change_runs)):
            base = base_runs.get(workload, {})
            change = change_runs.get(workload, {})
            seeds = sorted(set(base) & set(change))
            print(f"\n{workload} ({'traced' if trace else 'untraced'}): {len(base)} base runs, "
                  f"{len(change)} change runs, {len(seeds)} pairs")
            failed = {}
            for side, runs in (("base", base), ("change", change)):
                failed[side] = sum(r["failed"] for r in runs.values())
                attempted = sum(r["attempted"] for r in runs.values())
                print(f"  {side}: {failed[side]} of {attempted} operations failed")
            regressions += bool(failed["change"])
            if not base or not change:
                continue
            print(f"  {'metric':42s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s}  wins  verdict")
            for m in metrics:
                name = m["name"]
                b = [r["metrics"][name]["value"] for r in base.values() if name in r["metrics"]]
                c = [r["metrics"][name]["value"] for r in change.values() if name in r["metrics"]]
                if not b or not c:
                    continue
                pairs = [(base[s]["metrics"][name]["value"], change[s]["metrics"][name]["value"])
                         for s in seeds]
                wins = win_ratio(pairs, m["better"])
                if "bound" in m:
                    v = verdict(b, c, wins, m["better"], m["bound"])
                    if v == "gain" and failed["change"] > failed["base"]:
                        v = "same"  # a gain does not count with more failures
                    regressions += v == "regression"
                else:  # per-layer: no bound; say whether each side's value repeats exactly
                    v = "exact" if len(set(b)) == 1 and len(set(c)) == 1 else "-"
                fmt = "{:.4g}/{:.4g}/{:.4g}"
                print(f"  {name:42s} {fmt.format(*quartiles(b)):>32s} {fmt.format(*quartiles(c)):>32s}"
                      f"  {wins:4.2f}  {v}")
    return 1 if regressions else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as fh:
        declared = json.load(fh)
    return compare(args.base, args.change, declared)


if __name__ == "__main__":
    sys.exit(main())
