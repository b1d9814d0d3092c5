#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs run.py with --size tiny (v_search(3, 1, 10) and v_search(4, 1, 8); the
unpruned cubic search to n = 10; verify --suite spectra) and checks that:

  1. every end-to-end metric (setup_s, wall_s, cpu_s, peak_rss_mb,
     fail_ratio and the raw times) and every per-layer metric (calls and
     self_s of each tracer.TARGETS function, each acceptance claim's time,
     and run.DERIVED_UNITS) is computed with its unit, and the result line
     carries exactly the metrics BENCHMARK.json declares, with the declared
     units;
  2. a deliberately wrong reference raises fail_ratio;
  3. the traced counts (calls, candidates, classes, distinct_ratio, ...) are
     identical across two traced runs;
  4. a layer function the tracer cannot find is named in the error, and no
     result line is made without its metrics;
  5. in a directory holding only BENCHMARK.json and perfbench/, run.py exits
     non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "results", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from regspectra import acceptance  # noqa: E402

END_TO_END = run.END_TO_END_UNITS
PER_LAYER = {
    **{f"{mod}.{fn}.{stat}": unit for mod, fn in tracer.TARGETS
       for stat, unit in run.LAYER_STAT_UNITS.items()},
    **{f"acceptance.{cid}.s": "s" for cid in acceptance.CRITERIA},
    **run.DERIVED_UNITS,
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int, out: str, reference: str | None = None, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--out", out]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    path = os.path.join(out, f"{workload}-seed1-trace{trace}.json")
    result = None
    if line is not None:
        with open(path) as fh:
            result = json.load(fh)
    return proc, line, result


def units_of(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


def traced_counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio", "order", "flop")} | {"ops": result["per_op_counts"]}


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {mode: {m["name"]: m["unit"] for m in bench[mode]} for mode in ("end_to_end", "per_layer")}

    for workload in workloads.WORKLOADS:
        _, line, result = run_bench(workload, 0, os.path.join(OUT, "a"))
        check(line is not None and line["correct"] and line["failed"] == 0,
              f"{workload}: untraced run is correct")
        if line is None:
            continue
        computed = units_of(result["metrics"])
        check(all(computed.get(n) == u for n, u in END_TO_END.items()),
              f"{workload}: computes {', '.join(END_TO_END)} with units")
        check(units_of(line["metrics"]) == declared["end_to_end"],
              f"{workload}: result line has exactly the declared end-to-end metrics")
        check(result["metrics"]["fail_ratio"]["value"] == 0, f"{workload}: fail_ratio is 0")

        traced = []
        for out in ("a", "b"):
            _, line, result = run_bench(workload, 1, os.path.join(OUT, out))
            check(line is not None and line["correct"], f"{workload}: traced run ({out}) is correct")
            if line is None:
                break
            traced.append(result)
            check(units_of(line["metrics"]) == declared["per_layer"],
                  f"{workload}: traced result line has exactly the declared per-layer metrics")
        if len(traced) == 2:
            computed = units_of(traced[0]["metrics"])
            missing = [n for n, u in PER_LAYER.items() if computed.get(n) != u]
            check(not missing, f"{workload}: computes every per-layer metric with its unit {missing}")
            check(traced_counts(traced[0]) == traced_counts(traced[1]),
                  f"{workload}: traced counts identical across two traced runs")

    # a deliberately wrong reference must raise fail_ratio
    with open(os.path.join(HERE, "reference.json")) as fh:
        wrong = json.load(fh)
    for entry in wrong.values():
        if "exact_v" in entry:
            entry["exact_v"] = (entry["exact_v"] or 0) + 1
        else:
            entry["claims"]["A1"] = not entry["claims"]["A1"]
    wrong_path = os.path.join(OUT, "wrong-reference.json")
    with open(wrong_path, "w") as fh:
        json.dump(wrong, fh)
    for workload in workloads.WORKLOADS:
        _, line, result = run_bench(workload, 0, os.path.join(OUT, "wrong"), reference=wrong_path)
        check(line is not None and not line["correct"] and line["failed"] > 0
              and result["metrics"]["fail_ratio"]["value"] > 0,
              f"{workload}: a wrong reference raises fail_ratio")

    # a layer function the tracer cannot find leaves its metrics out and is named
    gone = tracer.Tracer()
    gone.missing.append("search.spectral_prune")
    values, _, _, notes = run.layer_metrics([{"trace": gone.summary(), "calib_s": run.CALIB_REF_S}], 0.0)
    try:
        run.result_line({"metrics": values, "errors": notes, "stamp": {"workload": "search_pruned"}},
                        ["search.spectral_prune.cut_ratio"])
        refused = ""
    except RuntimeError as exc:
        refused = str(exc)
    check("search.spectral_prune.cut_ratio" not in values and "search.spectral_prune not found" in refused,
          "missing layer function: its metrics are left out and the result line is refused")

    # without the package source the benchmark must refuse to produce a result
    bare = os.path.join(OUT, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, line, _ = run_bench("search_pruned", 0, os.path.join(bare, "out"), cwd=bare)
    check(proc.returncode != 0 and line is None and not proc.stdout.strip(),
          "bare directory: non-zero exit and no result")

    print(f"\n{len(failures)} check(s) failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
