#!/usr/bin/env python3
"""Time-to-certified-answer benchmark for regspectra.

    python3 perfbench/run.py [--workload search_pruned|search_unpruned|verify_all|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Workloads (closed loop, one process, workers=1):

  search_pruned    v_search(3, 3/2, 14) and v_search(4, 1, 11), prune on; the
                   seed orders the two instances
  search_unpruned  v_search(3, lam, 12, prune=False), seed n takes lam from
                   workloads.UNPRUNED_POOL at n mod 10 (seed 0: lam = 2)
  verify_all       regspectra.cli.main(["verify", "--suite", "all", "--json"])

Each iteration runs in a fresh process that imports the package from `src/`,
so no cache outlives an iteration and the process's high-water mark belongs
to this workload alone.  Iterations repeat until --seconds have passed (and
an untraced run has at least three, for a robust median).  No further
iteration starts that may end later than DEADLINE_S after the start, and one
killed there is left out: slowness is not counted as failure.  Every operation (one
search instance, one claim) is checked against perfbench/reference.json; it
fails when it raises or differs, and all of an iteration's operations fail
when its process crashes.

End-to-end metrics (--trace 0), medians over the run; times are in reference
seconds (see CALIB_REF_S), with the raw medians beside them as *_raw_s:
  setup_s      fresh process importing regspectra until the backend is selected
  wall_s       time to the certified result of one iteration, untraced
  cpu_s        user + system CPU of the process and its children, same interval
  peak_rss_mb  high-water mark of a process that runs only this workload
  fail_ratio   failed / attempted operations (also the `failed` and
               `attempted` fields of the result line)

With --trace 1, untraced and traced iterations alternate; the traced ones wrap
the public functions of each layer (perfbench/tracer.py) and give the
per-layer metrics `<module>.<function>.<stat>` and trace.overhead_s (traced
minus untraced median wall_s).

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics BENCHMARK.json declares for the mode.  Everything else
(the stamp, every computed metric, the per-operation counts) is printed above
it and written to perfbench/results/ (or --out).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5  # extra fresh imports per run, after one unmeasured warm-up
MIN_ITERATIONS = 3  # an untraced run's median needs three samples to drop an outlier
DEADLINE_S = 170.0  # no iteration of a workload may end later than this after its start
# Once an iteration of a kind (traced or untraced) has completed, another is
# started only if the slowest of its kind so far, times HOST_SWING for the
# host's slow phases, still fits before DEADLINE_S.  The first of each kind
# always starts; if it is killed at the deadline, it is left out.
HOST_SWING = 1.5

# The shared host runs the same work up to 1.5x slower for stretches of tens
# of seconds, so raw times of identical runs spread by 15-25 %.  A host-speed
# probe (calibrate.py) runs before and after every iteration, and times are
# reported in reference seconds: measured seconds x CALIB_REF_S / the mean of
# the two probe times around the measurement.  In two sets of ten seeds per
# workload that brought the spread of wall_s from 0.06-0.23 raw to 0.04-0.14.
# Raw medians are kept as *_raw_s next to them.
CALIB_REF_S = 0.25

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "fail_ratio": "ratio", "setup_raw_s": "s", "wall_raw_s": "s",
                    "cpu_raw_s": "s", "calib_s": "s"}
# Per-layer metrics: calls and self time of each tracer.TARGETS function, the
# time of each acceptance claim (`acceptance.<id>.s`), and these.
LAYER_STAT_UNITS = {"calls": "count", "self_s": "s"}
DERIVED_UNITS = {
    "kernel.sym_eigenvalues.order_mean": "order",
    "kernel.sym_eigenvalues.flops_computed": "flop",
    "search.spectral_prune.cut_ratio": "ratio",
    "search.spectral_prune.distinct_ratio": "ratio",
    "search.candidates": "count",
    "search.classes": "count",
    "search.class_yield": "ratio",
    "trace.overhead_s": "s",
}


class TimedOut(Exception):
    """A worker outlived the time left before DEADLINE_S."""


def _child(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run worker.py; returns (its JSON result or None, error text).  Raises
    TimedOut when the worker is killed at `timeout`."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise TimedOut(f"worker killed after {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        pass
    return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"


def _calibrate() -> float:
    """Seconds the host-speed probe (calibrate.py) takes right now."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _reference(runs: list[dict], key: str) -> list[float]:
    """Times in reference seconds: measured seconds x CALIB_REF_S over the
    host-speed probe's time around that measurement."""
    return [r[key] * CALIB_REF_S / r["calib_s"] for r in runs]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 reference: str, out: str) -> dict:
    """Set up, measure for `seconds`, and aggregate one workload."""
    started = time.perf_counter()
    setups = []  # every fresh import measured: the probes and each iteration
    probe = None
    before = _calibrate()
    for i in range(SETUP_PROBES + 1):
        try:
            probe, err = _child(["--setup-only"], timeout=60)
        except TimedOut as exc:
            probe, err = None, str(exc)
        if probe is None:
            raise RuntimeError(f"cannot import regspectra from {ROOT}/src: {err}")
        if i:
            setups.append(probe)
    calib = _calibrate()
    for probe_result in setups:
        probe_result["calib_s"] = (before + calib) / 2

    base = ["--workload", workload, "--seed", str(seed), "--size", size, "--reference", reference]
    results: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    errors: list[str] = []
    t0 = time.perf_counter()
    slowest = {False: 0.0, True: 0.0}
    while True:
        traced = trace and len(results[True]) < len(results[False])
        predicted = HOST_SWING * slowest[traced]
        left = DEADLINE_S - (time.perf_counter() - started)
        if results[traced] and predicted > left:
            errors.append(f"stopped: the next iteration may take {predicted:.0f} s, {left:.0f} s are left")
            break
        args = list(base)
        if traced:
            args += ["--trace", os.path.join(out, f"spans-{workload}-seed{seed}-{len(results[True])}.json.gz")]
        begin = time.perf_counter()
        try:
            res, err = _child(args, timeout=left)
        except TimedOut as exc:  # too slow for the deadline, not wrong: leave it out
            errors.append(f"{'traced ' if traced else ''}iteration left out: {exc}")
            break
        before, calib = calib, _calibrate()
        slowest[traced] = max(slowest[traced], time.perf_counter() - begin)
        if res is None:  # the worker crashed: every operation of the iteration failed
            ops = workloads.operations(workload, seed, size)
            with open(reference) as fh:
                lost = sum(workloads.op_count(op, json.load(fh)) for op in ops)
            attempted += lost
            failed += lost
            errors.append(err)
            if not results[traced]:  # none of its kind ever ran: retrying will not help
                break
        else:
            res["calib_s"] = (before + calib) / 2  # the probes right before and after
            results[traced].append(res)
            setups.append(res)
            attempted += res["attempted"]
            failed += res["failed"]
            errors.extend(res["errors"])
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and (results[True] if trace else len(results[False]) >= MIN_ITERATIONS):
            break

    plain, traced_runs = results[False], results[True]
    if not plain or (trace and not traced_runs):
        raise RuntimeError(f"no {'traced ' if plain else ''}iteration completed within "
                           f"{DEADLINE_S:.0f} s of the start: {errors[-1:]}")
    metrics = {
        "setup_s": _median(_reference(setups, "setup_s")),
        "wall_s": _median(_reference(plain, "wall_s")),
        "cpu_s": _median(_reference(plain, "cpu_s")),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "setup_raw_s": _median([r["setup_s"] for r in setups]),
        "wall_raw_s": _median([r["wall_s"] for r in plain]),
        "cpu_raw_s": _median([r["cpu_s"] for r in plain]),
        "calib_s": _median([r["calib_s"] for r in setups]),
    }
    units = dict(END_TO_END_UNITS)
    per_op = {}
    if trace:
        overhead = _median(_reference(traced_runs, "wall_s")) - metrics["wall_s"]
        layer, layer_units, per_op, drift = layer_metrics(traced_runs, overhead)
        metrics.update(layer)
        units.update(layer_units)
        errors.extend(drift)
    stamp = {
        "git_sha": _git_sha(),
        "backend": probe["backend"],
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "nproc": os.cpu_count(),
        "REGSPECTRA_PURE": os.environ.get("REGSPECTRA_PURE"),
        "REGSPECTRA_THREADS": os.environ.get("REGSPECTRA_THREADS"),
        "seed": seed,
        "workload": workload,
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
    }
    return {
        "stamp": stamp,
        "ops": [op.label for op in workloads.operations(workload, seed, size)],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "iterations": {"untraced": len(plain), "traced": len(traced_runs)},
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "samples": {  # raw seconds
            "setup_s": [r["setup_s"] for r in setups],
            "wall_s": [r["wall_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "traced_wall_s": [r["wall_s"] for r in traced_runs],
            "calib_s": [r["calib_s"] for r in setups],
        },
        "per_op_counts": per_op,
    }


def layer_metrics(runs: list[dict], overhead: float):
    """Per-layer metrics from the traced iterations: counts from the first
    (and a note for any iteration whose counts differ), times as medians in
    reference seconds."""
    traces = [r["trace"] for r in runs]
    scale = [CALIB_REF_S / r["calib_s"] for r in runs]
    first = traces[0]
    values: dict[str, float] = {}
    units: dict[str, str] = {}

    def put(name: str, value: float, unit: str | None = None) -> None:
        values[name] = value
        units[name] = unit or DERIVED_UNITS[name]

    layers = first["layers"]
    for name, entry in layers.items():
        if name.startswith("acceptance."):
            put(f"{name}.s", _median([t["layers"][name]["total_s"] * f for t, f in zip(traces, scale)]), "s")
        else:
            put(f"{name}.calls", entry["calls"], LAYER_STAT_UNITS["calls"])
            put(f"{name}.self_s", _median([t["layers"][name]["self_s"] * f for t, f in zip(traces, scale)]),
                LAYER_STAT_UNITS["self_s"])
    # a derived metric is left out when the function it is counted at was not found
    if "kernel.sym_eigenvalues" in layers:
        eig = first["eig_orders"]
        put("kernel.sym_eigenvalues.order_mean", eig["sum"] / eig["count"] if eig["count"] else 0.0)
        put("kernel.sym_eigenvalues.flops_computed", eig["flops"])
    if "search.spectral_prune" in layers:
        prunes = layers["search.spectral_prune"]["calls"]
        put("search.spectral_prune.cut_ratio", first["prune"]["cuts"] / prunes if prunes else 0.0)
        put("search.spectral_prune.distinct_ratio", first["prune"]["distinct"] / prunes if prunes else 0.0)
    if "search.v_search" in layers:
        found = first["search"]
        put("search.candidates", found["candidates"])
        put("search.classes", found["classes"])
        put("search.class_yield", found["classes"] / found["candidates"] if found["candidates"] else 0.0)
    put("trace.overhead_s", overhead)

    def counts(t: dict) -> tuple:
        return ({n: e["calls"] for n, e in t["layers"].items()}, t["eig_orders"], t["prune"],
                t["search"], t["ops"])

    drift = [f"traced iteration {i}: counts differ from the first traced iteration"
             for i, t in enumerate(traces[1:], 1) if counts(t) != counts(first)]
    drift += [f"tracer: {name} not found in the package" for name in first["missing"]]
    return values, units, first["ops"], drift


def declared(mode: str) -> list[str]:
    """Names of the metrics BENCHMARK.json declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[mode]]


def report(result: dict) -> None:
    stamp = result["stamp"]
    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"{stamp['workload']}: {result['iterations']['untraced']} untraced and "
          f"{result['iterations']['traced']} traced iterations of {', '.join(result['ops'])}")
    for name, m in result["metrics"].items():
        n = len(result["samples"].get(name.replace("_raw", ""), ()))
        size = f"  (median of {n})" if n else ""
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}{size}")
    print(f"  operations: {result['failed']} failed of {result['attempted']}")
    for label, calls in result["per_op_counts"].items():
        print(f"  {label}: " + ", ".join(f"{n}={c}" for n, c in calls.items()))
    for err in result["errors"][:20]:
        print(f"  error: {err}", file=sys.stderr)


def result_line(result: dict, names: list[str], prefix: str = "") -> dict:
    """The declared metrics of one workload; RuntimeError if any was not computed."""
    metrics = result["metrics"]
    absent = [n for n in names if n not in metrics]
    if absent:
        raise RuntimeError(f"{result['stamp']['workload']}: declared metrics not computed: "
                           f"{', '.join(absent)} {[e for e in result['errors'] if 'not found' in e]}")
    return {f"{prefix}{n}": metrics[n] for n in names}


def main() -> int:
    # on SIGTERM, unwind so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="tiny is for the self-test")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    ap.add_argument("--out", default=os.path.join(HERE, "results"), help="directory for result files")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "regspectra", "__init__.py")):
        print(f"error: no package source at {ROOT}/src/regspectra", file=sys.stderr)
        return 2
    if not os.path.isfile(args.reference):
        print(f"error: no reference file {args.reference}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    reference = os.path.abspath(args.reference)
    wanted = declared("per_layer" if args.trace else "end_to_end")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.size,
                                  reference, args.out)
            report(result)
            path = os.path.join(args.out, f"{workload}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as fh:
                json.dump(result, fh, indent=1)
            line["metrics"].update(result_line(result, wanted,
                                               prefix="" if len(names) == 1 else f"{workload}."))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        line["attempted"] += result["attempted"]
        line["failed"] += result["failed"]
    line["correct"] = line["failed"] == 0 and line["attempted"] > 0
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
