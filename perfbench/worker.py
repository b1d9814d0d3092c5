"""One iteration of one workload in a fresh process; prints one JSON line.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --size full [--trace SPANS.json.gz]
    python3 perfbench/worker.py --setup-only

The process imports the package from the checkout's `src/`, timing the import
up to backend selection (`setup_s`), then runs every operation of the
iteration, timing each call into the package (`wall_s`, `cpu_s`) and checking
its output against the reference outside the timed region.  `peak_rss_mb` is
this process's high-water mark, so it covers this workload only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--reference")
    ap.add_argument("--trace", metavar="SPANS", help="install the tracer; write spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import regspectra

    backend = regspectra.backend() if hasattr(regspectra, "backend") else "n/a"
    setup_s = time.perf_counter() - start
    if not os.path.abspath(regspectra.__file__).startswith(SRC + os.sep):
        print(f"error: imported regspectra from {regspectra.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy

    info = {"setup_s": setup_s, "backend": backend, "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(info))
        return 0

    import regspectra.cli  # noqa: F401  (loads acceptance, so the tracer sees every claim)

    sys.path.insert(0, HERE)
    import workloads

    with open(args.reference) as fh:
        reference = json.load(fh)
    ops = workloads.operations(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    wall = cpu = 0.0
    attempted = failed = 0
    errors: list[str] = []
    for op in ops:
        if tracer:
            tracer.begin_op(op.label)
        t0, c0 = time.perf_counter(), _cpu()
        try:
            output, raised = workloads.run_op(regspectra, op), None
        except Exception:  # an operation that raises counts as failed
            output, raised = None, traceback.format_exc()
        wall += time.perf_counter() - t0
        cpu += _cpu() - c0
        if tracer:
            tracer.end_op()
        if not raised:
            try:
                count, bad, mismatches = workloads.check_op(op, output, reference)
            except Exception:  # output the check cannot read
                raised = traceback.format_exc()
        if raised:
            count = workloads.op_count(op, reference)
            count, bad, mismatches = count, count, [f"{op.label} raised:\n{raised}"]
        attempted += count
        failed += bad
        errors.extend(mismatches)

    info.update(wall_s=wall, cpu_s=cpu, attempted=attempted, failed=failed, errors=errors,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                ops=[op.label for op in ops])
    if tracer:
        info["trace"] = tracer.summary()
        tracer.dump(args.trace)
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
