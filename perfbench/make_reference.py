#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/make_reference.py

Every search reference is the *unpruned* search of the instance, so a pruned
run is checked against what pruning must not change.  The unpruned
v_search(3, 3/2, 14) alone takes about 100 s on the pure-Python kernel, which
is why the result is stored rather than recomputed in each run.  A search
reference is accepted only if its class counts match OEIS, and a verify
reference only if the failing claims are exactly the package's documented
EXPECTED_FAILURES.  Both sizes are recorded ("full" for the benchmark, "tiny"
for the self-test).  Entries already in reference.json are kept; delete the
file to record everything afresh.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def reference_ops(size: str) -> list[workloads.Op]:
    spec = workloads.SIZES[size]
    ops = [workloads.search_op(k, lam, n_max, False) for k, lam, n_max in spec["pruned"]]
    ops += [workloads.search_op(3, lam, spec["unpruned_n_max"], False)
            for lam in workloads.UNPRUNED_POOL]
    ops.append(workloads.operations("verify_all", 0, size)[0])
    return ops


def record(op: workloads.Op) -> dict:
    import regspectra
    from regspectra import acceptance

    output = workloads.run_op(regspectra, op)
    if not op.suite:
        summary = workloads.search_summary(output)
        if summary["classes"] != workloads.published_classes(op.k, op.n_max):
            raise SystemExit(f"{op.label}: class counts {summary['classes']} differ from OEIS")
        return summary
    code, text = output
    claims = {}
    for line in text.splitlines():
        obj = json.loads(line)
        claims[obj["id"]] = obj["passed"]
    failing = {cid for cid, ok in claims.items() if not ok}
    expected = set(acceptance.EXPECTED_FAILURES) & set(claims)
    if failing != expected:
        raise SystemExit(f"failing claims {sorted(failing)} != EXPECTED_FAILURES {sorted(expected)}")
    return {"exit_code": code, "claims": claims}


def main() -> int:
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    for size in workloads.SIZES:
        for op in reference_ops(size):
            if op.ref_key in ref:
                continue
            start = time.perf_counter()
            ref[op.ref_key] = record(op)
            print(f"{op.ref_key}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
            with open(REFERENCE, "w") as fh:  # keep finished entries if interrupted
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
