"""The benchmark's workloads: which operations each one runs, and how every
result is checked against the stored reference.

An operation is one search instance or one acceptance claim.  It fails when
it raises or when its output differs from the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("search_pruned", "search_unpruned", "verify_all")

# Rational thresholds for search_unpruned; seed n takes entry n mod 10, so
# seed 0 gives the default lambda = 2.  With prune off the enumeration does not
# depend on lambda: the seed changes the filter and the exact recheck, not the
# labelling.  lambda = 2 settles 14 boundary graphs exactly and costs about
# 10 % more than the others, so ten consecutive seeds draw it once.
UNPRUNED_POOL = ("2", "1", "0", "3/2", "5/2", "-1", "1/2", "5/3", "9/4", "7/3")

# Connected k-regular graphs on n vertices: OEIS A002851 (k = 3), A006820 (k = 4).
CONNECTED_REGULAR = {
    3: {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060},
    4: {5: 1, 6: 1, 7: 2, 8: 6, 9: 16, 10: 59, 11: 265, 12: 1544},
}

# "full" is what the benchmark measures; "tiny" is for the self-test.
SIZES = {
    "full": {
        "pruned": ((3, "3/2", 14), (4, "1", 11)),
        "unpruned_n_max": 12,
        "suite": "all",
    },
    "tiny": {
        "pruned": ((3, "1", 10), (4, "1", 8)),
        "unpruned_n_max": 10,
        "suite": "spectra",
    },
}


@dataclass(frozen=True)
class Op:
    """One search instance (k, lam, n_max, prune) or one verify suite."""

    label: str
    k: int = 0
    lam: str = ""
    n_max: int = 0
    prune: bool = True
    suite: str = ""

    @property
    def ref_key(self) -> str:
        if self.suite:
            return f"verify --suite {self.suite}"
        return f"k={self.k} lam={self.lam} n_max={self.n_max}"


def operations(workload: str, seed: int, size: str) -> list[Op]:
    """The operations of one iteration, derived from the seed alone."""
    spec = SIZES[size]
    if workload == "search_pruned":
        # the seed fixes the order of the instances, which exposes any
        # state carried from one search to the next
        instances = list(spec["pruned"])
        random.Random(seed).shuffle(instances)
        return [search_op(k, lam, n_max, True) for k, lam, n_max in instances]
    if workload == "search_unpruned":
        lam = UNPRUNED_POOL[seed % len(UNPRUNED_POOL)]
        return [search_op(3, lam, spec["unpruned_n_max"], False)]
    if workload == "verify_all":
        suite = spec["suite"]
        return [Op(label=f"verify --suite {suite}", suite=suite)]
    raise ValueError(f"unknown workload {workload!r}")


def search_op(k: int, lam: str, n_max: int, prune: bool) -> Op:
    label = f"v_search({k}, {lam}, {n_max}{'' if prune else ', prune=False'})"
    return Op(label=label, k=k, lam=lam, n_max=n_max, prune=prune)


# -- running and checking ---------------------------------------------------------


def search_summary(report) -> dict:
    """What the reference pins for a search: the maximum order, the extremal
    certificates, and per order the passed and class counts (zeros left out)."""
    return {
        "exact_v": report.exact_v,
        "extremal": sorted(e.certificate for e in report.extremal),
        "passed": {str(n): c.passed for n, c in sorted(report.counts.items()) if c.passed},
        "classes": {str(n): c.classes for n, c in sorted(report.counts.items()) if c.classes},
    }


def run_op(regspectra, op: Op):
    """Call the package's public API for one operation; returns its raw output."""
    if op.suite:
        from regspectra import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--suite", op.suite, "--json"])
        return code, out.getvalue()
    return regspectra.v_search(op.k, Fraction(op.lam), op.n_max, prune=op.prune, workers=1)


def check_op(op: Op, output, reference: dict) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, mismatch messages).  A search
    is one operation; a verify suite is one operation per reference claim."""
    want = reference.get(op.ref_key)
    if want is None:
        count = op_count(op, reference)
        return count, count, [f"{op.label}: no reference for {op.ref_key!r}"]
    if op.suite:
        return _check_verify(output, want)
    got = search_summary(output)
    errors = [
        f"{op.label}: {field} {got[field]!r} != reference {want[field]!r}"
        for field in ("exact_v", "extremal", "passed")
        if got[field] != want[field]
    ]
    if not op.prune:
        # the unpruned search enumerates every class
        oeis = published_classes(op.k, op.n_max)
        if got["classes"] != oeis:
            errors.append(f"{op.label}: classes {got['classes']} != OEIS {oeis}")
        if got["classes"] != want["classes"]:
            errors.append(f"{op.label}: classes {got['classes']} != reference {want['classes']}")
    return 1, int(bool(errors)), errors


def published_classes(k: int, n_max: int) -> dict[str, int]:
    return {str(n): c for n, c in CONNECTED_REGULAR[k].items() if n <= n_max}


def _check_verify(output, want: dict) -> tuple[int, int, list[str]]:
    code, text = output
    claims = want["claims"]
    if code != want["exit_code"]:
        return len(claims), len(claims), [f"verify exit code {code} != reference {want['exit_code']}"]
    got: dict[str, bool] = {}
    for line in text.splitlines():
        obj = json.loads(line)
        got[obj["id"]] = obj["passed"]
    errors = [
        f"claim {cid}: passed={got.get(cid)} != reference {passed}"
        for cid, passed in claims.items()
        if got.get(cid) is not passed
    ]
    return len(claims), len(errors), errors


def op_count(op: Op, reference: dict) -> int:
    """Operations an Op stands for when it cannot be checked claim by claim."""
    if op.suite and op.ref_key in reference:
        return len(reference[op.ref_key]["claims"])
    return 1
