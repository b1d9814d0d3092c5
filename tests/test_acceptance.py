"""Acceptance suite: one test per registered claim, printing its pass/fail line.

Claims in EXPECTED_FAILURES (A5) are implemented exactly as stated and run
as xfail(strict): the identity A5 asserts is off by a -1 shift for every
input (the special matrix of the universal-fat construction is
A - J = -(I + A(co-H))), so the check cannot pass; A5b runs the corrected
identity at the same tolerance and sample size.  Details in the module
docstrings of regspectra.hoffman and regspectra.acceptance.
"""

import random

import pytest

from regspectra import acceptance, bounds, kernel, search
from regspectra.construct import complement, disjoint_union, edgeless, random_graph
from regspectra.hoffman import attach_universal_fat
from regspectra.spectra import eig_symmetric

_XFAIL = pytest.mark.xfail(strict=True, reason="documented defect of the claim as stated")


@pytest.mark.parametrize(
    "cid",
    [pytest.param(cid, marks=_XFAIL) if cid in acceptance.EXPECTED_FAILURES else cid
     for cid in acceptance.CRITERIA],
)
def test_claim(cid):
    result = acceptance.CRITERIA[cid]()
    print(result.line())
    assert result.seconds < acceptance.RUNTIME_CAPS[cid], "runtime budget exceeded"
    assert result.passed


def test_a6_reports_the_largest_lambda_min_q():
    # the detail is the maximum over the order-7 hosts, each below -2
    worst = acceptance.CRITERIA["A6"]().details["max_lambda_min_q"]
    hosts = [disjoint_union(g, edgeless(1)) for g in search.enumerate_all_graphs(6)]
    assert worst < -2
    assert worst == max(
        bounds.isolated_vertex_bound_check(2, h).evidence["lambda_min_q"] for h in hosts
    )


def test_a5_and_a5b_solve_their_sample_once(monkeypatch):
    # the two claims read one solve of the 100-graph sample: two kernel
    # calls per graph, and the same worst values as a solve per claim
    calls = []
    solve = kernel.sym_eigenvalues
    monkeypatch.setattr(kernel, "sym_eigenvalues", lambda m: calls.append(1) or solve(m))
    acceptance._universal_fat_pairs.cache_clear()
    a5, a5b = acceptance.CRITERIA["A5"](), acceptance.CRITERIA["A5b"]()
    assert len(calls) == 200
    monkeypatch.undo()
    rng = random.Random(513)
    worst = worst_b = 0.0
    for _ in range(100):
        h = random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.9), rng)
        lm, lmax = attach_universal_fat(h).lambda_min(), eig_symmetric(complement(h))[0]
        worst, worst_b = max(worst, abs(lm + lmax)), max(worst_b, abs(lm + 1.0 + lmax))
    assert a5.details == {"sample": 100, "worst_abs": worst}
    assert a5b.details == {"sample": 100, "worst_abs": worst_b}
