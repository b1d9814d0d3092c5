"""Acceptance suite: one test per registered claim, printing its pass/fail line.

Claims in EXPECTED_FAILURES (A5) are implemented exactly as stated and run
as xfail(strict): the identity A5 asserts is off by a -1 shift for every
input (the special matrix of the universal-fat construction is
A - J = -(I + A(co-H))), so the check cannot pass; A5b runs the corrected
identity at the same tolerance and sample size.  Details in the module
docstrings of regspectra.hoffman and regspectra.acceptance.
"""

import pytest

from regspectra import acceptance, bounds, search
from regspectra.construct import disjoint_union, edgeless

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
