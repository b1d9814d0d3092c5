"""Thresholds, known values, certificates, and the bound checks."""

import random
import time
from fractions import Fraction

import pytest

from regspectra import bounds
from regspectra.construct import (
    complement,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    disjoint_union,
    edgeless,
    petersen,
    random_graph,
)
from regspectra.errors import UnsupportedSizeError
from regspectra.graphs import Graph, regularity_params
from regspectra.spectra import lambda_min_at_least
from oracles import bfs_pair_data
import parity_grid


def _lambda_min_at_least(g: Graph, lam) -> bool:
    return lambda_min_at_least(g, lam)[0]


def test_thresholds_examples():
    th = bounds.thresholds(1)
    assert th.t_prime == 1 and th.m_prime == 1
    assert th.gamma2_cap == 1 and th.isolated_cap == 2
    th = bounds.thresholds(2)
    assert th.t_prime == 3  # -sqrt(6) < -2 but -sqrt(4) = -2 is not
    assert th.gamma2_cap == 8 and th.isolated_cap == 5
    with pytest.raises(ValueError):
        bounds.thresholds(0.5)


def test_thresholds_exact_boundary():
    # lambda^2 = 4 exactly: floor(lambda^2/2)+1 must be 3, not 2
    assert bounds.t_prime_closed_form(Fraction(2)) == 3
    assert bounds.t_prime_closed_form(Fraction(3, 2)) == 2


def test_thresholds_minimality():
    from regspectra.construct import k_tilde

    for lam in (1, Fraction(3, 2), 2, Fraction(5, 2), 3):
        th = bounds.thresholds(lam)
        if th.t_prime > 1:
            assert _lambda_min_at_least(complete_bipartite(2, th.t_prime - 1), lam)
        assert not _lambda_min_at_least(complete_bipartite(2, th.t_prime), lam)
        if th.m_prime > 1:
            assert _lambda_min_at_least(k_tilde(th.m_prime - 1), lam)
        assert not _lambda_min_at_least(k_tilde(th.m_prime), lam)


@pytest.mark.parametrize(
    "lam, t_prime, m_prime",
    [
        # lambda_min(K_{2,2}) = -2 lies only 1e-9 below -lambda
        (Fraction(1999999999, 10**9), 2, 4),
        # m' far beyond the 64 that once capped the search
        (10, 51, 176),
    ],
)
def test_thresholds_exact_near_boundary_and_large(lam, t_prime, m_prime):
    th = bounds.thresholds(lam)
    assert (th.t_prime, th.m_prime) == (t_prime, m_prime)


def test_isolated_vertex_bound():
    # boundary case: order 2 equals the lambda=1 cap, so nothing to check
    h = Graph.from_edges(2, [])
    cert = bounds.isolated_vertex_bound_check(1, h)
    assert cert.verified and not cert.evidence["order_exceeds_cap"]
    # beyond the cap the strict inequality must hold
    h = Graph.from_edges(4, [(0, 1), (1, 2)])  # vertex 3 isolated; order 4 > 2
    cert = bounds.isolated_vertex_bound_check(1, h)
    assert cert.verified and cert.evidence["order_exceeds_cap"]
    assert cert.evidence["lambda_min_q"] < -1
    with pytest.raises(ValueError):
        bounds.isolated_vertex_bound_check(1, complete(3))


def test_prop13_examples():
    cert = bounds.prop13_verifier(petersen(), 2, 1)
    assert cert.verified and cert.evidence["applicable"]
    assert cert.evidence["gamma2_max"] == 6 and cert.evidence["gamma2_cap"] == 8
    # K_{3xT} with lambda = t, M = 2t
    t = 3
    cert = bounds.prop13_verifier(complete_multipartite([t, t, t]), t, 2 * t)
    assert cert.verified and cert.evidence["applicable"]
    # premise (ii) fails for K_{k,k} at lambda = 1
    cert = bounds.prop13_verifier(complete_bipartite(4, 4), 1, 4)
    assert cert.verified and not cert.evidence["applicable"]
    assert not cert.evidence["premise_lambda_min"]


@pytest.mark.parametrize(
    "lam, holds",
    [(2 - Fraction(1, 10**9), False), (Fraction(2), True), (2 + Fraction(1, 10**9), True)],
)
def test_lambda_min_premise_settled_exactly_at_the_boundary(lam, holds):
    # lambda_min = -2 exactly for all three; the floats give -2.0 for C4 and
    # K_{2,2,2,2} but -2.0000000000000004 for the octahedron, so a float
    # margin answered differently for them near lambda = 2
    graphs = [cycle(4), complete_multipartite([2, 2, 2, 2]), complete_multipartite([2, 2, 2])]
    for g in graphs:
        for cert in (bounds.prop13_verifier(g, lam, 1), bounds.co_edge_bound_check(g, lam)):
            assert cert.evidence["premise_lambda_min"] is holds, (g.n, cert.claim)
            assert "tolerance" not in cert.to_json_obj()
    # lambda_min(q(2K1)) = -1 - lambda_max(K2) = -2 exactly
    cert = bounds.isolated_vertex_bound_check(lam, edgeless(2))
    assert cert.evidence["strictly_below_minus_lambda"] is not holds


def test_prop13_detects_conclusion_failure():
    # premises can hold with a too-small common-neighbor demand; the verifier
    # must then report the failed conclusion honestly rather than claim vacuity
    g = cycle(7)  # diameter 3, lambda_min ~ -1.80
    cert = bounds.prop13_verifier(g, 2, 1)
    assert cert.evidence["applicable"]
    assert not cert.verified


def test_prop13_evidence_matches_queue_oracle():
    rng = random.Random(37)
    graphs = [random_graph(rng.randint(1, 11), rng.random() * rng.choice([0.3, 1.0]), rng)
              for _ in range(150)]
    graphs.append(disjoint_union(cycle(5), complete(3)))
    for g in graphs:
        want = bfs_pair_data(g)
        ev = bounds.prop13_verifier(g, 2, 1).evidence
        assert ev["distance2_common_min"] == (min(want["dist2"]) if want["dist2"] else None)
        assert ev["max_finite_distance"] == want["max_finite"]
        assert ev["gamma2_max"] == want["gamma2_max"]


def test_m_lambda_interval():
    lo, hi = bounds.m_lambda_interval(2)
    assert lo == 9 and hi is None
    lo, hi = bounds.m_lambda_interval(2, n_prime=3)
    # R(3, t'(2)) = R(3,3) = 6 < 9, so the floor term dominates
    assert lo == 9 and hi == 9
    # t' is defined for lambda >= 1 only
    with pytest.raises(ValueError, match="lambda must be >= 1"):
        bounds.m_lambda_interval(Fraction(1, 2), n_prime=3)
    with pytest.raises(ValueError, match="lambda must be >= 1"):
        bounds.m_lambda_interval(Fraction(1, 2))


def test_known_v():
    assert bounds.known_v(5, -1).value == 6
    assert bounds.known_v(4, 0).value == 8
    assert bounds.known_v(11, 1).value == 24
    assert bounds.known_v(20, 1).value == 42
    kv = bounds.known_v(3, 1)
    assert kv.kind == "interval" and kv.lower == 8 and kv.upper == 10
    assert bounds.known_v(2, 2).kind == "infinite"
    assert bounds.known_v(5, 4).kind == "infinite"  # 16 = 4(k-1)
    kv = bounds.known_v(9, 2)
    assert kv.kind == "interval" and kv.lower == 20 and kv.upper is None
    assert bounds.known_v(7, "1/2").kind == "interval"
    assert bounds.known_v(3, -2).kind == "none"
    assert bounds.known_v(1, 1).value == 2
    with pytest.raises(ValueError):
        bounds.known_v(0, 1)


def test_known_v_refuses_past_the_divisor_cap():
    # mu is sought among d <= min(floor(lambda), k // 2): up to the cap it is
    # found, one past it the call is refused at once
    cap = bounds.MU_CANDIDATE_CAP
    kv = bounds.known_v(10**12, cap)
    assert kv.kind == "interval" and kv.lower == 2 * 10**12 + 2 * cap
    with pytest.raises(UnsupportedSizeError, match="divisors"):
        bounds.known_v(10**12, cap + 1)
    start = time.perf_counter()
    with pytest.raises(UnsupportedSizeError):
        bounds.known_v(10**41, 10**15)
    assert time.perf_counter() - start < 1


def test_known_v_lower_end_is_a_witness():
    # for integer lambda dividing k = lambda * a (a >= 2), lower_bound_graph
    # certifies a connected k-regular graph on 2k + 2 lambda vertices with
    # second eigenvalue lambda; known_v's lower end is its order, and names it
    for lam in range(2, 6):
        for a in range(2, 8):
            g, cert = bounds.lower_bound_graph(lam, a)
            kv = bounds.known_v(lam * a, lam)
            assert cert.verified and kv.lower == g.n == 2 * lam * a + 2 * lam, (lam, a)
            assert kv.upper is None and f"lower_bound_graph({lam}, {a})" in kv.note
    # a lambda above an integer keeps that integer's witness
    assert bounds.known_v(6, "5/2").lower == 16


def test_known_v_consistent_with_search():
    from regspectra.search import v_search

    for k, lam, n_max in ((2, 0, 8), (3, -0.5, 8), (2, 1, 10), (3, 0, 10)):
        found = v_search(k, lam, n_max).exact_v
        assert bounds.known_v(k, lam).contains(found)


def test_known_v_brackets_parity_grid():
    # every committed search result lies below known_v's upper end, where it
    # has one; a search that reaches the upper end has covered every order,
    # so its result is v(k, lambda) and lies above the lower end too
    reached = 0
    for (k, lam, n_max), rec in parity_grid.reference().items():
        kv = bounds.known_v(k, lam)
        if kv.upper is None:
            continue
        assert rec["exact_v"] <= kv.upper, (k, lam)
        if n_max >= kv.upper:
            reached += 1
            assert rec["exact_v"] >= kv.lower, (k, lam)
    assert reached == 20


def test_lower_bound_graph():
    g, cert = bounds.lower_bound_graph(1, 3)
    assert cert.verified and g.n == 8 and set(g.degrees()) == {3}
    g, cert = bounds.lower_bound_graph(2, 3)
    assert cert.verified and g.n == 16 and set(g.degrees()) == {6}
    assert abs(cert.evidence["second_largest"] - 2) <= 1e-8
    # order minus twice the degree is exactly 2*lambda
    for lam, a in ((1, 2), (2, 4), (3, 2)):
        g, cert = bounds.lower_bound_graph(lam, a)
        assert g.n - 2 * lam * a == 2 * lam
        assert cert.verified
    with pytest.raises(ValueError):
        bounds.lower_bound_graph(0, 3)
    with pytest.raises(ValueError):
        bounds.lower_bound_graph(2, 1)


def test_co_edge_bound():
    cert = bounds.co_edge_bound_check(complete_bipartite(4, 4), 2)
    assert cert.params["c2"] == 4 and cert.evidence["ell"] == 3
    cert = bounds.co_edge_bound_check(petersen(), 2)
    assert cert.verified
    assert cert.evidence["ell"] == 6 and not cert.evidence["ell_within_cap"]
    co_pete = complement(petersen())
    cert = bounds.co_edge_bound_check(co_pete, 2)
    assert cert.params["c2"] == 4 and cert.verified
    # complete graphs are vacuously co-edge-regular
    cert = bounds.co_edge_bound_check(complete(5), 2)
    assert cert.evidence["vacuous_complete_graph"]
    with pytest.raises(ValueError):
        bounds.co_edge_bound_check(cycle(6), 2)  # not co-edge-regular


def test_mu_bound():
    assert bounds.mu_bound(2) == 8
    assert bounds.mu_bound(3) == 81
    with pytest.raises(ValueError):
        bounds.mu_bound(1)
    pete = regularity_params(petersen())
    assert bounds.srg_mu_check(pete.srg_params(), 2)


def test_amply_regular_check():
    cert = bounds.amply_regular_check(complete_multipartite([3, 3, 3]), 3)
    assert cert.verified and cert.evidence["status"] == "complete-multipartite"
    cert = bounds.amply_regular_check(petersen(), 2)
    assert cert.verified and cert.evidence["status"] == "c2-within-mu-bound"
    cert = bounds.amply_regular_check(cycle(6), 2)
    assert cert.verified and cert.params["c2"] == 1
    with pytest.raises(ValueError):
        bounds.amply_regular_check(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2)


def test_is_complete_multipartite():
    assert bounds.is_complete_multipartite(complete_multipartite([2, 3, 4]))
    assert bounds.is_complete_multipartite(complete(5))
    assert bounds.is_complete_multipartite(complete_bipartite(1, 4))
    assert not bounds.is_complete_multipartite(petersen())
    assert not bounds.is_complete_multipartite(cycle(6))
    # complement = K_3 plus a path on 3 vertices: one clique component, one not
    k3_p3 = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
    assert not bounds.is_complete_multipartite(complement(k3_p3))
    k3_k2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert bounds.is_complete_multipartite(complement(k3_k2))


def test_certificate_json():
    _, cert = bounds.lower_bound_graph(1, 2)
    obj = cert.to_json_obj()
    assert obj["verified"] and obj["claim"] == "coclique-extension-lower-bound"
    # every verdict is exact: no certificate carries a tolerance
    assert "tolerance" not in obj
    assert "tolerance" not in bounds.prop13_verifier(petersen(), 2, 1).to_json_obj()


def test_isolated_vertex_bound_exhaustive_small():
    # every graph with an isolated vertex on up to 6 vertices is consistent
    # with the lambda = 2 bound (order 6 exceeds the cap and must go strictly
    # below -2; smaller orders are vacuous)
    import numpy as np

    from regspectra.search import enumerate_all_graphs

    for free in range(1, 6):
        for g in enumerate_all_graphs(free):
            n = g.n + 1
            a = np.zeros((n, n), dtype=bool)
            a[: g.n, : g.n] = g.adj
            cert = bounds.isolated_vertex_bound_check(2, Graph(a))
            assert cert.verified, cert.to_json_obj()
