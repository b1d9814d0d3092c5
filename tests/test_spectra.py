"""Spectra, quotient matrices, interlacing, coclique-extension formula."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from regspectra import bounds, exactpoly, kernel, spectra
from regspectra.construct import (
    complement,
    complete,
    complete_bipartite,
    coclique_extension,
    cycle,
    k_tilde,
    line_graph,
    petersen,
    random_graph,
)
from regspectra.spectra import (
    coclique_extension_spectrum,
    eig_symmetric,
    eigenvalue_at_most,
    eigenvalue_at_most_exact,
    lambda_min_at_least,
    quotient_matrix,
    spectrum,
    spectrum_is,
)
from regspectra.errors import UnsupportedSizeError
from oracles import (
    count_roots_in,
    integer_spectrum,
    interlacing_check,
    squarefree_decomposition,
)


def test_eig_symmetric_validation():
    with pytest.raises(ValueError):
        eig_symmetric([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        eig_symmetric([[0.0, 1.0]])
    with pytest.raises(ValueError):
        eig_symmetric([[0.0, math.inf], [math.inf, 0.0]])
    assert eig_symmetric([[0.0] * 4 for _ in range(4)]) == [0.0] * 4


def test_eig_symmetric_stack(monkeypatch):
    # a (b, m, m) stack gives one descending list per matrix, each equal to
    # the matrix's own call, from one kernel call; the checks cover the
    # whole stack
    rng = np.random.default_rng(36)
    m = rng.normal(size=(6, 5, 5))
    stack = m + np.swapaxes(m, 1, 2)
    alone = [eig_symmetric(a) for a in stack]
    shapes = []
    solve = kernel.sym_eigenvalues

    def recording_solve(matrix):
        shapes.append(np.shape(matrix))
        return solve(matrix)

    monkeypatch.setattr(kernel, "sym_eigenvalues", recording_solve)
    assert eig_symmetric(stack) == alone
    assert shapes == [(6, 5, 5)]
    bad = stack.copy()
    bad[3, 0, 1] += 1e-9
    with pytest.raises(ValueError, match="not symmetric"):
        eig_symmetric(bad)
    with pytest.raises(ValueError, match="square"):
        eig_symmetric(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="square"):
        eig_symmetric(np.zeros((2, 2, 3, 3)))


@pytest.mark.parametrize(
    "form",
    [lambda g: g, lambda g: g.adj, lambda g: g.adj.astype(np.int64)],
    ids=["graph", "bool-adj", "int-matrix"],
)
def test_front_door_takes_a_graph_or_its_matrix(form):
    # every entry point reads a Graph, its bool adjacency matrix and its
    # integer matrix alike; the spectra are integral, so the oracle decides
    for g in (petersen(), line_graph(petersen()), cycle(6), complete_bipartite(3, 3)):
        exact = integer_spectrum(g)
        x = form(g)
        assert eig_symmetric(x) == pytest.approx(exact, abs=1e-9)
        for i in (1, 2, g.n):
            for t in (Fraction(exact[i - 1]), exact[i - 1] - Fraction(1, 2)):
                want = exact[i - 1] <= t
                assert eigenvalue_at_most_exact(x, i, t) == want
                assert eigenvalue_at_most(x, i, t) == (want, t == exact[i - 1])
        lam = -exact[-1]
        assert lambda_min_at_least(x, lam) == (True, pytest.approx(exact[-1], abs=1e-9))
        assert not lambda_min_at_least(x, lam - Fraction(1, 3))[0]


def test_star_and_biclique_extremes():
    # lambda_max(K_{1,n-1}) = sqrt(n-1); lambda_min(K_{2,t}) = -sqrt(2t)
    for n in (2, 5, 10):
        vals = eig_symmetric(complete_bipartite(1, n - 1))
        assert abs(vals[0] - math.sqrt(n - 1)) < 1e-12
    for t in (1, 4, 7):
        vals = eig_symmetric(complete_bipartite(2, t))
        assert abs(vals[-1] + math.sqrt(2 * t)) < 1e-12


def test_spectrum_grouping():
    s = spectrum(complete(6))
    assert [m for _, m in s.pairs] == [1, 5]
    assert s.values()[0] == pytest.approx(5, abs=1e-10)
    assert s.lambda_min() == pytest.approx(-1, abs=1e-10)
    assert s.second_largest() == pytest.approx(-1, abs=1e-10)
    c6 = spectrum(cycle(6))
    assert [m for _, m in c6.pairs] == [1, 2, 2, 1]
    assert abs(c6.value(2) - 1.0) < 1e-9


def test_spectrum_takes_a_graph_or_its_matrix():
    # a graph, its bool adjacency and its integer matrix give one grouped
    # spectrum, whose tolerance is scaled by the largest degree
    from regspectra.search import enum_connected_regular

    for g in enum_connected_regular(3, 8) + enum_connected_regular(4, 7):
        s = spectrum(g)
        assert s.tolerance == spectra.GROUP_TOL * max(g.degrees())
        for x in (g.adj, g.adj.astype(np.int64)):
            other = spectrum(x)
            assert (other.pairs, other.tolerance) == (s.pairs, s.tolerance)


def test_spectrum_checks_its_matrix():
    # the input is checked by eig_symmetric before any norm is taken
    with pytest.raises(ValueError, match="not symmetric"):
        spectrum([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        spectrum([[0.0, math.inf], [math.inf, 0.0]])
    with pytest.raises(ValueError):
        spectrum([["a", "b"], ["b", "a"]])
    # a real symmetric matrix: tolerance scaled by its largest absolute row sum
    s = spectrum([[0.0, -2.5], [-2.5, 0.0]])
    assert s.values() == pytest.approx([2.5, -2.5]) and s.tolerance == spectra.GROUP_TOL * 2.5
    assert spectrum([[0.25]]).tolerance == spectra.GROUP_TOL


def test_spectrum_json():
    s = spectrum(complete(3))
    obj = s.to_json_obj()
    assert obj["eigenvalues"][0]["multiplicity"] == 1
    assert "tolerance" in obj


def test_trace_invariants():
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        vals = eig_symmetric(g)
        assert abs(sum(vals)) <= 1e-8
        m = g.num_edges()
        if m:
            assert abs(sum(v * v for v in vals) - 2 * m) <= 1e-6 * 2 * m
        else:
            assert abs(sum(v * v for v in vals)) <= 1e-8


def test_line_graph_complement_family():
    for a in (2, 3, 5):
        g = complement(line_graph(complete_bipartite(2, a + 1)))
        assert spectrum_is(g, {a: 1, 1: a, -1: a, -a: 1})


def _integral_spectrum_graphs():
    # A1's family, K_{s,t} with st square, Petersen, two A3 witnesses
    graphs = [complement(line_graph(complete_bipartite(2, a + 1))) for a in (2, 3, 5)]
    graphs += [complete_bipartite(s, t) for s, t in ((1, 4), (3, 3), (2, 8))]
    graphs.append(petersen())
    graphs += [bounds.lower_bound_graph(lam, a)[0] for lam, a in ((2, 2), (3, 2))]
    return graphs


def test_spectrum_is_agrees_with_the_rank_oracle():
    for g in _integral_spectrum_graphs():
        claimed = dict(Counter(integer_spectrum(g)))
        assert spectrum_is(g, claimed)
        assert spectrum_is(g.adj.astype(np.int64), claimed)
        wrong = []
        for theta in claimed:
            # one multiplicity moved by one to another value: the sum holds
            for other in claimed:
                if other != theta and claimed[theta] > 1:
                    wrong.append({**claimed, theta: claimed[theta] - 1, other: claimed[other] + 1})
            # one eigenvalue moved by 1 or by 1/1000
            for step in (1, -1, Fraction(1, 1000)):
                if theta + step not in claimed:
                    moved = {t: m for t, m in claimed.items() if t != theta}
                    wrong.append({**moved, theta + step: claimed[theta]})
            wrong.append({**claimed, theta: claimed[theta] + 1})  # wrong sum
        wrong.append({**claimed, max(claimed) + 1: 0})  # a zero multiplicity
        wrong.append({})
        # one value: the sum holds and no trace is checked, so only the
        # annihilator A - 0 I = 0 rejects it
        wrong.append({0: g.n})
        for w in wrong:
            assert not spectrum_is(g, w), w


def test_spectrum_is_refuses_what_int64_cannot_hold():
    with pytest.raises(UnsupportedSizeError):
        spectrum_is([[0, 2**40], [2**40, 0]], {2**40: 1, -(2**40): 1})
    assert spectrum_is([[0, 2**20], [2**20, 0]], {2**20: 1, -(2**20): 1})
    with pytest.raises(ValueError):
        spectrum_is([[0.0, 1.0], [1.0, 0.0]], {1: 1, -1: 1})


def test_complement_spectrum_relation_for_regular():
    # k-regular g on v vertices: co-spectrum = {v-1-k} + {-1-x : x in rest}
    from regspectra.search import enum_connected_regular

    gs = enum_connected_regular(3, 8) + enum_connected_regular(4, 7)
    for g in gs:
        k = g.degree(0)
        vals = eig_symmetric(g)
        co_vals = eig_symmetric(complement(g))
        expected = sorted([g.n - 1 - k] + [-1 - x for x in vals[1:]], reverse=True)
        assert max(abs(x - y) for x, y in zip(co_vals, expected)) < 1e-8


def test_coclique_extension_spectrum_formula():
    rng = random.Random(12)
    for _ in range(20):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        s = spectrum(g)
        for q in (1, 2, 3):
            formula = coclique_extension_spectrum(s, q)
            direct = eig_symmetric(coclique_extension(g, q))
            assert formula.n == len(direct)
            assert max(
                abs(x - y) for x, y in zip(formula.values(), direct)
            ) < 1e-8


def test_coclique_extension_spectrum_validation():
    s = spectrum(complete(3))
    with pytest.raises(ValueError):
        coclique_extension_spectrum(s, 0)
    assert coclique_extension_spectrum(s, 1) is s


def test_quotient_trivial_partition():
    g = petersen()
    q = quotient_matrix(g, [list(range(10))])
    assert q.equitable and q.matrix == ((Fraction(3),),)
    assert q.spectrum().values() == [3.0]


def test_quotient_biclique():
    g = complete_bipartite(3, 5)
    q = quotient_matrix(g, [list(range(3)), list(range(3, 8))])
    assert q.equitable
    assert q.matrix == ((Fraction(0), Fraction(5)), (Fraction(3), Fraction(0)))
    vals = q.spectrum().values()
    assert abs(vals[0] - math.sqrt(15)) < 1e-9 and abs(vals[-1] + math.sqrt(15)) < 1e-9
    full = eig_symmetric(g)
    assert abs(vals[0] - full[0]) < 1e-9
    # grouped as `spectrum` groups the symmetrized [[0, sqrt 15], [sqrt 15, 0]]
    assert q.spectrum().tolerance == pytest.approx(spectra.GROUP_TOL * math.sqrt(15))


def test_quotient_tilde_matrix_matches_display():
    # partition (non-adjacent half, adjacent half, apex)
    for m in (1, 2, 4):
        g = k_tilde(m)
        q = quotient_matrix(g, [list(range(m, 2 * m)), list(range(m)), [2 * m]])
        assert q.equitable
        assert [[int(x) for x in row] for row in q.matrix] == [
            [m - 1, m, 0],
            [m, m - 1, 1],
            [0, m, 0],
        ]


def test_quotient_non_equitable():
    g = cycle(5)
    q = quotient_matrix(g, [[0, 1], [2, 3, 4]])
    assert not q.equitable


def test_quotient_partition_validation():
    g = complete(4)
    with pytest.raises(ValueError):
        quotient_matrix(g, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        quotient_matrix(g, [[0, 1], [2]])


def test_equitable_quotient_eigs_inside_spectrum():
    # distance partitions of vertex-transitive graphs are equitable
    from regspectra.graphs import distance_layers

    for g in (petersen(), cycle(6), complete_bipartite(4, 4)):
        layers = distance_layers(g, 0).layers
        q = quotient_matrix(g, [list(l) for l in layers])
        assert q.equitable
        full = eig_symmetric(g)
        for val in q.spectrum().values():
            assert min(abs(val - x) for x in full) < 1e-7


def test_quotient_eigenvalues_against_exact_roots():
    # Each value cluster of a non-equitable quotient, widened by 1e-9, must
    # hold exactly one distinct root of the exact characteristic polynomial,
    # with multiplicity equal to the cluster size.
    rng = random.Random(44)
    tol = Fraction(1, 10**9)
    checked = 0
    while checked < 30:
        g = random_graph(rng.randint(4, 9), 0.5, rng)
        t = rng.randint(2, 4)
        order = rng.sample(range(g.n), g.n)
        cuts = sorted(rng.sample(range(1, g.n), t - 1))
        parts = [order[a:b] for a, b in zip([0] + cuts, cuts + [g.n])]
        q = quotient_matrix(g, parts)
        if q.equitable:
            continue
        checked += 1
        spec = q.spectrum()
        vals = spec.values()
        assert len(vals) == t and vals == sorted(vals, reverse=True)
        poly = exactpoly.charpoly(q.matrix)
        factors = squarefree_decomposition(poly)
        clusters = [[vals[0]]]
        for x in vals[1:]:
            if x == clusters[-1][-1]:
                clusters[-1].append(x)
            else:
                clusters.append([x])
        assert spec.pairs == tuple((c[0], len(c)) for c in clusters)
        for cluster in clusters:
            lo, hi = Fraction(cluster[0]) - tol, Fraction(cluster[0]) + tol
            assert count_roots_in(poly, lo, hi) == 1, (q.matrix, cluster)
            total = sum(i * count_roots_in(f, lo, hi) for f, i in factors)
            assert total == len(cluster), (q.matrix, cluster)


def test_quotient_not_symmetrizable_rejected():
    # parts of sizes 1 and 2: |P_0| m_01 = 2 = |P_1| m_10 passes, 1 != 2 fails;
    # an empty part has no size to scale by
    star = spectra.QuotientResult(
        matrix=((Fraction(0), Fraction(2)), (Fraction(1), Fraction(0))),
        parts=((0,), (1, 2)),
        equitable=True,
    )
    assert star.spectrum().values() == pytest.approx([math.sqrt(2), -math.sqrt(2)])
    bad = spectra.QuotientResult(
        matrix=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        parts=((0,), (1, 2)),
        equitable=True,
    )
    with pytest.raises(ValueError):
        bad.spectrum()
    empty_part = spectra.QuotientResult(
        matrix=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        parts=((0,), ()),
        equitable=True,
    )
    with pytest.raises(ValueError):
        empty_part.spectrum()


def test_interlacing():
    g = petersen()
    assert interlacing_check(g, list(range(10)))
    assert interlacing_check(g, [0, 1, 2, 5])
    with pytest.raises(ValueError):
        interlacing_check(g, [])
    rng = random.Random(202)
    for _ in range(50):
        g = random_graph(rng.randint(2, 10), rng.random(), rng)
        size = rng.randint(1, g.n)
        subset = rng.sample(range(g.n), size)
        assert interlacing_check(g, subset)


def test_second_largest_of_noncomplete_connected():
    # a connected non-complete graph contains an induced 2-path: lambda_2 >= 0
    for g in (cycle(5), petersen(), complete_bipartite(2, 3)):
        assert eig_symmetric(g)[1] >= -1e-9


def test_quotient_singleton_partition_is_adjacency():
    g = cycle(6)
    q = quotient_matrix(g, [[v] for v in range(6)])
    assert q.equitable
    got = sorted(q.spectrum().values())
    want = sorted(eig_symmetric(g))
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-8


def test_eigenvalue_at_most_counts_multiplicity(monkeypatch):
    # L(Petersen): spectrum 4, 2^5, -1^4, -2^5.  Just below 2 six eigenvalues
    # exceed x but only two distinct roots do (the Sturm oracle's count), so
    # for i = 3..6 a distinct count would wrongly say lambda_i <= x; the
    # floats (2.0 up to rounding) lie inside the window, so the exact leg
    # decides
    g = line_graph(petersen())
    exact = integer_spectrum(g)
    assert exact == [4] + [2] * 5 + [-1] * 4 + [-2] * 5
    vals = eig_symmetric(g.adj)
    x = Fraction(2) - Fraction(1, 10**10)
    poly = exactpoly.charpoly(g.adj.astype(int).tolist())
    assert count_roots_in(poly, x, None) == 2
    assert exactpoly.count_roots_greater(poly, x) == 6
    for i in range(3, 7):
        assert eigenvalue_at_most(g.adj, i, x, vals) == (False, True)
    # every index against the oracle, at and around each eigenvalue, with the
    # caller's floats (no eigensolve) and without them
    eps = Fraction(1, 10**10)
    points = [t + d for t in (4, 2, -1, -2) for d in (-eps, 0, eps)] + [Fraction(1, 2), 3]
    expected = {(i, p): exact[i - 1] <= p for i in range(1, 16) for p in points}
    unsolved = {}
    for (i, p), want in expected.items():
        unsolved[i, p] = eigenvalue_at_most(g.adj, i, p)
        assert unsolved[i, p][0] == want, (i, p)
        assert unsolved[i, p][1] == (abs(exact[i - 1] - p) <= eps), (i, p)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve despite the caller's floats")

    monkeypatch.setattr(spectra, "eig_symmetric", no_eigensolve)
    for (i, p), got in unsolved.items():
        assert eigenvalue_at_most(g.adj, i, p, vals) == got


def test_eigenvalue_at_most_exact_leg_on_a_non_symmetric_matrix():
    # the tilde-graph quotient ((m-1, m, 0), (m, m-1, 1), (0, m, 0)) at m = 2
    # has characteristic polynomial x^3 - 2x^2 - 5x + 2, with roots 3.323...,
    # 0.357... and -1.681...; so its negation has 1.681..., -0.357..., -3.323...
    neg = [[-1, -2, 0], [-2, -1, -1], [0, -2, 0]]
    assert spectra.eigenvalue_at_most_exact(neg, 1, Fraction(27, 16))
    assert not spectra.eigenvalue_at_most_exact(neg, 1, Fraction(5, 3))
    assert spectra.eigenvalue_at_most_exact(neg, 2, Fraction(0))
    assert not spectra.eigenvalue_at_most_exact(neg, 2, Fraction(-2, 5))
    assert spectra.eigenvalue_at_most_exact(neg, 3, Fraction(-3))
