"""Exact characteristic polynomials and the Descartes root count, against the
Sturm and Yun oracle."""

import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from regspectra import exactpoly as ep
from regspectra.construct import petersen, random_graph
from regspectra.spectra import eig_symmetric

import oracles


def test_charpoly_small():
    assert ep.charpoly([[2]]) == [F(-2), F(1)]
    assert ep.charpoly([[0, 1], [1, 0]]) == [F(-1), F(0), F(1)]
    # companion-style check: trace and determinant appear with the right signs
    m = [[1, 2], [3, 4]]
    assert ep.charpoly(m) == [F(4 * 1 - 2 * 3), F(-5), F(1)]


def test_charpoly_fraction_and_float_entries():
    # against the explicit coefficients: x^2 - tr x + det, and
    # x^3 - tr x^2 + (sum of principal 2x2 minors) x - det; floats count at
    # their exact binary value
    def minor(m, i, j):
        return m[i][i] * m[j][j] - m[i][j] * m[j][i]

    def det3(m):
        return (m[0][0] * minor([row[1:] for row in m[1:]], 0, 1)
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    twos = ([[F(1, 3), F(-2, 5)], [F(7, 2), F(5, 6)]],
            [[0.1, -2.75], [1e-3, 3.0]],
            [[F(2, 7), 0.5], [-1, 0.3]])
    for m in twos:
        e = [[F(x) for x in row] for row in m]
        assert ep.charpoly(m) == [minor(e, 0, 1), -(e[0][0] + e[1][1]), F(1)]
    threes = ([[F(1, 2), F(-1, 3), F(2, 9)], [F(4, 5), F(0), F(-7, 4)], [F(1, 6), F(3, 8), F(5, 3)]],
              [[0.25, -1.1, 2.0], [0.7, 1e-4, -3.5], [1.0 / 3, 0.0, 9.75]],
              [[F(3, 4), 0.2, -2], [1, F(-5, 12), 0.125], [0.6, 7, F(1, 11)]])
    for m in threes:
        e = [[F(x) for x in row] for row in m]
        trace = e[0][0] + e[1][1] + e[2][2]
        minors = minor(e, 0, 1) + minor(e, 0, 2) + minor(e, 1, 2)
        assert ep.charpoly(m) == [-det3(e), minors, -trace, F(1)]


def test_charpoly_vs_numpy_roots():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = rng.integers(-3, 4, size=(n, n))
        coeffs = ep.charpoly(m.tolist())
        ref = np.sort_complex(np.linalg.eigvals(m.astype(float)))
        # evaluate the polynomial at the numpy eigenvalues: should be ~0
        for z in ref:
            val = sum(complex(c) * z**i for i, c in enumerate(coeffs))
            assert abs(val) < 1e-6 * (1 + abs(z)) ** n


def test_count_roots_greater():
    # K_4: spectrum 3, -1^3; roots are counted with multiplicity, and a root
    # at the bound is not above it
    k4 = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    p = ep.charpoly(k4)
    assert ep.count_roots_greater(p, F(3)) == 0
    assert ep.count_roots_greater(p, F(-1)) == 1  # endpoint is a triple root
    assert ep.count_roots_greater(p, F(-2)) == 4
    assert ep.count_roots_greater(p, F(0)) == 1
    # the Sturm oracle counts distinct roots: the triple root once
    assert oracles.count_roots_in(p, F(-2), None) == 2


def test_squarefree_decomposition():
    # (x-1)^2 (x+2): Yun must split multiplicities 1 and 2; the Descartes
    # count sees the double root twice
    poly = [F(2), F(-3), F(0), F(1)]
    factors = oracles.squarefree_decomposition(poly)
    mults = sorted(m for _, m in factors)
    assert mults == [1, 2]
    assert ep.count_roots_greater(poly, F(0)) == 2
    assert ep.count_roots_greater(poly, F(1)) == 0


def test_degenerate_polynomials():
    # constants and the zero polynomial have no roots to count or factor
    for p in ([F(3)], []):
        assert oracles.squarefree_decomposition(p) == []
        assert ep.count_roots_greater(p, F(0)) == 0
    assert ep.charpoly([[0]]) == [F(0), F(1)]
    assert ep.count_roots_greater(ep.charpoly([[0]]), F(-1)) == 1
    assert ep.count_roots_greater(ep.charpoly([[0]]), F(0)) == 0


def test_poly_division_and_gcd():
    # the oracle's arithmetic: (x^2 - 1) = (x - 1)(x + 1)
    q, r = oracles.poly_divmod([F(-1), F(0), F(1)], [F(1), F(1)])
    assert r == [] and q == [F(-1), F(1)]
    g = oracles.poly_gcd([F(-1), F(0), F(1)], [F(-1), F(1)])
    assert g == [F(-1), F(1)]
    with pytest.raises(ZeroDivisionError):
        oracles.poly_divmod([F(1)], [])


def _tilde_quotient(m):
    return [[m - 1, m, 0], [m, m - 1, 1], [0, m, 0]]


def test_count_roots_greater_matches_sturm_oracle():
    # random graphs of order <= 12, Petersen and the tilde-graph quotients
    # (and their negations), at each eigenvalue and 1e-10 either side: the
    # Descartes count equals the oracle's Sturm counts summed over Yun factors
    rng = random.Random(23)
    matrices = [random_graph(rng.randint(1, 12), rng.random(), rng).adj.astype(int).tolist()
                for _ in range(60)]
    matrices.append(petersen().adj.astype(int).tolist())
    for m in range(1, 8):
        matrices += [_tilde_quotient(m), [[-x for x in row] for row in _tilde_quotient(m)]]
    eps = F(1, 10**10)
    checked = 0
    for matrix in matrices:
        p = ep.charpoly(matrix)
        vals = np.linalg.eigvals(np.array(matrix, float)).real
        # each eigenvalue: exactly when it is an integer, else the nearest
        # fraction with denominator at most 10^7
        points = {F(round(x)) if abs(x - round(x)) < 1e-8 else F(x).limit_denominator(10**7)
                  for x in vals}
        points = sorted(x + d for x in points for d in (-eps, 0, eps))
        want = oracles.roots_greater_reference(p, points)
        assert [ep.count_roots_greater(p, a) for a in points] == want, matrix
        checked += len(points)
    assert checked > 1000


def test_count_roots_greater_order_64():
    # order 64 against float counts, at the midpoints of eigenvalue gaps: the
    # Taylor shift costs O(n^2) rational operations, so this is fast (the
    # Sturm count took minutes at this order)
    rng = random.Random(64)
    g = random_graph(64, 0.3, rng)
    vals = sorted(eig_symmetric(g))
    p = ep.charpoly(g.adj.astype(int).tolist())
    start = time.perf_counter()
    for j in range(0, 63, 9):
        if vals[j + 1] - vals[j] < 1e-6:
            continue
        mid = F((vals[j] + vals[j + 1]) / 2)
        assert ep.count_roots_greater(p, mid) == 63 - j
    assert ep.count_roots_greater(p, F(vals[0]) - 1) == 64
    assert ep.count_roots_greater(p, F(vals[-1]) + 1) == 0
    assert time.perf_counter() - start < 2
