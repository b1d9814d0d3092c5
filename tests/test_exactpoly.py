"""Exact characteristic polynomials, Sturm counting, square-free factors."""

from fractions import Fraction as F

import numpy as np
import pytest

from regspectra import exactpoly as ep


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
    k4 = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    p = ep.charpoly(k4)
    assert ep.count_roots_greater(p, F(3)) == 0
    assert ep.count_roots_greater(p, F(-1)) == 1  # endpoint is a triple root
    assert ep.count_roots_greater(p, F(-2)) == 2
    assert ep.count_roots_greater(p, F(0)) == 1


def test_squarefree_decomposition():
    # (x-1)^2 (x+2): Yun must split multiplicities 1 and 2
    poly = [F(2), F(-3), F(0), F(1)]
    factors = ep.squarefree_decomposition(poly)
    mults = sorted(m for _, m in factors)
    assert mults == [1, 2]


def test_degenerate_polynomials():
    # constants and the zero polynomial have no roots to count or factor
    for p in ([F(3)], []):
        assert ep.squarefree_decomposition(p) == []
        assert ep.count_roots_greater(p, F(0)) == 0
    assert ep.charpoly([[0]]) == [F(0), F(1)]
    assert ep.count_roots_greater(ep.charpoly([[0]]), F(-1)) == 1


def test_poly_division_and_gcd():
    # (x^2 - 1) = (x - 1)(x + 1)
    q, r = ep.poly_divmod([F(-1), F(0), F(1)], [F(1), F(1)])
    assert r == [] and q == [F(-1), F(1)]
    g = ep.poly_gcd([F(-1), F(0), F(1)], [F(-1), F(1)])
    assert g == [F(-1), F(1)]
    with pytest.raises(ZeroDivisionError):
        ep.poly_divmod([F(1)], [])
