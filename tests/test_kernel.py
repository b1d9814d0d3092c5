"""Eigensolver kernel: accuracy contract against exact root counts."""

import math
from fractions import Fraction

import numpy as np
import pytest

from regspectra import exactpoly, kernel
from oracles import count_roots_in, squarefree_decomposition


def _max_norm(m):
    return float(np.max(np.abs(m).sum(axis=1)))


def _exact_roots_in(poly, factors, lo, hi):
    """(distinct roots, roots with multiplicity) of poly in (lo, hi]."""
    distinct = count_roots_in(poly, lo, hi)
    total = sum(i * count_roots_in(q, lo, hi) for q, i in factors)
    return distinct, total


def test_random_integer_symmetric_against_exact_roots():
    # Every cluster of computed eigenvalues, widened by the accuracy contract,
    # must hold exactly one distinct root of the exact characteristic
    # polynomial, with multiplicity equal to the cluster size; no root may
    # lie outside the clusters.
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(1, 10))
        if trial % 2:  # adjacency matrices: repeated eigenvalues are common
            m = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        else:
            m = np.triu(rng.integers(-3, 4, size=(n, n)))
        m = m + np.triu(m, 1).T
        vals = kernel.sym_eigenvalues(m.astype(float))
        assert vals.dtype == np.float64 and list(vals) == sorted(vals)
        tol = 1e-10 * (1 + _max_norm(m))
        clusters = [[vals[0]]]
        for x in vals[1:]:
            if x - clusters[-1][-1] <= 2 * tol:
                clusters[-1].append(x)
            else:
                clusters.append([x])
        poly = exactpoly.charpoly(m.tolist())
        factors = squarefree_decomposition(poly)
        tol_fr = Fraction(tol)
        for cluster in clusters:
            lo, hi = Fraction(cluster[0]) - tol_fr, Fraction(cluster[-1]) + tol_fr
            assert _exact_roots_in(poly, factors, lo, hi) == (1, len(cluster)), (m, cluster)
        outside = Fraction(vals[-1]) + tol_fr
        assert exactpoly.count_roots_greater(poly, outside) == 0
        below = Fraction(vals[0]) - tol_fr
        assert count_roots_in(poly, below, None) == len(clusters)
        assert exactpoly.count_roots_greater(poly, below) == n


def test_validation():
    with pytest.raises(ValueError):
        kernel.sym_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        kernel.sym_eigenvalues(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        kernel.sym_eigenvalues(np.zeros(3))


def test_stack_equals_each_matrix():
    # a (b, m, m) stack gives a (b, m) array whose rows are, bit for bit,
    # the matrices' own solves
    rng = np.random.default_rng(36)
    for b, m in ((1, 1), (3, 4), (30, 7)):
        a = rng.integers(-3, 4, size=(b, m, m)).astype(float)
        a = a + np.swapaxes(a, 1, 2)
        vals = kernel.sym_eigenvalues(a)
        assert vals.shape == (b, m)
        for i in range(b):
            assert np.array_equal(vals[i], kernel.sym_eigenvalues(a[i]))
    for shape in ((2, 3, 4), (2, 2, 3, 3), (2, 0, 0)):
        with pytest.raises(ValueError):
            kernel.sym_eigenvalues(np.zeros(shape))


def test_reads_lower_triangle_only():
    a = np.array([[2.0, 99.0], [1.0, 2.0]])  # the upper entry is ignored
    assert np.allclose(kernel.sym_eigenvalues(a), [1.0, 3.0])


def test_star_closed_form():
    # K_{1,t}: extremes +-sqrt(t), the rest zero
    for t in (1, 3, 8, 24):
        a = np.zeros((t + 1, t + 1))
        a[0, 1:] = a[1:, 0] = 1
        vals = kernel.sym_eigenvalues(a)
        assert abs(vals[-1] - math.sqrt(t)) < 1e-12
        assert abs(vals[0] + math.sqrt(t)) < 1e-12
        if t > 1:
            assert np.max(np.abs(vals[1:-1])) < 1e-12


def test_cycle_closed_form():
    for n in (3, 4, 7, 12):
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
        vals = sorted(kernel.sym_eigenvalues(a))
        ref = sorted(2 * math.cos(2 * math.pi * j / n) for j in range(n))
        assert max(abs(x - y) for x, y in zip(vals, ref)) < 1e-12


def test_biclique_closed_form():
    # K_{2,t}: lambda_min = -sqrt(2t)
    for t in (1, 2, 5, 9):
        n = 2 + t
        a = np.zeros((n, n))
        a[:2, 2:] = 1
        a[2:, :2] = 1
        vals = kernel.sym_eigenvalues(a)
        assert abs(vals[0] + math.sqrt(2 * t)) < 1e-12


def test_zero_and_diagonal():
    assert np.allclose(kernel.sym_eigenvalues(np.zeros((4, 4))), 0)
    d = np.diag([3.0, -1.0, 2.0])
    assert np.allclose(kernel.sym_eigenvalues(d), [-1.0, 2.0, 3.0])


def test_reentrant_no_state():
    # interleaved solves on different matrices must not disturb each other
    a = np.diag([1.0, 2.0, 3.0])
    b = np.ones((5, 5)) - np.eye(5)
    first = kernel.sym_eigenvalues(a).copy()
    kernel.sym_eigenvalues(b)
    assert np.array_equal(first, kernel.sym_eigenvalues(a))
