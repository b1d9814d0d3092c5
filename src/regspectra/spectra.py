"""Spectra of graphs and small matrices.

All eigenvalue work funnels through `eig_symmetric`, the one caller of
`kernel.sym_eigenvalues` (LAPACK through numpy) here.  Partition quotients
are not symmetric in general, but they are diagonally similar to a symmetric
matrix, whose grouped spectrum `spectrum` returns.

`eig_symmetric`, `spectrum`, `spectrum_is`, `eigenvalue_at_most`,
`eigenvalue_at_most_exact` and `lambda_min_at_least` take a `Graph` (its
adjacency matrix) or a matrix; `_matrix` is the one place a graph becomes an
eigensolver input.  A claimed spectrum is checked exactly by `spectrum_is`.

Every verdict of an eigenvalue against a rational bound lambda goes through
`eigenvalue_at_most`: floats decide away from the bound, and within
BOUNDARY_WINDOW of it the characteristic polynomial does, exactly (its roots
above the bound, counted by Descartes' rule of signs).  A least eigenvalue
against -lambda goes through `lambda_min_at_least`, which asks it of the
negated matrix.  The package's float tolerances are the four constants below
and are set nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from . import exactpoly, kernel
from .errors import UnsupportedSizeError
from .graphs import Graph

SYMMETRY_TOL = 1e-12  # largest |a_ij - a_ji| an eigensolve input may have
GROUP_TOL = 1e-8  # floats this close are one eigenvalue (scaled by the norm)
INTERLACING_TOL = 1e-9  # slack on a float eigenvalue inequality that holds exactly
BOUNDARY_WINDOW = 1e-6  # nearer than this to lambda, the exact leg decides

# a real parameter: anything `Fraction` takes ('p/q' and decimal strings, and
# a float at its exact binary value)
Real = Union[int, float, str, Fraction]


def _matrix(x) -> np.ndarray:
    """x as a numpy matrix: a `Graph` by its adjacency matrix, and a 0/1
    matrix (a graph's `adj`) as integers, so it can be negated; any other
    input as numpy reads it."""
    a = np.asarray(x.adj if isinstance(x, Graph) else x)
    return a.astype(np.int64) if a.dtype == bool else a


def eig_symmetric(matrix) -> list:
    """All eigenvalues of a real symmetric matrix or of a graph's adjacency
    matrix, sorted descending; of a (b, m, m) stack of matrices, one such
    list per matrix, from one kernel call.

    Input asymmetry beyond SYMMETRY_TOL (absolute) in any matrix is rejected.
    """
    a = np.asarray(_matrix(matrix), dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square, or a stack of square matrices")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if np.any(np.abs(a - np.swapaxes(a, -1, -2)) > SYMMETRY_TOL):
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_TOL}")
    return kernel.sym_eigenvalues(a)[..., ::-1].tolist()


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, sorted descending.

    Consecutive grouped values differ by more than the recorded tolerance;
    multiplicities sum to the matrix dimension.
    """

    pairs: tuple[tuple[float, int], ...]
    tolerance: float

    @property
    def n(self) -> int:
        return sum(m for _, m in self.pairs)

    def values(self) -> list[float]:
        """Eigenvalues expanded with multiplicity, descending."""
        out: list[float] = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return out

    def value(self, i: int) -> float:
        """i-th largest eigenvalue counting multiplicity (1-indexed)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return self.values()[i - 1]

    def second_largest(self) -> float:
        return self.value(2)

    def lambda_min(self) -> float:
        return self.pairs[-1][0]

    def to_json_obj(self) -> dict:
        return {
            "eigenvalues": [{"value": v, "multiplicity": m} for v, m in self.pairs],
            "tolerance": self.tolerance,
        }

    def __str__(self) -> str:
        inner = ", ".join(f"[{v:.10g}]^{m}" for v, m in self.pairs)
        return "{" + inner + "}"


def group_eigenvalues(values: Sequence[float], tol: float) -> Spectrum:
    """Group a descending-or-any-order eigenvalue list into (value, mult) pairs.

    Grouped value is the mean of its members; consecutive groups are required
    to be separated by more than `tol` after grouping.
    """
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("cannot group an empty eigenvalue list")
    groups: list[list[float]] = [[vals[0]]]
    for v in vals[1:]:
        if v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    pairs = tuple(
        (sum(grp) / len(grp), len(grp)) for grp in reversed(groups)
    )
    return Spectrum(pairs=pairs, tolerance=tol)


def spectrum(matrix) -> Spectrum:
    """Spectrum of a graph or of one real symmetric matrix, grouped with GROUP_TOL
    times max(1, r), r the largest absolute row sum (a graph's largest degree)."""
    a = _matrix(matrix)
    vals = eig_symmetric(a)  # checks the input before any norm is taken
    return group_eigenvalues(vals, GROUP_TOL * max(1.0, float(np.abs(a).sum(-1).max(initial=0))))


# -- claimed spectra (exact) ------------------------------------------------------


def spectrum_is(matrix, claimed: Mapping) -> bool:
    """Whether a graph or an integer square matrix A has exactly the spectrum
    `claimed` (eigenvalue -> multiplicity), in int64 arithmetic: the
    multiplicities are >= 1 and sum to n, every value is an integer (as a
    rational eigenvalue of an integer matrix is), prod (A - theta I) = 0, so
    A is diagonalizable with every eigenvalue among the theta, and
    tr(A^j) = sum m_theta theta^j for 0 < j < t, a Vandermonde system whose
    one solution then is the claimed multiplicities.  No entry or sum exceeds
    n * prod (r + |theta|), r the largest absolute row sum;
    UnsupportedSizeError when that reaches 2^63."""
    a = _matrix(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype.kind not in "iu":
        raise ValueError("need a square integer matrix")
    n, mults = a.shape[0], list(claimed.values())
    if min(mults, default=0) < 1 or sum(mults) != n:
        return False
    if any(Fraction(t).denominator != 1 for t in claimed):
        return False
    thetas = [int(t) for t in claimed]
    r = max(sum(abs(x) for x in row) for row in a.tolist())
    if n * math.prod(r + abs(t) for t in thetas) >= 2**63:
        raise UnsupportedSizeError("spectrum check would overflow int64")
    a, eye = a.astype(np.int64), np.eye(n, dtype=np.int64)
    product = power = eye
    for t in thetas:
        product = product @ (a - t * eye)
    if product.any():
        return False
    for j in range(1, len(thetas)):
        power = power @ a
        if int(power.trace()) != sum(m * t**j for t, m in zip(thetas, mults)):
            return False
    return True


# -- the boundary rule -------------------------------------------------------------


def eigenvalue_at_most_exact(matrix, i: int, x: Fraction) -> bool:
    """Whether the i-th largest eigenvalue of a graph, or of a rational square
    matrix with real spectrum, is at most x, exactly: at most i - 1
    characteristic roots, counted with multiplicity, exceed x.

    The real spectrum is `exactpoly.count_roots_greater`'s precondition.  The
    callers meet it: `eigenvalue_at_most` and the search's recheck pass a
    graph or an integer symmetric matrix, and `bounds` the negated tilde-graph
    quotient, which is diagonally similar to a symmetric matrix."""
    return exactpoly.count_roots_greater(exactpoly.charpoly(_matrix(matrix).tolist()), x) < i


def eigenvalue_at_most(matrix, i: int, x, vals=None) -> tuple[bool, bool]:
    """(verdict, exact): whether the i-th largest eigenvalue (1-indexed,
    counting multiplicity) of a graph or an integer symmetric matrix is at
    most the rational x, and whether the exact leg decided it.

    `vals` are the caller's floats for the matrix's eigenvalues, descending
    (only the first i are read); without them `eig_symmetric` computes them.
    Farther than BOUNDARY_WINDOW from x the floats decide; nearer,
    `eigenvalue_at_most_exact` does."""
    x = Fraction(x)
    if vals is None:
        vals = eig_symmetric(matrix)
    gap = vals[i - 1] - float(x)
    if abs(gap) >= BOUNDARY_WINDOW:
        return bool(gap < 0), False
    return eigenvalue_at_most_exact(matrix, i, x), True


def lambda_min_at_least(matrix, lam) -> tuple[bool, float]:
    """(verdict, lambda_min): whether the least eigenvalue of a graph or an
    integer symmetric matrix is at least -lam, asked of `eigenvalue_at_most`
    as "the largest eigenvalue of the negated matrix is at most lam", and the
    least eigenvalue's float."""
    m = _matrix(matrix)
    lmin = eig_symmetric(m)[-1]
    return eigenvalue_at_most(-m, 1, lam, [-lmin])[0], lmin


# -- coclique extension spectrum (closed form) ---------------------------------


def coclique_extension_spectrum(s: Spectrum, q: int) -> Spectrum:
    """Spectrum of the q-coclique extension from the base spectrum alone.

    Eigenvalues scale by q and a zero eigenvalue of multiplicity
    (q - 1) * s.n appears (merged into an existing zero group when one is
    present).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return s
    expanded: list[float] = []
    for v, m in s.pairs:
        expanded.extend([q * v] * m)
    expanded.extend([0.0] * ((q - 1) * s.n))
    return group_eigenvalues(expanded, s.tolerance * q)


# -- quotient matrices -----------------------------------------------------------


@dataclass(frozen=True)
class QuotientResult:
    """Partition quotient of an adjacency matrix.

    matrix[i][j] is the average number of neighbors in part j over vertices of
    part i (an exact Fraction); `equitable` is True when that count is
    constant on every part.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    parts: tuple[tuple[int, ...], ...]
    equitable: bool

    def spectrum(self) -> Spectrum:
        """`spectrum` of the symmetric matrix similar to M.

        With D = diag(part sizes), D M counts the edges between parts, so it
        is symmetric, and M is similar to the symmetric D^(1/2) M D^(-1/2),
        whose (i, j) entry is (D M)[i][j] / sqrt(|P_i| |P_j|); the grouping
        tolerance is scaled by that matrix's row sums.  The check of D M is
        exact; a hand-built result that fails it, or has an empty part,
        raises ValueError.
        """
        sizes = [len(p) for p in self.parts]
        edges = [[s * x for x in row] for s, row in zip(sizes, self.matrix)]
        t = len(sizes)
        if 0 in sizes or any(
            edges[i][j] != edges[j][i] for i in range(t) for j in range(i)
        ):
            raise ValueError("quotient matrix is not symmetrized by its part sizes")
        return spectrum(np.array(edges, dtype=np.float64) / np.sqrt(np.outer(sizes, sizes)))


def quotient_matrix(g: Graph, partition: Sequence[Sequence[int]]) -> QuotientResult:
    """Quotient of g's adjacency matrix over a partition of the vertex set.

    The partition must cover 0..n-1 disjointly with nonempty parts.  The
    eigenvalues of an equitable quotient are a sub(multi)set of the graph
    spectrum; that containment is a library invariant checked in the tests,
    not enforced here.
    """
    parts = [tuple(p) for p in partition]
    flat = [v for p in parts for v in p]
    if sorted(flat) != list(range(g.n)):
        raise ValueError("partition must cover the vertex set disjointly")
    if any(len(p) == 0 for p in parts):
        raise ValueError("partition parts must be nonempty")
    bits = g.bits()
    masks = [sum(1 << w for w in p) for p in parts]
    matrix = []
    equitable = True
    for p in parts:
        counts = [tuple((bits[v] & mask).bit_count() for mask in masks) for v in p]
        equitable = equitable and len(set(counts)) == 1
        matrix.append(tuple(Fraction(sum(col), len(p)) for col in zip(*counts)))
    return QuotientResult(matrix=tuple(matrix), parts=tuple(parts), equitable=equitable)
