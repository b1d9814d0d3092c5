"""Exact rational polynomial tools for small matrices.

Characteristic polynomials are computed by Faddeev-LeVerrier over plain ints,
and the roots above a rational bound are counted, with multiplicity, by
Descartes' rule of signs on the shifted polynomial, which is exact for a
real-rooted polynomial.  Together they are the exact leg of the boundary rule
(`spectra.eigenvalue_at_most_exact`: how many eigenvalues, counted with
multiplicity, exceed a rational bound), which settles every eigenvalue
verdict near lambda in the search, the bound certificates and the
tilde-graph threshold m'(lambda).  No eigenvalue is computed here: every
numeric eigenvalue goes through `kernel.sym_eigenvalues`.

Polynomials are lists of Fractions indexed by power (low to high).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConsistencyError

Poly = list[Fraction]


def charpoly(matrix) -> Poly:
    """Monic characteristic polynomial det(xI - M) of a square rational matrix.

    Accepts any nested structure of ints / Fractions / floats (floats are
    taken at their exact binary value).  Faddeev-LeVerrier runs over plain
    ints on dM, where d is the lcm of the entries' denominators: dM has an
    integer characteristic polynomial, so each division by k is exact, and
    its coefficient of x^i divided by d^(n-i) is that of M.
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    d = math.lcm(*(x.denominator for row in m for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m]
    # row i of a as (column, entry) pairs, to skip zeros in the products
    support = [[(t, x) for t, x in enumerate(row) if x] for row in a]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ConsistencyError("Faddeev-LeVerrier trace not divisible by k")
        coeffs[n - k] = ck
        if k == n:
            break
        # mk <- a (mk + ck I)
        for i in range(n):
            mk[i][i] += ck
        nxt = []
        for pairs in support:
            row = [0] * n
            for t, x in pairs:
                row = [r + x * y for r, y in zip(row, mk[t])]
            nxt.append(row)
        mk = nxt
    return [Fraction(c, d ** (n - i)) for i, c in enumerate(coeffs)]


def count_roots_greater(p: Poly, a: Fraction) -> int:
    """Number of roots of the real-rooted polynomial p greater than a,
    counted with multiplicity.

    Precondition: every root of p is real, as for the characteristic
    polynomial of a symmetric matrix, or of a matrix similar to one (a
    partition quotient is diagonally similar to one).  A polynomial with
    complex roots may be overcounted.

    p is Taylor-shifted by a (repeated synthetic division) to q(y) = p(y + a),
    and the count is V(q), the sign changes among q's nonzero coefficients.
    It is exact: write q = y^z r with r(0) != 0.  The z zero low-order
    coefficients are the roots at a, which are not counted, and skipping them
    leaves V(r).  r has P positive and N negative roots, P + N = deg r, as it
    is real-rooted.  Descartes' rule of signs gives V(r) >= P and
    V(r(-y)) >= N, and V(r) + V(r(-y)) <= deg r; so V(r) = P.
    """
    q = list(p)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += a * q[j + 1]
    signs = [c > 0 for c in q if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))
