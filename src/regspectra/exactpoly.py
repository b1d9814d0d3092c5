"""Exact rational polynomial tools for small matrices.

Characteristic polynomials are computed by Faddeev-LeVerrier over plain ints
and real roots are counted with Sturm chains; Yun's square-free decomposition
gives the multiplicities.  Together they are the exact leg of the boundary
rule (`spectra.eigenvalue_at_most_exact`: how many eigenvalues, counted with
multiplicity, exceed a rational bound), which settles every eigenvalue
verdict near lambda in the search, the bound certificates and the tilde-graph
threshold m'(lambda); orders stay small, so exact arithmetic is cheap.  No
eigenvalue is computed here: every numeric eigenvalue goes through
`kernel.sym_eigenvalues`.

Polynomials are lists of Fractions indexed by power (low to high) with a
nonzero leading coefficient, except for the zero polynomial [].
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Poly = list[Fraction]


def _trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Poly) -> int:
    return len(p) - 1


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return _trim([c * i for i, c in enumerate(p)][1:])


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        coef = num[i + len(den) - 1] / lead
        if coef:
            q[i] = coef
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    return _trim(q), _trim(num)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def monic(p: Poly) -> Poly:
    p = _trim(p)
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


# -- characteristic polynomial -------------------------------------------------


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
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by k")
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


# -- Sturm machinery ------------------------------------------------------------


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [_trim(p)]
    if degree(chain[0]) < 1:
        return chain
    chain.append(derivative(chain[0]))
    while degree(chain[-1]) > 0:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def variations_at(chain: list[Poly], x: Fraction) -> int:
    return _variations([_sign(poly_eval(q, x)) for q in chain])


def variations_at_inf(chain: list[Poly]) -> int:
    """Sign variations of the chain at +infinity (the leading coefficients)."""
    return _variations([_sign(q[-1]) if q else 0 for q in chain])


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def squarefree_part(p: Poly) -> Poly:
    p = _trim(p)
    if degree(p) < 1:
        return monic(p)
    return monic(poly_divmod(p, poly_gcd(p, derivative(p)))[0])


def count_roots_in(p: Poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b].

    The Sturm chain is that of p's squarefree part; with the zero-skipping
    sign convention the variation count is right-continuous, which makes the
    half-open semantics exact even at root endpoints.
    """
    chain = sturm_chain(squarefree_part(p))
    return variations_at(chain, a) - variations_at(chain, b)


def count_roots_greater(p: Poly, a: Fraction) -> int:
    """Number of distinct real roots of p strictly greater than a."""
    sf = squarefree_part(p)
    # Strip a root exactly at the endpoint so Sturm endpoints are root-free.
    while sf and degree(sf) >= 1 and poly_eval(sf, a) == 0:
        sf = poly_divmod(sf, [-a, Fraction(1)])[0]
    if degree(sf) < 1:
        return 0
    chain = sturm_chain(sf)
    return variations_at(chain, a) - variations_at_inf(chain)


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: factors (q_i, i) with p ~ prod q_i^i, q_i square-free."""
    p = monic(p)
    if degree(p) < 1:
        return []
    dp = derivative(p)
    g = poly_gcd(p, dp)
    if degree(g) == 0:
        return [(p, 1)]
    out = []
    c = poly_divmod(p, g)[0]
    d = [x - y for x, y in _pad(poly_divmod(dp, g)[0], derivative(c))]
    d = _trim(d)
    i = 1
    while degree(c) > 0:
        a = poly_gcd(c, d)
        if degree(a) > 0:
            out.append((a, i))
        c_next = poly_divmod(c, a)[0] if degree(a) > 0 else c
        d_next = poly_divmod(d, a)[0] if degree(a) > 0 else d
        d = _trim([x - y for x, y in _pad(d_next, derivative(c_next))])
        c = c_next
        i += 1
    return out


def _pad(a: Poly, b: Poly):
    ln = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (ln - len(a))
    b = list(b) + [Fraction(0)] * (ln - len(b))
    return zip(a, b)
