"""Brute-force oracles for the tests: exhaustive over subsets and
permutations, so only for tiny inputs; the leaf key as a loop over every
pair; the individualization-refinement tree walked whole, with no pruning;
the root invariant as a pass over every vertex; every graph of an order
from every extension of the order below, with no maximum-degree filter;
a breadth-first search by vertex queue, independent of the package's
bitmask frontiers; integer eigenvalue
multiplicities by exact rank, independent of the characteristic polynomial;
Cauchy interlacing, an eigensolver self-test; the fattening's least
eigenvalues from the fattened graphs themselves; the Ramsey arrow check over
every graph as a pair mask, and the Ramsey recurrence as a recursion; and real roots counted by Sturm chains, with
multiplicities from Yun's square-free decomposition, independent of the
package's Descartes count."""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional, Sequence

import numpy as np

from regspectra import ramsey, search
from regspectra.errors import UnsupportedSizeError
from regspectra.formats import from_graph6, to_graph6
from regspectra.graphs import DistanceLayers, Graph
from regspectra.hoffman import HoffmanGraph, fatten
from regspectra.exactpoly import Poly
from regspectra.spectra import INTERLACING_TOL, eig_symmetric


def brute_force_certificate(g: Graph) -> str:
    """Oracle: lexicographic minimum over all vertex permutations (order <= 8)."""
    if g.n > 8:
        raise UnsupportedSizeError("brute-force certificate limited to order 8")
    n = g.n
    bits = g.bits()
    best_key = None
    best_perm = None
    for perm in permutations(range(n)):
        key = 0
        for i in range(n):
            bi = bits[perm[i]]
            for j in range(i + 1, n):
                key = (key << 1) | (bi >> perm[j] & 1)
        if best_key is None or key < best_key:
            best_key = key
            best_perm = perm
    labeling = [0] * n
    for position, old in enumerate(best_perm):
        labeling[old] = position
    return to_graph6(g.relabel(labeling))


def leaf_key_reference(bits: Sequence[int], order: Sequence[int]) -> int:
    """Oracle of `search._leaf_key`: the upper triangle of the adjacency
    matrix under `order` (position -> vertex), read pair by pair, row by row,
    as one integer."""
    n = len(order)
    key = 0
    for i in range(n):
        bi = bits[order[i]]
        for j in range(i + 1, n):
            key = (key << 1) | (bi >> order[j] & 1)
    return key


def leaf_orders_reference(bits: Sequence[int], n: int):
    """Oracle of `search._leaf_orders`' tree: every leaf order (position ->
    vertex), depth first, by recursion over `search._refine`, with no twin
    or automorphism pruning.  A node individualizes each vertex v of its
    first non-singleton cell in turn, as [v] followed by the rest."""

    def walk(cells):
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            yield [cell[0] for cell in cells]
            return
        for v in cells[target]:
            rest = [w for w in cells[target] if w != v]
            split = cells[:target] + [[v], rest] + cells[target + 1 :]
            yield from walk(search._refine(bits, split, [target]))

    yield from walk(search._refine(bits, [list(range(n))]))


def invariant_reference(rows: Sequence[int], w: int) -> int:
    """Oracle of `search._invariant`: I(w) = (t(w), q(w)) by its definition,
    packed as t << 20 | q, one pass over every vertex x: t adds |N(w) & N(x)|
    for each neighbour x of w, and q adds |N(w) & N(x)|^2 for every x."""
    row = rows[w]
    t = q = 0
    for x, r in enumerate(rows):
        c = (r & row).bit_count()
        q += c * c
        if row >> x & 1:
            t += c
    return t << 20 | q


def enumerate_all_graphs_reference(n: int) -> list[Graph]:
    """Oracle of `search.enumerate_all_graphs`: the same dedup passes over
    every extension of each class of the order below by one vertex, with no
    maximum-degree filter."""
    graphs = [from_graph6("@")]  # K1
    for size in range(2, n + 1):
        new = 1 << (size - 1)
        _, certs = search._dedup(
            tuple(row | new if mask >> w & 1 else row for w, row in enumerate(g.bits())) + (mask,)
            for g in graphs
            for mask in range(new)
        )
        graphs = [from_graph6(c) for c in certs]
    return graphs


def contains_induced_bruteforce(
    g: Graph, h: Graph, colours: Optional[tuple[Sequence, Sequence]] = None
) -> bool:
    """Oracle: exhaustive subset enumeration + permutation check (tiny inputs).

    `colours` follows contains_induced: pattern vertex a may map only to a
    host vertex of the same colour.
    """
    if h.n > g.n:
        return False
    gcol, hcol = colours if colours is not None else ((0,) * g.n, (0,) * h.n)
    for subset in combinations(range(g.n), h.n):
        sub = g.adj[np.ix_(subset, subset)]
        for perm in permutations(range(h.n)):
            if all(gcol[subset[perm[a]]] == hcol[a] for a in range(h.n)) and all(
                sub[perm[a], perm[b]] == h.adj[a, b]
                for a in range(h.n)
                for b in range(a + 1, h.n)
            ):
                return True
    return False


def line_graph_reference(g: Graph) -> Graph:
    """Oracle of `construct.line_graph`: every pair of edges, in `g.edges()`
    order, tested for a shared end."""
    edges = g.edges()
    m = len(edges)
    a = np.zeros((m, m), dtype=bool)
    for i in range(m):
        u1, v1 = edges[i]
        for j in range(i + 1, m):
            u2, v2 = edges[j]
            if u1 in (u2, v2) or v1 in (u2, v2):
                a[i, j] = a[j, i] = True
    return Graph(a)


def bfs_distance_layers(g: Graph, x: int) -> DistanceLayers:
    """Oracle: breadth-first distance layers from x by a vertex queue;
    unreachable vertices listed apart."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    dist = [-1] * g.n
    dist[x] = 0
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    ecc = max(d for d in dist if d >= 0)
    layers = [[] for _ in range(ecc + 1)]
    unreached = []
    for v, d in enumerate(dist):
        if d >= 0:
            layers[d].append(v)
        else:
            unreached.append(v)
    return DistanceLayers(
        source=x,
        layers=tuple(tuple(layer) for layer in layers),
        eccentricity=ecc,
        unreached=tuple(unreached),
    )


def bfs_distance_matrix(g: Graph) -> list[list[float]]:
    """Oracle: all-pairs distances via the queue BFS; math.inf for
    unreachable pairs."""
    out = []
    for x in range(g.n):
        dl = bfs_distance_layers(g, x)
        row = [math.inf] * g.n
        for d, layer in enumerate(dl.layers):
            for v in layer:
                row[v] = d
        out.append(row)
    return out


def bfs_pair_data(g: Graph) -> dict:
    """Oracle: pair statistics from the queue-BFS distance matrix and the
    integer square of the adjacency matrix (common-neighbour counts)."""
    dist = bfs_distance_matrix(g)
    common = g.adj.astype(np.int64) @ g.adj.astype(np.int64)
    a1, coedge, dist2 = set(), set(), set()
    max_finite = 0
    for u in range(g.n):
        for w in range(u + 1, g.n):
            c = int(common[u, w])
            if g.adj[u, w]:
                a1.add(c)
            else:
                coedge.add(c)
                if dist[u][w] == 2:
                    dist2.add(c)
            if dist[u][w] != math.inf:
                max_finite = max(max_finite, int(dist[u][w]))
    return {
        "a1": a1,
        "coedge": coedge,
        "dist2": dist2,
        "diameter": max(max(row) for row in dist),
        "max_finite": max_finite,
        "gamma2_max": max(row.count(2) for row in dist),
    }


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals by Gaussian elimination."""
    rows = [row[:] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def integer_spectrum(g: Graph) -> list[int]:
    """Oracle: the eigenvalues of a graph whose spectrum is integral,
    descending with multiplicity; theta has multiplicity n - rank(A - theta I),
    computed exactly.  Raises ValueError when the integer eigenvalues in
    [-max degree, max degree] do not account for all n."""
    n = g.n
    top = max(g.degrees(), default=0)
    out: list[int] = []
    for theta in range(top, -top - 1, -1):
        rows = [[Fraction(int(g.adj[u, w]) - (theta if u == w else 0)) for w in range(n)]
                for u in range(n)]
        out += [theta] * (n - _rank(rows))
    if len(out) != n:
        raise ValueError("spectrum is not integral")
    return out


def interlacing_check(g: Graph, subset: Sequence[int]) -> bool:
    """Cauchy interlacing between g and the subgraph induced on `subset`.

    With full spectrum l_1 >= ... >= l_n and induced spectrum m_1 >= ... >= m_s:
    l_i >= m_i >= l_{i + n - s} must hold for every i; returns True when all
    inequalities hold within INTERLACING_TOL (they always should - this is an
    eigensolver self-test).
    """
    subset = list(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    full = eig_symmetric(g)
    sub = eig_symmetric(g.induced(subset))
    n, s = len(full), len(sub)
    return all(
        full[i] + INTERLACING_TOL >= sub[i] >= full[i + n - s] - INTERLACING_TOL
        for i in range(s)
    )


def fattening_lambda_min_reference(h: HoffmanGraph, p_max: int) -> list[float]:
    """Oracle of `hoffman.fattening_lambda_min_sequence`: lambda_min(G(h, p))
    for p = 1..p_max, each G(h, p) built and eigensolved whole."""
    return [eig_symmetric(fatten(h, p))[-1] for p in range(1, p_max + 1)]


def every_graph_arrows_bruteforce(n: int, s: int, t: int) -> bool:
    """Oracle: walk all 2^C(n,2) graphs on n vertices as pair masks and check
    each for a K_s or a size-t coclique (n <= 6 in reasonable time)."""
    pairs = list(combinations(range(n), 2))
    s_combos = [list(combinations(c, 2)) for c in combinations(range(n), s)]
    t_combos = [list(combinations(c, 2)) for c in combinations(range(n), t)]
    index = {pq: i for i, pq in enumerate(pairs)}
    s_masks = [sum(1 << index[pq] for pq in combo) for combo in s_combos]
    t_masks = [sum(1 << index[pq] for pq in combo) for combo in t_combos]
    for mask in range(1 << len(pairs)):
        if any(mask & sm == sm for sm in s_masks):
            continue
        if any(mask & tm == 0 for tm in t_masks):
            continue
        return False
    return True


@lru_cache(maxsize=None)
def ramsey_upper_recursive(s: int, t: int) -> int:
    """Oracle: the parity-strengthened Ramsey recurrence as its definition,
    recursing to depth s + t from the exact table."""
    exact = ramsey._table_exact(s, t)
    if exact is not None:
        return exact
    a = ramsey_upper_recursive(s - 1, t)
    b = ramsey_upper_recursive(s, t - 1)
    return a + b - 1 if a % 2 == 0 and b % 2 == 0 else a + b


# -- Sturm chains and Yun's decomposition -------------------------------------
# Polynomials are lists of Fractions, low to high, with a nonzero leading
# coefficient; [] is the zero polynomial.


def _trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _derivative(p: Poly) -> Poly:
    return _trim([c * i for i, c in enumerate(p)][1:])


def _sub(a: Poly, b: Poly) -> Poly:
    size = max(len(a), len(b))
    a, b = list(a) + [0] * (size - len(a)), list(b) + [0] * (size - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _monic(p: Poly) -> Poly:
    p = _trim(p)
    return [c / p[-1] for c in p] if p else p


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """(quotient, remainder) of polynomial long division."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        coef = num[i + len(den) - 1] / den[-1]
        if coef:
            q[i] = coef
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    return _trim(q), _trim(num)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return _monic(a)


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [_trim(p)]
    if len(chain[0]) < 2:
        return chain
    chain.append(_derivative(chain[0]))
    while len(chain[-1]) > 1:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(chain: list[Poly], x: Optional[Fraction]) -> int:
    """Sign changes along the chain at x (at +infinity for None), zeros
    skipped; so the count is right-continuous in x."""
    values = [q[-1] if x is None else _eval(q, x) for q in chain]
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _squarefree_part(p: Poly) -> Poly:
    p = _trim(p)
    if len(p) < 2:
        return _monic(p)
    return _monic(poly_divmod(p, poly_gcd(p, _derivative(p)))[0])


def count_roots_in(p: Poly, a: Fraction, b: Optional[Fraction]) -> int:
    """Number of distinct real roots of p in (a, b] (b None: +infinity), by
    Sturm's theorem on p's square-free part."""
    chain = _sturm_chain(_squarefree_part(p))
    return _variations(chain, a) - _variations(chain, b)


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: factors (q_i, i) with p ~ prod q_i^i, q_i square-free."""
    p = _monic(p)
    if len(p) < 2:
        return []
    dp = _derivative(p)
    g = poly_gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    out = []
    c = poly_divmod(p, g)[0]
    d = _sub(poly_divmod(dp, g)[0], _derivative(c))
    i = 1
    while len(c) > 1:
        a = poly_gcd(c, d)
        if len(a) > 1:
            out.append((a, i))
            c, d = poly_divmod(c, a)[0], poly_divmod(d, a)[0]
        d = _sub(d, _derivative(c))
        i += 1
    return out


def roots_greater_reference(p: Poly, points: Sequence[Fraction]) -> list[int]:
    """For each a in `points`, the number of real roots of p greater than a,
    counted with multiplicity: each Yun factor's Sturm count times its
    multiplicity (the chains are built once for all the points)."""
    chains = [(_sturm_chain(q), m) for q, m in squarefree_decomposition(p)]
    return [sum(m * (_variations(chain, a) - _variations(chain, None)) for chain, m in chains)
            for a in points]
