"""Named graph constructions.

Vertex-order conventions are part of each builder's contract and documented
where they matter (block orders for coclique extensions, clique-then-apex for
the tilde graphs, etc.).
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .graphs import Graph


def edgeless(n: int) -> Graph:
    if n < 1:
        raise ValueError("order must be >= 1")
    return Graph(np.zeros((n, n), dtype=bool))


def complete(n: int) -> Graph:
    return complete_multipartite([1] * n)


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; vertices grouped part by part, in order.

    Vertices in distinct parts are adjacent, vertices within a part are not.
    K_{s,t} is the 2-part case and K_n the all-ones case.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("parts must be nonempty")
    if any(p < 1 for p in parts):
        raise ValueError("every part size must be >= 1")
    n = sum(parts)
    a = np.ones((n, n), dtype=bool)
    np.fill_diagonal(a, False)
    start = 0
    for p in parts:
        a[start : start + p, start : start + p] = False
        start += p
    return Graph(a)


def complete_bipartite(s: int, t: int) -> Graph:
    return complete_multipartite([s, t])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs >= 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    """Petersen graph: outer C5 on 0-4, inner pentagram on 5-9, spokes i--i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def complement(g: Graph) -> Graph:
    a = ~g.adj
    a = a.copy()
    np.fill_diagonal(a, False)
    return Graph(a)


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge of g, adjacent iff the edges share an end.

    Result vertex i corresponds to the i-th edge of g in (u, v), u < v,
    lexicographic order.
    """
    edges = g.edges()
    if not edges:
        raise ValueError("line graph of an edgeless graph is undefined here")
    # edge-vertex incidence B: distinct edges meet iff (B B^T)[i, j] > 0 (exact in float32)
    u, v = np.array(edges).T
    rows = np.arange(len(edges))
    b = np.zeros((len(edges), g.n), dtype=np.float32)
    b[rows, u] = b[rows, v] = 1
    a = b @ b.T > 0
    np.fill_diagonal(a, False)
    return Graph(a)


def k_tilde(m: int) -> Graph:
    """K_{2m} plus an apex adjacent to exactly m of the clique vertices.

    Vertices 0..2m-1 form the clique (the apex is joined to 0..m-1); the apex
    is the last vertex, 2m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2 * m + 1
    a = np.ones((n, n), dtype=bool)
    np.fill_diagonal(a, False)
    a[2 * m, :] = False
    a[:, 2 * m] = False
    for i in range(m):
        a[2 * m, i] = a[i, 2 * m] = True
    return Graph(a)


def coclique_extension(g: Graph, q: int) -> Graph:
    """Replace each vertex by q pairwise non-adjacent copies (adjacency A (x) J_q).

    Copies of vertex x occupy the contiguous block q*x .. q*x + q - 1.  q = 1
    is accepted and returns a graph identical to g.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    a = np.kron(g.adj, np.ones((q, q), dtype=bool))
    return Graph(a)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    a = np.zeros((n, n), dtype=bool)
    a[: g.n, : g.n] = g.adj
    a[g.n :, g.n :] = h.adj
    return Graph(a)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p) drawn from the supplied RNG (deterministic per seed)."""
    a = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                a[i, j] = a[j, i] = True
    return Graph(a)


def circulant(n: int, jumps: Sequence[int]) -> Graph:
    """Circulant graph: i ~ j iff (i - j) mod n is in +-jumps."""
    a = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for d in jumps:
            a[i, (i + d) % n] = True
            a[(i + d) % n, i] = True
    np.fill_diagonal(a, False)
    return Graph(a)
