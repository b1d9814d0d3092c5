"""Dense simple undirected graphs and the structural queries built on them.

Vertices are the integers 0..n-1.  Adjacency is a symmetric boolean matrix
with a zero diagonal; everything in this package lives in the dense regime
(cliques, complements, joins), so a bit matrix plus per-vertex integer
bitmasks is the representation of choice.

Breadth-first search has one implementation, `layers`, which yields the
frontiers from a source as bitmasks; reachability, components, distance
layers and the diameter are read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class Graph:
    """Immutable simple graph on vertices 0..n-1 with dense adjacency.

    The adjacency matrix is validated (square, symmetric, zero diagonal) and
    frozen at construction; all operations on graphs are pure functions.
    """

    __slots__ = ("n", "adj", "_bits")

    def __init__(self, adj):
        a = np.array(adj, dtype=bool)  # always a private copy
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        n = a.shape[0]
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        if np.count_nonzero(a != a.T):
            raise ValueError("adjacency must be symmetric")
        if np.count_nonzero(a.diagonal()):
            raise ValueError("adjacency must have a zero diagonal (no loops)")
        a.setflags(write=False)
        self.n = n
        self.adj = a
        self._bits: Optional[tuple[int, ...]] = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on n vertices with these edges; n < 1, a loop, a vertex
        out of range or an edge given twice (in either orientation) is a
        ValueError."""
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        a = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"invalid edge ({u}, {v}) for order {n}")
            if a[u, v]:
                raise ValueError(f"repeated edge {(min(u, v), max(u, v))}")
            a[u, v] = a[v, u] = True
        return cls(a)

    # -- basic queries ----------------------------------------------------

    def bits(self) -> tuple[int, ...]:
        """Neighborhood bitmasks, one integer per vertex (cached)."""
        if self._bits is None:
            packed = np.packbits(self.adj, axis=1, bitorder="little")
            self._bits = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
        return self._bits

    def degree(self, v: int) -> int:
        return int(self.adj[v].sum())

    def degrees(self) -> list[int]:
        return [int(x) for x in self.adj.sum(axis=1)]

    def neighbors(self, v: int) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.adj[v])]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.adj))
        return [(int(u), int(v)) for u, v in zip(us, vs)]

    def num_edges(self) -> int:
        return int(self.adj.sum()) // 2

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is vertices[i]."""
        idx = list(vertices)
        if len(idx) == 0:
            raise ValueError("induced subgraph needs at least one vertex")
        if len(set(idx)) != len(idx):
            raise ValueError("vertex list contains repeats")
        return Graph(self.adj[np.ix_(idx, idx)])

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image under the permutation mapping old vertex i to perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        inv = [0] * self.n
        for old, new in enumerate(perm):
            inv[new] = old
        return Graph(self.adj[np.ix_(inv, inv)])

    def is_connected(self) -> bool:
        return reach(self.bits(), 0) == (1 << self.n) - 1

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        """Labelled equality (same order, identical adjacency)."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"<Graph n={self.n} m={self.num_edges()}>"


def layers(bits: Sequence[int], start: int) -> Iterator[int]:
    """Breadth-first frontiers from `start` over the neighbourhood bitmasks
    `bits`: the bitmask of the vertices at distance 0, 1, 2, ... in turn,
    ending after the last non-empty one.  The package's one BFS."""
    seen = frontier = 1 << start
    while frontier:
        yield frontier
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= bits[b.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier


def reach(bits: Sequence[int], start: int, stop_mask: int = 0) -> int:
    """Bitmask of the vertices reachable from `start` over the neighbourhood
    bitmasks `bits`.

    The search stops as soon as it reaches a vertex of `stop_mask`; the mask
    it then returns holds that vertex but may miss other reachable ones."""
    seen = 0
    for frontier in layers(bits, start):
        seen |= frontier
        if frontier & stop_mask:
            break
    return seen


def components(bits: Sequence[int]) -> Iterator[int]:
    """Bitmasks of the connected components, in order of their least vertex."""
    seen = 0
    for v in range(len(bits)):
        if not seen >> v & 1:
            comp = reach(bits, v)
            seen |= comp
            yield comp


def members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, in increasing order."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def twin_classes(bits: Sequence[int]) -> list[int]:
    """For each vertex, the bitmask of its twin class over the neighbourhood
    bitmasks `bits`: the vertices with its open or with its closed
    neighbourhood.  Swapping two twins is an automorphism.

    No vertex v has both an open twin u and a closed twin w: w ~ v puts w in
    N(u), so u lies in N[w] = N[v], yet open twins are not adjacent.  So the
    class is the union of v's open class and v's closed class, one of which
    is v alone, and the classes partition the vertices.  Within a colouring,
    a colour's class is the class mask ANDed with that colour's vertex mask."""
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, b in enumerate(bits):
        by_open[b] = by_open.get(b, 0) | 1 << v
        by_closed[b | 1 << v] = by_closed.get(b | 1 << v, 0) | 1 << v
    return [by_open[b] | by_closed[b | 1 << v] for v, b in enumerate(bits)]


# -- distance structure ----------------------------------------------------


@dataclass(frozen=True)
class DistanceLayers:
    """BFS layers around a source: layers[i] is the set at distance i."""

    source: int
    layers: tuple[tuple[int, ...], ...]
    eccentricity: int
    unreached: tuple[int, ...]

    def layer(self, i: int) -> tuple[int, ...]:
        return self.layers[i] if i < len(self.layers) else ()


def distance_layers(g: Graph, x: int) -> DistanceLayers:
    """Breadth-first distance layers from x; unreachable vertices listed apart."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    frontiers = list(layers(g.bits(), x))
    return DistanceLayers(
        source=x,
        layers=tuple(members(f) for f in frontiers),
        eccentricity=len(frontiers) - 1,
        unreached=members(((1 << g.n) - 1) & ~sum(frontiers)),  # frontiers are disjoint
    )


def diameter(g: Graph) -> float:
    """Largest finite distance; math.inf when disconnected."""
    if not g.is_connected():
        return math.inf
    return max(distance_layers(g, x).eccentricity for x in range(g.n))


# -- induced subgraph containment -------------------------------------------


def contains_induced(
    g: Graph,
    h: Graph,
    *,
    colours: Optional[tuple[Sequence, Sequence]] = None,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Does some vertex subset of g induce a graph isomorphic to h?

    Returns (found, witness) where witness maps pattern vertex i to the host
    vertex witness[i].  With colours=(host colours, pattern colours), one
    colour per vertex, pattern vertex i may map only to a host vertex of its
    own colour (coloured induced containment).  Backtracking over host
    bitmask domains; a host vertex enters a pattern vertex's domain only when
    it has at least as many neighbours of each colour and at least as many
    non-neighbours.

    Two twin rules (see `twin_classes`) skip interchangeable vertices:
    - host: once host vertex w has failed at a node, its same-colour twins
      are dropped from that node's candidates;
    - pattern: a pattern vertex with a same-colour twin earlier in the
      matching order maps only above that twin's image.
    Each prunes only embeddings that a colour-preserving twin swap turns
    into a lexicographically smaller one (images read in matching order):
    swapping w with a later twin at the node, or the images of two pattern
    twins.  So the lexicographically first embedding, the one the plain
    depth-first walk returns, is never pruned and is still met first, and
    `found` and `witness` are those of the walk without the rules.
    """
    n, k = g.n, h.n
    gcol, hcol = colours if colours is not None else ((0,) * n, (0,) * k)
    if len(gcol) != n or len(hcol) != k:
        raise ValueError("need one colour per host and per pattern vertex")
    if k > n:
        return False, None

    gbits = g.bits()
    hbits = h.bits()
    gdeg = g.degrees()
    hdeg = h.degrees()

    # Order pattern vertices so each one (after the first) touches the already
    # ordered prefix where possible; ties broken toward high degree.
    order: list[int] = []
    prefix = 0
    for _ in range(k):
        best = max(
            (v for v in range(k) if not prefix >> v & 1),
            key=lambda v: ((hbits[v] & prefix).bit_count(), hdeg[v], -v),
        )
        order.append(best)
        prefix |= 1 << best

    # Domain screen: host vertex must have the same colour, enough neighbors
    # of each colour and enough non-neighbors.  It drops only host vertices
    # that lie in no embedding.
    palette = list(dict.fromkeys(hcol))
    gmask = {c: sum(1 << w for w in range(n) if gcol[w] == c) for c in palette}
    hmask = {c: sum(1 << v for v in range(k) if hcol[v] == c) for c in palette}
    gcount = [[(b & gmask[c]).bit_count() for c in palette] for b in gbits]
    base_domain = [0] * k
    for i, v in enumerate(order):
        dom = 0
        need_nb = [(hbits[v] & hmask[c]).bit_count() for c in palette]
        need_nn = (k - 1) - hdeg[v]
        for w in range(n):
            if (
                gcol[w] == hcol[v]
                and (n - 1 - gdeg[w]) >= need_nn
                and all(have >= want for have, want in zip(gcount[w], need_nb))
            ):
                dom |= 1 << w
        base_domain[i] = dom

    # For order[i], the positions of its neighbours and of its same-colour
    # twins; backtracking reads only the positions after i.
    htwin = twin_classes(hbits)
    adjacent = [sum(1 << order.index(u) for u in members(hbits[v])) for v in order]
    twins = [sum(1 << order.index(u) for u in members(htwin[v] & hmask[hcol[v]])) for v in order]

    # A domain holds one colour only, so dropping w's twin class drops
    # exactly its same-colour twins.
    gtwin = twin_classes(gbits)
    assign = [0] * k

    def backtrack(i: int, domains: list[int]) -> bool:
        if i == k:
            return True
        dom = domains[i]
        while dom:
            wbit = dom & -dom
            w = wbit.bit_length() - 1
            assign[i] = w
            nb = gbits[w]
            non = ~(nb | wbit)
            above = -(wbit << 1)
            new_domains = domains[:]
            for j in range(i + 1, k):
                dj = new_domains[j] & (nb if adjacent[i] >> j & 1 else non)
                if twins[i] >> j & 1:
                    dj &= above
                if not dj:
                    break
                new_domains[j] = dj
            else:
                if backtrack(i + 1, new_domains):
                    return True
            dom &= ~gtwin[w]  # a twin of w would repeat w's subtree
        return False

    if backtrack(0, base_domain):
        witness = [0] * k
        for i, v in enumerate(order):
            witness[v] = assign[i]
        return True, tuple(witness)
    return False, None


# -- regularity parameters ---------------------------------------------------


@dataclass(frozen=True)
class RegularityParams:
    """Degree/common-neighbor regularity data of a graph.

    a1 / c2 values are reported only when constant over the relevant pair set;
    c2_coedge ranges over all non-adjacent pairs (co-edge-regularity), while
    c2_dist2 ranges over pairs at distance exactly 2 (amply regularity).
    """

    v: int
    is_regular: bool
    k: Optional[int]
    a1: Optional[int]
    c2_coedge: Optional[int]
    c2_dist2: Optional[int]
    dist2_common_min: Optional[int]
    dist2_common_max: Optional[int]
    edge_regular: bool
    co_edge_regular: bool
    amply_regular: bool
    strongly_regular: bool
    diameter: float

    def srg_params(self) -> tuple[int, int, Optional[int], Optional[int]]:
        return (self.v, self.k if self.k is not None else -1, self.a1, self.c2_dist2)


def regularity_params(g: Graph) -> RegularityParams:
    """The (v, k, a1, c2) regularity data of g, counted over every vertex
    pair: common neighbours are the popcount of the two bit rows ANDed, and
    a non-adjacent pair is at distance 2 iff it has one."""
    degs = g.degrees()
    is_reg = len(set(degs)) == 1
    k = degs[0] if is_reg else None

    bits = g.bits()
    a1_vals = set()
    coedge_vals = set()
    dist2_vals = set()
    for u in range(g.n):
        bu = bits[u]
        for w in range(u + 1, g.n):
            c = (bu & bits[w]).bit_count()  # common neighbours
            if bu >> w & 1:
                a1_vals.add(c)
            else:
                coedge_vals.add(c)
                if c:  # non-adjacent with a common neighbour: distance 2
                    dist2_vals.add(c)

    a1 = a1_vals.pop() if len(a1_vals) == 1 else None
    c2_coedge = coedge_vals.pop() if len(coedge_vals) == 1 else None
    c2_dist2 = dist2_vals.pop() if len(dist2_vals) == 1 else None
    if a1 is not None:
        a1_uniform = True
    else:
        a1_uniform = not a1_vals  # vacuously uniform when no edges exist
    coedge_uniform = c2_coedge is not None or not coedge_vals
    dist2_uniform = c2_dist2 is not None or not dist2_vals

    d2min = d2max = None
    if c2_dist2 is not None:
        d2min = d2max = c2_dist2
    elif dist2_vals:
        d2min, d2max = min(dist2_vals), max(dist2_vals)

    diam = diameter(g)
    edge_regular = is_reg and a1_uniform
    co_edge_regular = is_reg and coedge_uniform
    amply = is_reg and a1_uniform and dist2_uniform
    strongly = amply and diam == 2

    return RegularityParams(
        v=g.n,
        is_regular=is_reg,
        k=k,
        a1=a1,
        c2_coedge=c2_coedge,
        c2_dist2=c2_dist2,
        dist2_common_min=d2min,
        dist2_common_max=d2max,
        edge_regular=edge_regular,
        co_edge_regular=co_edge_regular,
        amply_regular=amply,
        strongly_regular=strongly,
        diameter=diam,
    )
