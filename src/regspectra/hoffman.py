"""Hoffman graphs: slim/fat labellings, special matrices, fattenings.

A Hoffman graph is a graph with every vertex labelled fat or slim such that
fat vertices are pairwise non-adjacent and each fat vertex has a slim
neighbor.  Its eigenvalues are those of the special matrix
S = A_slim - C C^T, where C is the slim-fat incidence matrix.

The fattening G(h, p) replaces each fat vertex by a clique of p vertices
joined to that fat vertex's slim neighbours; Hoffman's limit theorem says
lambda_min(G(h, p)) decreases onto lambda_min(h) as p grows.  The sequence
comes from an exact equitable-partition identity, without building G(h, p).
With s slim and f fat vertices, A_S the slim adjacency and C the slim-fat
incidence matrix:

- a vector that sums to zero on one clique block and is zero elsewhere is an
  eigenvector of A(G(h, p)) for -1; these span f(p - 1) dimensions of the
  -1 eigenspace;
- the block-constant vectors span the complementary invariant subspace, on
  which A(G(h, p)) acts as the quotient M = [[A_S, pC], [C^T, (p-1)I_f]];
- with D = diag(1_s, p 1_f), M is similar to the symmetric
  Q_p = D^(1/2) M D^(-1/2) = [[A_S, sqrt(p) C], [sqrt(p) C^T, (p-1)I_f]];

so lambda_min(G(h, p)) = min(lambda_min(Q_p), -1), the -1 counting only
when p >= 2 and f >= 1.  It never binds: when f >= 1, the Schur complement
of the block pI_f in Q_p + I is A_S + I - C C^T = S + I, and S has a
diagonal entry -(fat degree) <= -1, so S + I and with it Q_p + I is not
positive definite, i.e. lambda_min(Q_p) <= -1.  Hence
lambda_min(G(h, p)) = lambda_min(Q_p): one eigensolve of order s + f per p,
not s + pf.

Containment of one Hoffman graph in another is coloured induced containment:
graphs.contains_induced with fat and slim as the two vertex colours.

Note on the universal-fat construction q(H) (one fat vertex joined to all of
H): since C C^T is then the all-ones matrix, S = A(H) - J = -(I + A(co-H)),
so lambda_min(q(H)) = -1 - lambda_max(co-H) exactly.  Statements of the form
"lambda_min(q(H)) = -lambda_max(co-H)" drop the -1 shift; the inequality
consequences used downstream (isolated-vertex bound and friends) hold either
way, and this module implements the exact identity.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from . import formats
from .construct import complete, cycle, edgeless, path
from .errors import ConsistencyError
from .graphs import Graph, contains_induced
from .spectra import INTERLACING_TOL, eig_symmetric


class HoffmanGraph:
    """Graph plus fat/slim labels; immutable like Graph itself."""

    __slots__ = ("graph", "fat")

    def __init__(self, graph: Graph, fat: Sequence[int] = ()):
        fat_set: set[int] = set()
        for v in map(int, fat):
            if not 0 <= v < graph.n:
                raise ValueError(f"fat vertex {v} out of range")
            if v in fat_set:
                raise ValueError(f"repeated fat vertex {v}")
            fat_set.add(v)
        self.graph = graph
        self.fat = frozenset(fat_set)

    @property
    def n(self) -> int:
        return self.graph.n

    def fat_vertices(self) -> list[int]:
        return sorted(self.fat)

    def slim_vertices(self) -> list[int]:
        return [v for v in range(self.n) if v not in self.fat]

    def is_fat(self, v: int) -> bool:
        return v in self.fat

    def validate(self) -> list[str]:
        """Empty list when valid; otherwise one message per violation."""
        problems = []
        fat = self.fat_vertices()
        for i, u in enumerate(fat):
            for v in fat[i + 1 :]:
                if self.graph.has_edge(u, v):
                    problems.append(f"fat vertices {u} and {v} are adjacent")
        for u in fat:
            if not any(not self.is_fat(w) for w in self.graph.neighbors(u)):
                problems.append(f"fat vertex {u} has no slim neighbor")
        return problems

    def is_valid(self) -> bool:
        return not self.validate()

    def _require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ValueError("invalid Hoffman graph: " + "; ".join(problems))

    def incidence(self) -> np.ndarray:
        """Slim-fat 0/1 incidence matrix C (slim rows, fat columns)."""
        return self.graph.adj[np.ix_(self.slim_vertices(), self.fat_vertices())].astype(np.int64)

    def special_matrix(self) -> np.ndarray:
        """S = A_slim - C C^T (int64), indexed by the sorted slim vertex list."""
        self._require_valid()
        slim = self.slim_vertices()
        if not slim:
            raise ValueError("Hoffman graph has no slim vertices")
        c = self.incidence()
        return self.graph.adj[np.ix_(slim, slim)] - c @ c.T

    def lambda_min(self) -> float:
        return eig_symmetric(self.special_matrix())[-1]

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {**formats.to_json_obj(self.graph), "fat": self.fat_vertices()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "HoffmanGraph":
        """Graph JSON (formats.from_json_obj) plus an optional 'fat' id list;
        a malformed object raises ValueError."""
        g = formats.from_json_obj(obj)
        fat = obj.get("fat", [])
        if not isinstance(fat, list) or not all(type(v) is int for v in fat):
            raise ValueError("Hoffman graph JSON 'fat' must be a list of vertex ids")
        return cls(g, fat)

    @classmethod
    def with_fats(cls, slim: Graph, fats: Sequence[Iterable[int]]) -> "HoffmanGraph":
        """`slim` on vertices 0..s-1 plus fat vertex s+j joined to exactly fats[j]."""
        s = slim.n
        n = s + len(fats)
        a = np.zeros((n, n), dtype=bool)
        a[:s, :s] = slim.adj
        for j, nbrs in enumerate(fats):
            for w in nbrs:
                a[s + j, w] = a[w, s + j] = True
        return cls(Graph(a), fat=range(s, n))

    def __repr__(self) -> str:
        return f"<HoffmanGraph n={self.n} slim={self.n - len(self.fat)} fat={len(self.fat)}>"


# -- constructions -------------------------------------------------------------


def attach_universal_fat(h: Graph) -> HoffmanGraph:
    """q(H): H as slim part plus one fat vertex adjacent to every slim vertex."""
    return HoffmanGraph.with_fats(h, [range(h.n)])


def slim_with_fats(s: int) -> HoffmanGraph:
    """One slim vertex adjacent to s fat vertices; lambda_min is exactly -s."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return HoffmanGraph.with_fats(edgeless(1), [[0]] * s)


def fatten(h: HoffmanGraph, p: int) -> Graph:
    """G(h, p): replace each fat vertex by a K_p joined to that vertex's neighbors.

    Vertex order: the slim vertices first (original relative order), then one
    contiguous block of p clique vertices per fat vertex, fat vertices taken
    in increasing id order.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    h._require_valid()
    slim = h.slim_vertices()
    s = len(slim)
    f = len(h.fat)
    n = s + p * f
    a = np.zeros((n, n), dtype=bool)
    a[:s, :s] = h.graph.adj[np.ix_(slim, slim)]
    a[s:, s:] = np.kron(np.eye(f, dtype=bool), ~np.eye(p, dtype=bool))
    # fat vertices are pairwise non-adjacent, so the incidence holds every join
    joins = np.repeat(h.incidence(), p, axis=1)
    a[:s, s:] = joins
    a[s:, :s] = joins.T
    return Graph(a)


def fattening_lambda_min_sequence(h: HoffmanGraph, p_max: int) -> list[float]:
    """lambda_min(G(h, p)) for p = 1..p_max, from the equitable quotient.

    G(h, p) is never built: each value is lambda_min of the symmetric
    quotient Q_p = [[A_S, sqrt(p) C], [sqrt(p) C^T, (p-1)I]] (A_S the slim
    adjacency, C = h.incidence()), of order s + f.  Q_1..Q_p_max go to the
    eigensolver as one stack.  The module docstring derives the identity.
    """
    h._require_valid()
    slim = h.slim_vertices()
    s = len(slim)
    f = len(h.fat)
    c = h.incidence()
    p = np.arange(1, p_max + 1)[:, None, None]
    q = np.zeros((p_max, s + f, s + f))
    q[:, :s, :s] = h.graph.adj[np.ix_(slim, slim)]
    q[:, :s, s:] = np.sqrt(p) * c
    q[:, s:, :s] = np.swapaxes(q[:, :s, s:], 1, 2)
    q[:, s:, s:] = (p - 1) * np.eye(f)
    return [vals[-1] for vals in eig_symmetric(q)]


# -- induced Hoffman subgraph containment ----------------------------------------


def contains_hoffman_subgraph(
    h: HoffmanGraph, pattern: HoffmanGraph
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Label-respecting induced subgraph containment.

    This is graphs.contains_induced with the fat/slim labels as the two
    colours.  Returns (found, witness) with witness[i] the host vertex for
    pattern vertex i.
    On success the induced-subgraph eigenvalue inequality
    lambda_min(pattern) >= lambda_min(h) is asserted as a post-check.
    """
    h_fat = [h.is_fat(v) for v in range(h.n)]
    pattern_fat = [pattern.is_fat(v) for v in range(pattern.n)]
    found, witness = contains_induced(h.graph, pattern.graph, colours=(h_fat, pattern_fat))
    # Induced Hoffman subgraphs cannot have a smaller lambda_min than the host.
    if found and pattern.slim_vertices() and h.slim_vertices():
        if pattern.lambda_min() < h.lambda_min() - INTERLACING_TOL:
            raise ConsistencyError(
                "induced Hoffman subgraph with smaller lambda_min than its host"
            )
    return found, witness


# -- a small catalog used by the fattening and association checks ----------------


def catalog() -> list[tuple[str, HoffmanGraph]]:
    """Named Hoffman graphs with <= 4 slim and <= 3 fat vertices.

    Every entry fattens with lambda_min(G(h, p)) converging onto lambda_min(h)
    quickly enough that the p = 30 gap is below 0.1 (checked by the test
    suite), and every entry is recovered by the quasi-clique association
    round-trip at small parameters.
    """
    p2, p3 = complete(2), path(3)
    entries = [
        ("q(K1)", attach_universal_fat(complete(1))),
        ("q(K2)", attach_universal_fat(complete(2))),
        ("q(K3)", attach_universal_fat(complete(3))),
        ("q(K4)", attach_universal_fat(complete(4))),
        ("q(2K1)", attach_universal_fat(edgeless(2))),
        ("q(P3)", attach_universal_fat(p3)),
        ("h^(2)", slim_with_fats(2)),
        ("K2+fats(a),(b)", HoffmanGraph.with_fats(p2, [[0], [1]])),
        ("K2+fats(ab),(a)", HoffmanGraph.with_fats(p2, [[0, 1], [0]])),
        ("K2+fats(ab),(a),(b)", HoffmanGraph.with_fats(p2, [[0, 1], [0], [1]])),
        ("P3+fats(a),(c)", HoffmanGraph.with_fats(p3, [[0], [2]])),
        ("q(C4)", attach_universal_fat(cycle(4))),
    ]
    return entries
