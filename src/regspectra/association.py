"""Large maximal cliques, the mutual-non-neighbor relation, and association.

For a graph G, C(n) is the set of maximal cliques with at least n vertices.
Two such cliques are related (an equivalence under the hypotheses n >= (m+1)^2
and no induced K~_{2m}) when every vertex of one has at most m-1 non-neighbors
in the other.  Each class has a quasi-clique - the vertices with at most m-1
non-neighbors in a representative clique - and the associated Hoffman graph
adds one fat vertex per class, joined to exactly its quasi-clique.

The relation is held as bit rows over the family, like a graph's adjacency,
so its classes are the `graphs.components` of those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .construct import k_tilde
from .errors import ConsistencyError, UnsupportedSizeError
from .graphs import Graph, components, contains_induced, members
from .hoffman import HoffmanGraph

CLIQUE_ORDER_CAP = 200
CLIQUE_COUNT_CAP = 10**6


@dataclass(frozen=True)
class CliqueFamily:
    """Maximal cliques of `graph` with at least `threshold` vertices."""

    graph: Graph
    threshold: int
    cliques: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.cliques)


@dataclass(frozen=True)
class CliquePartition:
    """Equivalence classes of a clique family with their quasi-cliques.

    `classes` holds indices into family.cliques; hypothesis or transitivity
    problems are reported in `warnings` rather than raised, so the machinery
    stays usable on arbitrary inputs (the guarantees only hold under the
    hypotheses).
    """

    family: CliqueFamily
    m: int
    classes: tuple[tuple[int, ...], ...]
    quasi_cliques: tuple[frozenset[int], ...]
    warnings: tuple[str, ...] = field(default=())

    def to_json_obj(self) -> dict:
        return {
            "threshold": self.family.threshold,
            "m": self.m,
            "classes": [
                {
                    "cliques": [sorted(self.family.cliques[i]) for i in cls],
                    "quasi_clique": sorted(q),
                }
                for cls, q in zip(self.classes, self.quasi_cliques)
            ],
            "warnings": list(self.warnings),
        }


def maximal_cliques(g: Graph, n: int) -> CliqueFamily:
    """All maximal cliques of g with at least n vertices (Bron-Kerbosch, pivoting).

    Deterministic: the family is sorted by the sorted vertex tuples.  Raises
    UnsupportedSizeError past CLIQUE_ORDER_CAP vertices or CLIQUE_COUNT_CAP cliques.
    """
    if n < 1:
        raise ValueError("threshold must be >= 1")
    if g.n > CLIQUE_ORDER_CAP:
        raise UnsupportedSizeError(f"graph order {g.n} exceeds clique cap {CLIQUE_ORDER_CAP}")
    bits = g.bits()
    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            if r.bit_count() >= n:
                found.append(r)
                if len(found) > CLIQUE_COUNT_CAP:
                    raise UnsupportedSizeError(
                        f"more than {CLIQUE_COUNT_CAP} maximal cliques of size >= {n}"
                    )
            return
        if r.bit_count() + p.bit_count() < n:
            return
        # pivot: vertex of P | X with the most neighbors inside P
        best, best_cnt = -1, -1
        px = p | x
        while px:
            b = px & -px
            px ^= b
            u = b.bit_length() - 1
            cnt = (p & bits[u]).bit_count()
            if cnt > best_cnt:
                best, best_cnt = u, cnt
        cand = p & ~bits[best]
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            expand(r | b, p & bits[v], x & bits[v])
            p &= ~b
            x |= b

    expand(0, (1 << g.n) - 1, 0)
    cliques = sorted(
        (frozenset(i for i in range(g.n) if mask >> i & 1) for mask in found),
        key=lambda s: tuple(sorted(s)),
    )
    return CliqueFamily(graph=g, threshold=n, cliques=tuple(cliques))


def quasi_clique(g: Graph, clique: frozenset[int], m: int) -> frozenset[int]:
    """Vertices of g with at most m-1 non-neighbors in `clique` (a vertex of
    the clique does not count against itself)."""
    bits = g.bits()
    cmask = sum(1 << w for w in clique)
    return frozenset(
        v for v in range(g.n) if (cmask & ~(bits[v] | 1 << v)).bit_count() <= m - 1
    )


def hypothesis_report(g: Graph, m: int, n: int) -> list[str]:
    """Warnings for violated hypotheses (n >= (m+1)^2, no induced K~_{2m})."""
    warnings = []
    if n < (m + 1) ** 2:
        warnings.append(f"threshold n={n} below (m+1)^2={(m + 1) ** 2}")
    present, _ = contains_induced(g, k_tilde(m))
    if present:
        warnings.append(f"graph contains an induced K~_{2 * m}")
    return warnings


def partition_classes(fam: CliqueFamily, m: int) -> CliquePartition:
    """Classes of the mutual-non-neighbor relation over a clique family.

    Each clique's quasi-clique is computed once, and two cliques are related
    when each lies in the other's quasi-clique.  The relation is held as bit
    rows over the clique indices, and its classes (the transitive closure of
    the pairwise predicate) are their connected components, in order of
    least index, members sorted.  When the predicate fails to be transitive
    on a class (possible only when the hypotheses are violated), a warning is
    recorded for each unrelated pair.  A class's quasi-clique is that of its
    lexicographically least representative, and every other
    representative's is compared with it: a class where they differ gets one
    warning, or raises ConsistencyError when the hypotheses hold and nothing
    else was warned about.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    g = fam.graph
    warnings = hypothesis_report(g, m, fam.threshold)

    quasis = [quasi_clique(g, c, m) for c in fam.cliques]
    t = len(fam.cliques)
    related = [0] * t  # bit rows of the relation, one per clique
    for i in range(t):
        for j in range(i + 1, t):
            if fam.cliques[i] <= quasis[j] and fam.cliques[j] <= quasis[i]:
                related[i] |= 1 << j
                related[j] |= 1 << i
    classes = tuple(members(comp) for comp in components(related))

    for cls in classes:
        for a in range(len(cls)):
            for b in range(a + 1, len(cls)):
                if not related[cls[a]] >> cls[b] & 1:
                    warnings.append(
                        f"relation not transitive on class {cls} "
                        f"(cliques {cls[a]} and {cls[b]} unrelated)"
                    )

    for cls in classes:
        if any(quasis[other] != quasis[cls[0]] for other in cls[1:]):
            if not warnings:
                raise ConsistencyError(
                    "quasi-clique depends on the representative although the hypotheses hold"
                )
            warnings.append(f"quasi-clique differs across representatives in class {cls}")

    return CliquePartition(
        family=fam,
        m=m,
        classes=classes,
        quasi_cliques=tuple(quasis[cls[0]] for cls in classes),  # cls[0] is lex-least
        warnings=tuple(warnings),
    )


def associate(g: Graph, m: int, n: int) -> tuple[HoffmanGraph, CliquePartition]:
    """Associated Hoffman graph: g as slim part, one fat vertex per class.

    Fat vertex i (appended after the g vertices, in class order) is adjacent
    to exactly the quasi-clique of class i, which `partition_classes` checks
    against every representative of its class.  Requires n >= (m+1)^2.
    """
    if n < (m + 1) ** 2:
        raise ValueError(f"n must be at least (m+1)^2 = {(m + 1) ** 2}")
    fam = maximal_cliques(g, n)
    part = partition_classes(fam, m)
    return HoffmanGraph.with_fats(g, part.quasi_cliques), part
