"""Maximal cliques, the mutual-non-neighbor relation, quasi-cliques."""

import random
from itertools import combinations

import pytest

from regspectra import association
from regspectra.construct import complete, cycle, petersen, random_graph
from regspectra.errors import UnsupportedSizeError
from regspectra.graphs import Graph
from regspectra.hoffman import attach_universal_fat, catalog, fatten


def brute_maximal_cliques(g: Graph, n: int):
    """Oracle: subset enumeration (order <= 10 or so)."""
    out = []
    for size in range(n, g.n + 1):
        for combo in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                if not any(
                    all(g.has_edge(w, v) for v in combo) for w in range(g.n) if w not in combo
                ):
                    out.append(frozenset(combo))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def test_maximal_cliques_examples():
    fam = association.maximal_cliques(complete(5), 3)
    assert len(fam) == 1 and fam.cliques[0] == frozenset(range(5))
    assert len(association.maximal_cliques(cycle(5), 3)) == 0
    g = fatten(attach_universal_fat(complete(2)), 10)
    fam = association.maximal_cliques(g, 5)
    assert len(fam) == 1 and len(fam.cliques[0]) == 12


def test_maximal_cliques_against_oracle():
    rng = random.Random(404)
    for _ in range(25):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        n = rng.randint(1, 4)
        fam = association.maximal_cliques(g, n)
        assert list(fam.cliques) == brute_maximal_cliques(g, n)


def test_clique_caps(monkeypatch):
    # the caps are read at call time
    monkeypatch.setattr(association, "CLIQUE_ORDER_CAP", 4)
    with pytest.raises(UnsupportedSizeError, match="exceeds clique cap 4"):
        association.maximal_cliques(complete(5), 1)
    monkeypatch.undo()
    # cocktail-party graphs have 2^(n/2) maximal cliques
    from regspectra.construct import complete_multipartite

    monkeypatch.setattr(association, "CLIQUE_COUNT_CAP", 10)
    g = complete_multipartite([2] * 6)
    with pytest.raises(UnsupportedSizeError, match="more than 10 maximal cliques"):
        association.maximal_cliques(g, 1)


def test_partition_disjoint_cliques():
    # two disjoint cliques with nothing between them are never related
    from regspectra.construct import disjoint_union

    g = disjoint_union(complete(4), complete(4))
    fam = association.maximal_cliques(g, 4)
    assert len(fam) == 2
    assert association.partition_classes(fam, 3).classes == ((0,), (1,))


def test_partition_overlapping_cliques():
    # two size-4 cliques sharing all but one vertex; privates non-adjacent,
    # so each has one non-neighbour in the other: related iff m >= 2
    edges = [(u, v) for u, v in combinations(range(4), 2)]  # K4 on 0..3
    edges += [(u, 4) for u in (1, 2, 3)]  # 4 joined to 1,2,3 but not 0
    g = Graph.from_edges(5, edges)
    fam = association.maximal_cliques(g, 4)
    assert len(fam) == 2
    assert association.partition_classes(fam, 2).classes == ((0, 1),)
    assert association.partition_classes(fam, 1).classes == ((0,), (1,))


def test_quasi_clique_contains_representative():
    rng = random.Random(3030)
    for _ in range(15):
        h = catalog()[rng.randrange(len(catalog()))][1]
        g = fatten(h, rng.randint(9, 12))
        fam = association.maximal_cliques(g, 9)
        for c in fam.cliques:
            q = association.quasi_clique(g, c, 2)
            assert c <= q


def test_partition_and_warnings():
    # hypotheses violated: n < (m+1)^2 gets a warning but still partitions
    g = complete(6)
    fam = association.maximal_cliques(g, 3)
    part = association.partition_classes(fam, 2)
    assert any("below" in w for w in part.warnings)
    assert len(part.classes) == 1
    # clean instance: no warnings
    g = fatten(attach_universal_fat(complete(2)), 10)
    fam = association.maximal_cliques(g, 9)
    part = association.partition_classes(fam, 2)
    assert part.warnings == ()
    assert part.quasi_cliques[0] == frozenset(range(12))


def test_two_far_apart_classes():
    # two fat vertices with far-apart quasi-cliques give two classes
    h = catalog()[7][1]  # slim K2 with pendant fats at each end
    g = fatten(h, 10)
    fam = association.maximal_cliques(g, 9)
    part = association.partition_classes(fam, 2)
    assert len(part.classes) == 2


def test_representative_independence_under_hypotheses():
    rng = random.Random(252)
    tested = 0
    while tested < 30:
        h = catalog()[rng.randrange(len(catalog()))][1]
        g = fatten(h, rng.randint(9, 13))
        if association.hypothesis_report(g, 2, 9):
            continue
        fam = association.maximal_cliques(g, 9)
        part = association.partition_classes(fam, 2)
        for cls, q in zip(part.classes, part.quasi_cliques):
            for idx in cls:
                assert association.quasi_clique(g, fam.cliques[idx], 2) == q
        tested += 1


def test_associate():
    # no clique of size n: zero fat vertices, graph unchanged
    hg, part = association.associate(petersen(), 2, 9)
    assert hg.fat_vertices() == [] and hg.graph == petersen()
    # K_t with t >= n: one universal fat vertex
    hg, part = association.associate(complete(9), 2, 9)
    assert len(hg.fat_vertices()) == 1
    f = hg.fat_vertices()[0]
    assert sorted(hg.graph.neighbors(f)) == list(range(9))
    assert hg.is_valid()
    with pytest.raises(ValueError):
        association.associate(complete(9), 2, 8)


def test_associate_slim_part_is_input():
    for name, h in catalog()[:5]:
        g = fatten(h, 10)
        hg, _ = association.associate(g, 2, 9)
        slim = hg.slim_vertices()
        assert slim == list(range(g.n))
        assert hg.graph.induced(slim) == g


def test_partition_json():
    g = fatten(attach_universal_fat(complete(2)), 10)
    fam = association.maximal_cliques(g, 9)
    part = association.partition_classes(fam, 2)
    obj = part.to_json_obj()
    assert obj["m"] == 2 and len(obj["classes"]) == 1
    assert obj["classes"][0]["quasi_clique"] == list(range(12))


def test_non_transitive_relation_warnings():
    # a strip of four triangles (edges |u - w| <= 2 on 0..5) plus a separate
    # triangle: each triangle is related to its strip neighbours only, so the
    # strip's class holds unrelated pairs, each warned about in index order,
    # and its triangles' quasi-cliques differ, warned about once for the class
    edges = [(u, w) for u in range(6) for w in range(u + 1, min(u + 3, 6))]
    g = Graph.from_edges(9, edges + [(6, 7), (6, 8), (7, 8)])
    fam = association.maximal_cliques(g, 3)
    part = association.partition_classes(fam, 2)
    assert part.classes == ((0, 1, 2, 3), (4,))
    assert part.quasi_cliques == (frozenset({0, 1, 2, 3}), frozenset({6, 7, 8}))
    strip = "relation not transitive on class (0, 1, 2, 3)"
    assert part.warnings == (
        "threshold n=3 below (m+1)^2=9",
        f"{strip} (cliques 0 and 2 unrelated)",
        f"{strip} (cliques 0 and 3 unrelated)",
        f"{strip} (cliques 1 and 3 unrelated)",
        "quasi-clique differs across representatives in class (0, 1, 2, 3)",
    )
