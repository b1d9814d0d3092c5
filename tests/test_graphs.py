"""Graph type, constructions, and structural queries."""

import math
import random

import numpy as np
import pytest

from regspectra.construct import (
    complement,
    complete,
    complete_bipartite,
    complete_multipartite,
    coclique_extension,
    cycle,
    disjoint_union,
    edgeless,
    k_tilde,
    line_graph,
    path,
    petersen,
    random_graph,
)
from regspectra.graphs import (
    Graph,
    contains_induced,
    diameter,
    distance_layers,
    reach,
    regularity_params,
    twin_classes,
)
from regspectra.hoffman import catalog, fatten
from oracles import (
    bfs_distance_layers,
    bfs_pair_data,
    contains_induced_bruteforce,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(np.zeros((0, 0), dtype=bool))
    with pytest.raises(ValueError):
        Graph(np.array([[0, 1], [0, 0]], dtype=bool))  # not symmetric
    with pytest.raises(ValueError):
        Graph(np.eye(2, dtype=bool))  # loops
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError, match=r"repeated edge \(0, 1\)"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    # one bad entry in an otherwise valid 8x8 matrix is enough
    asymmetric = cycle(8).adj.copy()
    asymmetric[1, 6] = True
    with pytest.raises(ValueError, match="symmetric"):
        Graph(asymmetric)
    looped = cycle(8).adj.copy()
    looped[7, 7] = True
    with pytest.raises(ValueError, match="zero diagonal"):
        Graph(looped)


def test_adjacency_is_frozen():
    g = complete(3)
    with pytest.raises(ValueError):
        g.adj[0, 1] = False


def test_complete_multipartite():
    assert complete_multipartite([1, 1, 1]) == complete(3)
    assert complete(3).num_edges() == 3
    kkk = complete_multipartite([4, 4])
    assert set(kkk.degrees()) == {4} and kkk.n == 8
    k23 = complete_multipartite([2, 3])
    assert k23.num_edges() == 6
    assert sorted(k23.degrees(), reverse=True) == [3, 3, 2, 2, 2]
    with pytest.raises(ValueError):
        complete_multipartite([])
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])


def test_line_graph():
    from regspectra.search import canonical_form

    assert canonical_form(line_graph(complete(3))).certificate == \
        canonical_form(complete(3)).certificate
    star = complete_bipartite(1, 3)
    assert canonical_form(line_graph(star)).certificate == \
        canonical_form(complete(3)).certificate
    lk23 = line_graph(complete_bipartite(2, 3))
    assert lk23.n == 6 and set(lk23.degrees()) == {3}
    with pytest.raises(ValueError):
        line_graph(edgeless(4))


def test_line_graph_handshake():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng.randint(2, 8), 0.5, rng)
        if g.num_edges() == 0:
            continue
        lg = line_graph(g)
        assert lg.n == g.num_edges()
        for i, (u, v) in enumerate(g.edges()):
            assert lg.degree(i) == g.degree(u) + g.degree(v) - 2


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        assert complement(complement(g)) == g
    assert complement(complete(5)) == edgeless(5)
    c5 = cycle(5)
    from regspectra.search import canonical_form

    assert canonical_form(complement(c5)).certificate == canonical_form(c5).certificate


def test_complement_regular_degree():
    g = complete_bipartite(3, 3)
    co = complement(g)
    assert set(co.degrees()) == {g.n - 3 - 1}


def test_k_tilde():
    with pytest.raises(ValueError):
        k_tilde(0)
    from regspectra.search import canonical_form

    assert canonical_form(k_tilde(1)).certificate == canonical_form(path(3)).certificate
    g = k_tilde(2)
    assert g.n == 5
    assert sorted(g.degrees(), reverse=True) == [4, 4, 3, 3, 2]


def test_coclique_extension_kronecker():
    rng = random.Random(3)
    for _ in range(15):
        g = random_graph(rng.randint(1, 6), 0.5, rng)
        q = rng.randint(1, 3)
        ext = coclique_extension(g, q)
        # bit-level check: adjacency is exactly A (x) J_q
        assert np.array_equal(ext.adj, np.kron(g.adj, np.ones((q, q), dtype=bool)))
        assert ext.n == q * g.n
        assert ext.degrees() == [q * d for d in g.degrees() for _ in range(q)]
    assert coclique_extension(complete(2), 2) == complete_bipartite(2, 2)
    with pytest.raises(ValueError):
        coclique_extension(complete(2), 0)


def test_coclique_extension_identity():
    g = petersen()
    assert coclique_extension(g, 1) == g


def test_distance_layers():
    g = complete(5)
    dl = distance_layers(g, 0)
    assert dl.eccentricity == 1 and len(dl.layers[1]) == 4
    c6 = cycle(6)
    dl = distance_layers(c6, 0)
    assert [len(l) for l in dl.layers] == [1, 2, 2, 1]
    p = petersen()
    dl = distance_layers(p, 0)
    assert [len(l) for l in dl.layers] == [1, 3, 6]
    assert diameter(p) == 2
    with pytest.raises(ValueError):
        distance_layers(c6, 6)


def test_distance_layers_partition_property():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng.randint(1, 9), rng.random() * 0.7, rng)
        for x in range(g.n):
            dl = distance_layers(g, x)
            total = sum(len(l) for l in dl.layers) + len(dl.unreached)
            assert total == g.n
            # every edge joins same or adjacent layers
            depth = {}
            for d, layer in enumerate(dl.layers):
                for v in layer:
                    depth[v] = d
            for u, v in g.edges():
                if u in depth and v in depth:
                    assert abs(depth[u] - depth[v]) <= 1


def test_disconnected_layers():
    g = disjoint_union(complete(3), complete(2))
    dl = distance_layers(g, 0)
    assert sorted(dl.unreached) == [3, 4]
    assert diameter(g) == math.inf


def test_contains_induced_basics():
    g = cycle(5)
    found, wit = contains_induced(g, path(3))
    assert found and wit is not None
    sub = g.induced(wit)
    assert sub.num_edges() == 2
    assert contains_induced(complete_bipartite(3, 3), complete(3))[0] is False
    assert contains_induced(g, complete(1))[0] is True
    with pytest.raises(ValueError):
        contains_induced(g, path(3), colours=([0] * 5, [0] * 2))
    with pytest.raises(ValueError):  # checked before the pattern is found larger than the host
        contains_induced(path(3), complete(5), colours=([0] * 2, [0]))


def _twin_rich_cases(rng):
    """(host, pattern) pairs whose hosts, and often patterns, have large twin
    classes: fattened Hoffman graphs, coclique extensions, complete
    multipartite graphs, and K~ patterns."""
    hosts = [g for g in (fatten(h, p) for _, h in catalog() for p in (1, 2)) if g.n <= 8]
    hosts += [coclique_extension(random_graph(rng.randint(1, 4), rng.random(), rng), 2) for _ in range(6)]
    hosts += [complete_multipartite(parts) for parts in ([2, 2], [1, 2, 3], [3, 4], [2, 2, 2, 1])]
    hosts += [complete(n) for n in (3, 6)]
    patterns = [k_tilde(1), k_tilde(2), complete(3), complete_multipartite([1, 2]), path(3)]
    patterns += [random_graph(rng.randint(1, 4), rng.random(), rng) for _ in range(3)]
    return [(g, h) for g in hosts for h in patterns]


def _colourings(rng, g, h):
    """No colours, then two random 2-colourings, which often split twin classes
    on either side; a twin rule blind to colour fails on those."""
    yield None
    for _ in range(2):
        yield [rng.randint(0, 1) for _ in range(g.n)], [rng.randint(0, 1) for _ in range(h.n)]


# Twins of different colours, each contained, where a colour-blind twin rule
# errs: in the first and third the pattern's twins must map in decreasing
# host order, and in the second host vertex 1 is the only one of its colour
# although vertex 0 is its twin.
_SPLIT_TWINS = [
    (complete(2), complete(2), ([1, 0], [0, 1])),
    (complete(2), complete(1), ([0, 1], [1])),
    (complete(3), complete(2), ([1, 0, 1], [0, 1])),
    (complete_bipartite(2, 2), edgeless(2), ([1, 0, 0, 1], [0, 1])),
]


def test_contains_induced_witness_is_induced():
    rng = random.Random(17)
    cases = []
    for _ in range(30):
        g = random_graph(rng.randint(3, 9), rng.random(), rng)
        h = random_graph(rng.randint(1, 4), rng.random(), rng)
        cases.append((g, h, None))
    cases += [(g, h, c) for g, h in _twin_rich_cases(rng) for c in _colourings(rng, g, h)]
    cases += _SPLIT_TWINS
    for g, h, colours in cases:
        found, wit = contains_induced(g, h, colours=colours)
        if found:
            assert len(set(wit)) == h.n
            for a in range(h.n):
                if colours is not None:
                    assert colours[0][wit[a]] == colours[1][a]
                for b in range(a + 1, h.n):
                    assert g.has_edge(wit[a], wit[b]) == h.has_edge(a, b)


def test_contains_induced_oracle_equivalence():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        h = random_graph(rng.randint(1, 4), rng.random(), rng)
        assert contains_induced(g, h)[0] == contains_induced_bruteforce(g, h)
    for g, h in _twin_rich_cases(rng):
        for colours in _colourings(rng, g, h):
            assert contains_induced(g, h, colours=colours)[0] == contains_induced_bruteforce(
                g, h, colours
            ), (g, h, colours)
    for g, h, colours in _SPLIT_TWINS:
        assert contains_induced(g, h, colours=colours)[0] is True


def test_twin_classes_are_neighborhood_classes():
    # v is in u's class iff N(u) = N(v) or N[u] = N[v]
    rng = random.Random(61)
    graphs = [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(80)]
    graphs += [complete(n) for n in (1, 2, 5, 9)]
    graphs += [complete_bipartite(s, t) for s, t in ((1, 1), (1, 5), (3, 3), (2, 6))]
    graphs += [edgeless(n) for n in (1, 2, 7)]
    for g in graphs:
        bits = g.bits()
        twin = twin_classes(bits)
        for u in range(g.n):
            for v in range(g.n):
                closed = bits[u] | 1 << u == bits[v] | 1 << v
                assert (twin[u] >> v & 1) == (bits[u] == bits[v] or closed), (g, u, v)
    # K~_4: the clique vertices joined to the apex, the others, the apex alone
    assert twin_classes(k_tilde(2).bits()) == [0b00011, 0b00011, 0b01100, 0b01100, 0b10000]


def test_regularity_params():
    pete = regularity_params(petersen())
    assert pete.srg_params() == (10, 3, 0, 1)
    assert pete.strongly_regular and pete.amply_regular and pete.co_edge_regular

    kkk = regularity_params(complete_bipartite(4, 4))
    assert kkk.co_edge_regular and kkk.c2_coedge == 4

    c6 = regularity_params(cycle(6))
    assert c6.is_regular and c6.k == 2 and c6.a1 == 0
    assert c6.amply_regular and c6.c2_dist2 == 1
    assert not c6.co_edge_regular  # distance-3 pairs share 0 neighbors
    assert not c6.strongly_regular

    comp = regularity_params(complete(4))
    assert comp.co_edge_regular and comp.c2_coedge is None  # vacuous

    irr = regularity_params(path(4))
    assert not irr.is_regular and irr.k is None


def test_regularity_params_diameter():
    # the largest eccentricity over the BFS frontiers: math.inf when disconnected
    assert regularity_params(disjoint_union(cycle(3), cycle(4))).diameter == math.inf
    assert regularity_params(edgeless(1)).diameter == 0
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        assert regularity_params(g).diameter == diameter(g)


def test_petersen_complement_params():
    rp = regularity_params(complement(petersen()))
    assert rp.srg_params() == (10, 6, 3, 4)


def test_induced_and_relabel():
    g = petersen()
    sub = g.induced([0, 1, 2])
    assert sub.num_edges() == 2
    perm = list(range(10))
    random.Random(1).shuffle(perm)
    rg = g.relabel(perm)
    assert rg.num_edges() == g.num_edges()
    assert sorted(rg.degrees()) == sorted(g.degrees())
    with pytest.raises(ValueError):
        g.relabel([0, 0] + list(range(2, 10)))


def test_reach_matches_bfs_layers():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 14)
        g = random_graph(n, rng.random() * 0.4, rng)
        bits = g.bits()
        assert bits == tuple(sum(1 << w for w in g.neighbors(u)) for u in range(n))
        for s in range(n):
            dl = bfs_distance_layers(g, s)
            full = sum(1 << v for layer in dl.layers for v in layer)
            assert reach(bits, s) == full
            stop = rng.getrandbits(n)
            part = reach(bits, s, stop)
            assert part & ~full == 0  # never beyond the component
            if full & stop:
                assert part & stop  # a reachable stop vertex is always found
            else:
                assert part == full  # no stop vertex: the whole component
        assert g.is_connected() == (not bfs_distance_layers(g, 0).unreached)


def test_bfs_queries_match_queue_oracle():
    # distance layers, diameter and the regularity data against a vertex-queue
    # BFS and the integer A @ A, on connected and disconnected graphs
    rng = random.Random(31)
    graphs = [random_graph(rng.randint(1, 12), rng.random() * rng.choice([0.3, 1.0]), rng)
              for _ in range(200)]
    graphs += [disjoint_union(cycle(3), cycle(4)), disjoint_union(complete(3), edgeless(2))]
    for g in graphs:
        for x in range(g.n):
            assert distance_layers(g, x) == bfs_distance_layers(g, x)
        want = bfs_pair_data(g)
        assert diameter(g) == want["diameter"]
        rp = regularity_params(g)
        assert rp.diameter == want["diameter"]
        assert rp.a1 == (min(want["a1"]) if len(want["a1"]) == 1 else None)
        assert rp.c2_coedge == (min(want["coedge"]) if len(want["coedge"]) == 1 else None)
        assert rp.c2_dist2 == (min(want["dist2"]) if len(want["dist2"]) == 1 else None)
        assert rp.dist2_common_min == (min(want["dist2"]) if want["dist2"] else None)
        assert rp.dist2_common_max == (max(want["dist2"]) if want["dist2"] else None)
        assert rp.edge_regular == (rp.is_regular and len(want["a1"]) <= 1)
        assert rp.co_edge_regular == (rp.is_regular and len(want["coedge"]) <= 1)
        amply = rp.is_regular and len(want["a1"]) <= 1 and len(want["dist2"]) <= 1
        assert rp.amply_regular == amply
        assert rp.strongly_regular == (amply and want["diameter"] == 2)
