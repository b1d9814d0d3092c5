"""Hoffman graphs: validation, special matrices, fattening, containment."""

import json
import random

import numpy as np
import pytest

from regspectra.construct import complement, complete, cycle, edgeless, random_graph
from regspectra.graphs import Graph, contains_induced
from regspectra.hoffman import (
    HoffmanGraph,
    attach_universal_fat,
    catalog,
    contains_hoffman_subgraph,
    fatten,
    fattening_lambda_min_sequence,
    slim_with_fats,
)
from oracles import contains_induced_bruteforce, fattening_lambda_min_reference
from regspectra import hoffman, kernel
from regspectra.spectra import eig_symmetric


def test_validate():
    assert HoffmanGraph(complete(4)).validate() == []
    # two adjacent fat vertices
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    bad = HoffmanGraph(g, fat=[1, 2])
    assert any("adjacent" in msg for msg in bad.validate())
    # isolated fat vertex
    g = Graph.from_edges(2, [])
    bad = HoffmanGraph(g, fat=[1])
    assert any("no slim neighbor" in msg for msg in bad.validate())
    with pytest.raises(ValueError):
        HoffmanGraph(g, fat=[5])
    # a repeated id would be merged into one fat vertex
    with pytest.raises(ValueError, match="repeated fat vertex 2"):
        HoffmanGraph.from_json_obj({"order": 3, "edges": [[0, 1], [0, 2], [1, 2]], "fat": [2, 2]})


def test_special_matrix_examples():
    # all slim: S = A_slim
    hs = HoffmanGraph(cycle(4))
    assert hs.special_matrix().dtype == np.int64
    assert np.array_equal(hs.special_matrix(), cycle(4).adj)
    # one slim vertex with s fat neighbors: S = [-s]
    for s in (1, 2, 3):
        h = slim_with_fats(s)
        assert h.special_matrix().tolist() == [[-s]]
        assert abs(h.lambda_min() + s) < 1e-12
    # q(K2): two adjacent slims sharing one fat: S = -I
    h = attach_universal_fat(complete(2))
    assert h.special_matrix().tolist() == [[-1, 0], [0, -1]]
    assert abs(h.lambda_min() + 1) < 1e-12


def test_special_matrix_diagonal_is_fat_degree():
    rng = random.Random(61)
    for _ in range(20):
        s = rng.randint(1, 5)
        slim = random_graph(s, rng.random(), rng)
        fats = [rng.sample(range(s), rng.randint(1, s)) for _ in range(rng.randint(0, 3))]
        n = s + len(fats)
        a = np.zeros((n, n), dtype=bool)
        a[:s, :s] = slim.adj
        for j, group in enumerate(fats):
            for w in group:
                a[s + j, w] = a[w, s + j] = True
        h = HoffmanGraph(Graph(a), fat=range(s, n))
        sm = h.special_matrix()
        for i in range(s):
            fat_deg = sum(1 for j, group in enumerate(fats) if i in group)
            assert sm[i, i] == -fat_deg


def test_invalid_special_matrix_raises():
    g = Graph.from_edges(2, [])
    with pytest.raises(ValueError):
        HoffmanGraph(g, fat=[1]).special_matrix()


def test_universal_fat_identity_exact_form():
    # lambda_min(q(H)) = -1 - lambda_max(co-H), exactly (to solver accuracy)
    rng = random.Random(515)
    worst = 0.0
    for _ in range(100):
        h = random_graph(rng.randint(1, 10), rng.random(), rng)
        gap = abs(attach_universal_fat(h).lambda_min() + 1.0 + eig_symmetric(complement(h))[0])
        worst = max(worst, gap)
    assert worst <= 1e-8


def test_universal_fat_edgeless_and_isolated():
    # edgeless H on n vertices: co-H = K_n, so lambda_min(q(H)) = -n
    for n in (2, 4, 7):
        assert abs(attach_universal_fat(edgeless(n)).lambda_min() + n) < 1e-9
    # H with an isolated vertex on n vertices: lambda_min(q(H)) <= -sqrt(n-1)
    rng = random.Random(77)
    for _ in range(20):
        base = random_graph(rng.randint(1, 8), rng.random(), rng)
        n = base.n + 1
        a = np.zeros((n, n), dtype=bool)
        a[: base.n, : base.n] = base.adj
        h = Graph(a)
        assert attach_universal_fat(h).lambda_min() <= -((n - 1) ** 0.5) + 1e-9


def test_fatten_basics():
    # all slim: fattening changes nothing
    g = cycle(5)
    assert fatten(HoffmanGraph(g), 7) == g
    # q(K1) with p = 2 gives a triangle
    tri = fatten(attach_universal_fat(complete(1)), 2)
    assert tri == complete(3)
    with pytest.raises(ValueError):
        fatten(attach_universal_fat(complete(1)), 0)


def test_fatten_order_and_interlacing_chain():
    for name, h in catalog()[:6]:
        lm = h.lambda_min()
        seq = fattening_lambda_min_sequence(h, 12)
        slim = len(h.slim_vertices())
        fatc = len(h.fat_vertices())
        assert fatten(h, 3).n == slim + 3 * fatc
        for i in range(len(seq) - 1):
            assert seq[i + 1] <= seq[i] + 1e-9, name
        assert all(x >= lm - 1e-9 for x in seq), name


def test_fattening_sequence_matches_fattened_graphs():
    # the quotient identity against eigensolving each G(h, p) whole
    cases = [(h, 30) for _, h in catalog()]
    rng = random.Random(2525)
    for _ in range(40):
        s = rng.randint(1, 5)
        slim = random_graph(s, rng.random(), rng)
        fats = [rng.sample(range(s), rng.randint(1, s)) for _ in range(rng.randint(0, 3))]
        cases.append((HoffmanGraph.with_fats(slim, fats), 12))
    assert any(not h.fat for h, _ in cases)
    for h, p_max in cases:
        got = fattening_lambda_min_sequence(h, p_max)
        want = fattening_lambda_min_reference(h, p_max)
        assert len(got) == p_max
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-10, h


def test_fattening_sequence_solves_only_the_quotient(monkeypatch):
    # the sequence is one kernel call on a stack of the 30 quotients, each of
    # order at most s + f, and no fattened graph
    shapes, fattened = [], []
    solve = kernel.sym_eigenvalues

    def recording_solve(matrix):
        shapes.append(np.shape(matrix))
        return solve(matrix)

    monkeypatch.setattr(kernel, "sym_eigenvalues", recording_solve)
    monkeypatch.setattr(hoffman, "fatten", lambda *args: fattened.append(args))
    for name, h in catalog():
        shapes.clear()
        fattening_lambda_min_sequence(h, 30)
        assert len(shapes) == 1, name
        count, order, _ = shapes[0]
        assert count == 30 and order <= h.n, name
    assert fattened == []


def test_fattening_sequence_rejects_invalid():
    bad = HoffmanGraph(Graph.from_edges(2, []), fat=[1])
    with pytest.raises(ValueError, match="invalid Hoffman graph"):
        fattening_lambda_min_sequence(bad, 3)
    # fatten refuses it too, and both refuse two adjacent fat vertices
    adjacent_fats = HoffmanGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), fat=[1, 2])
    for h in (bad, adjacent_fats):
        with pytest.raises(ValueError, match="invalid Hoffman graph"):
            fatten(h, 2)
        with pytest.raises(ValueError, match="invalid Hoffman graph"):
            fattening_lambda_min_sequence(h, 3)


def test_contains_hoffman_subgraph():
    qk3 = attach_universal_fat(complete(3))
    qk2 = attach_universal_fat(complete(2))
    found, wit = contains_hoffman_subgraph(qk3, qk2)
    assert found
    assert qk2.lambda_min() >= qk3.lambda_min() - 1e-9
    # single slim pattern embeds anywhere slim exists
    single = HoffmanGraph(complete(1))
    assert contains_hoffman_subgraph(qk3, single)[0]
    # self-containment
    assert contains_hoffman_subgraph(qk3, qk3)[0]
    # label-respecting: an all-slim triangle is NOT inside q(K2) (whose K3 has a fat vertex)
    tri_slim = HoffmanGraph(complete(3))
    assert not contains_hoffman_subgraph(qk2, tri_slim)[0]


def test_contains_hoffman_witness_labels():
    h = catalog()[7][1]  # K2 + two pendant fats
    big = fatten(h, 1)  # p=1 keeps a valid plain graph; rebuild as Hoffman host
    from regspectra.association import associate

    host, _ = associate(fatten(h, 10), 2, 9)
    found, wit = contains_hoffman_subgraph(host, h)
    assert found
    for v in range(h.n):
        assert host.is_fat(wit[v]) == h.is_fat(v)


def _small_hoffman(rng: random.Random, order: int) -> HoffmanGraph:
    """A valid Hoffman graph on `order` vertices with at least one slim vertex."""
    s = rng.randint(1, order)
    slim = random_graph(s, rng.random(), rng)
    fats = [rng.sample(range(s), rng.randint(1, s)) for _ in range(order - s)]
    return HoffmanGraph.with_fats(slim, fats)


def test_coloured_containment_matches_oracle():
    # fat/slim labels as the two colours: the coloured matcher, the Hoffman
    # wrapper and the brute-force oracle must agree
    rng = random.Random(606)
    hits = 0
    for _ in range(60):
        host = _small_hoffman(rng, rng.randint(1, 8))
        if rng.random() < 0.5:
            pattern = _small_hoffman(rng, rng.randint(1, 4))
        else:  # an induced piece of the host, so that most of these are present
            vs = rng.sample(range(host.n), rng.randint(1, min(4, host.n)))
            fat = [i for i, v in enumerate(vs) if host.is_fat(v)]
            pattern = HoffmanGraph(host.graph.induced(vs), fat=fat)
        colours = (
            [host.is_fat(v) for v in range(host.n)],
            [pattern.is_fat(v) for v in range(pattern.n)],
        )
        found, wit = contains_induced(host.graph, pattern.graph, colours=colours)
        assert found == contains_induced_bruteforce(host.graph, pattern.graph, colours)
        if found:
            assert host.graph.induced(wit) == pattern.graph
            assert all(host.is_fat(w) == pattern.is_fat(i) for i, w in enumerate(wit))
            hits += 1
        if pattern.is_valid():
            assert contains_hoffman_subgraph(host, pattern) == (found, wit)
    assert 0 < hits < 60


def test_catalog_valid_and_sized():
    entries = catalog()
    assert len(entries) >= 10
    for name, h in entries:
        assert h.is_valid(), name
        assert len(h.slim_vertices()) <= 4, name
        assert len(h.fat_vertices()) <= 3, name


def test_json_round_trip():
    for name, h in catalog():
        obj = h.to_json_obj()
        back = HoffmanGraph.from_json_obj(json.loads(json.dumps(obj)))
        assert back.graph == h.graph and back.fat == h.fat


def test_all_slim_lambda_min_equals_graph():
    for g in (cycle(5), complete(4)):
        assert abs(HoffmanGraph(g).lambda_min() - eig_symmetric(g)[-1]) < 1e-12
