"""Canonical labeling, isomorph-free generation, and the extremal search."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from regspectra import search
from regspectra.construct import (
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    line_graph,
    path,
    petersen,
    random_graph,
)
from regspectra.errors import ConsistencyError, UnsupportedSizeError
from regspectra.formats import from_graph6, to_graph6
from regspectra.graphs import Graph, members, reach
from regspectra.spectra import eig_symmetric, eigenvalue_at_most, spectrum_is

from oracles import (
    bfs_distance_layers,
    brute_force_certificate,
    enumerate_all_graphs_reference,
    invariant_reference,
    leaf_key_reference,
    leaf_orders_reference,
)
import parity_grid


def test_canonical_relabel_invariance():
    rng = random.Random(1234)
    for _ in range(40):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        cert = search.canonical_form(g).certificate
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert search.canonical_form(g.relabel(perm)).certificate == cert


def test_canonical_labeling_realizes_certificate():
    rng = random.Random(88)
    for _ in range(20):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        cf = search.canonical_form(g)
        assert to_graph6(g.relabel(cf.labeling)) == cf.certificate
        assert from_graph6(cf.certificate).n == g.n


def test_canonical_distinguishes():
    # the two 3-regular graphs of order 6 (prism and K_{3,3}) get distinct
    # certificates, and one of them is K_{3,3}
    a, b = search.enum_connected_regular(3, 6)
    k33 = search.canonical_form(complete_bipartite(3, 3)).certificate
    certs = {search.canonical_form(a).certificate, search.canonical_form(b).certificate}
    assert len(certs) == 2 and k33 in certs
    assert search.canonical_form(cycle(6)).certificate not in certs


def test_canonical_highly_symmetric():
    # twin-heavy inputs must stay cheap and correct
    for g in (complete(12), complete_bipartite(6, 6), complete_multipartite([3, 3, 3, 3])):
        cert = search.canonical_form(g).certificate
        perm = list(range(g.n))
        random.Random(5).shuffle(perm)
        assert search.canonical_form(g.relabel(perm)).certificate == cert
    with pytest.raises(UnsupportedSizeError):
        search.canonical_form(complete(65))


def test_canonical_matches_bruteforce_classifier_n4():
    # on all graphs of order 4: identical partitioning into classes
    graphs = []
    for mask in range(1 << 6):
        edges = []
        for idx, (u, v) in enumerate(combinations(range(4), 2)):
            if mask >> idx & 1:
                edges.append((u, v))
        graphs.append(Graph.from_edges(4, edges))
    ours = [search.canonical_form(g).certificate for g in graphs]
    brute = [brute_force_certificate(g) for g in graphs]
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert (ours[i] == ours[j]) == (brute[i] == brute[j])
    assert len(set(ours)) == len(set(brute)) == 11


def test_canonical_matches_bruteforce_classifier_n5():
    graphs = []
    for mask in range(1 << 10):
        edges = []
        for idx, (u, v) in enumerate(combinations(range(5), 2)):
            if mask >> idx & 1:
                edges.append((u, v))
        graphs.append(Graph.from_edges(5, edges))
    ours = [search.canonical_form(g).certificate for g in graphs]
    brute = [brute_force_certificate(g) for g in graphs]
    assert len(set(ours)) == 34
    assert len(set(brute)) == 34
    seen = {}
    for o, b in zip(ours, brute):
        assert seen.setdefault(o, b) == b  # same classifier partition


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _first_key(g: Graph) -> int:
    return next(search._leaf_orders(g.bits(), g.n))[0]


def test_leaf_key_matches_reference():
    # the sparse key (set bits through a position map) against the pairwise
    # loop, on random graphs of every order 1-64 under random orders
    rng = random.Random(89)
    graphs = [random_graph(n, rng.random(), rng) for n in range(1, 65)]
    graphs += [random_graph(n, 0.5, rng) for n in (63, 64)] + [complete(64), cycle(63)]
    for g in graphs:
        bits = g.bits()
        for _ in range(3):
            order = rng.sample(range(g.n), g.n)
            assert search._leaf_key(bits, order) == leaf_key_reference(bits, order), (g, order)


def test_index_hits_realize_the_class_certificate():
    # the leaf-key sets of distinct classes are disjoint, and every relabelled
    # copy of a class has its first leaf's key in that class's set
    rng = random.Random(17)
    for classes in (search.enum_connected_regular(3, 10), search.enumerate_all_graphs(5)):
        sets = []
        for g in classes:
            keys: set = set()
            assert search.canonical_form(g, keys=keys) == search.canonical_form(g)
            sets.append(keys)
        assert sum(map(len, sets)) == len(set().union(*sets))
        for g, keys in zip(classes, sets):
            for _ in range(4):
                assert _first_key(_relabelled(g, rng)) in keys


def test_index_hits_agree_with_bruteforce_classifier():
    # one dedup pass per order over relabelled copies keeps exactly one
    # candidate of each brute-force class
    rng = random.Random(23)
    five = [_relabelled(g, rng) for g in search.enumerate_all_graphs(5) for _ in range(2)]
    cubic8 = search.enum_connected_regular(3, 8)
    eight = [_relabelled(g, rng) for g in cubic8 + cubic8[:2]]
    for graphs, want in ((five, 34), (eight, 5)):
        count, certs = search._dedup(g.bits() for g in graphs)
        assert count == len(graphs)
        kept = [brute_force_certificate(from_graph6(cert)) for cert in certs]
        assert len(set(kept)) == len(kept) == want
        assert set(kept) == {brute_force_certificate(g) for g in graphs}
        assert set(certs) == {search.canonical_form(g).certificate for g in graphs}


def test_dedup_cross_checks_certificates(monkeypatch):
    # a labelling that records no leaf keys lets a known class through the
    # first-leaf check; its repeated certificate must then be caught
    real = search.canonical_form
    monkeypatch.setattr(search, "canonical_form", lambda rows, keys: real(rows))
    g = petersen()
    with pytest.raises(ConsistencyError, match="missed an isomorphism"):
        search._dedup([g.bits(), _relabelled(g, random.Random(3)).bits()])


def test_enum_walks_once_per_class(monkeypatch):
    # only the first candidate of each class is labelled; every other one
    # stops at its first leaf
    calls = [0]
    real = search.canonical_form

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "canonical_form", counted)
    for (k, n), classes in (((3, 12), 85), ((4, 10), 59)):
        calls[0] = 0
        counts = search.v_search(k, k, n, prune=False).counts
        assert calls[0] == sum(c.classes for c in counts.values()), (k, n)
        assert counts[n].classes == classes < counts[n].candidates, (k, n)


def _refine_reference(bits, cells, splitters=None):
    """The refinement as it was before the single-splitter and mask-building
    shortcuts, kept verbatim as the oracle of `search._refine`."""
    if splitters is None:
        splitters = list(range(len(cells)))
    while splitters:
        masks = [sum(1 << v for v in cells[i]) for i in splitters]
        new_cells = []
        new_splitters = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple((bits[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                for sig in sorted(groups):
                    new_splitters.append(len(new_cells))
                    new_cells.append(groups[sig])
        cells = new_cells
        splitters = new_splitters
    return cells


def _check_refine(bits, cells, rng) -> int:
    """`_refine` against the reference on the ordered partition `cells`, with
    every cell a splitter; then, as `_leaf_orders` seeds it, twice on the
    stable partition with one cell split, by individualizing a vertex or into
    2-4 fragments: the oracle takes every fragment as a splitter, `_refine`
    (its precondition) all but the last.  Returns the number of seeded
    checks."""
    got = search._refine(bits, [list(c) for c in cells])
    stable = _refine_reference(bits, [list(c) for c in cells])
    assert got == stable, (bits, cells)
    wide = [t for t, c in enumerate(stable) if len(c) > 1]
    for _ in range(2 if wide else 0):
        t = rng.choice(wide)
        cell = stable[t]
        if rng.random() < 0.5:
            v = rng.choice(cell)
            fragments = [[v], [w for w in cell if w != v]]
        else:
            shuffled = rng.sample(cell, len(cell))
            cuts = sorted(rng.sample(range(1, len(cell)), rng.randint(1, min(3, len(cell) - 1))))
            fragments = [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(cell)])]
        split = stable[:t] + fragments + stable[t + 1 :]
        seeds = list(range(t, t + len(fragments)))
        got = search._refine(bits, [list(c) for c in split], seeds[:-1])
        want = _refine_reference(bits, [list(c) for c in split], seeds)
        assert got == want, (bits, split, seeds)
    return 2 if wide else 0


def test_refine_matches_reference():
    # random graphs of order 1-14 x random ordered partitions (see
    # `_check_refine`), then dense graphs at the full width
    rng = random.Random(47)
    seeded = 0
    for _ in range(400):
        g = random_graph(rng.randint(1, 14), rng.random(), rng)
        vertices = list(range(g.n))
        rng.shuffle(vertices)
        cuts = sorted(rng.sample(range(1, g.n), rng.randint(0, g.n - 1))) if g.n > 1 else []
        cells = [vertices[a:b] for a, b in zip([0, *cuts], [*cuts, g.n])]
        seeded += _check_refine(g.bits(), cells, rng)
    assert seeded > 300
    # dense graphs of order 60-64 (K_n minus a perfect matching, G(n, p) with
    # p >= 0.9), so the packed signatures carry counts up to 62, the most a
    # vertex of a non-singleton cell can have into one of two or more
    # splitters at n = 64; each partition is one vertex, then the rest in
    # 1-3 random cells
    graphs = [complete_multipartite([2] * (n // 2)) for n in (60, 62, 64)]
    graphs += [random_graph(n, rng.uniform(0.9, 1.0), rng) for n in range(60, 65)]
    widest = 0
    for g in graphs:
        bits = g.bits()
        for parts in (1, 1, 2, 3):
            vertices = rng.sample(range(g.n), g.n)
            cuts = sorted(rng.sample(range(2, g.n), parts - 1)) if parts > 1 else []
            cells = [vertices[a:b] for a, b in zip([0, 1, *cuts], [1, *cuts, g.n])]
            masks = [sum(1 << v for v in c) for c in cells]
            counts = [(bits[v] & m).bit_count() for c in cells if len(c) > 1 for v in c for m in masks]
            widest = max(widest, *counts)
            _check_refine(bits, cells, rng)
    assert widest == 62


def _hypercube3() -> Graph:
    return Graph.from_edges(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])


def test_automorphism_pruned_walk_keeps_first_orders(monkeypatch):
    # the pruned walk yields every leaf key of the full, unpruned tree, first
    # at the same order and in the same sequence; every automorphism it
    # records (the lists its sibling iterators read) is one
    rng = random.Random(31)
    graphs = [petersen(), _hypercube3(), _rook4(), _shrikhande()]
    graphs += [cycle(n) for n in (3, 5, 8, 11)]
    graphs += [complete_bipartite(s, t) for s, t in ((1, 4), (3, 3), (2, 5), (4, 4))]
    graphs += search.enumerate_all_graphs(6)
    graphs += [_relabelled(g, rng) for g in graphs]
    recorded: list = []
    real = search._siblings

    def siblings(cell, path, autos, mates):
        recorded.append(autos)
        return real(cell, path, autos, mates)

    monkeypatch.setattr(search, "_siblings", siblings)
    checked = 0
    for g in graphs:
        bits = g.bits()
        full: dict = {}
        for order in leaf_orders_reference(bits, g.n):
            full.setdefault(search._leaf_key(bits, order), order)
        recorded.clear()
        assert list(search._leaf_orders(bits, g.n)) == list(full.items()), g
        for fixed, sigma in {(f, tuple(s)) for autos in recorded for f, s in autos}:
            assert sorted(sigma) == list(range(g.n))
            assert all(bits[sigma[u]] == sum(1 << sigma[w] for w in range(g.n) if bits[u] >> w & 1)
                       for u in range(g.n))
            assert fixed == sum(1 << u for u in range(g.n) if sigma[u] == u)
            checked += 1
    assert checked > 0


def test_walk_refine_counts(monkeypatch):
    # automorphism pruning: Petersen's whole walk took 191 refinements with
    # the twin rule alone; K_{3,3} (all twins) must not pay for the orbits
    calls = [0]
    real = search._refine

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "_refine", counted)
    for g, most in ((petersen(), 20), (complete_bipartite(3, 3), 9)):
        calls[0] = 0
        search.canonical_form(g)
        assert calls[0] <= most, (g, calls[0])


def test_canonical_form_on_bit_rows():
    rng = random.Random(71)
    graphs = [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(60)]
    graphs += [random_graph(n, 0.5, rng) for n in (62, 63, 64)]  # 63 and 64: long header
    graphs += [complete(63), cycle(64)]
    for g in graphs:
        assert search.canonical_form(g.bits()) == search.canonical_form(g), g
    with pytest.raises(UnsupportedSizeError):
        search.canonical_form(tuple([0] * 65))


def test_enumerate_all_graphs_counts():
    for n, want in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)):
        assert len(search.enumerate_all_graphs(n)) == want


def test_enumerate_all_graphs_matches_unfiltered_extension():
    # the maximum-degree rule loses no class: the same classes, in the same
    # order, as the dedup over every extension
    for n in range(1, 7):
        assert search.enumerate_all_graphs(n) == enumerate_all_graphs_reference(n), n


def test_enumerate_all_graphs_candidates_pinned(monkeypatch):
    # extensions per order 2..7 that reach the dedup; every extension would
    # be 2, 8, 32, 176, 1,088 and 9,984
    counts = []
    real = search._dedup

    def recording(candidates):
        count, certs = real(candidates)
        counts.append(count)
        return count, certs

    monkeypatch.setattr(search, "_dedup", recording)
    search.enumerate_all_graphs(7)
    assert counts == [2, 5, 16, 70, 348, 2690]


def _rows_connected(rows) -> bool:
    """Connectivity of a graph given by bit rows, by the queue-BFS oracle."""
    n = len(rows)
    g = Graph.from_edges(n, [(u, w) for u in range(n) for w in range(u + 1, n) if rows[u] >> w & 1])
    return not bfs_distance_layers(g, 0).unreached


def test_completed_candidates_connected():
    # the completion yields only connected graphs without a test at the leaf:
    # for k >= 1 the last feasibility check, with no unsaturated vertex left,
    # cuts a closed component that is not the whole graph.  The range reaches
    # n = 12 for k <= 3 and n = 10 for k >= 4 since the root rule emits fewer
    # candidates per class
    seen = 0
    for k in range(6):
        for n in range(k + 1, 13 if k < 4 else 11):
            if k * n % 2:
                continue
            for rows in search._candidate_rows(k, n, None):
                assert _rows_connected(rows), (k, n, rows)
                seen += 1
    assert seen > 600
    assert [len(list(search._candidate_rows(0, n, None))) for n in (1, 2, 3)] == [1, 0, 0]


def _labeled_regular_count(k: int, n: int, connected_only: bool) -> int:
    """Independent oracle: complete vertices in index order with NO symmetry
    reduction, counting every labeled graph exactly once."""
    rows = [0] * n
    deg = [0] * n
    count = 0

    def rec(v):
        nonlocal count
        if v == n:
            if all(d == k for d in deg):
                if not connected_only or reach(rows, 0) == (1 << n) - 1:
                    count += 1
            return
        if deg[v] == k:
            rec(v + 1)
            return
        need = k - deg[v]
        cands = [u for u in range(v + 1, n) if deg[u] < k]
        if len(cands) < need:
            return
        for chosen in combinations(cands, need):
            for u in chosen:
                rows[v] |= 1 << u
                rows[u] |= 1 << v
                deg[u] += 1
            deg[v] += need
            rec(v + 1)
            deg[v] -= need
            for u in chosen:
                rows[v] &= ~(1 << u)
                rows[u] &= ~(1 << v)
                deg[u] -= 1

    rec(0)
    return count


def _aut_size(g: Graph) -> int:
    bits = g.bits()
    n = g.n
    count = 0
    for perm in permutations(range(n)):
        if all(
            (bits[u] >> v & 1) == (bits[perm[u]] >> perm[v] & 1)
            for u in range(n)
            for v in range(u + 1, n)
        ):
            count += 1
    return count


def test_enum_small_cases():
    assert len(search.enum_connected_regular(2, 5)) == 1
    assert search.enum_connected_regular(2, 5)[0].num_edges() == 5
    assert len(search.enum_connected_regular(3, 4)) == 1
    assert len(search.enum_connected_regular(3, 6)) == 2
    assert search.enum_connected_regular(3, 5) == []  # parity
    assert len(search.enum_connected_regular(1, 2)) == 1
    assert search.enum_connected_regular(1, 4) == []  # disconnected matchings only
    with pytest.raises(ValueError):
        search.enum_connected_regular(4, 4)
    with pytest.raises(ValueError):
        search.enum_connected_regular(0, 1)
    with pytest.raises(UnsupportedSizeError):
        search.enum_connected_regular(3, 30)


def test_enum_orbit_count_completeness():
    # sum over classes of n!/|Aut| must equal the labeled count from an
    # independent no-symmetry enumeration: proves nothing was missed
    for k, n in ((3, 6), (3, 8), (4, 7), (2, 7), (4, 8)):
        classes = search.enum_connected_regular(k, n)
        total = sum(math.factorial(n) // _aut_size(g) for g in classes)
        assert total == _labeled_regular_count(k, n, connected_only=True), (k, n)


def test_enum_pairwise_non_isomorphic():
    graphs = search.enum_connected_regular(3, 8)
    certs = {search.canonical_form(g).certificate for g in graphs}
    assert len(certs) == len(graphs) == 5
    for g in graphs:
        assert set(g.degrees()) == {3} and g.is_connected()


def test_spectral_prune():
    # Petersen (k = 3, n = 10, lambda_2 = 1): A - J/5 has largest eigenvalue
    # max(3 - 10/5, 1) = 1, so it is kept at lambda = 1 and cut just below
    assert search.spectral_prune(petersen(), 1.0, 1 / 5)
    lam = 1 - 1e-6
    assert not search.spectral_prune(petersen(), lam, (3 - lam) / 10)
    # one edge at k = 3, lambda = 0: 1 - 2(3/n) <= 0 iff n <= 6 (K_{3,3})
    assert search.spectral_prune(path(2), 0.0, 3 / 6)
    assert not search.spectral_prune(path(2), 0.0, 3 / 7)
    # one vertex at lambda = -1: -(k + 1)/n <= -1 iff n <= k + 1 (K_{k+1})
    assert search.spectral_prune(Graph.from_edges(1, []), -1.0, 4 / 4)
    assert not search.spectral_prune(Graph.from_edges(1, []), -1.0, 4 / 5)
    # shift 0 compares lambda_1: sqrt(2) for P3
    assert not search.spectral_prune(path(3), 1.4, 0.0)
    assert search.spectral_prune(path(3), 1.5, 0.0)


CUT_GRID = tuple(
    Fraction(x)
    for x in ("-1", "0", "1/2", "1", "5/4", "3/2", "5/3", "2", "9/4", "5/2", "3", "7/2")
)


def test_interlacing_cut_sound():
    # every connected class G at (3, n <= 12) and (4, n <= 10), at every grid
    # lam with lambda_2(G) <= lam, passes the cut with shift (k - lam)/n, and
    # so do seeded random induced subgraphs of G.  The grid reaches lam >= k,
    # where the shift is zero or negative.  On G itself the cut is tight:
    # A - cJ has k - cn = lam on the ones vector, so a smaller shift fails.
    rng = random.Random(21)
    signs = set()
    for k, n_max in ((3, 12), (4, 10)):
        for n in range(k + 1, n_max + 1):
            for g in search.enum_connected_regular(k, n):
                for lam in CUT_GRID:
                    if not eigenvalue_at_most(g, 2, lam)[0]:
                        continue
                    shift = float((k - lam) / n)
                    subsets = [range(n)]
                    subsets += [rng.sample(range(n), rng.randint(1, n - 1)) for _ in range(6)]
                    for s in subsets:
                        assert search.spectral_prune(g.induced(sorted(s)), float(lam), shift), (
                            k, n, lam, sorted(s)
                        )
                    if lam < k:
                        assert not search.spectral_prune(g, float(lam), 0.99 * shift)
                    signs.add((shift > 0) - (shift < 0))
    assert signs == {-1, 0, 1}


def test_second_eigenvalue_at_most_exact():
    assert search.second_eigenvalue_at_most(cycle(6), Fraction(1))
    assert not search.second_eigenvalue_at_most(cycle(6), Fraction(99, 100))
    assert search.second_eigenvalue_at_most(petersen(), Fraction(1))
    assert search.second_eigenvalue_at_most(complete(4), Fraction(-1))
    assert not search.second_eigenvalue_at_most(complete_bipartite(3, 3), Fraction(-1, 2))


def test_v_search_monotone_in_lambda():
    values = [search.v_search(3, lam, 10).exact_v for lam in (-0.5, 0, 1)]
    assert values == sorted(values)


def test_v_search_pruning_lossless():
    for k, lam, n_max in ((3, 1, 10), (2, 0.5, 9), (4, 1, 8)):
        a = search.v_search(k, lam, n_max, prune=True)
        b = search.v_search(k, lam, n_max, prune=False)
        assert a.same_result(b), (k, lam, n_max)


def test_v_search_extremal_revalidation():
    r = search.v_search(3, 1, 10)
    assert r.exact_v == 10
    for e in r.extremal:
        g = e.graph()
        assert set(g.degrees()) == {3}
        assert g.is_connected()
        assert eig_symmetric(g)[1] <= 1 + 1e-9
    # the order-10 witness is the Petersen graph
    assert search.canonical_form(petersen()).certificate == r.extremal[0].certificate


def test_v_search_lower_bound_witness():
    # integer lambda, k = lambda * a: order 2k + 2*lambda is reached
    r = search.v_search(2, 1, 6)
    assert r.exact_v == 6
    r = search.v_search(3, 1, 8)
    assert r.exact_v == 8


def test_v_search_boundary_flags():
    r = search.v_search(2, 1, 10)
    c6 = [e for e in r.extremal][0]
    assert c6.boundary


def test_boundary_graph_above_order_12_settled_exactly():
    # L(Petersen): n = 15, 4-regular, lambda_2 = 2 exactly (multiplicity 5)
    g = line_graph(petersen())
    assert g.n == 15 and set(g.degrees()) == {4}
    cf = search.canonical_form(g)
    at = search._judge(cf.certificate, 4, Fraction(2))
    assert at is not None and at.boundary
    assert at.certificate == cf.certificate
    # just below 2 the float filter (+1e-9 benefit) would accept; exact rejects
    assert search._judge(cf.certificate, 4, Fraction(2) - Fraction(1, 10**10)) is None


def test_prune_verdicts_memoized_per_order(monkeypatch):
    calls = [0]
    real = search.spectral_prune

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "spectral_prune", counted)
    # one eigensolve per distinct subgraph tested in each order's pass, the
    # forward check's sat + {v, u} included, in the tree both levels of the
    # root rule leave
    for (k, lam, n_max), want in (((3, Fraction(3, 2), 12), 173), ((4, 1, 10), 210)):
        calls[0] = 0
        pruned = search.v_search(k, lam, n_max)
        assert calls[0] == want, (k, lam, n_max)
        unpruned = search.v_search(k, lam, n_max, prune=False)
        assert pruned.same_result(unpruned)


def test_prune_key_identifies_saturated_subgraph(monkeypatch):
    # equal memo keys iff equal tested subgraphs, over every memo lookup of
    # whole completion passes, at both sites that share the pass's memo:
    # `_feasible` and the forward check of `_complete_from`.  A lookup names
    # H + {u}: H's mask and induced adjacency, and u's neighbours in H, which
    # fix the subgraph up to u's label (H alone when there is no u).  The cut
    # keeps everything here, so every subgraph it would test is looked up:
    # in `_feasible`, H + {u} for each unsaturated neighbour u of the
    # completed vertex, else H alone.
    seen: list = []
    gets = [0]
    in_feasible = [False]
    real_feasible, real_passes = search._feasible, search._passes

    class Memo(dict):
        def get(self, key, default=None):
            gets[0] += 1
            return super().get(key, default)

    def recording(rows, h, u, memo, *args):
        adj = search._saturated_subgraph(rows, members(h)).adj.tobytes()
        seen.append((in_feasible[0], memo, (h, adj, None if u is None else rows[u] & h)))
        return real_passes(rows, h, u, memo, *args)

    def checked(k, n, rows, v, sat, prune_lam, verdicts, key):
        start = len(seen)
        in_feasible[0] = True
        keep = real_feasible(k, n, rows, v, sat, prune_lam, verdicts, key)
        in_feasible[0] = False
        if len(seen) > start:  # not cut before the spectral test
            h = (sat, search._saturated_subgraph(rows, members(sat)).adj.tobytes())
            tested = [h + (rows[u] & sat,) for u in members(rows[v] & ~sat)] or [h + (None,)]
            assert [graph for _, _, graph in seen[start:]] == tested
        return keep

    monkeypatch.setattr(search, "_feasible", checked)
    monkeypatch.setattr(search, "_passes", recording)
    monkeypatch.setattr(search, "spectral_prune", lambda *args: True)
    passes = [(3, n) for n in (6, 8, 10)] + [(4, n) for n in (7, 8, 9, 10)] + [(5, 8)]
    for k, n in passes:
        seen.clear()
        gets[0] = 0
        list(search._complete_from(k, n, [0] * n, 0, 1.0, Memo()))
        assert gets[0] == len(seen), (k, n)  # every memo lookup is recorded
        keys: dict = {}
        graphs: dict = {}
        sites: dict = {}
        for site, key, graph in seen:
            keys.setdefault(key, set()).add(graph)
            graphs.setdefault(graph, set()).add(key)
            sites.setdefault(key, set()).add(site)
        assert all(len(g) == 1 for g in keys.values()), (k, n)
        assert all(len(g) == 1 for g in graphs.values()), (k, n)
        assert len(keys) < len(seen), (k, n)  # the memo has hits to give
        assert {type(key) for key in keys} == {int, tuple}, (k, n)
        # the forward check ran, and a child met its verdict under its own key
        assert {True, False} in sites.values(), (k, n)


def test_forward_check_cuts_a_block_at_the_parent(monkeypatch):
    # the node after vertex 0 of the (3, 10) pass at lambda = 1: v = 1 needs
    # two of its candidates, the block {2, 3} (row {0}) and the block
    # {4, ..., 9} (empty rows).  With u = 2, sat + {v, u} = {0, 1, 2} is a
    # triangle, which fails the cut; with u = 4 it is a path, which passes
    k, n, lam = 3, 10, 1.0
    shift = (k - lam) / n
    triangle, p3 = complete(3), path(3)
    assert not search.spectral_prune(triangle, lam, shift)
    assert search.spectral_prune(p3, lam, shift)
    solved: list = []
    children: list = []
    real_prune, real_feasible = search.spectral_prune, search._feasible

    def prune(g, *args):
        solved.append(g.adj.tobytes())
        return real_prune(g, *args)

    def feasible(k, n, rows, v, *args):
        if v == 1:
            children.append(rows[1])
        return real_feasible(k, n, rows, v, *args)

    monkeypatch.setattr(search, "spectral_prune", prune)
    monkeypatch.setattr(search, "_feasible", feasible)
    rows = [0b1110, 1, 1, 1] + [0] * 6
    completions = list(search._complete_from(k, n, rows, 0b1, lam))
    assert completions  # the Petersen graph
    block = 0b1100
    # no child that takes the failing block is generated, let alone completed
    assert children and not any(row & block for row in children)
    assert not any(done[1] & block for done in completions)
    # the child taking 4 and 5 saturates nothing: its test of sat + {v, 4}
    # finds the forward verdict under its own key, so the path is solved once
    assert 0b110001 in children
    assert solved.count(p3.adj.tobytes()) == 1
    assert solved.count(triangle.adj.tobytes()) == 1


def test_pruned_candidates_per_order_pinned():
    # labelled candidates per order of the pruned search, recorded when the
    # root rule gained its vertex-1 level; the prune path must not move them
    want = {
        (3, Fraction(3, 2), 12): {4: 1, 5: 0, 6: 3, 7: 0, 8: 4, 9: 0, 10: 1, 11: 0, 12: 0},
        (4, 1, 10): {5: 1, 6: 1, 7: 4, 8: 1, 9: 10, 10: 1},
        # no candidate at all past v(4, 1) = 12
        (4, 1, 13): {5: 1, 6: 1, 7: 4, 8: 1, 9: 10, 10: 1, 11: 0, 12: 6, 13: 0},
    }
    for (k, lam, n_max), per_order in want.items():
        r = search.v_search(k, lam, n_max)
        assert {n: c.candidates for n, c in r.counts.items()} == per_order, (k, lam, n_max)


def _stream_digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def _no_root_rule(rows, w):
    """A constant vertex invariant: every vertex ties with vertex 0, so the
    root rule of `_complete_from` cuts nothing."""
    return 0


def test_candidate_stream_pinned(monkeypatch):
    # the ordered stream of labelled candidates (bit rows) that reaches the
    # dedup.  `rule_off` was recorded before the completion became a flat
    # loop, and still holds with the root rule off (both levels, since each
    # reads `_invariant`); `rule_on` was recorded when the rule gained its
    # vertex-1 level
    seen: list = []
    real = search._dedup

    def recording(candidates):
        def tee():
            for rows in candidates:
                seen.append(rows)
                yield rows

        return real(tee())

    monkeypatch.setattr(search, "_dedup", recording)
    rule_off = {
        (3, 10, None): (250, "2d4174a6225711a85ebcc403259c56ec8dd45576ccfdc52965e83463397c4bc5"),
        (4, 9, None): (268, "a96a36600da0d1fa34792f87249b3bd85ab6df57f586079ac2fe5b47925cad74"),
        (3, 12, 1.5): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        (3, 12, 2.0): (546, "d66f6c1ff42bb02ab28faaa84ba87a443c5710d4d07f5b3f0abffba0ba359d87"),
    }
    rule_on = {
        (3, 10, None): (40, "2480318945fdea8bfcec5a04b18f2ad2ca3e599ce3d52b42facf6944295113e3"),
        (4, 9, None): (45, "3459343104e3cfcca46f10cd299decc813c45a2772a34598c1542104eef2f936"),
        (3, 12, 1.5): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        (3, 12, 2.0): (139, "1ff7950c47c73dfadda50a7ccb3e5aaffdad7b9f5dce1be398e6538e75e640d1"),
    }
    for invariant, want in ((_no_root_rule, rule_off), (search._invariant, rule_on)):
        monkeypatch.setattr(search, "_invariant", invariant)
        for (k, n, lam), (count, digest) in want.items():
            seen.clear()
            search.enum_connected_regular(k, n, prune_lam=lam)
            assert (len(seen), _stream_digest(seen)) == (count, digest), (k, n, lam)


def test_root_cut_looks_ahead_of_the_leaf_rule(monkeypatch):
    # the cut in the tree only anticipates the leaf rule: with the root rule
    # on, the stream is the rule-off stream filtered by `_rooted`, unpruned
    # and pruned alike, so the tree loses no candidate the leaf would keep
    for k, n in ((3, 10), (3, 12), (4, 9), (4, 10), (5, 10)):
        for lam in (None, 2.0):
            rooted = list(search._candidate_rows(k, n, lam))
            with monkeypatch.context() as m:
                m.setattr(search, "_invariant", _no_root_rule)
                every = list(search._candidate_rows(k, n, lam))
            assert rooted == [rows for rows in every if search._rooted(rows)], (k, n, lam)
            assert len(rooted) < len(every), (k, n, lam)


def test_invariant_counts_triangles_and_common_neighbours():
    # I(w) = (t, q) packed as t << 20 | q: t is twice the edges among N(w), q
    # sums |N(w) & N(x)|^2 over every x (w itself gives deg(w)^2)
    k4 = complete(4).bits()
    assert search._invariant(k4, 0) == 6 << 20 | (9 + 3 * 4)
    c4 = cycle(4).bits()
    assert search._invariant(c4, 0) == 0 << 20 | (4 + 4)
    # the root rule keeps ties: in a vertex-transitive graph every vertex is one
    assert search._rooted(petersen().bits()) and search._rooted(k4)
    # the paw (a triangle 0, 1, 2 with a pendant 3 at 2): vertex 2 beats 0
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]).bits()
    assert search._invariant(paw, 2) > search._invariant(paw, 0)
    assert not search._rooted(paw)


def test_leaf_rule_puts_the_largest_neighbour_at_vertex_one():
    # the paw with its degree-3 vertex as 0, the pendant as 1 and the
    # triangle 0, 2, 3: vertex 0 has the largest I, but its neighbour 2 beats
    # vertex 1, so the rule's second level rejects it until 1 and 2 swap
    edges = [(0, 1), (0, 2), (0, 3), (2, 3)]
    rows = Graph.from_edges(4, edges).bits()
    inv = [search._invariant(rows, w) for w in range(4)]
    assert max(inv) == inv[0] and inv[2] > inv[1]
    assert not search._rooted(rows)
    swap = {1: 2, 2: 1}
    swapped = Graph.from_edges(4, [(swap.get(a, a), swap.get(b, b)) for a, b in edges])
    assert search._rooted(swapped.bits())
    # ties pass at both levels
    assert search._rooted(petersen().bits()) and search._rooted(complete(4).bits())


def test_invariant_matches_reference():
    # I(w) from the rows of N(w) alone equals its definition over every
    # vertex, on partial bit rows of mixed degrees up to k with isolated
    # vertices left in
    rng = random.Random(36)
    degrees = set()
    for _ in range(300):
        n = rng.randint(1, 16)
        k = rng.randint(0, min(7, n - 1))
        rows = [0] * n
        for _ in range(rng.randint(0, n * k)):
            u, w = rng.randrange(n), rng.randrange(n)
            if u != w and rows[u].bit_count() < k and rows[w].bit_count() < k:
                rows[u] |= 1 << w
                rows[w] |= 1 << u
        for w in range(n):
            assert search._invariant(rows, w) == invariant_reference(rows, w), (rows, w)
        degrees.update(row.bit_count() for row in rows)
    assert degrees == set(range(8))


def test_canonical_forms_pinned():
    # labeling, certificate, leaf-key set and first leaf order over a fixed
    # corpus; any reordering of cells moves them.  Re-pinned when the search
    # began to hand out canonical representatives: the digest is the one the
    # labelling had already given on this corpus with each generated graph
    # relabelled canonically, so the labelling itself did not move
    rng = random.Random(61)
    graphs = search.enum_connected_regular(3, 10) + search.enum_connected_regular(4, 9)
    graphs += search.enumerate_all_graphs(6) + [petersen(), _shrikhande()]
    graphs += [_relabelled(g, rng) for g in graphs]
    forms = []
    for g in graphs:
        keys: set = set()
        cf = search.canonical_form(g, keys=keys)
        first = next(search._leaf_orders(g.bits(), g.n))[1]
        forms.append((cf.labeling, cf.certificate, sorted(keys), first))
    assert (len(forms), _stream_digest(forms)) == (
        386,
        "8867f1420c4faca0a0cb2b081b9f5e2660c385c31b1075f421e2a8099322c414",
    )


def test_report_independent_of_candidate_order(monkeypatch):
    # the report is a function of the classes: the same candidates in the
    # reverse order give the same report, graph6 and spectra included
    cases = ((4, 1, 13, True), (3, 2, 12, False))
    want = [search.v_search(k, lam, n, prune=prune).to_json_obj() for k, lam, n, prune in cases]
    real = search._candidate_rows
    monkeypatch.setattr(search, "_candidate_rows", lambda *args: reversed(list(real(*args))))
    for (k, lam, n_max, prune), obj in zip(cases, want):
        assert search.v_search(k, lam, n_max, prune=prune).to_json_obj() == obj, (k, lam, n_max)


@pytest.mark.parametrize("k, n_max", parity_grid.SMALL)
def test_parity_grid(k, n_max):
    # exact_v, per-order classes and passed, and the extremal certificates
    # with their boundary flags, against the committed reference
    for lam in parity_grid.LAMBDAS:
        assert parity_grid.moved(k, lam, n_max) == [], (k, lam, n_max)


@pytest.mark.parametrize("k, lam, n_max", parity_grid.CLOSING)
def test_parity_grid_closing(k, lam, n_max):
    # the searches that close v(k, lambda), against the committed reference
    assert parity_grid.moved(k, lam, n_max) == []


def test_parity_grid_records_hold_known_facts():
    # every committed certificate is canonical; the closing records give the
    # known values, and the k = 5 witness is the Clebsch graph (5, 1^10, (-3)^5)
    want = parity_grid.reference()
    for r in want.values():
        for g6, _ in r["extremal"]:
            assert search.canonical_form(from_graph6(g6)).certificate == g6, g6
    known = {(4, "1", 13): 12, (5, "1", 16): 16, (5, "5/4", 16): 16, (4, "3/2", 16): 14}
    assert {case: want[case]["exact_v"] for case in parity_grid.CLOSING} == known
    for case in ((5, "1", 16), (5, "5/4", 16)):
        ((g6, _),) = want[case]["extremal"]
        assert spectrum_is(from_graph6(g6), {5: 1, 1: 10, -3: 5}), case


def test_enumerated_graphs_are_canonical():
    # every graph the search hands out is its class's canonical representative
    graphs = search.enum_connected_regular(3, 10) + search.enum_connected_regular(4, 9)
    for g in graphs + search.enumerate_all_graphs(6):
        assert to_graph6(g) == search.canonical_form(g).certificate


def test_saturated_subgraph_matches_induced(monkeypatch):
    # the partial states are those `_feasible` is asked about in whole
    # completion passes: the rows and the saturated mask after each step
    rng = random.Random(5)
    states: list = []
    real = search._feasible

    def recording(k, n, rows, v, sat, *args):
        states.append((tuple(rows), sat))
        return real(k, n, rows, v, sat, *args)

    monkeypatch.setattr(search, "_feasible", recording)
    for k, n in ((3, 10), (3, 12), (4, 9), (4, 11)):
        states.clear()
        list(search._complete_from(k, n, [0] * n, 0, None))
        assert states
        for rows, sat_mask in rng.sample(states, min(25, len(states))):
            g = Graph.from_edges(
                n, [(u, w) for u in range(n) for w in range(u + 1, n) if rows[u] >> w & 1]
            )
            sat = [u for u in range(n) if sat_mask >> u & 1]
            assert sat == [u for u in range(n) if rows[u].bit_count() == k]
            subset = sorted(rng.sample(range(n), rng.randint(1, n)))
            for vertices in (sat, subset, range(n)):
                got = search._saturated_subgraph(rows, vertices)
                assert (got.adj == g.induced(vertices).adj).all()


def test_v_search_workers_one_is_the_default():
    # the search is one process; callers that pass workers=1 get its report
    want = search.v_search(3, 1, 10).to_json_obj()
    assert search.v_search(3, 1, 10, workers=1).to_json_obj() == want


@pytest.mark.parametrize("workers", [2, 0])
def test_v_search_other_workers_refused(workers):
    # any other worker count is refused rather than ignored
    with pytest.raises(ValueError, match="workers must be 1"):
        search.v_search(3, 1, 10, workers=workers)


def test_prune_lam_takes_any_rational():
    # the prune compares against float(lam) + INTERLACING_TOL, and "5/3",
    # Fraction(5, 3) and the v_search threshold give one result: every
    # order's candidates and classes in v_search are those of a standalone
    # pass, and the odd orders have none
    want = search.enum_connected_regular(3, 12, prune_lam=Fraction(5, 3))
    assert want and search.enum_connected_regular(3, 12, prune_lam="5/3") == want
    report = search.v_search(3, "5/3", 12)
    assert report.counts[12].classes == len(want)
    for n, c in report.counts.items():
        alone = (0, 0)
        if n % 2 == 0:
            candidates = sum(1 for _ in search._candidate_rows(3, n, Fraction(5, 3)))
            alone = (candidates, len(search.enum_connected_regular(3, n, prune_lam="5/3")))
        assert (c.candidates, c.classes) == alone, n
    assert report.same_result(search.v_search(3, "5/3", 12, prune=False))


def test_v_search_refuses_past_the_caps():
    with pytest.raises(UnsupportedSizeError, match="beyond caps"):
        search.v_search(3, 0, search.DEFAULT_MAX_N + 2)
    with pytest.raises(UnsupportedSizeError, match="beyond caps"):
        search.v_search(search.DEFAULT_MAX_K + 1, 1, search.DEFAULT_MAX_K + 3)
    r = search.v_search(3, 0, search.DEFAULT_MAX_N)
    assert max(r.counts) == r.n_max == search.DEFAULT_MAX_N
    assert r.exact_v == 6


def test_report_json():
    r = search.v_search(2, 0, 6)
    obj = r.to_json_obj()
    assert obj["exact_v"] == 4
    assert obj["counts"]["4"]["passed"] == 1
    assert obj["extremal"][0]["graph6"]


def _rook4() -> Graph:
    import numpy as np

    a = np.zeros((16, 16), dtype=bool)
    for i in range(16):
        for j in range(16):
            if i != j and (i // 4 == j // 4 or i % 4 == j % 4):
                a[i, j] = True
    return Graph(a)


def _shrikhande() -> Graph:
    import numpy as np

    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    a = np.zeros((16, 16), dtype=bool)
    for x1 in range(4):
        for y1 in range(4):
            for x2 in range(4):
                for y2 in range(4):
                    if ((x1 - x2) % 4, (y1 - y2) % 4) in conn:
                        a[x1 * 4 + y1, x2 * 4 + y2] = True
    return Graph(a)


def test_canonical_splits_cospectral_strongly_regular_pair():
    # both graphs have parameters (16, 6, 2, 2) and identical spectra, so
    # refinement alone cannot distinguish them; individualization must
    from regspectra.graphs import regularity_params

    rook, shri = _rook4(), _shrikhande()
    assert regularity_params(rook).srg_params() == (16, 6, 2, 2)
    assert regularity_params(shri).srg_params() == (16, 6, 2, 2)
    c_rook = search.canonical_form(rook).certificate
    c_shri = search.canonical_form(shri).certificate
    assert c_rook != c_shri
    perm = list(range(16))
    random.Random(9).shuffle(perm)
    assert search.canonical_form(rook.relabel(perm)).certificate == c_rook
    assert search.canonical_form(shri.relabel(perm)).certificate == c_shri


def test_enum_orbit_count_five_regular():
    classes = search.enum_connected_regular(5, 8)
    total = sum(math.factorial(8) // _aut_size(g) for g in classes)
    assert total == _labeled_regular_count(5, 8, connected_only=True)
    assert len(classes) == 3  # complements of the 2-regular graphs on 8 vertices


def test_v_search_degree_one():
    r = search.v_search(1, 0, 4)
    assert r.exact_v == 2 and r.unique
