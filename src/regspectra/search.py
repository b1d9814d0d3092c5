"""Isomorph-free exhaustive search for extremal regular graphs.

Three layers: a canonical labeling (iterated neighborhood refinement with
individualization backtracking, twin-class and automorphism pruning), an
isomorph-free generator of connected k-regular graphs (vertex-by-vertex
completion with a block-prefix symmetry rule, isomorph rejection by leaf
keys with the certificate as a cross-check), and the search driver that
filters by the second largest eigenvalue and reports extremal witnesses.

The labeling reads bit rows (one neighbor bitmask per vertex), either a
`Graph`'s or the generator's own, and packs the certificate straight from
them.  The dedup keeps only the certificates, and every graph the search
hands out is a certificate decoded: its class's canonical representative,
so the report does not depend on the order in which candidates arrive.
Two leaves with equal keys give an automorphism, and a sibling in the orbit
of an explored one, under the automorphisms found so far that fix the
individualized vertices, is skipped.  Its subtree is the image of an
explored one, so it holds no key the walk has not met, and the first leaf
of every key is still reached: the labeling and the recorded orders are
those of the whole tree.

Rejection is one loop per dedup pass (the candidates of one order), which
holds the set of leaf keys (adjacency matrices under leaf orders) of the
classes found so far.  A candidate whose first leaf's key is in the set
belongs to a known class and is skipped after one root-to-leaf path; any
other starts a new class, since isomorphic graphs have the same leaf-key
set, and only it is labelled, by a whole walk that adds every key it meets.
The walk is one explicit-stack depth-first search, so that path costs only
what it needs: its descent individualizes the first vertex of each target
cell and builds no sibling state (explored list, twin classes, orbit
partition), which a node gets only when the walk backs up to it.  Refinement
signatures are packed ints, and a leaf key is built from the set bits of the
rows rather than from all n(n-1)/2 pairs.

The completion yields only connected graphs and never tests it at a leaf:
the last feasibility check, made with no unsaturated vertex left, cuts a
saturated component that is not the whole graph, so every completed graph
has passed it.

The completion is rooted: vertex 0 carries the lexicographically largest
vertex invariant I(w) = (t(w), q(w)) of the completed graph, where t(w)
counts the edges among w's neighbours and q(w) sums |N(w) & N(x)|^2 over
every vertex x (`_invariant`, popcounts of the rows of N(w) alone).  A
completed graph is yielded only if no vertex beats vertex 0 (`_rooted`; ties
pass), and a child is cut as soon as the vertex it completed beats I(0),
which is final once vertices 0..k are saturated.  No class is lost: the
block-prefix rule never moves vertex 0, so every class is reached with each
of its vertices as vertex 0, among them one of maximal I; and t and q only
grow as edges are added, so on that copy no value met in the tree exceeds
I(0).  The rule cuts the labelled candidates about five-fold on the
unpruned passes (the cheap vertex-invariant test of McKay's canonical
construction path, J. Algorithms 26, 1998); `_dedup` still rejects the
isomorphs it leaves.

The pruned completion has one spectral cut, by interlacing (Haemers 1995).
Let G be a connected k-regular graph on n vertices with lambda_2(G) <=
lambda, and c = (k - lambda)/n.  Then A - cJ has eigenvalue k - cn = lambda
on the all-ones vector and A's other eigenvalues on its complement, so
A - cJ <= lambda*I, and so does every principal submatrix: every induced
subgraph H has lambda_1(A_H - cJ) <= lambda.  This holds for any real lambda
and either sign of c; for c >= 0 it implies lambda_2(H) <= lambda, and on G
itself it says lambda_2(G) <= lambda.  Saturated rows are frozen, so the
subgraph on the saturated vertices plus any one unsaturated vertex u is
induced in every completion, whatever the later steps add.  After each step
the cut tests that subgraph for every unsaturated neighbour u of the vertex
just completed, and the saturated subgraph alone (which each of those
contains) only when there is none.  Before the steps, a node with more
choices than candidate blocks forward-checks: it tests sat + {v, u} for the
first candidate u of each block once, and drops every choice that takes a
failing block, instead of building each such child and cutting it there.
Both go through the same `spectral_prune` and one memo per pass: one
eigensolve per distinct labelled subgraph and pass.

The prune's float cut gives the partial graph `spectra.INTERLACING_TOL`
(1e-9) of benefit, so it errs toward keeping: a true graph meets the
inequality exactly.  Every accept or reject of a class goes through
`spectra.eigenvalue_at_most`: within 1e-6 of the threshold it is settled in
exact rational arithmetic through the characteristic polynomial, at every
supported order, so boundary graphs are never accepted or rejected by
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import kernel
from .errors import ConsistencyError, UnsupportedSizeError
from .formats import from_graph6, pack_graph6
from .graphs import Graph, members, reach, twin_classes
from .spectra import INTERLACING_TOL, Real, eigenvalue_at_most, eigenvalue_at_most_exact, spectrum

CANONICAL_CAP = 64
DEFAULT_MAX_K = 5
DEFAULT_MAX_N = 16
# Candidates reach the dedup in batches: handing them over one at a time
# costs about 7 % more CPU.  Measured with the root rule on (in-process CPU,
# CPython 3.11, 2-core x86 host, alternating runs): v_search(3, 2, 12,
# prune=False) 0.132 -> 0.142 s (medians of 8 runs, each the median of 3;
# slower in all 8), and v_search(3, 2, 14, prune=False) 1.40 -> 1.51 s
# (slower in 6 of 6).  From 256 up a batch is as fast as collecting every
# candidate first, and memory stays bounded.
_STREAM_BATCH = 512


# -- canonical labeling ----------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """labeling[old_vertex] = canonical position; certificate is the graph6
    string of the canonically relabelled graph (equal iff isomorphic)."""

    labeling: tuple[int, ...]
    certificate: str


def _refine(
    bits: Sequence[int], cells: list[list[int]], splitters: Optional[list[int]] = None
) -> list[list[int]]:
    """Iterated neighborhood refinement with a splitter worklist.

    Each round splits every cell by its members' neighbor counts into the
    splitters, the fragments of the cells split in the previous round.
    `splitters` seeds the worklist (all cells by default).  Precondition:
    the seeds are fragments of parent cells, each split into fragments of
    which all but the last (by position) are seeds, and every cell has
    uniform counts into each parent and into every cell outside them.
    After individualizing v from cell C of a stable partition, the parent
    is C and the one seed is {v}.  Cell order is decided only by parent
    position and count vectors, hence deterministic and label-invariant.

    The last fragment of a split cell, in sorted-signature order, is not a
    splitter (Hopcroft's rule; McKay & Piperno 2014).  At the start of every
    round each cell has a uniform count into the parent P of every splitter,
    so a member's count into P's last fragment is that constant minus its
    counts into P's other fragments.  Two members of a cell therefore never
    first differ at that entry of their signatures: dropping it keeps both
    the groups and their lexicographic order, so every round's cells, and
    the stable partition, are those of refining by every fragment.  Any
    other fragment may decide an order, so only the last one is dropped.

    A signature is packed into one int, 7 bits per splitter in worklist
    order (`sig << 7 | count`).  A count is at most n - 1 <= 63, since n is
    at most CANONICAL_CAP = 64, so it fits its field; and every signature
    of a round has one field per splitter, the same number, so the ints
    compare as the tuples of counts would, lexicographically.  A round with
    one splitter thus uses the bare count."""
    if splitters is None:
        splitters = list(range(len(cells)))
    while splitters:
        masks = []
        for i in splitters:
            m = 0
            for v in cells[i]:
                m |= 1 << v
            masks.append(m)
        single = masks[0] if len(masks) == 1 else None
        new_cells: list[list[int]] = []
        new_splitters: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                row = bits[v]
                if single is not None:
                    sig = (row & single).bit_count()
                else:
                    sig = 0
                    for m in masks:
                        sig = sig << 7 | (row & m).bit_count()
                group = groups.get(sig)
                if group is None:
                    groups[sig] = [v]
                else:
                    group.append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                for sig in sorted(groups):
                    new_splitters.append(len(new_cells))
                    new_cells.append(groups[sig])
                new_splitters.pop()  # the last fragment
        cells = new_cells
        splitters = new_splitters
    return cells


def _leaf_key(bits: Sequence[int], order: Sequence[int]) -> int:
    """The upper triangle of the adjacency matrix under `order` (position ->
    vertex), read row by row as one integer; equal keys on one order mean
    equal relabelled graphs.  Row i is a field of n - 1 - i bits, position j
    at bit n - 1 - j, filled from the set bits of the row's neighbours at
    later positions."""
    n = len(order)
    place = [0] * n  # place[w] = the bit of w's position within a field
    for i, u in enumerate(order):
        place[u] = 1 << (n - 1 - i)
    later = (1 << n) - 1
    key = 0
    for i, u in enumerate(order):
        later ^= 1 << u
        row = bits[u] & later
        field = 0
        while row:
            b = row & -row
            row ^= b
            field |= place[b.bit_length() - 1]
        key = key << (n - 1 - i) | field
    return key


def _siblings(cell: list[int], path: int, autos: list, mates: list[int]):
    """The vertices of `cell` after its first, which has been explored, whose
    subtrees may hold new leaf keys, in order; `path` is the node's mask of
    individualized vertices.  Lazy, so each sibling is judged by the
    automorphisms found before it is asked for."""
    explored = [cell[0]]
    seen_twins = mates[cell[0]]  # union of the explored siblings' twin classes
    orbit = {u: u for u in cell}  # union-find over the cell
    used = 0  # automorphisms of `autos` already considered

    def find(u: int) -> int:
        while orbit[u] != u:
            orbit[u] = u = orbit[orbit[u]]
        return u

    for v in cell[1:]:
        if seen_twins >> v & 1:
            continue  # a twin of an earlier sibling: identical subtree
        seen_twins |= mates[v]
        for fixed, sigma in autos[used:]:
            if path & ~fixed == 0:  # sigma fixes the path, so maps cell to cell
                for u in cell:
                    a, b = find(u), find(sigma[u])
                    if a != b:
                        orbit[max(a, b)] = min(a, b)
        used = len(autos)
        root = find(v)
        if any(find(u) == root for u in explored):
            continue  # the image of an explored subtree
        explored.append(v)
        yield v


def _leaf_orders(bits: Sequence[int], n: int):
    """The first leaf of each leaf key in the individualization-refinement
    tree, depth first, as `(key, order)` (order: position -> vertex).  A
    node individualizes each vertex v of the first non-singleton cell C of
    its stable partition in turn: C becomes [v] followed by the rest of C,
    and `_refine` is seeded with the singleton alone, the rest being C's
    last fragment.

    The walk keeps an explicit stack of the nodes on its path, each with its
    partition, target cell and path mask.  A descent individualizes the
    first vertex of each target cell and allocates no sibling state; a
    node's sibling iterator (`_siblings`) is made only when the walk backs
    up to it, so a walk that stops at its first leaf (isomorph rejection,
    `_dedup`) pays for one root-to-leaf path and nothing more.  The cells
    before a target are singletons and stay so, so the next target is
    sought after it.

    A leaf whose key was met before is not yielded: the map from the earlier
    order's vertices to its own is an automorphism, recorded with its
    fixed-point mask.  Two rules skip a sibling of an explored vertex, each
    because its subtree is the image of an explored subtree under an
    automorphism that fixes the individualized vertices, so it repeats
    explored leaf keys:
    - a twin of an earlier sibling (swapping twins is such an automorphism);
    - a sibling in the orbit of an explored one, under the recorded
      automorphisms that fix the path, which each node unions into its own
      orbit partition as they are found.
    So the walk meets every key of the full tree, each first at the same
    leaf (an earlier leaf with that key would otherwise exist), and the key
    set is the same for every graph of the class.  The twin classes are
    computed when a node first offers a second sibling."""
    autos: list = []  # (fixed mask, permutation) per repeated key
    first: dict[int, list[int]] = {}  # key -> order of its first leaf
    twin: Optional[list[int]] = None
    stack: list[list] = []  # [cells, target, path, sibling iterator or None] per node
    cells = _refine(bits, [list(range(n))])
    path = target = 0
    while True:
        for target in range(target, len(cells)):
            if len(cells[target]) > 1:
                node = [cells, target, path, None]
                stack.append(node)
                v = cells[target][0]
                break
        else:
            order = [cell[0] for cell in cells]
            key = _leaf_key(bits, order)
            earlier = first.setdefault(key, order)
            if earlier is order:
                yield key, order
            else:
                sigma = [0] * n
                fixed = 0
                for u, w in zip(earlier, order):
                    sigma[u] = w
                    if u == w:
                        fixed |= 1 << u
                autos.append((fixed, sigma))
            # back up to the deepest node with a sibling left
            while stack:
                node = stack[-1]
                if node[3] is None:
                    if twin is None:
                        twin = twin_classes(bits)
                    node[3] = _siblings(node[0][node[1]], node[2], autos, twin)
                v = next(node[3], None)
                if v is not None:
                    break
                stack.pop()
            else:
                return
        cells, target, path = node[0], node[1], node[2]
        cell = cells[target]
        rest = cell[1:] if v == cell[0] else [w for w in cell if w != v]
        cells = _refine(bits, cells[:target] + [[v], rest] + cells[target + 1 :], [target])
        path |= 1 << v
        target += 1


def canonical_form(
    g: Union[Graph, Sequence[int]], *, keys: Optional[set[int]] = None
) -> CanonicalForm:
    """Canonical labeling and certificate; isomorphic graphs map to identical
    certificates (and only those - each leaf is an actual relabelling).  The
    canonical order is the first leaf with the least key.

    `g` is a `Graph` or its bit rows (one neighbor bitmask per vertex,
    symmetric and loop-free, not validated here); the certificate is packed
    from the bits under the canonical order, so both forms give the same
    result.  The orders are those `_leaf_orders` yields, the first leaf of
    each key of the full tree, although its walk prunes by the
    automorphisms it finds.

    `keys`, when given, receives every leaf key the walk met: the leaf-key
    set of the class, shared by every graph isomorphic to `g` (see
    `_dedup`)."""
    bits = g.bits() if isinstance(g, Graph) else g
    n = len(bits)
    if n > CANONICAL_CAP:
        raise UnsupportedSizeError(f"order {n} exceeds canonical cap {CANONICAL_CAP}")
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    orders = dict(_leaf_orders(bits, n))
    best = orders[min(orders)]
    labeling = [0] * n
    for position, old in enumerate(best):
        labeling[old] = position
    if keys is not None:
        keys.update(orders)
    return CanonicalForm(labeling=tuple(labeling), certificate=pack_graph6(bits, best))


def _dedup(candidates: Iterable[tuple[int, ...]]) -> tuple[int, list[str]]:
    """Isomorph rejection over one dedup pass: `candidates` are the bit rows
    of graphs of one order.  Returns the number of candidates and the
    classes' sorted certificates, which do not depend on the candidates' order.

    The pass holds the leaf keys of the classes found so far.  A candidate
    whose first leaf's key (one root-to-leaf path of `_leaf_orders`) is among
    them is isomorphic to a found class and is skipped, never labelled.
    Otherwise it is a new class (isomorphic graphs share the leaf-key set)
    and `canonical_form` labels it and adds its keys; a labelled class whose
    certificate was already seen would mean the keys missed an isomorphism."""
    keys: set[int] = set()
    certs: set[str] = set()
    count = 0
    for rows in candidates:
        count += 1
        if next(_leaf_orders(rows, len(rows)))[0] in keys:
            continue
        cert = canonical_form(rows, keys=keys).certificate
        if cert in certs:
            raise ConsistencyError("leaf-key rejection missed an isomorphism")
        certs.add(cert)
    return count, sorted(certs)


def enumerate_all_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism (vertex extension + canonical
    rejection), each its canonical representative, in certificate order.
    Intended for n <= 7.  The extensions of the classes of the order below by
    one vertex joined to the vertices of a mask go through one dedup pass per
    order, whose certificates, decoded, are the classes of that order.

    An extension is kept only if the new vertex has maximum degree: no old
    vertex ends with a degree above popcount(mask).  No class is lost: a
    graph G has a vertex w of maximum degree, G - w is isomorphic to a class
    P of the order below, and relabelling G so that G - w = P and w is the
    new vertex makes mask = N(w), an extension the rule keeps.  So the rule
    thins the candidates and leaves the sorted certificates as they are."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def extensions(graphs: list[Graph], new: int):
        for g in graphs:
            bits = g.bits()
            top = max(row.bit_count() for row in bits)
            # the old vertices a mask of size `top` must avoid
            peak = sum(1 << w for w, row in enumerate(bits) if row.bit_count() == top)
            for mask in range(new):
                d = mask.bit_count()
                if d > top or d == top and not mask & peak:
                    grown = tuple(row | new if mask >> w & 1 else row for w, row in enumerate(bits))
                    yield grown + (mask,)

    graphs = [from_graph6("@")]  # K1
    for size in range(2, n + 1):
        _, certs = _dedup(extensions(graphs, 1 << (size - 1)))
        graphs = [from_graph6(c) for c in certs]
    return graphs


# -- isomorph-free generation of connected regular graphs --------------------------


def parity_ok(k: int, n: int) -> bool:
    return (k * n) % 2 == 0


def spectral_prune(saturated: Graph, lam: float, shift: float) -> bool:
    """Keep/cut decision for a subgraph H that every completion contains
    induced: keep iff lambda_1(A_H - shift*J) <= lam (+ INTERLACING_TOL).

    With shift = (k - lam)/n this is sound for connected k-regular graphs on
    n vertices with second eigenvalue at most lam: for such a G, A - shift*J
    has eigenvalue k - shift*n = lam on the all-ones vector and A's other
    eigenvalues on its complement, so A - shift*J <= lam*I, and every
    principal submatrix inherits this.  It holds for any real lam and either
    sign of shift.  A float cut errs toward keeping, since a true subgraph
    meets the inequality exactly.

    The `Graph` has already validated its matrix (square, symmetric, boolean,
    zero diagonal), so the prune goes straight to the kernel."""
    vals = kernel.sym_eigenvalues(saturated.adj - shift)
    return bool(vals[-1] <= lam + INTERLACING_TOL)


def _saturated_subgraph(rows: Sequence[int], sat: Sequence[int]) -> Graph:
    """The graph induced on `sat` by the bit rows; vertex i is sat[i]."""
    idx = np.array(sat, dtype=np.uint64)
    r = np.array([rows[u] for u in sat], dtype=np.uint64)
    return Graph((r[:, None] >> idx[None, :]) & 1)


def _invariant(rows: Sequence[int], w: int) -> int:
    """The vertex invariant I(w) = (t(w), q(w)) of the bit rows, packed as
    t << 20 | q so that ints compare as the pairs do: t counts the edges
    among w's neighbours (each twice), and q is the sum over every vertex x
    of |N(w) & N(x)|^2.  Both only grow as edges are added.  q is at most
    n * k^2 < 2^20 for n, k <= 64.

    Both read only the rows of N(w): t = sum over a in N(w) of
    |N(a) & N(w)|, and expanding the square, q = sum over ordered pairs a, b
    in N(w) of |N(a) & N(b)| (a = b gives deg(a)), since a vertex x counts
    in |N(a) & N(b)| iff a and b both lie in N(w) & N(x).  So a vertex of
    degree k costs k(k + 1)/2 popcounts, not one per vertex of the graph."""
    row = rows[w]
    t = q = 0
    seen: list[int] = []
    rest = row
    while rest:
        b = rest & -rest
        rest ^= b
        r = rows[b.bit_length() - 1]
        t += (r & row).bit_count()
        c = r.bit_count()
        for s in seen:
            c += 2 * (r & s).bit_count()
        q += c
        seen.append(r)
    return t << 20 | q


def _rooted(rows: Sequence[int]) -> bool:
    """The leaf rule of the completion: no vertex's invariant exceeds vertex
    0's (ties pass)."""
    top = _invariant(rows, 0)
    return all(_invariant(rows, w) <= top for w in range(1, len(rows)))


def _complete_from(
    k: int,
    n: int,
    rows: list[int],
    sat: int,
    prune_lam: Optional[float],
    verdicts: Optional[dict] = None,
    key: int = 1,
    root: Optional[int] = None,
):
    """Completion of the bit rows `rows` (degree = popcount) with saturated
    bitmask `sat`; yields completed row tuples.  The next vertex v is the
    lowest unsaturated one, so saturated vertices are skipped without a call.
    Its choices take a prefix of each block of interchangeable candidates
    (equal rows), most from the first block first; they are built once as
    neighbour bitmasks, then each is applied, checked by `_feasible` with the
    updated saturated mask and memo key, recursed into and undone.

    `verdicts` is the prune-verdict memo of the pass (see `_feasible`): the
    root call creates it, and the recursion shares it.

    With the prune on, a node with more choices than blocks forward-checks
    before it applies any: for the first candidate u of each block it tests
    the subgraph on sat + {v, u}, with v adjacent to its earlier neighbours
    and u, and u to its saturated neighbours and v, and drops every choice
    that takes a failing block.  This is sound: v's earlier neighbours lie
    below v, so they are all saturated, and v is saturated after the choice;
    saturated rows are frozen, so sat + {v, u} is induced in every child that
    picks u and in every completion of it, and the interlacing cut of the
    module docstring holds for it.  The block's candidates have equal rows,
    so its first one stands for all, and a choice that takes any of them
    takes the first.  The test is `spectral_prune`'s float cut with
    `INTERLACING_TOL`: it errs toward keeping and decides nothing at the
    boundary.  Its memo key is `(key << n | base, rows[u] & sat | 1 << v)`,
    the key under which a child whose choice saturates nothing looks the
    same subgraph up, so that child meets the verdict in the memo.  The
    choices left, and their order, are those of the unchecked node minus
    children that `_feasible` would cut.

    The root rule: vertex 0 must carry the lexicographically largest
    invariant I(w) = (t(w), q(w)) of the completed graph (`_invariant`).
    Vertex 0's neighbours are 1..k, since the root takes a prefix of the one
    block of untouched vertices, so I(0) reads only the rows of 0..k and is
    final once all of them are saturated; `root` carries it from then on and
    is None before.  That is tested on the child's saturated mask, not on
    v == k, since a step may saturate k before k is the vertex completed.
    Once I(0) is final, a child whose completed vertex v has I(v) > I(0) is
    cut before `_feasible` runs, and at the leaf a graph is yielded only if
    no vertex beats vertex 0 (`_rooted`).  This is sound:
    - for every class and every vertex x the completion reaches a labelled
      copy with 0 -> x: two candidates with equal rows are swapped by an
      automorphism of the partial graph that fixes v and every vertex below
      it, so any neighbour choice can be relabelled to a block prefix, and
      vertex 0 never moves;
    - root at an x of maximal I: on that copy no final value exceeds I(0);
    - t and q only grow as edges are added, so a current value is a lower
      bound of its final one, and the cut in the tree drops only leaves the
      leaf rule would drop.  The interlacing cut, the forward check and the
      closed-component cut drop only subtrees with no admissible
      completion, whatever the labelling, so the rule holds alongside them,
      in pruned and unpruned passes alike;
    - ties are never cut (`>`, not `>=`): cutting them would lose every
      vertex-transitive class.

    `key` names the saturated subgraph H for the memo: a leading 1, then per
    step of the pass n bits for the completed vertex's row and for the row
    of each vertex it saturated above it, masked to the step's saturated
    set.  The fields decode to the steps, hence to H; and H fixes the steps,
    since a saturated vertex has all its lower neighbours in H and was
    completed by a step iff fewer than k of them exist, else saturated by the
    step of its largest neighbour.  So keys are equal iff the labelled
    subgraphs are."""
    free = ((1 << n) - 1) & ~sat
    v = (free & -free).bit_length() - 1 if free else n
    if not free:  # every vertex has degree k
        # connected by the last `_feasible`'s closed-component cut
        if _rooted(rows):
            yield tuple(rows)
        return
    if verdicts is None:
        verdicts = {}
    base, bv = rows[v], 1 << v
    r = k - base.bit_count()
    # the candidates are the unsaturated vertices above v; `_feasible` (or,
    # at the root, k < n) leaves at least r of them
    cap = free.bit_count() - 1
    # blocks[row] = prefix masks of the candidates with that row, blocks in
    # order of first appearance; `last` = candidates one edge short of k
    blocks: dict[int, list[int]] = {}
    last = 0
    rest = free ^ bv
    while rest:
        b = rest & -rest
        rest ^= b
        row = rows[b.bit_length() - 1]
        prefixes = blocks.get(row)
        if prefixes is None:
            blocks[row] = [0, b]
        else:
            prefixes.append(prefixes[-1] | b)
        if row.bit_count() == k - 1:
            last |= b
    choices = [(r, 0)]  # (neighbours still needed, neighbours chosen)
    for prefixes in blocks.values():
        size = len(prefixes) - 1
        cap -= size  # now what the later blocks can supply
        grown = []
        for need, mask in choices:
            c = size if size < need else need
            while c >= 0 and need - c <= cap:
                grown.append((need - c, mask | prefixes[c]))
                c -= 1
        choices = grown
    if prune_lam is not None and len(choices) > len(blocks):
        # the forward check: sat + {v, u} for each block's first candidate u
        shift = (k - prune_lam) / n
        dead = 0
        for prefixes in blocks.values():
            b = prefixes[1]
            u = b.bit_length() - 1
            rows[v] = base | b
            rows[u] |= bv
            memo = (key << n | base, rows[u] & (sat | bv))
            if not _passes(rows, sat | bv, u, memo, verdicts, prune_lam, shift):
                dead |= b
            rows[u] ^= bv
        rows[v] = base
        if dead:
            choices = [choice for choice in choices if not choice[1] & dead]
    low = (1 << k + 1) - 1  # vertex 0 and its neighbours 1..k
    for _, mask in choices:
        child = sat | bv | mask & last
        rows[v] = base | mask
        ckey = key << n | rows[v] & child
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            u = b.bit_length() - 1
            rows[u] |= bv
            if b & last:  # saturated now, with every neighbour in `child`
                ckey = ckey << n | rows[u]
        top = _invariant(rows, 0) if root is None and child & low == low else root
        if (top is None or _invariant(rows, v) <= top) and _feasible(
            k, n, rows, v, child, prune_lam, verdicts, ckey
        ):
            yield from _complete_from(k, n, rows, child, prune_lam, verdicts, ckey, top)
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            rows[b.bit_length() - 1] ^= bv
    rows[v] = base


def _feasible(
    k: int,
    n: int,
    rows: list[int],
    v: int,
    sat: int,
    prune_lam: Optional[float],
    verdicts: dict,
    key: int,
) -> bool:
    """Whether the partial graph, just completed through vertex v with
    saturated bitmask `sat`, can still be completed.  The cuts, cheapest
    first: an unsaturated vertex needs more partners than there are other
    unsaturated vertices (possible only once at most k are left); a
    connected component is fully saturated but is not the whole graph; and,
    when `prune_lam` is set, the interlacing cut (`spectral_prune` with
    shift (k - prune_lam)/n).  There is no parity
    cut: odd k*n never reaches the completion, and with vertices 0..v
    saturated the deficits sum to k*n - 2|E|, which is even.

    Saturated rows are frozen, so for every unsaturated u the subgraph on
    sat + {u} is induced in every completion.  The cut tests it for each
    unsaturated neighbour u of v, and tests the saturated subgraph H alone
    only when v has none: each sat + {u} contains H, so passing it implies
    passing H.  `verdicts` memoizes the pass's verdicts (`_passes`): H under
    `key`, which names it (see `_complete_from`), and sat + {u} under
    `(key, rows[u] & sat)`, which names it up to u's label."""
    full = (1 << n) - 1
    free = full & ~sat
    left = free.bit_count()
    rest = free if left <= k else 0
    while rest:
        b = rest & -rest
        rest ^= b
        if rows[b.bit_length() - 1].bit_count() <= k - left:
            return False
    near = rows[v] & free
    # closed-component cut, needed only when v has no unsaturated neighbour:
    # the search from v stops at the first unsaturated vertex it reaches
    if not near:
        comp = reach(rows, v, free)
        if comp & free == 0 and comp != full:
            return False
    if prune_lam is None:
        return True
    shift = (k - prune_lam) / n
    tests = [(u, (key, rows[u] & sat)) for u in members(near)] or [(None, key)]
    for u, memo in tests:
        if not _passes(rows, sat, u, memo, verdicts, prune_lam, shift):
            return False
    return True


def _passes(
    rows: list[int],
    h: int,
    u: Optional[int],
    memo,
    verdicts: dict,
    lam: float,
    shift: float,
) -> bool:
    """`spectral_prune` on the subgraph the bit rows induce on the vertex
    set `h` plus the vertex u (`h` alone when u is None), solved once per
    memo key of the pass; `verdicts` is the pass's memo, which both
    `_feasible` and the forward check of `_complete_from` consult here."""
    keep = verdicts.get(memo)
    if keep is None:
        sub = _saturated_subgraph(rows, members(h if u is None else h | 1 << u))
        keep = verdicts[memo] = spectral_prune(sub, lam, shift)
    return keep


def _candidate_rows(k: int, n: int, prune_lam: Optional[Real]):
    """Yields the completed labeled candidates (row tuples), in batches of
    _STREAM_BATCH straight from the completion.  With `prune_lam` set, the
    prune compares against its float."""
    lam = None if prune_lam is None else float(Fraction(prune_lam))
    completion = _complete_from(k, n, [0] * n, 0, lam)
    while batch := list(islice(completion, _STREAM_BATCH)):
        yield from batch


def _check_range(k: int, n: int) -> None:
    """The search layer's one range rule: 1 <= k < n, within the caps."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if k > DEFAULT_MAX_K or n > DEFAULT_MAX_N:
        raise UnsupportedSizeError(
            f"(k={k}, n={n}) beyond caps (max_k={DEFAULT_MAX_K}, max_n={DEFAULT_MAX_N})"
        )


def enum_connected_regular(k: int, n: int, prune_lam: Optional[Real] = None) -> list[Graph]:
    """Exactly one representative per isomorphism class of connected k-regular
    graphs on n vertices: the canonical one, its certificate decoded, in
    certificate order, so the result does not depend on the candidates' order.

    Vertex-by-vertex completion with interchangeable candidates restricted to
    block prefixes (any completion is isomorphic to a surviving one), followed
    by isomorph rejection in one dedup pass (`_dedup`): only the first
    candidate of each class is labelled; every later one is skipped after its
    first leaf.  Odd k*n yields the empty list.  When `prune_lam` is set (any
    rational `Fraction` takes), a subtree is cut once a subgraph that every
    completion contains induced fails the interlacing cut (`_feasible`), so
    the result is exhaustive for the graphs with second eigenvalue at most
    `prune_lam` (sound for the search driver), not for all graphs.
    """
    _check_range(k, n)
    if not parity_ok(k, n):
        return []
    _, certs = _dedup(_candidate_rows(k, n, prune_lam))
    return [from_graph6(c) for c in certs]


# -- exact boundary recheck ---------------------------------------------------------


def second_eigenvalue_at_most(g: Graph, lam: Fraction) -> bool:
    """Exact check that lambda_2(g) <= lam: at most one characteristic root,
    counted with multiplicity, exceeds lam (`spectra.eigenvalue_at_most_exact`)."""
    return eigenvalue_at_most_exact(g, 2, lam)


# -- the search driver ---------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalGraph:
    """A witness: `certificate` is the graph6 of its class's canonical graph,
    and the spectrum is that graph's."""

    certificate: str
    second_largest: float
    spectrum_json: dict
    boundary: bool

    def graph(self) -> Graph:
        return from_graph6(self.certificate)


@dataclass(frozen=True)
class OrderCount:
    candidates: int
    classes: int
    passed: int


@dataclass(frozen=True)
class SearchReport:
    """Certified outcome of an exhaustive bounded-eigenvalue search."""

    k: int
    lam: float
    lam_exact: str
    n_max: int
    exact_v: Optional[int]
    extremal: tuple[ExtremalGraph, ...]
    unique: bool
    counts: dict[int, OrderCount]
    pruned: bool

    def same_result(self, other: "SearchReport") -> bool:
        """Agreement on everything pruning must not change: the maximum order,
        the extremal certificates, and the per-order passed counts."""
        if (self.exact_v, self.k, self.lam_exact) != (other.exact_v, other.k, other.lam_exact):
            return False
        if {e.certificate for e in self.extremal} != {e.certificate for e in other.extremal}:
            return False
        orders = set(self.counts) | set(other.counts)
        return all(
            self.counts.get(n_, OrderCount(0, 0, 0)).passed
            == other.counts.get(n_, OrderCount(0, 0, 0)).passed
            for n_ in orders
        )

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "lambda": self.lam,
            "lambda_exact": self.lam_exact,
            "n_max": self.n_max,
            "exact_v": self.exact_v,
            "unique": self.unique,
            "pruned": self.pruned,
            "counts": {
                str(n_): {
                    "candidates": c.candidates,
                    "classes": c.classes,
                    "passed": c.passed,
                }
                for n_, c in sorted(self.counts.items())
            },
            "extremal": [
                {
                    "graph6": e.certificate,
                    "second_largest": e.second_largest,
                    "spectrum": e.spectrum_json,
                    "boundary": e.boundary,
                }
                for e in self.extremal
            ],
        }


def _judge(cert: str, k: int, lam: Fraction) -> Optional[ExtremalGraph]:
    """The witness record of the class with certificate `cert` if its second
    eigenvalue is at most lam, else None.  The record carries the spectrum
    of the certificate decoded, re-checked to be connected and k-regular.

    The verdict is `spectra.eigenvalue_at_most`'s on the spectrum's floats;
    `boundary` records that its exact leg decided."""
    g = from_graph6(cert)
    if set(g.degrees()) != {k} or not g.is_connected():
        raise ConsistencyError("generator produced an invalid graph")
    spec = spectrum(g)
    accept, boundary = eigenvalue_at_most(g, 2, lam, spec.values())
    if not accept:
        return None
    return ExtremalGraph(
        certificate=cert,
        second_largest=spec.second_largest(),
        spectrum_json=spec.to_json_obj(),
        boundary=boundary,
    )


def v_search(
    k: int,
    lam,
    n_max: int,
    prune: bool = True,
    workers: int = 1,
) -> SearchReport:
    """Maximum order of a connected k-regular graph with second largest
    eigenvalue at most lam, exhaustively over orders <= n_max.

    Every candidate class is re-validated (connected, k-regular) and judged
    by `spectra.eigenvalue_at_most` (exact within 1e-6 of the threshold).
    A range past the caps DEFAULT_MAX_K and DEFAULT_MAX_N raises
    `UnsupportedSizeError`: no report covers fewer orders than it names.

    `workers` is kept only for callers that already pass 1: the search is
    one process, and any other value raises `ValueError`.
    """
    if workers != 1:
        raise ValueError(f"the search runs in one process; workers must be 1, got {workers!r}")
    _check_range(k, n_max)
    lam_fr = Fraction(lam)
    lam_f = float(lam_fr)

    counts: dict[int, OrderCount] = {}
    exact_v: Optional[int] = None
    extremal: tuple[ExtremalGraph, ...] = ()
    # orders go up, so the last one that passes anything is exact_v
    for n in range(k + 1, n_max + 1):
        if not parity_ok(k, n):
            counts[n] = OrderCount(0, 0, 0)
            continue
        candidates, certs = _dedup(_candidate_rows(k, n, lam_fr if prune else None))
        passed = tuple(w for w in (_judge(c, k, lam_fr) for c in certs) if w is not None)
        counts[n] = OrderCount(candidates, len(certs), len(passed))
        if passed:
            exact_v, extremal = n, passed
    return SearchReport(
        k=k,
        lam=lam_f,
        lam_exact=str(lam_fr),
        n_max=n_max,
        exact_v=exact_v,
        extremal=extremal,
        unique=len(extremal) == 1,
        counts=counts,
        pruned=prune,
    )
