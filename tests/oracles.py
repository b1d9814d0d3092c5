"""Brute-force oracles for the tests: exhaustive over subsets and
permutations, so only for tiny inputs."""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional, Sequence

import numpy as np

from regspectra.errors import UnsupportedSizeError
from regspectra.formats import to_graph6
from regspectra.graphs import Graph


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
