"""Small Ramsey numbers: an exact table plus sound interval fallbacks.

R(s, t) is the least n such that every graph on n vertices contains a clique
of size s or an independent set of size t.  Exact values beyond small cases
are unknown, so lookups outside the embedded table return an interval: the
upper end from the parity-strengthened recurrence
R(s,t) <= R(s-1,t) + R(s,t-1) (minus one when both terms are even), tabulated
bottom-up up to UPPER_TABLE_CAP cells, the lower
end from table monotonicity and the complete-multipartite witness
(s-1)(t-1) + 1.  Brute-force verifiers for the smallest table entries are
provided for the test suite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Optional

from .construct import circulant, complement, complete, cycle, edgeless
from .errors import UnsupportedSizeError
from .graphs import Graph, contains_induced

# Cells of the recurrence table behind an interval's upper end.
UPPER_TABLE_CAP = 10**6

# Established values; stored with s <= t.
_TABLE: dict[tuple[int, int], int] = {
    (3, 3): 6,
    (3, 4): 9,
    (3, 5): 14,
    (3, 6): 18,
    (3, 7): 23,
    (3, 8): 28,
    (3, 9): 36,
    (4, 4): 18,
    (4, 5): 25,
}


@dataclass(frozen=True)
class RamseyValue:
    s: int
    t: int
    exact: Optional[int]
    lower: int
    upper: Optional[int]

    def contains(self, value: int) -> bool:
        if self.exact is not None:
            return value == self.exact
        return self.lower <= value and (self.upper is None or value <= self.upper)

    def to_json_obj(self) -> dict:
        return asdict(self)


def _table_exact(s: int, t: int) -> Optional[int]:
    if s > t:
        s, t = t, s
    if s == 1:
        return 1
    if s == 2:
        return t
    return _TABLE.get((s, t))


def _upper(s: int, t: int) -> int:
    """The parity-strengthened recurrence, tabulated bottom-up.

    Row i of the table holds the bound for (i, j), j <= t; each row is
    computed in place over the one before it, from (i-1, j) and (i, j-1).
    Raises UnsupportedSizeError when the table would pass UPPER_TABLE_CAP
    cells."""
    exact = _table_exact(s, t)
    if exact is not None:
        return exact
    if s * t > UPPER_TABLE_CAP:
        raise UnsupportedSizeError(
            f"Ramsey recurrence table {s} x {t} exceeds {UPPER_TABLE_CAP} cells"
        )
    row = [0] + [1] * t  # R(1, j) = 1
    for i in range(2, s + 1):
        for j in range(1, t + 1):
            bound = _table_exact(i, j)
            if bound is None:
                a, b = row[j], row[j - 1]
                bound = a + b - (a % 2 == 0 and b % 2 == 0)
            row[j] = bound
    return row[t]


def ramsey_lookup(s: int, t: int) -> RamseyValue:
    """Exact value when tabulated, otherwise a sound [lower, upper] interval."""
    if s < 1 or t < 1:
        raise ValueError("Ramsey arguments must be >= 1")
    exact = _table_exact(s, t)
    if exact is not None:
        return RamseyValue(s, t, exact, exact, exact)
    lower = (s - 1) * (t - 1) + 1
    for (s0, t0), val in _TABLE.items():
        for a, b in ((s0, t0), (t0, s0)):
            if a <= s and b <= t:
                lower = max(lower, val)
    return RamseyValue(s, t, None, lower, _upper(s, t))


# -- brute-force verification ---------------------------------------------------


def has_clique(g: Graph, r: int) -> bool:
    """Whether g has r pairwise adjacent vertices (r >= 1), by the one
    induced-subgraph matcher."""
    return r >= 1 and contains_induced(g, complete(r))[0]


def has_coclique(g: Graph, r: int) -> bool:
    return has_clique(complement(g), r)


def is_ramsey_witness(g: Graph, s: int, t: int) -> bool:
    """True when g has no clique of size s and no coclique of size t."""
    return not has_clique(g, s) and not has_coclique(g, t)


def every_graph_arrows(n: int, s: int, t: int) -> bool:
    """Exhaustively check that every graph on n vertices contains a K_s or a
    size-t coclique, for n <= 7 (at most 21 vertex pairs).

    Backtracking assigns the pairs one at a time, edge or non-edge, in order
    of their larger vertex.  After pair i only the s- and t-combos whose
    highest pair is i can newly be complete, so only they are checked; a
    branch that holds one stops there, since every graph extending it does
    too.  A branch that assigns every pair is a graph with neither.  A combo
    of at most one vertex has no pairs, so every graph contains it."""
    if n > 7:
        raise UnsupportedSizeError("exhaustive check limited to n <= 7 (21 vertex pairs)")
    pairs = [(u, v) for v in range(n) for u in range(v)]
    index = {pq: i for i, pq in enumerate(pairs)}
    # closing[i] = (s masks, t masks) of the combos whose highest pair is i
    closing: list[tuple[list[int], list[int]]] = [([], []) for _ in pairs]
    for side, r in ((0, s), (1, t)):
        for combo in combinations(range(n), r):
            ids = [index[pq] for pq in combinations(combo, 2)]
            if not ids:
                return True
            closing[max(ids)][side].append(sum(1 << i for i in ids))

    def extend(i: int, mask: int) -> bool:
        if i == len(pairs):
            return False
        s_masks, t_masks = closing[i]
        edge = mask | 1 << i
        if not any(edge & m == m for m in s_masks) and not extend(i + 1, edge):
            return False
        return any(mask & m == 0 for m in t_masks) or extend(i + 1, mask)

    return extend(0, 0)


def verify_small_table() -> dict[str, bool]:
    """Re-derive R(2,t) for t <= 5, R(3,3) and R(3,4) from first principles.

    R(3,4)'s upper bound uses the parity-strengthened recurrence on the two
    exhaustively verified values (both even), the lower bound an explicitly
    checked witness on 8 vertices.
    """
    results = {}
    for t in range(2, 6):
        lower_ok = is_ramsey_witness(edgeless(t - 1), 2, t)
        upper_ok = every_graph_arrows(t, 2, t)
        results[f"R(2,{t})={t}"] = lower_ok and upper_ok
    r33_lower = is_ramsey_witness(cycle(5), 3, 3)
    r33_upper = every_graph_arrows(6, 3, 3)
    results["R(3,3)=6"] = r33_lower and r33_upper
    r34_lower = is_ramsey_witness(circulant(8, [1, 4]), 3, 4)
    r24 = ramsey_lookup(2, 4).exact
    r33 = ramsey_lookup(3, 3).exact
    parity_upper = r24 + r33 - (1 if (r24 % 2 == 0 and r33 % 2 == 0) else 0)
    results["R(3,4)=9"] = r34_lower and parity_upper == 9
    return results
