"""Graph serialization: edge-list text, JSON objects, and graph6 strings.

graph6 packs the upper triangle of the adjacency matrix column-major
(x01, x02, x12, x03, ...), zero-padded to a multiple of six bits, each 6-bit
group emitted as chr(value + 63).  Orders up to 62 use the single-byte
header n + 63; larger orders (up to 258047) use the standard chr(126) + 3
byte extension so that every graph this package builds stays serializable.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .graphs import Graph


# -- edge-list text -----------------------------------------------------------


def to_edgelist_text(g: Graph) -> str:
    """First line "n m", then one line "u v" per edge with u < v."""
    lines = [f"{g.n} {g.num_edges()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def from_edgelist_text(text: str) -> Graph:
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u}, {v}) violates 0 <= u < v < n")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


# -- JSON --------------------------------------------------------------------


def to_json_obj(g: Graph) -> dict:
    return {"order": g.n, "edges": [[u, v] for u, v in g.edges()]}


def from_json_obj(obj: dict) -> Graph:
    """Inverse of to_json_obj; a malformed object raises ValueError."""
    if not isinstance(obj, dict) or "order" not in obj or "edges" not in obj:
        raise ValueError("graph JSON must be an object with 'order' and 'edges'")
    n, edges = obj["order"], obj["edges"]
    if type(n) is not int:
        raise ValueError("graph JSON 'order' must be an integer")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges
    ):
        raise ValueError("graph JSON 'edges' must be a list of [u, v] integer pairs")
    return Graph.from_edges(n, edges)


def to_json_text(g: Graph) -> str:
    return json.dumps(to_json_obj(g))


def from_json_text(text: str) -> Graph:
    return from_json_obj(json.loads(text))


# -- graph6 -------------------------------------------------------------------


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError("graph too large for graph6 encoding")


def pack_graph6(bits: Sequence[int], order: Sequence[int]) -> str:
    """graph6 of the graph with neighbour bitmasks `bits` relabelled by
    `order` (position -> vertex)."""
    n = len(order)
    column = "".join(
        ["1" if bits[order[j]] >> order[i] & 1 else "0" for j in range(1, n) for i in range(j)]
    )
    column += "0" * (-len(column) % 6)
    body = "".join([chr(int(column[p : p + 6], 2) + 63) for p in range(0, len(column), 6)])
    return _encode_order(n) + body


def to_graph6(g: Graph) -> str:
    return pack_graph6(g.bits(), range(g.n))


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 input")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("graph6 characters out of range")
    if data[0] <= 62:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[0] == 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise ValueError("malformed graph6 order header")
    if n < 1:
        raise ValueError("graph6 order must be >= 1")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for d in body:
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append((d >> s6) & 1)
    a = np.zeros((n, n), dtype=bool)
    p = 0
    for j in range(1, n):
        for i in range(j):
            if bits[p]:
                a[i, j] = a[j, i] = True
            p += 1
    return Graph(a)


# -- format dispatch -----------------------------------------------------------

FORMATS = ("edgelist", "json", "graph6")


def dump_graph(g: Graph, fmt: str) -> str:
    if fmt == "edgelist":
        return to_edgelist_text(g)
    if fmt == "json":
        return to_json_text(g)
    if fmt == "graph6":
        return to_graph6(g) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")


def load_graph(text: str) -> Graph:
    """Parse `text`, its format told by its first non-blank character: JSON
    starts with "{" and holds a '"' (graph6 of order 60 starts with "{" too,
    but never holds one), an edge list starts with its order (a digit or
    "-"), and graph6 uses only the characters 63..126."""
    stripped = text.strip()
    if stripped.startswith("{") and '"' in stripped:
        return from_json_text(text)
    if stripped[:1].isdigit() or stripped.startswith("-"):
        return from_edgelist_text(text)
    return from_graph6(text)
