"""Serialization round trips and graph6 conformance."""

import random

import pytest

from regspectra import formats
from regspectra.construct import complete, cycle, edgeless, petersen, random_graph
from regspectra.graphs import Graph


def _random_graphs(count, max_n=12, seed=99):
    rng = random.Random(seed)
    return [random_graph(rng.randint(1, max_n), rng.random(), rng) for _ in range(count)]


@pytest.mark.parametrize("fmt", formats.FORMATS)
def test_round_trip(fmt):
    # load_graph sniffs the format from the text
    for g in _random_graphs(25) + [petersen()]:
        assert formats.load_graph(formats.dump_graph(g, fmt)) == g


def test_graph6_known_strings():
    assert formats.to_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    assert formats.to_graph6(edgeless(2)) == "A?"
    assert formats.to_graph6(edgeless(1)) == "@"
    assert formats.from_graph6("A_") == Graph.from_edges(2, [(0, 1)])


def test_graph6_against_networkx():
    nx = pytest.importorskip("networkx")
    for g in _random_graphs(25, seed=7) + [petersen(), complete(9), cycle(13)]:
        ours = formats.to_graph6(g)
        gx = nx.Graph()
        gx.add_nodes_from(range(g.n))
        gx.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert ours == theirs
        assert formats.from_graph6(theirs) == g


def test_graph6_large_order_header():
    g = edgeless(80)
    s = formats.to_graph6(g)
    assert s.startswith(chr(126))
    assert formats.from_graph6(s) == g


def test_edgelist_errors():
    with pytest.raises(ValueError):
        formats.from_edgelist_text("")
    with pytest.raises(ValueError):
        formats.from_edgelist_text("2 1\n1 0\n")  # u < v violated
    with pytest.raises(ValueError):
        formats.from_edgelist_text("2 2\n0 1\n")  # wrong edge count


def test_graph6_errors():
    with pytest.raises(ValueError):
        formats.from_graph6("")
    with pytest.raises(ValueError):
        formats.from_graph6("A")  # missing body
    with pytest.raises(ValueError):
        formats.from_graph6("\x1f\x1f")  # characters out of range


def test_graph6_order_boundary():
    # 62 is the last single-byte order; 63 switches to the 3-byte header
    assert formats.to_graph6(edgeless(62))[0] == chr(62 + 63)
    s63 = formats.to_graph6(edgeless(63))
    assert s63[0] == chr(126)
    assert formats.from_graph6(s63) == edgeless(63)


def test_edgelist_repeated_edge_rejected():
    # a repeated line would load as one edge and contradict the header's m
    with pytest.raises(ValueError, match=r"repeated edge \(0, 1\)"):
        formats.from_edgelist_text("3 2\n0 1\n0 1\n")


def test_json_repeated_edge_rejected():
    # the JSON reader refuses what the edge-list reader refuses: [1, 0] is
    # the edge [0, 1] again, and merging them would lose the second
    with pytest.raises(ValueError, match=r"repeated edge \(0, 1\)"):
        formats.from_json_obj({"order": 2, "edges": [[0, 1], [1, 0]]})


def test_graph6_sniffed_at_every_order():
    # graph6 of order 60 starts with "{", like JSON, but holds no '"'
    rng = random.Random(60)
    for n in range(1, 71):
        g = random_graph(n, 0.5, rng)
        assert formats.load_graph(formats.to_graph6(g)) == g
    g = cycle(60)
    assert formats.load_graph(formats.to_json_text(g)) == g
    assert formats.load_graph('\n {"order": 2, "edges": [[0, 1]]}\n') == complete(2)


def test_negative_order_rejected():
    # Graph's own message, not numpy's "negative dimensions are not allowed";
    # a leading "-" starts an edge list, since no graph6 character is one
    for text in ('{"order": -1, "edges": []}', "-1 0\n"):
        with pytest.raises(ValueError, match="graph must have at least one vertex"):
            formats.load_graph(text)
