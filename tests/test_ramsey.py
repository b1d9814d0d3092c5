"""Ramsey table, interval fallback, and the brute-force verifiers."""

import pytest

from regspectra import ramsey
from regspectra.construct import circulant, complete, cycle, edgeless
from regspectra.errors import UnsupportedSizeError

from oracles import every_graph_arrows_bruteforce, ramsey_upper_recursive


def test_base_cases():
    assert ramsey.ramsey_lookup(1, 7).exact == 1
    assert ramsey.ramsey_lookup(2, 5).exact == 5
    assert ramsey.ramsey_lookup(5, 2).exact == 5  # symmetry
    with pytest.raises(ValueError):
        ramsey.ramsey_lookup(0, 3)


def test_table_values():
    assert ramsey.ramsey_lookup(3, 3).exact == 6
    assert ramsey.ramsey_lookup(3, 4).exact == 9
    assert ramsey.ramsey_lookup(4, 3).exact == 9
    assert ramsey.ramsey_lookup(4, 4).exact == 18
    assert ramsey.ramsey_lookup(4, 5).exact == 25


def test_intervals_contain_table():
    # the recurrence interval must contain every exact table value
    for (s, t), val in ramsey._TABLE.items():
        assert ramsey._upper(s, t) >= val
        rv = ramsey.ramsey_lookup(s, t)
        assert rv.contains(val)


def test_interval_fallback():
    rv = ramsey.ramsey_lookup(5, 5)
    assert rv.exact is None
    assert rv.lower >= (5 - 1) * (5 - 1) + 1
    assert rv.lower >= 25  # table monotonicity through R(4,5)
    assert rv.upper is not None and rv.upper >= rv.lower
    # parity-strengthened recurrence from R(4,5)=25 and R(3,5)=14
    assert ramsey._upper(4, 6) <= ramsey._upper(3, 6) + ramsey._upper(4, 5)


def test_upper_table_matches_recursion():
    # the bottom-up table equals the recurrence's recursive definition
    for s in range(1, 40):
        for t in range(1, 40):
            assert ramsey._upper(s, t) == ramsey_upper_recursive(s, t), (s, t)


def test_upper_table_cap():
    # one table row past the cap is refused; tabulated values need no table
    rv = ramsey.ramsey_lookup(500, 500)
    assert rv.upper > rv.lower
    with pytest.raises(UnsupportedSizeError, match="exceeds"):
        ramsey.ramsey_lookup(1001, 1000)
    assert ramsey.ramsey_lookup(2, 10**9).exact == 10**9


def test_witnesses():
    assert ramsey.is_ramsey_witness(cycle(5), 3, 3)
    assert ramsey.is_ramsey_witness(circulant(8, [1, 4]), 3, 4)
    assert ramsey.is_ramsey_witness(edgeless(4), 2, 5)
    assert not ramsey.is_ramsey_witness(complete(3), 3, 3)


def test_clique_coclique_helpers():
    g = complete(4)
    assert ramsey.has_clique(g, 4) and not ramsey.has_clique(g, 5)
    assert ramsey.has_coclique(g, 1) and not ramsey.has_coclique(g, 2)
    c5 = cycle(5)
    assert ramsey.has_clique(c5, 2) and not ramsey.has_clique(c5, 3)
    assert ramsey.has_coclique(c5, 2) and not ramsey.has_coclique(c5, 3)


def test_every_graph_arrows_small():
    assert ramsey.every_graph_arrows(6, 3, 3)
    assert not ramsey.every_graph_arrows(5, 3, 3)  # C5 is the witness
    assert ramsey.every_graph_arrows(3, 2, 3)
    assert not ramsey.every_graph_arrows(2, 2, 3)
    with pytest.raises(ValueError, match="n <= 7"):
        ramsey.every_graph_arrows(8, 3, 3)


def test_every_graph_arrows_matches_bruteforce():
    # the backtracking verdict equals the walk over every pair mask
    for n in range(7):
        for s in range(5):
            for t in range(5):
                want = every_graph_arrows_bruteforce(n, s, t)
                assert ramsey.every_graph_arrows(n, s, t) == want, (n, s, t)


def test_verify_small_table():
    results = ramsey.verify_small_table()
    assert all(results.values()), results
