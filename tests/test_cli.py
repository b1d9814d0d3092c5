"""End-to-end CLI checks through main(argv)."""

import argparse
import json
from itertools import takewhile

import pytest

from regspectra import cli, formats, search
from regspectra.construct import petersen
from regspectra.graphs import Graph


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_known_v(capsys):
    code, out, _ = run(capsys, "bounds", "known-v", "--k", "11", "--lambda", "1")
    assert code == 0 and out.strip() == "24"
    # the lower end is the order of lower_bound_graph(2, 3)
    code, out, _ = run(capsys, "bounds", "known-v", "--k", "6", "--lambda", "2")
    assert code == 0 and out.startswith("[16, unknown]  ")


def test_known_v_rational(capsys):
    code, out, _ = run(capsys, "bounds", "known-v", "--k", "4", "--lambda", "1/2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["kind"] == "interval" and blob["lower"] == 8


def test_thresholds_json(capsys):
    code, out, _ = run(capsys, "bounds", "thresholds", "--lambda", "2", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["t_prime"] == 3


def test_thresholds_text(capsys):
    code, out, _ = run(capsys, "bounds", "thresholds", "--lambda", "3/2")
    assert code == 0
    assert out.splitlines() == [
        "lambda: 3/2", "t_prime: 2", "m_prime: 2", "gamma2_cap: 2", "isolated_cap: 3",
    ]


@pytest.mark.parametrize("lam, m_prime", [("1999999999/1000000000", 4), ("10", 176)])
def test_thresholds_answers_near_boundary_and_large(capsys, lam, m_prime):
    code, out, err = run(capsys, "bounds", "thresholds", "--lambda", lam, "--json")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["m_prime"] == m_prime


def test_ramsey(capsys):
    code, out, _ = run(capsys, "bounds", "ramsey", "--s", "3", "--t", "4")
    assert code == 0 and out.strip() == "9"


def test_mu_bound(capsys):
    code, out, _ = run(capsys, "bounds", "mu-bound", "--lambda", "2")
    assert code == 0 and out.strip() == "8"


def test_construct_and_spectrum_round_trip(tmp_path, capsys):
    out_file = tmp_path / "g.g6"
    code, _, err = run(
        capsys,
        "construct", "lower-bound-graph", "--lambda", "2", "--a", "3",
        "--out", str(out_file), "--out-format", "graph6",
    )
    assert code == 0
    g = formats.from_graph6(out_file.read_text())
    assert g.n == 16 and set(g.degrees()) == {6}

    code, out, _ = run(capsys, "spectrum", str(out_file), "--json")
    assert code == 0
    blob = json.loads(out)
    pairs = [(e["value"], e["multiplicity"]) for e in blob["eigenvalues"]]
    assert pairs[0][0] == pytest.approx(6) and pairs[0][1] == 1


def test_emitted_graph_reingests_isomorphic(tmp_path, capsys):
    src = tmp_path / "p.json"
    src.write_text(formats.dump_graph(petersen(), "json"))
    want = search.canonical_form(petersen()).certificate
    for fmt in formats.FORMATS:
        out_file = tmp_path / f"p.{fmt}"
        # emit the double complement (identity) through the CLI in each format
        mid = tmp_path / f"mid.{fmt}"
        code, _, _ = run(capsys, "construct", "complement", str(src),
                         "--out", str(mid), "--out-format", fmt)
        assert code == 0
        code, _, _ = run(capsys, "construct", "complement", str(mid),
                         "--out", str(out_file), "--out-format", fmt)
        assert code == 0
        back = formats.load_graph(out_file.read_text())
        assert search.canonical_form(back).certificate == want


def test_hoffman_commands(tmp_path, capsys):
    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps({"order": 3, "edges": [[0, 1], [0, 2], [1, 2]], "fat": [2]}))
    code, out, _ = run(capsys, "hoffman", "lambda-min", str(hfile), "--json")
    assert code == 0 and json.loads(out)["lambda_min"] == pytest.approx(-1.0)
    code, out, _ = run(capsys, "hoffman", "special-matrix", str(hfile), "--json")
    assert code == 0
    assert json.loads(out)["matrix"] == [[-1.0, 0.0], [0.0, -1.0]]
    code, out, _ = run(capsys, "hoffman", "fatten", str(hfile), "--p", "3",
                       "--out-format", "edgelist")
    assert code == 0
    g = formats.from_edgelist_text(out)
    assert g.n == 5 and set(g.degrees()) == {4}  # K_5: fat becomes a joined K_3
    out_file = tmp_path / "k5.txt"
    code, out, _ = run(capsys, "hoffman", "fatten", str(hfile), "--p", "3",
                       "--out-format", "edgelist", "--out", str(out_file))
    assert code == 0 and out == ""
    assert formats.from_edgelist_text(out_file.read_text()) == g


def test_hoffman_validate_failure(tmp_path, capsys):
    hfile = tmp_path / "bad.json"
    hfile.write_text(json.dumps({"order": 2, "edges": [], "fat": [1]}))
    code, out, _ = run(capsys, "hoffman", "validate", str(hfile))
    assert code == 1 and "no slim neighbor" in out


def test_associate(tmp_path, capsys):
    gfile = tmp_path / "g.el"
    from regspectra.construct import complete

    gfile.write_text(formats.dump_graph(complete(9), "edgelist"))
    code, out, _ = run(capsys, "associate", str(gfile), "--m", "2", "--n", "9", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["hoffman"]["fat"] == [9]
    assert blob["partition"]["classes"][0]["quasi_clique"] == list(range(9))


def test_associate_consistency_error(tmp_path, monkeypatch, capsys):
    # K_11 minus an edge: two maximal 10-cliques in one class, hypotheses hold;
    # a quasi-clique that depends on the representative is a verification failure
    from regspectra import association

    edges = [(i, j) for i in range(11) for j in range(i + 1, 11) if (i, j) != (9, 10)]
    gfile = tmp_path / "g.el"
    gfile.write_text(formats.dump_graph(Graph.from_edges(11, edges), "edgelist"))
    real = association.quasi_clique
    monkeypatch.setattr(
        association, "quasi_clique", lambda g, c, m: real(g, c, m) | ({99} if 9 in c else set())
    )
    code, out, err = run(capsys, "associate", str(gfile), "--m", "2", "--n", "9")
    assert code == 1 and out == ""
    assert err == "error: quasi-clique depends on the representative although the hypotheses hold\n"


def test_search_cli(capsys):
    code, out, _ = run(capsys, "search", "--k", "2", "--lambda", "0", "--n-max", "8", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["exact_v"] == 4 and blob["unique"]


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "spectra")
    assert code == 0 and "[PASS] A1" in out
    code, out, _ = run(capsys, "verify", "--suite", "hoffman", "--json")
    # hoffman carries the documented red claim A5, hence exit 1
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    by_id = {l["id"]: l["passed"] for l in lines}
    assert by_id["A4"] and by_id["A5b"] and not by_id["A5"]


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "spectrum", str(tmp_path / "missing.g6"))
    assert code == 2
    code, _, err = run(capsys, "construct", "line-graph")
    assert code == 2
    bad = tmp_path / "bad.g6"
    bad.write_text("\x01\x02\n")
    code, _, err = run(capsys, "spectrum", str(bad))
    assert code == 2
    code, _, _ = run(capsys, "bogus-subcommand")
    assert code == 2


def test_repeated_edge_line_is_usage_error(tmp_path, capsys):
    path = tmp_path / "twice.el"
    path.write_text("3 2\n0 1\n0 1\n")
    code, out, err = run(capsys, "spectrum", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: repeated edge (0, 1)"]


def test_repeated_fat_vertex_is_usage_error(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text('{"order": 3, "edges": [[0, 1], [0, 2], [1, 2]], "fat": [2, 2]}')
    code, out, err = run(capsys, "hoffman", "special-matrix", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: repeated fat vertex 2"]


@pytest.mark.parametrize(
    "command, text",
    [
        (("hoffman", "validate"), "{}"),
        (("hoffman", "validate"), "[1,2]"),
        (("hoffman", "validate"), '{"order":3,"edges":5}'),
        (("hoffman", "validate"), '{"order":2,"edges":[[0,1]],"fat":5}'),
        (("spectrum",), '{"order":3,"edges":5}'),
        (("spectrum",), '{"order":[3],"edges":[]}'),
    ],
)
def test_malformed_json_is_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, _, err = run(capsys, *command, str(path))
    assert code == 2 and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--k", "3", "--lambda", "1e400", "--n-max", "8"),
        ("bounds", "thresholds", "--lambda", "1e400"),
    ],
)
def test_lambda_beyond_float_range_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "out of float range" in err and "Traceback" not in err


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "search", "--k", "3", "--lambda", "1", "--n-max", "3")
    assert code == 2  # n_max below k+1 is a usage error


def test_capped_search_exits_3(capsys):
    # a range past either cap is refused before any order is searched: a
    # report over fewer orders than asked would read as v(k, lambda)
    for k, n_max in ((3, search.DEFAULT_MAX_N + 2), (search.DEFAULT_MAX_K + 1, 19)):
        for json_flag in ((), ("--json",)):
            argv = ("search", "--k", str(k), "--lambda", "1", "--n-max", str(n_max), *json_flag)
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
            assert "beyond caps" in err, argv


def test_spectrum_of_edgeless_graph(tmp_path, capsys):
    from regspectra.construct import edgeless

    gfile = tmp_path / "e.el"
    gfile.write_text(formats.dump_graph(edgeless(5), "edgelist"))
    code, out, _ = run(capsys, "spectrum", str(gfile), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["eigenvalues"] == [{"value": 0.0, "multiplicity": 5}]


def test_negative_lambda_parses(capsys):
    code, out, _ = run(capsys, "search", "--k", "3", "--lambda", "-0.5", "--n-max", "6")
    assert code == 0 and "lambda=-1/2" in out
    code, out, _ = run(capsys, "search", "--k", "3", "--lambda=-1/2", "--n-max", "6")
    assert code == 0


def test_out_of_memory_is_a_resource_error(monkeypatch, capsys):
    from regspectra import construct

    def too_big(m):
        raise MemoryError(f"Unable to allocate 37.3 GiB for the order-{2 * m + 1} matrix")

    monkeypatch.setattr(construct, "k_tilde", too_big)
    code, out, err = run(capsys, "construct", "k-tilde", "--m", "100000")
    assert code == 3 and out == ""
    assert err == "error: Unable to allocate 37.3 GiB for the order-200001 matrix\n"


def test_failed_cross_check_is_one_error_line(monkeypatch, capsys):
    # a labelling that records no leaf keys lets a second candidate of a
    # class through to the dedup's certificate cross-check
    real = search.canonical_form
    monkeypatch.setattr(search, "canonical_form", lambda rows, keys: real(rows))
    code, out, err = run(capsys, "search", "--k", "3", "--lambda", "2", "--n-max", "10")
    assert code == 1 and out == ""
    assert err == "error: leaf-key rejection missed an isomorphism\n"


SEARCH = ("search", "--k", "3", "--lambda", "1", "--n-max", "6")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("construct", "k-tilde", "--m", "2", "--q", "3"), "--q"),
        (("bounds", "thresholds", "--lambda", "2", "--k", "3"), "--k"),
        (("bounds", "ramsey", "--s", "3", "--t", "4", "--lambda", "2"), "--lambda"),
        (("hoffman", "validate", "HFILE", "--p", "2"), "--p"),
        (("hoffman", "lambda-min", "HFILE", "--out", "x.el"), "--out"),
        (("construct", "complement", "GFILE", "--json"), "--json"),
        (("bounds", "mu-bound", "--lambda", "2", "--json"), "--json"),
        # the format of a graph file is read from the file
        (("spectrum", "GFILE", "--format", "json"), "--format"),
        # the search runs in one process: every --threads value is foreign,
        # whether or not it reads as a count
        *(((*SEARCH, "--threads", t), f"--threads {t}") for t in ("2", "0", "-2", "two")),
        # association always checks every representative
        (("associate", "GFILE", "--m", "2", "--n", "9", "--certified"), "--certified"),
    ],
)
def test_foreign_option_is_usage_error(tmp_path, capsys, argv, option):
    # each command takes only the options its handler reads
    files = {"HFILE": tmp_path / "h.json", "GFILE": tmp_path / "g.json"}
    hoffman = {"order": 3, "edges": [[0, 1], [0, 2], [1, 2]], "fat": [2]}
    files["HFILE"].write_text(json.dumps(hoffman))
    files["GFILE"].write_text(formats.to_json_text(petersen()))
    words = " ".join(takewhile(lambda a: a not in files and not a.startswith("-"), argv))
    code, out, err = run(capsys, *[str(files.get(a, a)) for a in argv])
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"unrecognized arguments: {option}" in err
    # the leaf that refused the option reports it, not the root parser
    assert err.startswith(f"usage: regspectra {words} ")


@pytest.mark.parametrize(
    "argv, words",
    [
        (("--json", "search", "--k", "3", "--lambda", "1", "--n-max", "10"), "search"),
        (("bounds", "--json", "known-v", "--k", "4", "--lambda", "1/2"), "bounds known-v"),
    ],
)
def test_json_above_the_leaf_is_usage_error(capsys, argv, words):
    # --json belongs to the leaf that prints JSON, not to the root or a group
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: regspectra {words} ")
    assert "unrecognized arguments: --json" in err


def test_json_declared_on_the_leaves_that_print_json():
    def walk(parser, words=()):
        yield " ".join(words), parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    yield from walk(child, words + (name,))

    with_json = [
        words
        for words, parser in walk(cli.build_parser())
        if any("--json" in a.option_strings for a in parser._actions)
    ]
    assert sorted(with_json) == sorted([
        "spectrum",
        "construct lower-bound-graph",
        "hoffman special-matrix",
        "hoffman lambda-min",
        "hoffman validate",
        "associate",
        "bounds thresholds",
        "bounds known-v",
        "bounds ramsey",
        "search",
        "verify",
    ])


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "complete-multipartite"),
        ("construct", "k-tilde"),
        ("construct", "lower-bound-graph", "--a", "3"),
        ("construct", "lower-bound-graph", "--lambda", "2"),
        ("construct", "line-graph"),
        ("construct", "complement"),
        ("construct", "coclique-ext", "--q", "2"),
        ("construct", "coclique-ext", "g.el"),
        ("bounds", "thresholds"),
        ("bounds", "known-v", "--lambda", "1"),
        ("bounds", "known-v", "--k", "3"),
        ("bounds", "mu-bound"),
        ("bounds", "ramsey", "--t", "4"),
        ("bounds", "ramsey", "--s", "3"),
    ],
)
def test_missing_option_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "required" in err and "Traceback" not in err


def test_integer_lambda_forms(capsys):
    code, out, _ = run(capsys, "bounds", "mu-bound", "--lambda", "4/2")
    assert code == 0 and out.strip() == "8"
    code, out, err = run(capsys, "bounds", "mu-bound", "--lambda", "3/2")
    assert code == 2 and out == "" and "must be an integer" in err
    code, out, _ = run(capsys, "construct", "lower-bound-graph", "--lambda", "2.0", "--a", "2")
    assert code == 0 and formats.from_edgelist_text(out).n == 12


def test_leaf_help_lists_only_its_options(capsys):
    code, out, _ = run(capsys, "bounds", "thresholds", "--help")
    assert code == 0 and "--lambda" in out and "--k" not in out


def test_ramsey_large_and_capped(capsys):
    code, out, err = run(capsys, "bounds", "ramsey", "--s", "500", "--t", "500", "--json")
    assert code == 0 and err == ""
    blob = json.loads(out)
    assert blob["exact"] is None and blob["upper"] > blob["lower"]
    code, out, err = run(capsys, "bounds", "ramsey", "--s", "2000", "--t", "2000")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
