"""Static checks on the package source.

The design rules of ROADMAP north-star 2 ("one eigensolver", "one BFS", ...)
are the rows of `RULES`: each names a regex that no line of the files it
covers may match (but for "one-cut" and "one-spectra-solve", which want
exactly one matching line, inside `spectral_prune` and `eig_symmetric`),
and each is its own test.  One source rule stays a CI step
(`.github/workflows/tests.yml`, "No tracked file matches .gitignore"): it
asks which files git tracks, which only the git index knows, and a test run
on an exported tree has no index to ask.
"""

import ast
import re
from fnmatch import fnmatch
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "regspectra"


class Rule(NamedTuple):
    name: str
    pattern: str  # searched in each line
    files: str = "*.py"  # glob over the file names in src/regspectra
    exempt: tuple[str, ...] = ()
    inside: Optional[str] = None  # exactly one line matches, inside this top-level def


RULES = [
    # numpy.linalg only in kernel.py
    Rule("one-eigensolver", r"linalg", exempt=("kernel.py",)),
    # bit-row frontiers only; no vertex queue or distance matrix
    Rule("one-bfs", r"deque|distance_matrix"),
    # no eigenvalue margin; the window and the negated-matrix premise only in spectra.py
    Rule("one-boundary-rule-margin", r"STRICT_MARGIN"),
    Rule(
        "one-boundary-rule-window",
        r"BOUNDARY_WINDOW|eigenvalue_at_most\(-",
        exempt=("spectra.py",),
    ),
    # graphs go to spectra as they are; no adjacency casts outside it
    Rule("one-spectral-front-door", r"\.adj\.astype"),
    # twin classes only from graphs.twin_classes
    Rule("one-twin-rule", r"def .*twin", exempt=("graphs.py",)),
    # claimed spectra are exact
    Rule("one-spectrum-check", r"approx_eq"),
    Rule("one-exact-count", r"sturm_chain|squarefree|count_roots_in"),
    # no dispatch on the command's name; no option shared through a parent parser
    Rule(
        "one-parser-per-command",
        r"args.command ==|needs --|SUPPRESS|parents=",
        files="cli.py",
    ),
    Rule("one-search-process", r"multiprocessing|stop_depth"),
    # the search sits below the bounds: it imports nothing from them
    Rule("search-below-bounds", r"from \.bounds|from \. import .*\bbounds\b", files="search.py"),
    # the kernel is reached through spectra, and from the search's prune alone
    Rule("one-kernel-door", r"kernel\.sym_eigenvalues\(", exempt=("spectra.py", "search.py")),
    # the search's one eigensolve is the prune's
    Rule("one-cut", r"kernel\.sym_eigenvalues", files="search.py", inside="spectral_prune"),
    # spectra's one kernel call is eig_symmetric's: grouped and quotient
    # spectra go through it
    Rule(
        "one-spectra-solve",
        r"kernel\.sym_eigenvalues\(",
        files="spectra.py",
        inside="eig_symmetric",
    ),
    # each order reaches the report as the dedup's (candidates, certificates):
    # no count side channel, no parity flag, no re-encoding of a certificate
    Rule("one-order-path", r"_info\b|parity_skipped|to_graph6", files="search.py"),
    # a size refusal is an UnsupportedSizeError and a failed cross-check a
    # ConsistencyError; no pattern cap that no caller meets
    Rule("one-failure-kind", r"CapExceededError|PATTERN_CAP|raise (AssertionError|ArithmeticError)"),
    # a search past the caps is refused, never reported over a cut range;
    # the clique relation is tested only inside partition_classes
    Rule("one-search-range", r"\.complete\b|complete=|\bn_cap\b|equiv_nm"),
]


def _def_lines(text: str, name: str) -> range:
    """The line numbers of the top-level function `name`, or none."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def violations(rule: Rule, name: str, text: str) -> list[str]:
    """The lines of file `name` that break `rule`, as "name:line: text"."""
    if not fnmatch(name, rule.files) or name in rule.exempt:
        return []
    hits = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), 1)
        if re.search(rule.pattern, line)
    ]
    missing = []
    if rule.inside is not None:
        inside = [hit for hit in hits if hit[0] in _def_lines(text, rule.inside)]
        if inside:
            hits.remove(inside[0])  # the one line the rule expects
        else:
            missing = [f"{name}: no line of {rule.inside} matches {rule.pattern}"]
    return [f"{name}:{i}: {line}" for i, line in hits] + missing


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_source_rule(rule):
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += violations(rule, path.name, path.read_text())
    assert found == []


# one planted violation per rule: (rule, file name, text, line reported)
PLANTED = [
    ("one-eigensolver", "graphs.py", "import numpy\nfrom numpy import linalg\n", 2),
    ("one-bfs", "graphs.py", "from collections import deque\n", 1),
    ("one-bfs", "bounds.py", "d = g.distance_matrix()\n", 1),
    ("one-boundary-rule-margin", "spectra.py", "STRICT_MARGIN = 1e-9\n", 1),
    ("one-boundary-rule-window", "bounds.py", "ok = x <= lam + BOUNDARY_WINDOW\n", 1),
    ("one-boundary-rule-window", "bounds.py", "ok = eigenvalue_at_most(-a, lam)\n", 1),
    ("one-spectral-front-door", "hoffman.py", "m = g.adj.astype(float)\n", 1),
    ("one-twin-rule", "search.py", "x = 1\n\ndef twin_of(bits, v):\n", 3),
    ("one-spectrum-check", "acceptance.py", "ok = s.approx_eq(t)\n", 1),
    ("one-exact-count", "exactpoly.py", "def sturm_chain(p):\n", 1),
    ("one-exact-count", "exactpoly.py", "q = squarefree(p)\n", 1),
    ("one-exact-count", "exactpoly.py", "c = count_roots_in(p, a, b)\n", 1),
    ("one-parser-per-command", "cli.py", "if args.command == 'search':\n", 1),
    ("one-parser-per-command", "cli.py", "raise UsageError('needs --k')\n", 1),
    ("one-parser-per-command", "cli.py", "p = sub.add_parser('search', parents=[common])\n", 1),
    ("one-parser-per-command", "cli.py", "x = 1\nc.add_argument('--json', default=SUPPRESS)\n", 2),
    ("one-search-process", "search.py", "import multiprocessing\n", 1),
    ("one-search-process", "search.py", "def f(stop_depth):\n", 1),
    ("search-below-bounds", "search.py", "from . import kernel\nfrom .bounds import Real\n", 2),
    ("search-below-bounds", "search.py", "from . import bounds, kernel\n", 1),
    ("one-order-path", "search.py", "x = 1\ndef f(k, n, _info=None):\n", 2),
    ("one-order-path", "search.py", "OrderCount(0, 0, 0, parity_skipped=True)\n", 1),
    ("one-failure-kind", "association.py", "x = 1\nraise CapExceededError('too many cliques')\n", 2),
    ("one-failure-kind", "search.py", "raise AssertionError('generator produced an invalid graph')\n", 1),
    ("one-search-range", "cli.py", "x = 1\nreturn 0 if report.complete else 3\n", 2),
    ("one-search-range", "search.py", "n_cap = min(n_max, DEFAULT_MAX_N)\n", 1),
    ("one-kernel-door", "hoffman.py", "seq = kernel.sym_eigenvalues(q)[:, 0]\n", 1),
    ("one-kernel-door", "acceptance.py", "x = 1\ngmin = kernel.sym_eigenvalues(g.adj)[0]\n", 2),
    (
        "one-cut",
        "search.py",
        "def spectral_prune(h, lam, shift):\n"
        "    return kernel.sym_eigenvalues(h.adj - shift)[-1] <= lam\n"
        "\n"
        "\n"
        "def _judge(g, lam):\n"
        "    return kernel.sym_eigenvalues(g.adj)\n",
        6,
    ),
    (
        "one-cut",
        "search.py",
        "def spectral_prune(h, lam, shift):\n"
        "    vals = kernel.sym_eigenvalues(h.adj - shift)\n"
        "    return kernel.sym_eigenvalues(h.adj)[-1] <= lam\n",
        3,
    ),
    (
        "one-spectra-solve",
        "spectra.py",
        "def eig_symmetric(matrix):\n"
        "    return kernel.sym_eigenvalues(a)[..., ::-1].tolist()\n"
        "\n"
        "\n"
        "class QuotientResult:\n"
        "    def spectrum(self):\n"
        "        return group_eigenvalues(kernel.sym_eigenvalues(sym), tol)\n",
        7,
    ),
]

# text each rule allows: an exempt file, or the one line the rule expects
ALLOWED = [
    ("one-eigensolver", "kernel.py", "vals = np.linalg.eigvalsh(m)\n"),
    ("one-boundary-rule-window", "spectra.py", "BOUNDARY_WINDOW = 1e-6\n"),
    ("one-twin-rule", "graphs.py", "def twin_classes(bits):\n"),
    ("one-parser-per-command", "search.py", "if args.command == 'search':\n"),
    ("search-below-bounds", "acceptance.py", "from .bounds import known_v\n"),
    ("one-search-range", "acceptance.py", "g = construct.complete_multipartite(parts)\n"),
    ("one-kernel-door", "spectra.py", "return kernel.sym_eigenvalues(a)[..., ::-1].tolist()\n"),
    ("one-kernel-door", "exactpoly.py", "numeric eigenvalue goes through `kernel.sym_eigenvalues`.\n"),
    (
        "one-cut",
        "search.py",
        "def spectral_prune(h, lam, shift):\n"
        "    return kernel.sym_eigenvalues(h.adj - shift)[-1] <= lam\n",
    ),
    (
        "one-spectra-solve",
        "spectra.py",
        "def eig_symmetric(matrix):\n"
        "    return kernel.sym_eigenvalues(a)[..., ::-1].tolist()\n",
    ),
]


def _rule(name: str) -> Rule:
    (rule,) = [rule for rule in RULES if rule.name == name]
    return rule


def test_each_rule_fires():
    assert {name for name, *_ in PLANTED} == {rule.name for rule in RULES}
    for name, file, text, line in PLANTED:
        found = violations(_rule(name), file, text)
        assert [v.split(":")[:2] for v in found] == [[file, str(line)]], (name, found)
    for name, file, text in ALLOWED:
        assert violations(_rule(name), file, text) == [], name
    # the cut must be there: a search.py without it breaks the rule
    assert violations(_rule("one-cut"), "search.py", "x = 1\n") != []
    assert violations(_rule("one-spectra-solve"), "spectra.py", "x = 1\n") != []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; a name listed in `__all__`
    counts as read (a re-export)."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[path.name] = names
    assert unused == {}


def _module_tolerances(tree: ast.Module) -> list[str]:
    """Module-level names assigned a value whose last word is TOL or WINDOW."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [
            t.id
            for t in targets
            if isinstance(t, ast.Name) and t.id.split("_")[-1] in ("TOL", "WINDOW")
        ]
    return names


def test_tolerances_named_once():
    # every float tolerance is one constant of spectra.py, imported elsewhere
    outside = {}
    for path in sorted(SRC.glob("*.py")):
        names = _module_tolerances(ast.parse(path.read_text(), str(path)))
        if names and path.name != "spectra.py":
            outside[path.name] = names
    assert outside == {}
