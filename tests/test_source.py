"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regspectra"


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
