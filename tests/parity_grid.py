"""The parity grid: `v_search` results that a change to the search must not move.

`parity_grid.json` holds one record per case (k, lambda, n_max) of the
pruned search: `exact_v`, `unique`, `[classes, passed]` for each order with
a class, and each extremal certificate with its `boundary` flag.  It holds
no candidate counts (the generator may change them) and no floats.  Past the
grid it holds the CLOSING searches, whose n_max lies past the answer, so
they show that no larger graph exists: v(4, 1) = 12, v(5, 1) = v(5, 5/4) = 16
and v(4, 3/2) = 14.

    PYTHONPATH=src python tests/parity_grid.py           # check GRID
    PYTHONPATH=src python tests/parity_grid.py --write   # rewrite the file

The check runs each case of GRID in process (about 25 s of CPU) and exits 1
on the first case that differs; Tier-1 (`test_search.py::test_parity_grid`)
checks the SMALL and CLOSING cases through the same comparison, `moved`.
The file was written once by `--write`; a change that rewrites it names each
case that moved and why.
"""

import json
import sys
from functools import cache
from pathlib import Path

from regspectra.search import v_search

LAMBDAS = ("-1", "0", "1/2", "1", "5/4", "3/2", "5/3", "2", "9/4", "5/2", "3", "7/2")
GRID = ((2, 12), (3, 14), (4, 11), (5, 10))  # (k, n_max), each with every lambda
SMALL = ((2, 12), (3, 12), (4, 10))
CLOSING = ((4, "1", 13), (5, "1", 16), (5, "5/4", 16), (4, "3/2", 16))  # (k, lambda, n_max)
REFERENCE = Path(__file__).with_name("parity_grid.json")


def record(obj: dict) -> dict:
    """The grid's part of a search report's JSON object."""
    return {
        "k": obj["k"],
        "lambda": obj["lambda_exact"],
        "n_max": obj["n_max"],
        "exact_v": obj["exact_v"],
        "unique": obj["unique"],
        "orders": {n: [c["classes"], c["passed"]] for n, c in obj["counts"].items() if c["classes"]},
        "extremal": [[e["graph6"], e["boundary"]] for e in obj["extremal"]],
    }


@cache
def reference() -> dict:
    """(k, lambda, n_max) -> record, from the committed file, read once."""
    return {(r["k"], r["lambda"], r["n_max"]): r for r in json.loads(REFERENCE.read_text())}


def moved(k: int, lam: str, n_max: int) -> list[str]:
    """The fields of the case's record that the search no longer reproduces."""
    got = record(v_search(k, lam, n_max).to_json_obj())
    want = reference()[k, lam, n_max]
    return [f for f, v in got.items() if v != want[f]]


def _write() -> None:
    shapes = sorted(set(GRID) | set(SMALL))
    cases = [(k, lam, n) for k, n in shapes for lam in LAMBDAS] + list(CLOSING)
    records = [record(v_search(k, lam, n).to_json_obj()) for k, lam, n in cases]
    REFERENCE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python tests/parity_grid.py [--write]", file=sys.stderr)
        return 2
    if argv:
        _write()
        return 0
    for k, n_max in GRID:
        for lam in LAMBDAS:
            if fields := moved(k, lam, n_max):
                print(f"parity grid: (k={k}, lambda={lam}, n_max={n_max}) moved in {fields}",
                      file=sys.stderr)
                return 1
    print(f"parity grid: {len(GRID) * len(LAMBDAS)} cases unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
