"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap
exceeded (a search whose range the caps cut still prints its report, marked
incomplete, and exits 3; an input too large for memory prints one `error:`
line and exits 3 too).  `--lambda` accepts exact rationals ("3/2") as well
as decimals so floor-based thresholds never misround.  `search --threads N`
splits the generation tree over N >= 1 worker processes (default 1); results
are identical for every worker count, workers only change wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import acceptance, association, bounds, formats, hoffman, search, spectra
from .errors import CapExceededError, UnsupportedSizeError
from .graphs import Graph


def _read_graph(path: str, fmt: str | None) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return formats.load_graph(fh.read(), fmt)


def _emit_graph(g: Graph, args) -> None:
    out = formats.dump_graph(g, args.out_format)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _parse_lambda(text: str) -> Fraction:
    try:
        lam = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc
    try:
        float(lam)  # the prune and the boundary rule's float leg compare in floats
    except OverflowError:
        raise argparse.ArgumentTypeError(f"lambda {text!r} is out of float range") from None
    return lam


def _parse_workers(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad worker count {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"worker count must be at least 1, got {n}")
    return n


def _parse_parts(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad part list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="regspectra",
        description="Spectral bounds and exhaustive search for regular graphs "
        "with bounded second eigenvalue",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps an unset subcommand flag from clobbering the top-level one
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="adjacency spectrum of a graph file", parents=[common])
    sp.add_argument("graph")
    sp.add_argument("--format", dest="fmt", choices=formats.FORMATS, default=None)

    cp = sub.add_parser("construct", help="build a named graph", parents=[common])
    cp.add_argument(
        "name",
        choices=[
            "complete-multipartite",
            "line-graph",
            "complement",
            "k-tilde",
            "coclique-ext",
            "lower-bound-graph",
        ],
    )
    cp.add_argument("graph", nargs="?", help="input graph file (line-graph, complement, coclique-ext)")
    cp.add_argument("--format", dest="fmt", choices=formats.FORMATS, default=None)
    cp.add_argument("--parts", type=_parse_parts, help="comma-separated part sizes")
    cp.add_argument("--m", type=int)
    cp.add_argument("--q", type=int)
    cp.add_argument("--lambda", dest="lam", type=_parse_lambda)
    cp.add_argument("--a", type=int)
    cp.add_argument("--out", help="write the graph here instead of stdout")
    cp.add_argument("--out-format", choices=formats.FORMATS, default="edgelist")

    hp = sub.add_parser("hoffman", help="Hoffman-graph operations", parents=[common])
    hp.add_argument("action", choices=["special-matrix", "lambda-min", "fatten", "validate"])
    hp.add_argument("file", help="Hoffman graph JSON: {order, edges, fat}")
    hp.add_argument("--p", type=int, default=1, help="fattening parameter")
    hp.add_argument("--out")
    hp.add_argument("--out-format", choices=formats.FORMATS, default="edgelist")

    ass = sub.add_parser("associate", help="quasi-clique associated Hoffman graph", parents=[common])
    ass.add_argument("graph")
    ass.add_argument("--format", dest="fmt", choices=formats.FORMATS, default=None)
    ass.add_argument("--m", type=int, required=True)
    ass.add_argument("--n", type=int, required=True)
    ass.add_argument("--certified", action="store_true")

    bp = sub.add_parser("bounds", help="thresholds, known values, mu bound, Ramsey", parents=[common])
    bp.add_argument("action", choices=["thresholds", "known-v", "mu-bound", "ramsey"])
    bp.add_argument("--lambda", dest="lam", type=_parse_lambda)
    bp.add_argument("--k", type=int)
    bp.add_argument("--s", type=int)
    bp.add_argument("--t", type=int)

    sr = sub.add_parser("search", help="exhaustive maximum-order search", parents=[common])
    sr.add_argument("--k", type=int, required=True)
    sr.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)
    sr.add_argument("--n-max", type=int, required=True)
    sr.add_argument("--no-prune", action="store_true")
    sr.add_argument(
        "--threads",
        type=_parse_workers,
        default=1,
        help="worker processes for the generation tree (default: 1)",
    )

    vp = sub.add_parser("verify", help="run the acceptance criteria", parents=[common])
    vp.add_argument(
        "--suite",
        default="all",
        choices=["all"] + sorted(acceptance.SUITES),
    )

    return ap


def _cmd_spectrum(args) -> int:
    g = _read_graph(args.graph, args.fmt)
    spec = spectra.spectrum(g)
    if args.json:
        print(json.dumps(spec.to_json_obj()))
    else:
        print(spec)
    return 0


def _cmd_construct(args) -> int:
    from .construct import (
        complement,
        complete_multipartite,
        coclique_extension,
        k_tilde,
        line_graph,
    )

    name = args.name
    if name == "complete-multipartite":
        if not args.parts:
            raise ValueError("complete-multipartite needs --parts")
        g = complete_multipartite(args.parts)
    elif name == "k-tilde":
        if args.m is None:
            raise ValueError("k-tilde needs --m")
        g = k_tilde(args.m)
    elif name == "lower-bound-graph":
        if args.lam is None or args.a is None:
            raise ValueError("lower-bound-graph needs --lambda and --a")
        if args.lam.denominator != 1:
            raise ValueError("lower-bound-graph needs an integer lambda")
        g, cert = bounds.lower_bound_graph(int(args.lam), args.a)
        blob = cert.to_json_obj()
        print(json.dumps(blob) if args.json else f"certificate: {blob}", file=sys.stderr)
        if not cert.verified:
            _emit_graph(g, args)
            return 1
    else:
        if not args.graph:
            raise ValueError(f"{name} needs an input graph file")
        src = _read_graph(args.graph, args.fmt)
        if name == "line-graph":
            g = line_graph(src)
        elif name == "complement":
            g = complement(src)
        else:  # coclique-ext
            if args.q is None:
                raise ValueError("coclique-ext needs --q")
            g = coclique_extension(src, args.q)
    _emit_graph(g, args)
    return 0


def _cmd_hoffman(args) -> int:
    with open(args.file, "r", encoding="ascii") as fh:
        hg = hoffman.HoffmanGraph.from_json_obj(json.load(fh))
    if args.action == "validate":
        problems = hg.validate()
        if args.json:
            print(json.dumps({"valid": not problems, "violations": problems}))
        else:
            print("valid" if not problems else "\n".join(problems))
        return 0 if not problems else 1
    if args.action == "special-matrix":
        m = hg.special_matrix()
        if args.json:
            print(json.dumps({"slim": hg.slim_vertices(), "matrix": m.tolist()}))
        else:
            for row in m:
                print(" ".join(f"{x:3d}" for x in row))
        return 0
    if args.action == "lambda-min":
        val = hg.lambda_min()
        print(json.dumps({"lambda_min": val}) if args.json else f"{val:.12g}")
        return 0
    _emit_graph(hoffman.fatten(hg, args.p), args)
    return 0


def _cmd_associate(args) -> int:
    g = _read_graph(args.graph, args.fmt)
    hg, part = association.associate(g, args.m, args.n, certified=args.certified)
    payload = {
        "hoffman": hg.to_json_obj(),
        "partition": part.to_json_obj(),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"fat vertices: {hg.fat_vertices()}")
        for i, (cls, q) in enumerate(zip(part.classes, part.quasi_cliques)):
            print(f"class {i}: cliques {list(cls)} quasi-clique {sorted(q)}")
        for w in part.warnings:
            print(f"warning: {w}")
    return 0


def _cmd_bounds(args) -> int:
    if args.action == "thresholds":
        if args.lam is None:
            raise ValueError("thresholds needs --lambda")
        blob = bounds.thresholds(args.lam).to_json_obj()
        if args.json:
            print(json.dumps(blob))
        else:
            for name, value in blob.items():
                print(f"{name}: {value}")
        return 0
    if args.action == "known-v":
        if args.k is None or args.lam is None:
            raise ValueError("known-v needs --k and --lambda")
        kv = bounds.known_v(args.k, args.lam)
        if args.json:
            print(json.dumps(kv.to_json_obj()))
        elif kv.kind == "exact":
            print(kv.value)
        elif kv.kind == "interval":
            hi = "unknown" if kv.upper is None else kv.upper
            print(f"[{kv.lower}, {hi}]  {kv.note}")
        else:
            print(f"{kv.kind}  {kv.note}")
        return 0
    if args.action == "mu-bound":
        if args.lam is None or args.lam.denominator != 1:
            raise ValueError("mu-bound needs an integer --lambda")
        print(bounds.mu_bound(int(args.lam)))
        return 0
    if args.s is None or args.t is None:
        raise ValueError("ramsey needs --s and --t")
    rv = bounds.ramsey_lookup(args.s, args.t)
    if args.json:
        print(json.dumps(rv.to_json_obj()))
    elif rv.exact is not None:
        print(rv.exact)
    else:
        print(f"[{rv.lower}, {rv.upper}]")
    return 0


def _cmd_search(args) -> int:
    report = search.v_search(
        args.k,
        args.lam,
        args.n_max,
        prune=not args.no_prune,
        workers=args.threads,
    )
    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        print(f"v(k={report.k}, lambda={report.lam_exact}) over n <= {report.n_max}: "
              f"{report.exact_v if report.exact_v is not None else 'none found'}")
        if not report.complete:
            print("warning: caps cut the range; report incomplete")
        for e in report.extremal:
            flags = " boundary" if e.boundary else ""
            print(f"  extremal {e.graph6} lambda_2={e.second_largest:.10g}{flags}")
    return 0 if report.complete else 3


def _cmd_verify(args) -> int:
    results = acceptance.run_suite(args.suite)
    ok = True
    for res in results:
        if args.json:
            print(json.dumps(res.to_json_obj()))
        else:
            print(res.line())
        if not res.passed:
            ok = False
            if res.cid in acceptance.EXPECTED_FAILURES and not args.json:
                print(f"        (documented defect; companion check: see {res.cid}b)")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "hoffman":
            return _cmd_hoffman(args)
        if args.command == "associate":
            return _cmd_associate(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "search":
            return _cmd_search(args)
        return _cmd_verify(args)
    except (UnsupportedSizeError, CapExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
