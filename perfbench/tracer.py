"""Spans around the public functions of each layer, for the traced run only.

`Tracer.install` replaces every binding a caller can look up (module
attributes and dict entries such as `acceptance.CRITERIA`) of each target
function with a wrapper that records a span: id, parent id, name, operation,
start and end.  Spans stay in memory until `dump`; `summary` derives calls,
self time (duration minus the time covered by child spans) and the counts
the per-layer metrics need.  Untraced runs never construct a Tracer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of each wrapped function; its span name is "module.attribute".
TARGETS = (
    ("kernel", "sym_eigenvalues"),
    ("spectra", "eig_symmetric"),
    ("spectra", "spectrum"),
    ("graphs", "Graph"),  # the constructor, Graph.__init__
    ("search", "v_search"),
    ("search", "enum_connected_regular"),
    ("search", "spectral_prune"),
    ("search", "canonical_form"),
    ("search", "second_eigenvalue_at_most"),
    ("exactpoly", "charpoly"),
    ("exactpoly", "count_roots_greater"),
    ("association", "maximal_cliques"),
    ("association", "partition_classes"),
    ("hoffman", "fatten"),
    ("hoffman", "contains_hoffman_subgraph"),
)

OP = "op"  # name of the root span around one operation


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.ops: list[str] = []
        # (id, parent id, name index, operation index, start, end)
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self._stack = [0]
        self._next_id = 1
        self._op = -1
        self.missing: list[str] = []
        # counts taken at the boundaries, for the derived per-layer metrics
        self.eig_orders: list[int] = []
        self.prune_keys: set = set()
        self.prune_cuts = 0
        self.candidates = 0
        self.classes = 0

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "regspectra") -> None:
        """Wrap the targets and the acceptance claims in every loaded module
        of `package` (import the modules the workload uses first)."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        wrappers: dict[int, object] = {}
        for modname, attr in TARGETS:
            mod = sys.modules.get(f"{package}.{modname}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
            elif isinstance(fn, type):
                fn.__init__ = self._wrap(fn.__init__, f"{modname}.{attr}")
            else:
                name = f"{modname}.{attr}"
                wrappers[id(fn)] = self._wrap(fn, name, _HOOKS.get(name))
        acceptance = sys.modules.get(f"{package}.acceptance")
        for cid, fn in getattr(acceptance, "CRITERIA", {}).items():
            wrappers[id(fn)] = self._wrap(fn, f"acceptance.{cid}")
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in wrappers:
                            value[dkey] = wrappers[id(dvalue)]

    def _wrap(self, fn, name: str, hook=None):
        idx = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, idx, self._op, start, end))
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    # -- operations -------------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self._op = len(self.ops)
        self.ops.append(label)
        self._op_start = time.perf_counter()
        self._op_id = self._next_id
        self._next_id += 1
        self._stack.append(self._op_id)

    def end_op(self) -> None:
        self._stack.pop()
        self.spans.append((self._op_id, 0, 0, self._op, self._op_start, time.perf_counter()))
        self._op = -1

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; per operation: calls
        by name; plus the boundary counts."""
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            covered[parent] += end - start
        layers: dict[str, dict] = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                                   for name in self.names[1:]}
        per_op: list[dict[str, int]] = [defaultdict(int) for _ in self.ops]
        for sid, parent, idx, op, start, end in self.spans:
            if idx == 0:
                continue
            entry = layers[self.names[idx]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[sid]
            if op >= 0:
                per_op[op][self.names[idx]] += 1
        return {
            "layers": layers,
            "ops": {label: dict(sorted(calls.items())) for label, calls in zip(self.ops, per_op)},
            "eig_orders": {"count": len(self.eig_orders), "sum": sum(self.eig_orders),
                           "flops": sum(4 * n ** 3 / 3 for n in self.eig_orders)},
            "prune": {"distinct": len(self.prune_keys), "cuts": self.prune_cuts},
            "search": {"candidates": self.candidates, "classes": self.classes},
            "missing": self.missing,
        }

    def dump(self, path: str) -> None:
        """Write every span (gzip JSON) for offline inspection."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "ops": self.ops,
                       "fields": ["id", "parent", "name", "op", "start", "end"],
                       "spans": self.spans}, fh)


# -- boundary counts ------------------------------------------------------------


def _eig_hook(tracer: Tracer, args, result) -> None:
    tracer.eig_orders.append(len(args[0]))


def _prune_hook(tracer: Tracer, args, keep) -> None:
    adj = args[0].adj
    tracer.prune_keys.add((adj.shape[0], adj.tobytes()))
    if not keep:
        tracer.prune_cuts += 1


def _search_hook(tracer: Tracer, args, report) -> None:
    for count in report.counts.values():
        tracer.candidates += count.candidates
        tracer.classes += count.classes


_HOOKS = {
    "kernel.sym_eigenvalues": _eig_hook,
    "search.spectral_prune": _prune_hook,
    "search.v_search": _search_hook,
}
