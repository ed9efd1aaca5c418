"""Span tracing of pnmcore's layers from outside the package.

`Tracer.installed()` replaces the public functions named in `TARGETS`, and
`map_eigenvalues` / `intermediate_map` on every evolution class, with
wrappers that record one span per call.  A function is replaced in every
pnmcore module namespace that binds it (`cli` imports `scan_regions` by
name, `analysis` and `measures` import the bisection helpers by name), so
calls made through any of those names are seen.  Leaving the context puts
every original object back.

Spans (id, name, start, end, parent span id, op id) are kept in flat arrays,
in the order they close, and written out by `dump`.  Self time, a span's duration minus the time its
child spans cover, and call counts are summed per name as spans close.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("cli", "analysis", "evolutions", "exprparse", "linalg", "measures", "numerics")

# module -> {function: span name}
TARGETS = {
    "cli": {"load_config": "cli.load_config", "run_report": "cli.run_report", "export_grid": "cli.export_grid"},
    "analysis": {
        "scan_regions": "analysis.scan_regions",
        "characteristic_times": "analysis.characteristic_times",
        "extract_pnm_core": "analysis.extract_pnm_core",
        "verify_composition_rules": "analysis.verify_composition_rules",
    },
    "evolutions": {"validate_spec": "evolutions.validate_spec"},
    "measures": {
        "flux_series": "measures.flux_series",
        "rhp_measure": "measures.rhp_measure",
        "eb_time_qubit": "measures.eb_time_qubit",
        "measure_report": "measures.measure_report",
        "revivals_delta": "measures.revivals_delta",
    },
    "linalg": {
        "choi_of": "linalg.choi_of",
        "pauli_superoperator": "linalg.pauli_superoperator",
        "min_choi_eigenvalue": "linalg.min_choi_eigenvalue",
        "is_eb_qubit": "linalg.is_eb_qubit",
    },
    "exprparse": {"eval_ast": "exprparse.eval_ast"},
    "numerics": {
        "adaptive_simpson": "numerics.adaptive_simpson",
        "bisect_boundary": "numerics.bisect",
        "bisect_root": "numerics.bisect",
    },
}
METHODS = {"map_eigenvalues": "evolutions.map_eigenvalues", "intermediate_map": "evolutions.intermediate_map"}
OP = "op"  # the span the benchmark opens around each CLI command


def pnmcore_modules() -> list:
    pkg = importlib.import_module("pnmcore")
    return [pkg] + [importlib.import_module(f"pnmcore.{m}") for m in MODULES]


class Tracer:
    """Spans and per-name totals of one traced run."""

    def __init__(self):
        self.names: list = []
        self.span_id = array("i")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._self_s: list = []  # per name id: summed self time
        self._calls: list = []  # per name id: closed spans
        self.counts = defaultdict(float)  # "<module>.<function>.<quantity>" -> total
        self._opened = 0
        self._stack: list = []  # open spans: [span id, seconds covered by children, start]

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._self_s.append(0.0)
            self._calls.append(0)
        return self.names.index(name)

    @property
    def self_s(self) -> dict:
        return dict(zip(self.names, self._self_s))

    @property
    def calls(self) -> dict:
        return dict(zip(self.names, self._calls))

    def begin(self) -> None:
        self._stack.append([self._opened, 0.0, perf_counter()])
        self._opened += 1

    def finish(self, nid: int) -> None:
        # spans are stored in the order they close; ids give the open order
        now = perf_counter()
        stack = self._stack
        sid, covered, t0 = stack.pop()
        dur = now - t0
        self._self_s[nid] += dur - covered
        self._calls[nid] += 1
        if stack:
            stack[-1][1] += dur
            self.parent.append(stack[-1][0])
        else:
            self.parent.append(-1)
        self.span_id.append(sid)
        self.name_id.append(nid)
        self.start.append(t0)
        self.end.append(now)
        self.op.append(self.op_id)

    def _wrap(self, fn, name: str):
        nid = self.name_index(name)
        begin, finish, counts = self.begin, self.finish, self.counts

        if name == "numerics.bisect":

            @functools.wraps(fn)
            def wrapper(pred, *args, **kwargs):
                def counted(x):
                    counts["numerics.bisect.pred_evals"] += 1
                    return pred(x)

                begin()
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    finish(nid)

        elif name == "exprparse.eval_ast":

            @functools.wraps(fn)
            def wrapper(node, t):
                if isinstance(t, np.ndarray) and t.ndim:
                    counts["exprparse.eval_ast.array_calls"] += 1
                    counts["exprparse.eval_ast.array_points"] += t.size
                else:
                    counts["exprparse.eval_ast.scalar_calls"] += 1
                begin()
                try:
                    return fn(node, t)
                finally:
                    finish(nid)

        elif name == "cli.export_grid":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                begin()
                try:
                    text = fn(*args, **kwargs)
                finally:
                    finish(nid)
                counts["cli.export_grid.bytes"] += len(text.encode())
                return text

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                begin()
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(nid)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target while the context is open, then restore."""
        modules = pnmcore_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        patches = []  # (namespace, attribute, original)
        for mod, funcs in TARGETS.items():
            for fname, span in funcs.items():
                original = getattr(by_name[mod], fname)
                wrapper = self._wrap(original, span)
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        evolution_base = by_name["evolutions"].Evolution
        for cls in vars(by_name["evolutions"]).values():
            if isinstance(cls, type) and issubclass(cls, evolution_base):
                for meth, span in METHODS.items():
                    if meth in vars(cls):
                        original = vars(cls)[meth]
                        patches.append((cls, meth, original))
                        setattr(cls, meth, self._wrap(original, span))
        try:
            yield self
        finally:
            for ns, attr, original in reversed(patches):
                setattr(ns, attr, original)

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int32),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
