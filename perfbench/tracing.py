"""Spans around the public functions of each mcmlike module, taken from outside.

The tracer rebinds each target function in every mcmlike module that holds
it (``from .x import f`` copies the name), so calls through any import path
are recorded.  A span is [name, start_ns, end_ns, parent, op, error, nested]:
``parent`` is the index of the enclosing span (-1 for none), ``op`` the
benchmark's op index, ``error`` the exception type the call raised, and
``nested`` marks a call made inside a call of the same function (recursion),
which inclusive times skip so they are not counted twice.

Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Set

# module.function under mcmlike, in the order the metrics list them.
TARGETS = (
    "cli.main",
    "render.classify_grid",
    "render.classify_points",
    "render.write_ppm",
    "dynamics.find_roots",
    "dynamics.iterate_orbit",
    "verify.verify_family",
    "verify.critical_census",
    "verify.free_critical_polynomial",
    "verify.classify_critical_orbits",
    "skew.census_at_depth",
    "skew.unburied_oracle",
    "model.classify_polynomial",
    "model.normalize_type",
    "model_io.load_model",
    "arith.check_condition",
    "arith.power_iteration_eigenvalue",
    "surgery.plan_levels",
    "surgery.compute_alpha_beta",
)


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _pixels(args, kwargs, result) -> Dict[str, float]:
    pts = _arg(args, kwargs, 1, "pts")
    return {"pixels": float(getattr(pts, "size", 0) or 0)}


def _undecided(args, kwargs, result) -> Dict[str, float]:
    kind = getattr(result, "kind", None)
    if kind is None:
        return {}
    return {"grid_pixels": float(kind.size), "undecided": float((kind == 0).sum())}


def _codes(args, kwargs, result) -> Dict[str, float]:
    k = _arg(args, kwargs, 0, "k")
    return {"codes": float(1 << k)} if isinstance(k, int) else {}


# Counters read from arguments or results at the same boundaries.
COUNTERS: Dict[str, Callable] = {
    "render.classify_points": _pixels,
    "render.classify_grid": _undecided,
    "skew.census_at_depth": _codes,
}


def rebind(orig, wrapper) -> list:
    """Replace ``orig`` by ``wrapper`` in every mcmlike module that holds it.
    Returns the records ``restore`` needs to undo it."""
    undo = []
    for mname, m in list(sys.modules.items()):
        if m is None or not (mname == "mcmlike" or mname.startswith("mcmlike.")):
            continue
        for key, val in list(vars(m).items()):
            if val is orig:
                setattr(m, key, wrapper)
                undo.append((m, key, orig))
    return undo


def restore(undo: list) -> None:
    for m, key, orig in reversed(undo):
        setattr(m, key, orig)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.missing: Set[str] = set()
        self.op = -1
        self._stack: List[int] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: list = []

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; targets the program no longer has are listed
        in ``missing`` and reported, not fatal."""
        for qual in targets:
            modname, attr = qual.rsplit(".", 1)
            try:
                mod = importlib.import_module(f"mcmlike.{modname}")
            except ImportError:
                self.missing.add(qual)
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.missing.add(qual)
                continue
            self._undo += rebind(orig, self._wrap(qual, orig))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None, depth[name] > 0]
            spans.append(span)
            stack.append(idx)
            depth[name] += 1
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                depth[name] -= 1
                stack.pop()
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += val
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def adopt(self, spans: List[list], op: int) -> None:
        """Append spans recorded by a child process for op ``op``."""
        base = len(self.spans)
        for s in spans:
            parent = s[3] + base if s[3] >= 0 else -1
            self.spans.append([s[0], s[1], s[2], parent, op, s[5], s[6]])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per function: inclusive ns (outermost calls), self ns, calls, raises."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        row = out[s[0]]
        row["calls"] += 1
        row["self_ns"] += dur - child_ns[i]
        if not s[6]:
            row["incl_ns"] += dur
            if s[5] is not None:
                row[f"raised.{s[5]}"] += 1
    return out
