"""Spans around the public functions of extrig's modules, recorded from outside.

:class:`Tracer` replaces each traced function by a wrapper in every module
namespace that holds it, so names bound through ``from .x import y`` (for
example ``finiteflex.block_decompose`` or ``cli.fowler_guest_count``) are
traced too.  A span is ``[name, parent id, start, end]``; the id is its
index.  Spans stay in memory until :meth:`Tracer.dump`.

``PHGraph.act`` runs tens of thousands of times per analysis, so it gets a
count-only wrapper.  Every innermost ``linalg`` call adds m*n*min(m, n) of
the matrix it receives to a computed operation count, filed under the
nearest enclosing ``fowler_guest_count`` (symmetric) or
``infinitesimal_analysis`` (dense) span.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> functions given a span; every public function of linalg is traced
SPAN_FUNCTIONS = {
    "graphs": ("extrusion_product", "complete_decorated"),
    "frameworks": ("extrude_framework", "verify_extrusion_symmetry"),
    "rigidity": ("rigidity_matrix", "infinitesimal_analysis", "minimal_pinning",
                 "hyperplane_pinning", "trivial_motion_basis"),
    "symmetry": ("build_reps", "character_rows", "symmetry_adapted_basis", "block_decompose",
                 "fowler_guest_count"),
    "finiteflex": ("measurement_map", "regular_point_test", "symmetric_subspace",
                   "finite_flex_test", "linear_push"),
    "documents": ("load",),
    "cli": ("build_report", "render_text"),
}
SPAN_METHODS = (("finiteflex", "MeasurementMap", "jacobian"),)
COUNT_METHODS = (("graphs", "PHGraph", "act"),)

FLOP_ROOTS = {"symmetry.fowler_guest_count": "symmetric",
              "rigidity.infinitesimal_analysis": "dense"}


def linalg_functions(module) -> tuple:
    return tuple(name for name, obj in vars(module).items()
                 if inspect.isfunction(obj) and not name.startswith("_")
                 and obj.__module__ == module.__name__)


def matrix_flops(args) -> int:
    """m*n*min(m, n) of the first array argument (a computed count, not a measurement)."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            shape = np.atleast_2d(arg).shape
            if len(shape) == 2:
                return int(shape[0]) * int(shape[1]) * min(int(shape[0]), int(shape[1]))
    return 0


class Tracer:
    """Span and count recorder; :meth:`install` patches, :meth:`remove` restores."""

    def __init__(self):
        self.spans = []              # [name, parent, start, end]
        self.counts = defaultdict(int)
        self.flops = defaultdict(int)
        self.iterations = 0
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _span_wrapper(self, name, fn, flops=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else None, clock(), None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if flops and len(spans) == sid + 1:      # innermost: no linalg call below it
                self.flops[self._flop_kind(sid)] += matrix_flops(args)
            if name == "finiteflex.linear_push":
                self.iterations += result.iterations
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _flop_kind(self, sid) -> str:
        while sid is not None and self.spans[sid][0] not in FLOP_ROOTS:
            sid = self.spans[sid][1]
        return "other" if sid is None else FLOP_ROOTS[self.spans[sid][0]]

    def record_span(self, name, start, end):
        """A span measured outside a wrapper (e.g. an import)."""
        self.spans.append([name, None, start, end])

    # -- patching ----------------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"extrig.{name}") for name in (*SPAN_FUNCTIONS, "linalg")}
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "extrig" or name.startswith("extrig.")]
        targets = []
        for layer, names in SPAN_FUNCTIONS.items():
            targets += [(getattr(mods[layer], n), f"{layer}.{n}", False) for n in names]
        targets += [(getattr(mods["linalg"], n), f"linalg.{n}", True)
                    for n in linalg_functions(mods["linalg"])]
        for fn, name, flops in targets:
            wrapped = self._span_wrapper(name, fn, flops)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, attr, wrapped)
        for layer, cls, meth in SPAN_METHODS:
            owner = getattr(mods[layer], cls)
            self._patch(owner, meth, self._span_wrapper(f"{layer}.{cls}.{meth}", vars(owner)[meth]))
        for layer, cls, meth in COUNT_METHODS:
            owner = getattr(mods[layer], cls)
            self._patch(owner, meth, self._count_wrapper(f"{layer}.{cls}.{meth}", vars(owner)[meth]))
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output -------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "flops": dict(self.flops),
                "iterations": self.iterations}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (name, parent, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, total time of outermost occurrences, self time."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, (name, parent, start, end) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][1]
        if p is None:
            entry["total_s"] += end - start
    return dict(out)
