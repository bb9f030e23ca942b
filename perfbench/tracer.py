"""Spans around calls into fcalc, recorded from outside the package.

The benchmark calls every public fcalc function through ``Tracer.call``
(or ``NullTracer.call`` in an untraced run), which looks the function
up on its module at call time.  A traced run additionally rebinds, for
the duration of ``installed()``, the names fcalc modules share with each
other -- ``evaluate``, ``differentiate``, ``parse``, ``bisect_root``,
``bisect_supremum`` and ``riemann_integral`` -- in every fcalc module
that holds them, so that time spent inside a public call splits into its
children.  Nothing under ``src/fcalc`` is edited.

A span is ``[name, parent, t0, t1, child_s, attrs]``; self time is
``t1 - t0 - child_s``.  ``evaluate`` is far too hot for one span per
call, so its calls are aggregated per (parent span, scalar/array).
"""

from __future__ import annotations

import contextlib
import sys
import time

import numpy as np

perf = time.process_time   # CPU time, like the end-to-end metrics

# (module, attribute) of every function whose calls get their own span or
# aggregate in a traced run.
WRAPPED = (
    ("expr", "evaluate"),
    ("expr", "differentiate"),
    ("expr", "parse"),
    ("suprema", "bisect_root"),
    ("suprema", "bisect_supremum"),
    ("integrate", "riemann_integral"),
)
_WRAPPED_NAMES = {f"{m}.{a}" for m, a in WRAPPED}


def resolve(modules, qualname):
    mod, attr = qualname.split(".")
    return getattr(modules[mod], attr)


class NullTracer:
    """Untraced run: calls go straight through."""

    tracing = False

    def __init__(self, modules):
        self.modules = modules

    def call(self, qualname, *args, _span=None, _attrs=None, **kwargs):
        return resolve(self.modules, qualname)(*args, **kwargs)

    def span(self, name, **attrs):
        return contextlib.nullcontext([name, -1, 0.0, 0.0, 0.0, attrs])


class Tracer:
    tracing = True

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.aggregates = []   # flushed [parent, name, calls, seconds, points, node_evals]
        self._agg = {}         # (parent, name) -> [calls, seconds, points, node_evals]
        self._stack = [-1]
        self._nodes = {}       # id(tree) -> (tree, node count); the tree pins the id

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = [name, self._stack[-1], perf(), None, 0.0, attrs]
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[3] = perf()
            self._stack.pop()
            if rec[1] >= 0:
                self.spans[rec[1]][4] += rec[3] - rec[2]

    def call(self, qualname, *args, _span=None, _attrs=None, **kwargs):
        fn = resolve(self.modules, qualname)
        if qualname in _WRAPPED_NAMES and _span is None:
            return fn(*args, **kwargs)   # the rebound wrapper opens the span
        with self.span(_span or qualname, **(_attrs or {})):
            return fn(*args, **kwargs)

    def node_count(self, tree):
        hit = self._nodes.get(id(tree))
        if hit is not None:
            return hit[1]
        memo = {}

        def count(e):
            k = id(e)
            if k not in memo:
                total = 1
                for field in ("arg", "left", "right", "base"):
                    child = getattr(e, field, None)
                    if child is not None:
                        total += count(child)
                memo[k] = total
            return memo[k]

        n = count(tree)
        self._nodes[id(tree)] = (tree, n)
        return n

    def end_pass(self):
        """Flush evaluate aggregates and drop the per-pass tree cache."""
        for (parent, name), (calls, secs, points, nodes) in self._agg.items():
            self.aggregates.append([parent, name, calls, secs, points, nodes])
        self._agg.clear()
        self._nodes.clear()

    # -- rebinding -----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind the shared fcalc names to traced wrappers, then restore."""
        saved = []
        for mod_name, attr in WRAPPED:
            orig = getattr(self.modules[mod_name], attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(mod_name, attr, orig)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "fcalc" or name.startswith("fcalc.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for mod, key, orig in reversed(saved):
                setattr(mod, key, orig)

    def _wrap(self, mod_name, attr, orig):
        if attr == "evaluate":
            return self._wrap_evaluate(orig)
        name = f"{mod_name}.{attr}"
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name) as rec:
                out = orig(*args, **kwargs)
            _annotate(self, rec, attr, out)
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _wrap_evaluate(self, orig):
        spans, stack, agg = self.spans, self._stack, self._agg
        node_count = self.node_count
        ndarray = np.ndarray

        def evaluate(e, x):
            t0 = perf()
            try:
                return orig(e, x)
            finally:
                dt = perf() - t0
                parent = stack[-1]
                if parent >= 0:
                    spans[parent][4] += dt
                if isinstance(x, ndarray):
                    key, points = (parent, "expr.eval_array"), x.size
                else:
                    key, points = (parent, "expr.eval_scalar"), 1
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0.0, 0, 0]
                a[0] += 1
                a[1] += dt
                a[2] += points
                a[3] += points * node_count(e)

        evaluate.__wrapped__ = orig
        return evaluate


def _annotate(tracer, rec, attr, out):
    """Exact counts read off a wrapped call's result, outside its timing."""
    if attr == "differentiate":
        rec[5]["out_nodes"] = tracer.node_count(out)
    elif attr in ("bisect_root", "bisect_supremum"):
        rec[5]["iterations"] = int(out.iterations)
    elif attr == "riemann_integral":
        rec[5]["levels"] = len(out.levels)
        rec[5]["cells"] = sum(int(level.cells) for level in out.levels)


def _sum(recs, key=None):
    if key is None:
        return sum(r[3] - r[2] for r in recs) * 1e3
    return sum(r[5].get(key, 0) for r in recs)


def layer_metrics(tracer, first_span, first_agg):
    """Per-layer totals over spans[first_span:] and aggregates[first_agg:]."""
    spans = tracer.spans[first_span:]
    by = {}
    for r in spans:
        by.setdefault(r[0], []).append(r)

    def named(*names):
        return [r for n in names for r in by.get(n, [])]

    def self_ms(pred):
        return sum((r[3] - r[2]) - r[4] for r in spans if pred(r[0])) * 1e3

    ev = {"expr.eval_scalar": [0, 0.0, 0, 0], "expr.eval_array": [0, 0.0, 0, 0]}
    for _, name, calls, secs, points, nodes in tracer.aggregates[first_agg:]:
        acc = ev[name]
        acc[0] += calls
        acc[1] += secs
        acc[2] += points
        acc[3] += nodes
    scalar, array = ev["expr.eval_scalar"], ev["expr.eval_array"]
    bisect = named("suprema.bisect_root", "suprema.bisect_supremum")
    sweeps = named("cover.verify_cover", "cover.finite_subcover",
                   "cover.lebesgue_exact", "cover.binding_pair")
    paper = named("cover.lebesgue_paper")
    process = named("cli.process")
    return {
        "cli.process_ms": _sum(process, "cpu_ms"),
        "cli.import_ms": _sum(process, "import_ms"),
        "cli.main_ms": _sum(named("cli.main")),
        "expr.eval_scalar.calls": scalar[0],
        "expr.eval_scalar.ms": scalar[1] * 1e3,
        "expr.eval_array.calls": array[0],
        "expr.eval_array.points": array[2],
        "expr.eval_array.ms": array[1] * 1e3,
        "expr.points": scalar[2] + array[2],
        "expr.node_evals": scalar[3] + array[3],
        "expr.differentiate.ms": _sum(named("expr.differentiate")),
        "expr.differentiate.out_nodes": _sum(named("expr.differentiate"), "out_nodes"),
        "expr.parse.calls": len(named("expr.parse")),
        "expr.parse.ms": _sum(named("expr.parse")),
        "suprema.bisect.calls": len(bisect),
        "suprema.bisect.iterations": _sum(bisect, "iterations"),
        "suprema.bisect.self_ms": self_ms(lambda n: n in ("suprema.bisect_root",
                                                          "suprema.bisect_supremum")),
        "calculus.self_ms": self_ms(lambda n: n.startswith("calculus.")),
        "integrate.riemann_integral.ms": _sum(named("integrate.riemann_integral")),
        "integrate.levels": _sum(named("integrate.riemann_integral"), "levels"),
        "integrate.cells": _sum(by.get("integrate.riemann_integral", [])
                                + by.get("integrate.darboux_bounds", []), "cells"),
        "integrate.self_ms": self_ms(lambda n: n.startswith("integrate.")),
        "cover.sweep.ms": _sum(sweeps),
        "cover.lebesgue_paper.ms": _sum(paper),
        "cover.modulus.ms": _sum(named("cover.uniform_modulus", "cover.step_approximation")),
        "cover.pieces": _sum(sweeps + paper, "pieces"),
        "cover.self_ms": self_ms(lambda n: n.startswith("cover.")),
    }


COUNTS = ("expr.eval_scalar.calls", "expr.eval_array.calls", "expr.eval_array.points",
          "expr.points", "expr.node_evals", "expr.differentiate.out_nodes",
          "expr.parse.calls", "suprema.bisect.calls", "suprema.bisect.iterations",
          "integrate.levels", "integrate.cells", "cover.pieces")
