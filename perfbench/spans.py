"""In-memory span tracing of trkm's public functions, and the per-layer metrics.

``Tracer.install()`` replaces each function in ``TRACED`` at every ``trkm``
module that holds it (for example ``trkm.kernels.gram`` and its imported
copies ``trkm.classifier.gram``, ``trkm.regressor.gram`` and ``trkm.rkm.gram``)
with a wrapper that records a span: name, parent span, start, end, and a few
work counts. ``uninstall()`` puts the originals back. Spans stay in memory
until ``write()``. Nothing in ``src/`` is changed.

``stats`` is not traced: the paper's statistics take microseconds on a
36-by-6 score table and no workload calls them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

# Per public function: the layer (its module) and what to count per call.
TRACED = {
    "kernels.gram": "gram",
    "solver.solve_bordered": "solve",
    "selection.grid_search": "grid",
    "classifier.fit_classifier": "fit",
    "classifier.predict_labels": "rows",
    "regressor.fit_regressor": "fit",
    "regressor.predict_regression": "rows",
    "rkm.fit_rkm": "fit",
    "rkm.predict_rkm": "rows",
    "data.load_csv": "read",
    "data.parse_feature_table": "read",
    "data.load_feature_matrix": "read",
    "data.normalize_minmax": None,
    "data.apply_normalization": None,
    "model_io.save_model": "write",
    "model_io.load_model": "read",
    "metrics.classification_accuracy": None,
    "metrics.regression_errors": None,
    "cli.main": None,
}

MODELS = (
    ("classifier", "fit_classifier", "predict_labels"),
    ("regressor", "fit_regressor", "predict_regression"),
    ("rkm", "fit_rkm", "predict_rkm"),
)


def _counts(kind, args, result):
    """Work counts of one call, computed from argument shapes, not measured.

    ``result`` is None when the call raised; only argument counts are kept.
    """
    if kind == "gram":
        p, m = np.shape(args[1])
        q = np.shape(args[2])[0]
        return {"entries": p * q, "bytes": p * q * (m + 1) * 8}
    if kind == "solve":
        from trkm.solver import RESIDUAL_RTOL

        system = args[0]
        flops = {"flops": 2.0 / 3.0 * (len(system.rhs_top) + 1) ** 3}
        if result is None:
            return flops
        b_inf = max(1.0, float(np.max(np.abs(system.rhs_top), initial=0.0)),
                    abs(float(system.rhs_bottom)))
        return {**flops, "residual_ratio": result.residual_norm / (RESIDUAL_RTOL * b_inf)}
    if kind == "rows":
        return {"rows": int(np.shape(args[1])[0])}
    if result is None:
        return {}
    if kind == "grid":
        return {"cells": len(result.table),
                "cells_failed": sum(1 for c in result.table if c.error),
                "useful_fits": sum(len(c.fold_scores) for c in result.table if not c.error)}
    if kind == "read":
        return {"bytes": os.path.getsize(args[0])}
    if kind == "write":
        return {"bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    """Records one span per call of each traced function while installed.

    The span stack is not thread-safe: trace single-threaded runs only.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        kind = TRACED[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None, "name": name}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                span.update(_counts(kind, args, None))
                raise
            finally:
                stack.pop()
            span["end"] = time.perf_counter()
            span.update(_counts(kind, args, result))
            return result

        return traced

    def install(self):
        modules = {n: m for n, m in sys.modules.items() if n == "trkm" or n.startswith("trkm.")}
        for name in TRACED:
            layer, attr = name.split(".")
            original = getattr(modules[f"trkm.{layer}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
    self_s = _self_times(spans)
    by_name = {name: [] for name in TRACED}
    for s in spans:
        by_name[s["name"]].append(s)
    layer_of = {s["id"]: s["name"].split(".")[0] for s in spans}

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def entry(layer):
        """Spans of the layer not nested in another span of the same layer."""
        return [s for s in spans if layer_of[s["id"]] == layer
                and (s["parent"] is None or layer_of[s["parent"]] != layer)]

    def share(t):
        return t / wall_s

    gram = by_name["kernels.gram"]
    solves = by_name["solver.solve_bordered"]
    ok_solves = [s for s in solves if "error" not in s]
    grids = by_name["selection.grid_search"]
    grid_ids = {s["id"] for s in grids}
    parents = {s["id"]: s["parent"] for s in spans}

    def under_grid(s):
        p = s["parent"]
        while p is not None:
            if p in grid_ids:
                return True
            p = parents[p]
        return False

    fits = [s for layer, fit, _ in MODELS for s in by_name[f"{layer}.{fit}"]]
    fold_fits = [s for s in fits if under_grid(s)]
    used_fits = sum(s.get("useful_fits", 0) for s in grids) + sum(
        1 for s in fits if not under_grid(s) and "error" not in s
    )
    data = entry("data")
    saves, loads = by_name["model_io.save_model"], by_name["model_io.load_model"]
    metric_spans = entry("metrics")

    out = {
        "kernels.gram.calls": (len(gram), "count"),
        "kernels.gram.s": (dur(gram), "s"),
        "kernels.gram.share": (share(dur(gram)), "ratio"),
        "kernels.gram.entries": (sum(s.get("entries", 0) for s in gram), "count"),
        "kernels.gram.bytes_computed": (sum(s.get("bytes", 0) for s in gram), "B"),
        "solver.solve_bordered.calls": (len(solves), "count"),
        "solver.solve_bordered.s": (dur(solves), "s"),
        "solver.solve_bordered.share": (share(dur(solves)), "ratio"),
        "solver.solve_bordered.flops_computed": (sum(s["flops"] for s in solves), "flop"),
        "solver.solve_bordered.singular": (sum(1 for s in solves if s.get("error") == "SingularSystem"), "count"),
        "solver.solve_bordered.residual_ratio_max": (max((s["residual_ratio"] for s in ok_solves), default=0.0), "ratio"),
        "selection.grid_search.share": (share(dur(grids)), "ratio"),
        "selection.grid_search.self_share": (share(sum(self_s[s["id"]] for s in grids)), "ratio"),
        "selection.cells": (sum(s.get("cells", 0) for s in grids), "count"),
        "selection.cells_failed": (sum(s.get("cells_failed", 0) for s in grids), "count"),
        "selection.fold_fits": (len(fold_fits), "count"),
        "selection.useful_fit_ratio": (used_fits / len(fits) if fits else 0.0, "ratio"),
    }
    for layer, fit, predict in MODELS:
        f, p = by_name[f"{layer}.{fit}"], by_name[f"{layer}.{predict}"]
        out[f"{layer}.{fit}.calls"] = (len(f), "count")
        out[f"{layer}.{fit}.self_share"] = (share(sum(self_s[s["id"]] for s in f)), "ratio")
        out[f"{layer}.{predict}.calls"] = (len(p), "count")
        out[f"{layer}.{predict}.self_share"] = (share(sum(self_s[s["id"]] for s in p)), "ratio")
        out[f"{layer}.{predict}.rows"] = (sum(s.get("rows", 0) for s in p), "count")
    out.update({
        "data.calls": (len(data), "count"),
        "data.s": (dur(data), "s"),
        "data.bytes_read": (sum(s.get("bytes", 0) for s in data), "B"),
        "model_io.save_model.s": (dur(saves), "s"),
        "model_io.load_model.s": (dur(loads), "s"),
        "model_io.bytes": (sum(s.get("bytes", 0) for s in saves + loads), "B"),
        "metrics.calls": (len(metric_spans), "count"),
        "metrics.s": (dur(metric_spans), "s"),
        "cli.self_s": (sum(self_s[s["id"]] for s in by_name["cli.main"]), "s"),
    })
    return out
