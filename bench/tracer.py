"""In-process span tracer for the benchmark's traced runs.

`install` rebinds the public functions of each floodpave layer to
wrappers that record a span (name, parent, start, end) per call and a few
counts per layer. Spans stay in memory; `Tracer.summary` turns them into
self times when the traced process ends. Only `traced.py` imports this
module, so untraced benchmark runs execute the program unmodified.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent index or None, start, end]
        self.stack = []
        self.counts = collections.Counter()

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``name`` may be a callable of the call's arguments. ``count``, if
        given, is called as ``count(counts, result, *args, **kwargs)``
        after a call that returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            self.spans.append([label, self.stack[-1] if self.stack else None, self.clock(), None])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][3] = self.clock()
            self.counts[label + ".calls"] += 1
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return traced

    def counted(self, fn, count):
        """Wrap ``fn`` to update counts only; it records no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, result, *args, **kwargs)
            return result

        return wrapper

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def summary(self) -> dict:
        return {"self_s": self_times(self.spans), "counts": dict(self.counts)}


def self_times(spans) -> dict:
    """Per span name, the summed duration minus the part child spans cover."""
    children = collections.defaultdict(list)
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = collections.defaultdict(float)
    for index, (name, _, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def _rebind(original, replacement) -> None:
    """Point every floodpave module attribute bound to ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("floodpave"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _add(key, amount):
    def count(counts, result, *args, **kwargs):
        counts[key] += amount(result, *args, **kwargs)

    return count


# (module, function, span name, count) for every traced layer boundary.
_FUNCTIONS = [
    ("floodpave.dataset", "load_csv", "dataset.load_csv", _add("dataset.load_csv.rows", lambda t, *a, **k: t.n_rows)),
    ("floodpave.dataset", "filter_complete", "dataset.filter_complete", None),
    ("floodpave.dataset", "train_test_split", "dataset.train_test_split", None),
    ("floodpave.dataset", "describe", "dataset.describe", None),
    ("floodpave.dataset", "pearson_corr", "dataset.pearson_corr", None),
    ("floodpave.floods", "load_events_csv", "floods.load_events_csv", None),
    (
        "floodpave.floods",
        "tag_flooded",
        "floods.tag_flooded",
        _add("floods.tag_flooded.row_event_pairs", lambda r, table, events: table.n_rows * len(events)),
    ),
    ("floodpave.floods", "extract_windows", "floods.extract_windows", None),
    ("floodpave.floods", "apply_maintenance_exclusion", "floods.apply_maintenance_exclusion", None),
    ("floodpave.deterioration", "pre_post_deltas", "deterioration", None),
    ("floodpave.deterioration", "rate_comparison", "deterioration", None),
    ("floodpave.deterioration", "flooded_vs_nonflooded", "deterioration", None),
    (
        "floodpave.models.cv",
        "grid_search_cv",
        "models.cv.grid_search_cv",
        _add("models.cv.candidates", lambda r, *a, **k: len(r.per_candidate)),
    ),
    ("floodpave.models", "fit", lambda spec, *a, **k: f"models.fit.{spec.kind}", _add("models.fit.calls", lambda *a, **k: 1)),
    ("floodpave.models.tree", "build_tree", "models.tree.build_tree", _add("models.tree.nodes", lambda t, *a, **k: t.n_nodes)),
    ("floodpave.models.io", "save_model", "models.io.save_model", _add("models.io.bytes", lambda r, p, path: os.path.getsize(path))),
    ("floodpave.models.io", "load_model", "models.io.load_model", _add("models.io.bytes", lambda r, path: os.path.getsize(path))),
    ("floodpave.shapley", "draw_background", "shapley.draw_background", None),
    ("floodpave.shapley", "shapley_values", "shapley.shapley_values", None),
    ("floodpave.shapley", "exact_shapley", "shapley.exact_shapley", None),
    ("floodpave.shapley", "summarize", "shapley.summarize", None),
    ("floodpave.lime", "training_stats", "lime.training_stats", None),
    ("floodpave.lime", "fit_local_surrogate", "lime.fit_local_surrogate", None),
    (
        "floodpave._util",
        "write_text_atomic",
        "cli.write",
        _add("cli.write.bytes", lambda r, path, text: len(text.encode("utf-8"))),
    ),
    ("floodpave.synth", "generate", "synth.generate", None),
    ("floodpave.synth", "write_dataset", "synth.write_dataset", None),
]

_PREDICTORS = ["LinearPredictor", "TreePredictor", "ForestPredictor", "BoostingPredictor"]


def install(tracer: Tracer) -> None:
    """Wrap every traced floodpave function; call after importing floodpave."""
    for module_name, attr, name, count in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, tracer.span(name, original, count))

    linear = importlib.import_module("floodpave.models.linear")

    def lasso(counts, result, *args, **kwargs):
        sweeps = result[1]
        counts["models.linear.lasso.calls"] += 1
        counts["models.linear.lasso.sweeps"] += sweeps
        counts["models.linear.lasso.capped"] += sweeps >= kwargs.get("max_sweeps", linear.LASSO_MAX_SWEEPS)

    _rebind(linear.lasso_coordinate_descent, tracer.counted(linear.lasso_coordinate_descent, lasso))

    models = importlib.import_module("floodpave.models")
    models.Tree.predict = tracer.span(
        "models.tree.predict", models.Tree.predict, _add("models.tree.predict.rows", lambda r, tree, X: len(X))
    )

    # Predictor-level rows, charged to the span that asked for them
    # (an exact-SHAP instance or a LIME neighbourhood).
    def charge_rows(counts, result, predictor, X):
        counts[f"{tracer.innermost()}.predict_rows"] += len(X)

    for cls_name in _PREDICTORS:
        cls = getattr(models, cls_name)
        cls.predict = tracer.counted(cls.predict, charge_rows)
