"""Six next-year-IRI regression models with shared fit/predict/evaluate entry points.

Kinds: linear, ridge, lasso, decision_tree, random_forest,
gradient_boosting. Linear-family models standardize features on the
training set internally; tree-family models consume raw features.
Each kind's facts, among them the fitter that `fit` dispatches to and
the predictor class that `io` reads its model files with, are its entry
in `spec.KINDS`.

Importing the package loads only `spec`; every other name, and the
fitter `fit` dispatches to, is imported from its submodule on first use.
"""

from __future__ import annotations

import importlib

import numpy as np

from .spec import KINDS, MODEL_KINDS, ModelSpec, default_grid, expand_grid

__all__ = [
    "KINDS",
    "MODEL_KINDS",
    "ModelSpec",
    "default_grid",
    "fit",
    "evaluate",
    "EvalMetrics",
    "CVResult",
    "kfold_indices",
    "expand_grid",
    "grid_search_cv",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "LinearPredictor",
    "TreePredictor",
    "ForestPredictor",
    "BoostingPredictor",
    "Tree",
    "build_tree",
    "least_squares",
    "ridge_normal_equations",
    "lasso_coordinate_descent",
]

# The submodule of each name resolved on first use (PEP 562).
_SOURCES = {
    "CVResult": "cv",
    "grid_search_cv": "cv",
    "kfold_indices": "cv",
    "build_tree": "grow",
    "fit_decision_tree": "grow",
    "fit_gradient_boosting": "grow",
    "fit_random_forest": "grow",
    "load_model": "io",
    "model_from_dict": "io",
    "model_to_dict": "io",
    "save_model": "io",
    "LinearPredictor": "linear",
    "fit_linear_family": "linear",
    "lasso_coordinate_descent": "linear",
    "least_squares": "linear",
    "ridge_normal_equations": "linear",
    "EvalMetrics": "metrics",
    "evaluate": "metrics",
    "BoostingPredictor": "tree",
    "ForestPredictor": "tree",
    "Tree": "tree",
    "TreePredictor": "tree",
}


def __getattr__(name: str):
    if name in _SOURCES:
        return getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def fit(spec: ModelSpec, X: np.ndarray, y: np.ndarray, feature_names=None):
    """Train one model; returns an immutable predictor.

    Rejects empty inputs and any NaN or ±inf up front so solver internals
    can assume clean, finite matrices (an infinite feature value would
    become an infinite split threshold with an unreachable child).
    """
    X = np.asarray(X, dtype=float)
    # A table column is a strided view, and a tree gathers from y at every node.
    y = np.ascontiguousarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {X.shape}")
    if X.shape[0] != len(y):
        raise ValueError(f"X has {X.shape[0]} rows but y has {len(y)}")
    if len(y) == 0:
        raise ValueError("cannot fit on empty data")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("fit input contains missing or non-finite values; filter rows first")
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(X.shape[1]))
    return __getattr__(KINDS[spec.kind].fitter)(spec, X, y, feature_names)
