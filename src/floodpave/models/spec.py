"""Model identification: kinds, hyperparameters, and shipped default grids."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import _typed
from ..errors import SchemaError

MODEL_KINDS = (
    "linear",
    "ridge",
    "lasso",
    "decision_tree",
    "random_forest",
    "gradient_boosting",
)

# Allowed hyperparameter keys and their defaults, per kind.
_HYPERPARAMETERS: dict[str, dict] = {
    "linear": {},
    "ridge": {"alpha": 1.0},
    "lasso": {"alpha": 1.0},
    "decision_tree": {"max_depth": 10, "min_samples_split": 2, "min_samples_leaf": 1},
    "random_forest": {
        "n_estimators": 100,
        "max_depth": 10,
        "min_samples_split": 2,
        "min_samples_leaf": 1,
        "feature_subsample": 1.0,
        "bootstrap": True,
    },
    "gradient_boosting": {
        "learning_rate": 0.1,
        "n_estimators": 100,
        "max_depth": 3,
        "subsample": 1.0,
    },
}


def _check_range(kind: str, params: dict) -> None:
    def positive(name, allow_zero=False):
        v = params.get(name)
        if v is None:
            return
        lo_ok = v >= 0 if allow_zero else v > 0
        if not lo_ok:
            raise ValueError(f"{kind}: {name} must be {'>= 0' if allow_zero else '> 0'}, got {v}")

    positive("alpha", allow_zero=True)
    positive("learning_rate")
    if "max_depth" in params and params["max_depth"] < 1:
        raise ValueError(f"{kind}: max_depth must be >= 1")
    if "min_samples_split" in params and params["min_samples_split"] < 2:
        raise ValueError(f"{kind}: min_samples_split must be >= 2")
    if "min_samples_leaf" in params and params["min_samples_leaf"] < 1:
        raise ValueError(f"{kind}: min_samples_leaf must be >= 1")
    if "n_estimators" in params:
        floor = 0 if kind == "gradient_boosting" else 1
        if params["n_estimators"] < floor:
            raise ValueError(f"{kind}: n_estimators must be >= {floor}")
    for frac_key in ("feature_subsample", "subsample"):
        if frac_key in params and not (0.0 < params[frac_key] <= 1.0):
            raise ValueError(f"{kind}: {frac_key} must be in (0, 1]")


@dataclass(frozen=True)
class ModelSpec:
    """A model kind plus the hyperparameters that kind accepts.

    Unknown hyperparameter keys are rejected; omitted ones take the
    kind's defaults. Each given value is parsed as the type of its default
    (so `max_depth` 2.5 or `bootstrap` "false" is a SchemaError, and
    `max_depth` 3.0 is 3). The seed drives any randomized fitting step
    (bootstrap resampling, per-split feature subsampling, stage
    subsampling) so fits are reproducible.
    """

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        allowed = _HYPERPARAMETERS[self.kind]
        unknown = set(self.hyperparameters) - set(allowed)
        if unknown:
            raise ValueError(f"{self.kind}: unknown hyperparameter(s) {sorted(unknown)}")
        merged = dict(allowed)
        for key, value in self.hyperparameters.items():
            merged[key] = _typed(type(allowed[key]), f"{self.kind}.{key}", value)
        _check_range(self.kind, merged)
        object.__setattr__(self, "hyperparameters", merged)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "hyperparameters": dict(self.hyperparameters), "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        """The spec ``to_dict`` wrote; a missing key or a non-integral seed is a SchemaError."""
        missing = [key for key in ("kind", "hyperparameters", "seed") if key not in d]
        if missing:
            raise SchemaError(f"model spec has no {missing} entry")
        return cls(kind=d["kind"], hyperparameters=dict(d["hyperparameters"]), seed=_typed(int, "spec.seed", d["seed"]))


def default_grid(kind: str) -> dict:
    """Shipped hyperparameter grids.

    Alpha spans 1e-3..1e2 log-spaced; tree-family ranges are stepped
    coarsely so a full six-model search stays tractable at desk scale.
    """
    if kind in ("ridge", "lasso"):
        return {"alpha": [float(a) for a in np.logspace(-3, 2, 6)]}
    if kind == "decision_tree":
        return {
            "max_depth": [2, 5, 10, 15, 20],
            "min_samples_split": [2, 5, 10],
            "min_samples_leaf": [1, 3, 5],
        }
    if kind == "random_forest":
        return {
            "n_estimators": [50, 100, 200],
            "max_depth": [5, 10, 15, 20],
            "min_samples_split": [2, 5, 10],
        }
    if kind == "gradient_boosting":
        return {
            "learning_rate": [0.001, 0.01, 0.1],
            "n_estimators": [100, 300, 500],
            "max_depth": [3, 5, 10],
            "subsample": [0.5, 0.75, 1.0],
        }
    if kind == "linear":
        return {}
    raise ValueError(f"unknown model kind {kind!r}")
