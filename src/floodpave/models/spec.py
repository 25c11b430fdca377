"""Model identification: the table of kinds, specs, shipped default grids and grid expansion.

``KINDS`` holds every per-kind fact in one frozen entry per kind: the
report name, the `models` names of the fitter and the predictor class,
the accepted hyperparameters and their defaults, the shipped grid, and
whether cross-validation may share one fit across ``n_estimators``
(``prefix``) or ``max_depth`` (``depth_nested``). ``MODEL_KINDS`` is its
keys, in the paper's order.

Also the checks every predictor shares: feature names read from a model
file, and the shape and NaN check of a predict input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .._util import _typed
from ..errors import SchemaError


@dataclass(frozen=True)
class _Kind:
    """Everything the package knows about one model kind."""

    display: str  # the name in train's reports
    fitter: str  # the `models` name of the function that fits it
    predictor: str  # the `models` name of the class that predicts and persists it
    hyperparameters: MappingProxyType  # the accepted keys, in model-file order, and their defaults
    grid: MappingProxyType  # the shipped grid that `train` searches
    # A fit with n_estimators k is exactly the first k trees of a larger fit:
    # tree i draws from child i of the spec seed's SeedSequence whatever the
    # ensemble size, and boosting stage i sees only stages < i.
    prefix: bool = False
    # A fit at max_depth d is a deeper fit's trees cut at depth d: a node's
    # split never depends on the depth limit below it, a bootstrap is drawn
    # before its tree grows, and a forest node's feature subset depends only
    # on its path from the root (see grow._Grower.candidates). Boosting fits
    # each stage to the residuals of the earlier, depth-dependent stages.
    depth_nested: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hyperparameters", MappingProxyType(self.hyperparameters))
        object.__setattr__(self, "grid", MappingProxyType({k: tuple(v) for k, v in self.grid.items()}))


_ALPHAS = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0]  # np.logspace(-3, 2, 6) bit for bit

# In the paper's order, by which `train` seeds each kind. The tree-family
# grids step coarsely, so that a full six-model search stays tractable.
KINDS = MappingProxyType(
    {
        "linear": _Kind("Linear Regression (LR)", "fit_linear_family", "LinearPredictor", {}, {}),
        "ridge": _Kind("Ridge Regression (Ridge)", "fit_linear_family", "LinearPredictor", {"alpha": 1.0}, {"alpha": _ALPHAS}),
        "lasso": _Kind("Lasso Regression (Lasso)", "fit_linear_family", "LinearPredictor", {"alpha": 1.0}, {"alpha": _ALPHAS}),
        "decision_tree": _Kind(
            "Decision Tree (DT)", "fit_decision_tree", "TreePredictor",
            {"max_depth": 10, "min_samples_split": 2, "min_samples_leaf": 1},
            {"max_depth": [2, 5, 10, 15, 20], "min_samples_split": [2, 5, 10], "min_samples_leaf": [1, 3, 5]},
            depth_nested=True,
        ),
        "random_forest": _Kind(
            "Random Forest (RF)", "fit_random_forest", "ForestPredictor",
            {"n_estimators": 100, "max_depth": 10, "min_samples_split": 2, "min_samples_leaf": 1,
             "feature_subsample": 1.0, "bootstrap": True},
            {"n_estimators": [50, 100, 200], "max_depth": [5, 10, 15, 20], "min_samples_split": [2, 5, 10]},
            prefix=True,
            depth_nested=True,
        ),
        "gradient_boosting": _Kind(
            "Gradient Boosting (GBR)", "fit_gradient_boosting", "BoostingPredictor",
            {"learning_rate": 0.1, "n_estimators": 100, "max_depth": 3, "subsample": 1.0},
            {"learning_rate": [0.001, 0.01, 0.1], "n_estimators": [100, 300, 500], "max_depth": [3, 5, 10],
             "subsample": [0.5, 0.75, 1.0]},
            prefix=True,
        ),
    }
)
MODEL_KINDS = tuple(KINDS)


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
        allowed = KINDS[self.kind].hyperparameters
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
        """The spec ``to_dict`` wrote; a missing key, a non-integral seed or a spec
        that ``ModelSpec`` refuses (an unknown kind or hyperparameter, a value
        out of range) is a SchemaError."""
        missing = [key for key in ("kind", "hyperparameters", "seed") if key not in d]
        if missing:
            raise SchemaError(f"model spec has no {missing} entry")
        seed = _typed(int, "spec.seed", d["seed"])
        try:
            return cls(kind=d["kind"], hyperparameters=dict(d["hyperparameters"]), seed=seed)
        except ValueError as exc:
            raise SchemaError(f"model spec: {exc}") from None


def default_grid(kind: str) -> dict:
    """A copy of ``kind``'s shipped hyperparameter grid."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return {key: list(values) for key, values in KINDS[kind].grid.items()}


def expand_grid(kind: str, grid: dict, seed: int) -> list[ModelSpec]:
    """Cartesian product of a {hyperparameter: values} grid, in key order.

    An empty grid is the one spec of a kind with no hyperparameters; a
    grid whose product is empty (a key with no values) is a ValueError.
    """
    if not grid:
        if not KINDS[kind].hyperparameters:
            return [ModelSpec(kind, {}, seed)]
        raise ValueError("empty hyperparameter grid")
    keys = list(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    if not combos:
        raise ValueError(f"{kind}: no values for {[k for k in keys if not len(grid[k])]}")
    return [ModelSpec(kind, dict(zip(keys, combo)), seed) for combo in combos]


def _feature_names(d: dict) -> tuple[str, ...]:
    names = d["feature_names"]
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise SchemaError("model feature_names must be a list of strings")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise SchemaError(f"model feature_names repeat {repeated}")
    return tuple(names)


def _check_dims(X, feature_names):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise ValueError(f"expected {len(feature_names)} feature columns, got shape {X.shape}")
    if np.isnan(X).any():
        raise ValueError("predict input contains missing values; filter rows first")
    return X
