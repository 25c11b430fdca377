"""A run's typed config, apart from the model code that uses it.

`RunConfig` is the whole config, and it types its sections by the
dataclasses here, so parsing a config loads no model, explainer or
generator code: synth (`SynthSpec`, whose ground_truth is a
`GroundTruth`), lime (`LimeConfig`), shap (`ShapConfig`) and explain
(`ExplainConfig`). `synth`, `lime`, `shapley` and `cli` use them under
the same names. They live in this module rather than in `cli`, so that
their annotations resolve when `cli` runs as ``__main__`` under another
runner, such as ``python -m cProfile -m floodpave.cli``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import _typed, read_json
from .dataset import FEATURE_COLUMNS, FLOOD_COLUMN, IRI_COLUMN
from .errors import SchemaError
from .models import MODEL_KINDS, expand_grid

# Nominal feature scales used to standardize interaction terms; these are
# part of the ground-truth record so attributions stay computable.
NOMINAL_SCALES = {
    "TX_CONDITION_SCORE": (93.91, 13.87),
    "TX_DISTRESS_SCORE": (95.70, 11.35),
    "TX_IRI_AVERAGE_SCORE": (100.61, 54.17),
    "TX_TRUCK_AADT_PCT": (17.60, 8.52),
    "TX_CURRENT_18KIP_MEAS": (1096.57, 978.45),
    "TX_PVMNT_TYPE_DTL_RD_LIFE_CODE": (8.74, 1.98),
    "CLIMATE_ZONES": (2.0, 1.41),
    "TX_RURAL_URBAN_CODE": (1.03, 0.21),
    "Flood": (0.05, 0.21),
}


@dataclass(frozen=True)
class GroundTruth:
    """The data-generating next-year-IRI function.

    next_iri = iri + drift + sum_j weights[j] * x_j
               + sum (i, j, c) in interactions: c * z_i * z_j
               + flood_bump * flood + noise,  z = nominally standardized.
    """

    weights: dict[str, float] = field(default_factory=dict)
    flood_bump: float = 5.0
    drift: float = 2.0
    noise_std: float = 0.0
    interactions: tuple = ()  # (feature_i, feature_j, coefficient)

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))
        triples = [tuple(t) for t in self.interactions]
        if any(len(t) != 3 for t in triples):
            raise ValueError("each interaction is (feature_i, feature_j, coefficient)")
        object.__setattr__(self, "interactions", tuple(
            (fi, fj, _typed(float, f"interactions[{i}][2]", c)) for i, (fi, fj, c) in enumerate(triples)
        ))
        named = list(self.weights) + [name for t in self.interactions for name in t[:2]]
        unknown = sorted(set(named) - set(FEATURE_COLUMNS))
        if unknown:
            raise ValueError(f"unknown feature(s) {unknown}; choose from {list(FEATURE_COLUMNS)}")

    def step_matrix(self, X: np.ndarray, feature_names) -> np.ndarray:
        """Noise-free yearly IRI increment for each feature row."""
        names = list(feature_names)
        out = np.full(X.shape[0], float(self.drift))
        for name, w in self.weights.items():
            out += w * X[:, names.index(name)]
        for fi, fj, c in self.interactions:
            zi = _nominal_z(X[:, names.index(fi)], fi)
            zj = _nominal_z(X[:, names.index(fj)], fj)
            out += c * zi * zj
        out += self.flood_bump * X[:, names.index(FLOOD_COLUMN)]
        return out

    def linear_coefficients(self, feature_names) -> np.ndarray:
        """Raw-space linear coefficients of the noise-free next-year IRI (interactions excluded)."""
        coefs = np.zeros(len(feature_names))
        for j, name in enumerate(feature_names):
            w = self.weights.get(name, 0.0)
            if name == IRI_COLUMN:
                w += 1.0
            if name == FLOOD_COLUMN:
                w += self.flood_bump
            coefs[j] = w
        return coefs

    def to_dict(self) -> dict:
        return {
            "weights": dict(self.weights),
            "flood_bump": self.flood_bump,
            "drift": self.drift,
            "noise_std": self.noise_std,
            "interactions": [list(t) for t in self.interactions],
            "nominal_scales": {k: list(v) for k, v in NOMINAL_SCALES.items()},
        }


def _nominal_z(values: np.ndarray, name: str) -> np.ndarray:
    mean, std = NOMINAL_SCALES[name]
    return (values - mean) / std


@dataclass(frozen=True)
class SynthSpec:
    n_sections: int = 1114  # the paper's panel
    year_start: int = 2010
    year_end: int = 2018
    flood_fraction: float = 0.05
    sections_per_route: int = 10
    ground_truth: GroundTruth = field(default_factory=GroundTruth)
    seed: int = 0

    def __post_init__(self):
        if self.n_sections < 1:
            raise ValueError("n_sections must be >= 1")
        if self.sections_per_route < 1:
            raise ValueError("sections_per_route must be >= 1")
        if self.year_end <= self.year_start:
            raise ValueError("need at least two panel years")
        if not (0.0 <= self.flood_fraction <= 1.0):
            raise ValueError("flood_fraction must be in [0, 1]")


@dataclass(frozen=True)
class LimeConfig:
    n_samples: int = 5000
    max_features_K: int = 6
    discretize: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 10:
            raise ValueError("n_samples must be >= 10")
        if self.max_features_K < 1:
            raise ValueError("max_features_K must be >= 1")


@dataclass(frozen=True)
class ShapConfig:
    mode: str = "exact"  # the only mode, as every attribution is exact; configs may still name it
    background_size: int = 100

    def __post_init__(self):
        if self.mode == "sampled":
            raise ValueError("mode 'sampled' was removed: every attribution is exact")
        if self.mode != "exact":
            raise ValueError(f"mode must be 'exact', got {self.mode!r}")
        if self.background_size < 1:
            raise ValueError("background_size must be >= 1")


EXPLAINERS = ("shap", "lime")
INSTANCE_FORMS = "all | sample:N | key:ROUTE,SECTION,YEAR"


def _parse_instances(selector: str):
    """("all", None), ("sample", N) or ("key", (ROUTE, SECTION, YEAR)); ValueError if malformed."""

    def malformed(why: str) -> ValueError:
        return ValueError(f"bad instance selector {selector!r}: {why}; expected {INSTANCE_FORMS}")

    if selector == "all":
        return "all", None
    form, colon, arg = selector.partition(":")
    if colon and form == "sample":
        try:
            n = int(arg)
        except ValueError:
            raise malformed("N is not an integer") from None
        if n < 1:
            raise malformed("N must be >= 1")
        return form, n
    if colon and form == "key":
        parts = arg.split(",")
        if len(parts) != 3:
            raise malformed(f"a key has 3 comma-separated parts, got {len(parts)}")
        route, section, year = parts
        try:
            return form, (route, section, int(year))
        except ValueError:
            raise malformed("YEAR is not an integer") from None
    raise malformed("unknown form")


@dataclass(frozen=True)
class ExplainConfig:
    """Config section `explain`; the `explain` flags of the same names override it.

    Keys: model_path (the saved model; `explain` requires it), instances
    (a selector, INSTANCE_FORMS), explainers (a non-empty list drawn from
    EXPLAINERS).
    """

    model_path: str | None = None
    instances: str = "sample:5"
    explainers: list[str] = field(default_factory=lambda: list(EXPLAINERS))

    def __post_init__(self):
        _parse_instances(self.instances)
        unknown = [e for e in self.explainers if e not in EXPLAINERS]
        if unknown:
            raise ValueError(f"unknown explainer(s) {unknown}; choose from {list(EXPLAINERS)}")


@dataclass(frozen=True)
class RunConfig:
    """A run's whole config: the JSON config file with the flags merged over it.

    Root keys: records_csv, events_csv, out_dir, seed (>= 0; the root of
    every stage's seed), workers (>= 1; read by no command, since every
    command runs in one thread, and kept so that configs and scripts
    naming it keep parsing), quiet, test_fraction (in (0, 1)), cv_folds
    (>= 2), model_kinds (a non-empty list of distinct MODEL_KINDS),
    grids (kind -> {hyperparameter: [values]}, replacing that kind's
    default grid). Sections: synth
    (`SynthSpec`, its ground_truth a `GroundTruth`), lime (`LimeConfig`),
    shap (`ShapConfig`) and explain (`ExplainConfig`); a section has
    no `seed`, which comes from the root. `from_sources` parses it all
    with `_typed`, so every command refuses any bad value before it reads
    a file.
    """

    records_csv: str = "records.csv"
    events_csv: str = "events.csv"
    out_dir: str = "out"
    seed: int = 0
    workers: int = 1
    quiet: bool = False
    test_fraction: float = 0.2
    cv_folds: int = 5
    model_kinds: list[str] = field(default_factory=lambda: list(MODEL_KINDS))
    grids: dict[str, dict] = field(default_factory=dict)
    synth: SynthSpec = field(default_factory=SynthSpec)
    lime: LimeConfig = field(default_factory=LimeConfig)
    shap: ShapConfig = field(default_factory=ShapConfig)
    explain: ExplainConfig = field(default_factory=ExplainConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")
        unknown = [k for k in self.model_kinds if k not in MODEL_KINDS]
        if unknown:
            raise ValueError(f"unknown model kind(s) {unknown}; choose from {list(MODEL_KINDS)}")
        repeated = sorted({k for k in self.model_kinds if self.model_kinds.count(k) > 1})
        if repeated:
            raise ValueError(f"model kind(s) {repeated} listed more than once in model_kinds")
        for kind, grid in self.grids.items():
            if kind not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {kind!r} in grids; choose from {list(MODEL_KINDS)}")
            try:
                if grid:
                    expand_grid(kind, grid, self.seed)
            except (TypeError, ValueError, SchemaError) as exc:
                raise ValueError(f"grids.{kind}: {exc}") from None

    @classmethod
    def from_sources(cls, config_path: str | None, overrides: dict) -> "RunConfig":
        """Parse the config file with `overrides` (the flags given) merged over it."""
        doc = read_json(config_path) if config_path else {}
        if not isinstance(doc, dict):
            raise SchemaError(f"{config_path}: the config must be a JSON object")
        # The command's one default that differs from GroundTruth's: noisy data.
        doc = _merged(_merged({"synth": {"ground_truth": {"noise_std": 2.0}}}, doc), overrides)
        return _typed(cls, "", doc)


def _merged(base, extra: dict):
    """`base` with the keys of `extra` set, merged into where both hold JSON objects.

    A `base` that is not an object is kept as it is, for `_typed` to refuse.
    """
    if not isinstance(base, dict):
        return base
    out = dict(base)
    for key, value in extra.items():
        out[key] = _merged(out.get(key, {}), value) if isinstance(value, dict) else value
    return out
