"""Local surrogate explanations around a single instance.

A neighborhood is sampled from the training marginals, weighted by an
exponential distance kernel, and a small weighted linear model is fitted
to the black-box outputs on it. Continuous features are reported as
quantile-bin conditions ("90.00 < TX_IRI_AVERAGE_SCORE <= 100.00");
binary and label-encoded features as category conditions.

At most ``max_features_K`` features are kept by greedy forward selection
(Ribeiro et al., arXiv:1602.04938). Each round scores every remaining
candidate at once from the weighted columns projected off the intercept
and the columns already chosen, and refits only the best one by least
squares; that refit decides whether it is kept and gives the reported
weights, so the result is that of refitting every candidate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import DataTable

log = logging.getLogger(__name__)

# Weighted-SSE reduction below this fraction of the total is noise, not signal.
_SELECTION_EPS = 1e-12
# A candidate column that keeps less than this share of its weighted squared
# norm off the columns already selected is collinear with them: it scores 0.
_COLLINEAR = 1e-20


@dataclass(frozen=True)
class LimeConfig:
    n_samples: int = 5000
    kernel_width_sigma: float | None = None  # default 0.75 * sqrt(n_features)
    max_features_K: int = 6
    n_bins: int = 4
    discretize: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 10:
            raise ValueError("n_samples must be >= 10")
        if self.kernel_width_sigma is not None and self.kernel_width_sigma <= 0:
            raise ValueError("kernel_width_sigma must be > 0")
        if self.max_features_K < 1:
            raise ValueError("max_features_K must be >= 1")
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")

    def sigma_for(self, n_features: int) -> float:
        if self.kernel_width_sigma is not None:
            return self.kernel_width_sigma
        return 0.75 * math.sqrt(n_features)


@dataclass(frozen=True)
class FeatureStats:
    name: str
    kind: str  # "continuous" | "categorical"
    mean: float = 0.0
    std: float = 0.0
    bin_edges: tuple = ()
    categories: tuple = ()
    frequencies: tuple = ()
    labels: tuple = ()  # decoded names for label-encoded columns


def training_stats(table: DataTable, feature_columns, n_bins: int) -> list[FeatureStats]:
    """Per-feature sampling statistics from the training table.

    Label-encoded and strictly-binary columns are categorical and keep
    their observed value frequencies; everything else is continuous with
    mean/std and quantile bin edges.
    """
    stats = []
    for name in feature_columns:
        col = table.col(name)
        distinct = np.unique(col)
        if name in table.encodings or set(distinct.tolist()) <= {0.0, 1.0}:
            counts = np.array([(col == v).sum() for v in distinct], dtype=float)
            stats.append(
                FeatureStats(
                    name=name,
                    kind="categorical",
                    categories=tuple(float(v) for v in distinct),
                    frequencies=tuple(counts / counts.sum()),
                    labels=tuple(table.encodings.get(name, ())),
                )
            )
        else:
            edges = np.quantile(col, [i / n_bins for i in range(1, n_bins)])
            stats.append(
                FeatureStats(
                    name=name,
                    kind="continuous",
                    mean=float(np.mean(col)),
                    std=float(np.std(col)),
                    bin_edges=tuple(float(e) for e in edges),
                )
            )
    return stats


def _bin_of(value, edges: tuple) -> np.ndarray:
    # Bins are (-inf, e0], (e0, e1], ..., (e_last, inf).
    return np.searchsorted(np.asarray(edges), value, side="left")


def condition_label(fs: FeatureStats, x_value: float) -> str:
    if fs.kind == "categorical":
        if fs.labels:
            return f"{fs.name} = {fs.labels[int(x_value)]}"
        if set(fs.categories) <= {0.0, 1.0}:
            return f"{fs.name} > 0.00" if x_value > 0 else f"{fs.name} <= 0.00"
        return f"{fs.name} = {x_value:g}"
    if not fs.bin_edges:
        return fs.name
    b = int(_bin_of(x_value, fs.bin_edges))
    if b == 0:
        return f"{fs.name} <= {fs.bin_edges[0]:.2f}"
    if b == len(fs.bin_edges):
        return f"{fs.name} > {fs.bin_edges[-1]:.2f}"
    return f"{fs.bin_edges[b - 1]:.2f} < {fs.name} <= {fs.bin_edges[b]:.2f}"


def kernel_weight(distance, sigma: float):
    """Exponential distance kernel exp(-d^2 / sigma^2); 1 at distance 0."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    d = np.asarray(distance, dtype=float)
    out = np.exp(-(d**2) / sigma**2)
    return float(out) if np.isscalar(distance) else out


def perturb_neighborhood(x, stats: list[FeatureStats], config: LimeConfig, rng):
    """Sample the local neighborhood around x.

    Returns ``(samples, interpretable, distances)``. Row 0 is x itself.
    Continuous features draw from a normal law with the training
    mean/std; categorical features resample from training frequencies.
    The interpretable representation is the shares-x's-bin/category
    indicator (or the standardized value when discretize is off), and
    distances are Euclidean over standardized continuous features only.
    """
    x = np.asarray(x, dtype=float)
    n, m = config.n_samples, len(x)
    if m != len(stats):
        raise ValueError(f"x has {m} features but stats describe {len(stats)}")
    samples = np.empty((n, m))
    samples[0] = x
    interp = np.empty((n, m))
    sq_dist = np.zeros(n)
    for j, fs in enumerate(stats):
        if fs.kind == "categorical":
            cats = np.asarray(fs.categories)
            samples[1:, j] = rng.choice(cats, size=n - 1, p=np.asarray(fs.frequencies))
            interp[:, j] = (samples[:, j] == x[j]).astype(float)
            continue
        if fs.std == 0.0:
            log.warning("feature %s has zero training std; held constant", fs.name)
            samples[:, j] = x[j]
            interp[:, j] = 1.0 if config.discretize else 0.0
            continue
        samples[1:, j] = rng.normal(fs.mean, fs.std, size=n - 1)
        z = (samples[:, j] - x[j]) / fs.std
        sq_dist += z**2
        if config.discretize:
            interp[:, j] = (_bin_of(samples[:, j], fs.bin_edges) == _bin_of(x[j], fs.bin_edges)).astype(float)
        else:
            interp[:, j] = (samples[:, j] - fs.mean) / fs.std
    return samples, interp, np.sqrt(sq_dist)


@dataclass(frozen=True)
class Contribution:
    feature: str
    condition: str
    weight: float

    @property
    def direction(self) -> str:
        return "increases IRI" if self.weight > 0 else "decreases IRI"


@dataclass(frozen=True)
class LocalExplanation:
    instance_key: tuple
    intercept: float
    contributions: tuple  # Contribution, ordered by |weight| descending
    local_fit_r2: float  # NaN when the model output has no weighted variance
    predicted_value: float

    def to_dict(self) -> dict:
        r2 = None if math.isnan(self.local_fit_r2) else self.local_fit_r2
        return {
            "instance_key": list(self.instance_key),
            "intercept": self.intercept,
            "contributions": [
                {
                    "feature": c.feature,
                    "condition": c.condition,
                    "weight": c.weight,
                    "direction": c.direction,
                }
                for c in self.contributions
            ],
            "local_fit_r2": r2,
            "predicted_value": self.predicted_value,
        }


def _weighted_lstsq(columns, target, sqrt_w):
    """Weighted least squares with intercept; returns (beta, weighted SSE)."""
    a = np.hstack([np.ones((len(target), 1))] + columns) * sqrt_w[:, None]
    b = target * sqrt_w
    beta, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    sse = float(np.sum((b - a @ beta) ** 2))
    return beta, sse


def _project_off(rows, q):
    """Project each row of ``rows`` off the unit vector ``q``, in place, twice.

    Row by row, so that no temporary as large as ``rows`` is allocated.
    """
    for _ in range(2):
        for row, c in zip(rows, rows @ q):
            row -= c * q


def _squared_norms(rows):
    return np.array([row @ row for row in rows])


def _select(interp, outputs, sqrt_w, usable, k, beta, sse):
    """Greedy forward selection of up to ``k`` of the ``usable`` columns.

    ``beta`` and ``sse`` are the intercept-only fit's. Returns
    ``(selected, beta, sse)`` of the last accepted fit. Each round scores
    every remaining candidate at once: with the weighted columns and
    target projected off the intercept and the selected columns
    (classical Gram-Schmidt, twice), adding column u lowers the weighted
    SSE by ``(u.r)^2 / u.u`` for the projected target r. The best
    candidate, the first in ``usable`` order on a tie, is refitted by
    ``_weighted_lstsq``, and that refit's SSE decides whether it is kept.
    """
    selected, ss_tot = [], sse
    if not usable:
        return selected, beta, sse
    rows = np.empty((len(usable) + 1, len(outputs)))  # candidates, then the target
    for row, j in zip(rows, usable):
        np.multiply(interp[:, j], sqrt_w, out=row)
    np.multiply(outputs, sqrt_w, out=rows[-1])
    floor = _COLLINEAR * _squared_norms(rows[:-1])
    _project_off(rows, sqrt_w / np.linalg.norm(sqrt_w))
    taken = np.zeros(len(usable), dtype=bool)
    while len(selected) < min(k, len(usable)):
        norms, dots = _squared_norms(rows[:-1]), rows[:-1] @ rows[-1]
        live = norms > floor
        score = np.zeros(len(usable))
        score[live] = np.square(dots[live]) / norms[live]
        score[taken] = -1.0
        i = int(score.argmax())
        cand_beta, cand_sse = _weighted_lstsq([interp[:, selected + [usable[i]]]], outputs, sqrt_w)
        if sse - cand_sse <= _SELECTION_EPS * max(ss_tot, 1.0):
            break
        selected.append(usable[i])
        beta, sse = cand_beta, cand_sse
        taken[i] = True
        _project_off(rows, rows[i] / np.linalg.norm(rows[i]))
    return selected, beta, sse


def fit_local_surrogate(
    predictor,
    x,
    table: DataTable,
    config: LimeConfig,
    instance_key: tuple = (),
    stats: list[FeatureStats] | None = None,
) -> LocalExplanation:
    """Explain one prediction with a weighted sparse linear surrogate.

    The feature cap is enforced by greedy forward selection on weighted
    residual reduction, followed by an exact weighted least-squares refit
    on the selected set. The reported R-squared is the kernel-weighted
    fit quality of the surrogate against the black-box outputs.
    """
    x = np.asarray(x, dtype=float)
    names = list(predictor.feature_names)
    if stats is None:
        stats = training_stats(table, names, config.n_bins)
    rng = np.random.default_rng(config.seed)
    samples, interp, distances = perturb_neighborhood(x, stats, config, rng)
    outputs = predictor.predict(samples)
    sigma = config.sigma_for(len(names))
    weights = kernel_weight(distances, sigma)
    sqrt_w = np.sqrt(weights)

    w_mean = float(np.sum(weights * outputs) / np.sum(weights))
    ss_tot = float(np.sum(weights * (outputs - w_mean) ** 2))

    # Columns with no weighted variation can never reduce the residual.
    usable = [
        j
        for j in range(len(names))
        if float(np.sum(weights * (interp[:, j] - np.sum(weights * interp[:, j]) / np.sum(weights)) ** 2)) > 0.0
    ]
    if not usable:
        log.warning("degenerate neighborhood: explanation is intercept-only")

    selected, beta, current_sse = _select(
        interp, outputs, sqrt_w, usable, config.max_features_K, np.array([w_mean]), ss_tot
    )

    intercept = float(beta[0])
    # Constant black-box output: weighted variance is zero up to rounding.
    if ss_tot <= 1e-20 * float(np.sum(weights)) * max(1.0, w_mean**2):
        r2 = float("nan")
    else:
        r2 = 1.0 - current_sse / ss_tot

    contributions = [
        Contribution(
            feature=names[j],
            condition=condition_label(stats[j], float(x[j])),
            weight=float(beta[1 + rank]),
        )
        for rank, j in enumerate(selected)
    ]
    contributions.sort(key=lambda c: (-abs(c.weight), c.feature))
    return LocalExplanation(
        instance_key=tuple(instance_key),
        intercept=intercept,
        contributions=tuple(contributions),
        local_fit_r2=r2,
        predicted_value=float(outputs[0]),
    )
