"""Local surrogate explanations around single instances.

A neighborhood is sampled from the training marginals, weighted by an
exponential distance kernel around the instance, and a small weighted
linear model is fitted to the black-box outputs on it. Since the sampler
does not depend on the instance, `fit_local_surrogates` draws and
predicts the neighborhood once per run and shares it between every
instance explained; each instance only takes row 0 (and holds the
features with zero training std at its own values). Continuous features
are reported as quantile-bin conditions ("90.00 < TX_IRI_AVERAGE_SCORE
<= 100.00"); binary and label-encoded features as category conditions.

At most ``max_features_K`` features are kept by greedy forward selection
(Ribeiro et al., arXiv:1602.04938). Each round scores every remaining
candidate at once by the weighted-SSE reduction it brings, from the
weighted columns projected off the intercept and the chosen columns, and
keeps the best while that is not noise. One least-squares fit on the
chosen columns then gives the weights, as refitting every candidate would.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import LimeConfig
from .dataset import DataTable, quantiles

log = logging.getLogger(__name__)

# Weighted-SSE reduction below this fraction of the total is noise, not signal.
_SELECTION_EPS = 1e-12
# A candidate column that keeps less than this share of its weighted squared
# norm off the columns already selected is collinear with them: it scores 0.
_COLLINEAR = 1e-20


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
        # return_counts keeps np.unique off the path that imports numpy.ma
        distinct, counts = np.unique(col, return_counts=True)
        if name in table.encodings or set(distinct.tolist()) <= {0.0, 1.0}:
            counts = counts.astype(float)
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
            edges = quantiles(col, [i / n_bins for i in range(1, n_bins)])
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


def _draw(x, stats: list[FeatureStats], config: LimeConfig, rng) -> np.ndarray:
    """The ``n_samples`` × M neighborhood of x, drawn feature by feature from ``rng``.

    Row 0 is x. Continuous features draw from a normal law with the
    training mean/std; categorical features resample from training
    frequencies. A feature with zero training std draws nothing and is
    held at x's value. So every row but 0, on every feature but the held
    ones, is the same whatever x is.
    """
    if len(x) != len(stats):
        raise ValueError(f"x has {len(x)} features but stats describe {len(stats)}")
    n = config.n_samples
    samples = np.empty((n, len(stats)))
    samples[0] = x
    for j, fs in enumerate(stats):
        if fs.kind == "categorical":
            samples[1:, j] = rng.choice(np.asarray(fs.categories), size=n - 1, p=np.asarray(fs.frequencies))
        elif fs.std == 0.0:
            log.warning("feature %s has zero training std; held constant", fs.name)
            samples[:, j] = x[j]
        else:
            samples[1:, j] = rng.normal(fs.mean, fs.std, size=n - 1)
    return samples


def _bins(samples, stats: list[FeatureStats], config: LimeConfig) -> list:
    """Per feature, the quantile bin of each sampled value, or None where no bin is compared."""
    return [
        _bin_of(samples[:, j], fs.bin_edges) if config.discretize and fs.kind == "continuous" and fs.std != 0.0 else None
        for j, fs in enumerate(stats)
    ]


def _localize(samples, bins: list, x, stats: list[FeatureStats], config: LimeConfig):
    """Put x in row 0 of ``samples`` and ``bins``; return x's ``(interpretable, distances)``.

    ``samples`` must hold x's values on the held features. The
    interpretable representation is the shares-x's-bin/category
    indicator (or the standardized value when discretize is off), and
    distances are Euclidean over standardized continuous features only.
    """
    n, m = samples.shape
    samples[0] = x
    interp = np.empty((n, m))
    sq_dist = np.zeros(n)
    for j, fs in enumerate(stats):
        if fs.kind == "categorical":
            interp[:, j] = (samples[:, j] == x[j]).astype(float)
            continue
        if fs.std == 0.0:
            interp[:, j] = 1.0 if config.discretize else 0.0
            continue
        z = (samples[:, j] - x[j]) / fs.std
        sq_dist += z**2
        if config.discretize:
            bins[j][0] = _bin_of(x[j], fs.bin_edges)
            interp[:, j] = (bins[j] == bins[j][0]).astype(float)
        else:
            interp[:, j] = (samples[:, j] - fs.mean) / fs.std
    return interp, np.sqrt(sq_dist)


def perturb_neighborhood(x, stats: list[FeatureStats], config: LimeConfig, rng):
    """Sample the local neighborhood around x.

    Returns ``(samples, interpretable, distances)``, as ``_draw`` and
    ``_localize`` make them. Row 0 is x itself.
    """
    x = np.asarray(x, dtype=float)
    samples = _draw(x, stats, config, rng)
    interp, distances = _localize(samples, _bins(samples, stats, config), x, stats, config)
    return samples, interp, distances


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
    """Weighted least squares of ``target`` on an intercept and ``columns``; returns (beta, weighted SSE)."""
    a = np.hstack([np.ones((len(target), 1)), columns]) * sqrt_w[:, None]
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


def _select(interp, outputs, sqrt_w, k, ss_tot):
    """Greedy forward selection of up to ``k`` columns of ``interp``; returns their indices in order.

    Each round scores every remaining column at once: with the weighted
    columns and target projected off the intercept and the selected
    columns (classical Gram-Schmidt, twice), adding column u lowers the
    weighted SSE by ``(u.r)^2 / u.u`` for the projected target r. The
    best, the first on a tie, is kept while that exceeds
    ``_SELECTION_EPS * max(ss_tot, 1)``, ``ss_tot`` being the intercept-only
    SSE. A column left with at most ``_COLLINEAR`` of its weighted squared
    norm scores 0, as does one with no weighted variation or one selected.
    """
    rows = np.empty((interp.shape[1] + 1, len(outputs)))  # candidates, then the target
    for row, column in zip(rows, interp.T):
        np.multiply(column, sqrt_w, out=row)
    np.multiply(outputs, sqrt_w, out=rows[-1])
    floor = _COLLINEAR * _squared_norms(rows[:-1])
    _project_off(rows, sqrt_w / np.linalg.norm(sqrt_w))
    if not (_squared_norms(rows[:-1]) > floor).any():
        log.warning("degenerate neighborhood: explanation is intercept-only")
        return []
    selected = []
    while len(selected) < min(k, len(floor)):
        norms, dots = _squared_norms(rows[:-1]), rows[:-1] @ rows[-1]
        live = norms > floor
        score = np.zeros(len(floor))
        score[live] = np.square(dots[live]) / norms[live]
        i = int(score.argmax())
        if score[i] <= _SELECTION_EPS * max(ss_tot, 1.0):
            break
        selected.append(i)
        _project_off(rows, rows[i] / np.linalg.norm(rows[i]))
    return selected


def fit_local_surrogates(
    predictor,
    X,
    keys,
    table: DataTable,
    config: LimeConfig,
    stats: list[FeatureStats] | None = None,
) -> list[LocalExplanation]:
    """Explain each row of X with a weighted sparse linear surrogate; ``keys`` name the rows.

    The neighborhood is drawn once from ``config.seed``, binned once and
    predicted once, and shared by every row: the sampler draws from the
    training marginals, so only row 0 (the instance itself) depends on
    the row explained. A feature with zero training std is held at the
    instance's value, so the neighborhood is predicted once per distinct
    tuple of the rows' values on such features. Each row then puts
    itself in row 0 and fits its own surrogate, and its output there is
    predicted alone, so an explanation does not depend on the other rows
    in X: row i's equals ``fit_local_surrogate`` on X[i], bit for bit.

    The feature cap is enforced by greedy forward selection on weighted
    residual reduction, followed by an exact weighted least-squares refit
    on the selected set. The reported R-squared is the kernel-weighted
    fit quality of the surrogate against the black-box outputs.
    """
    X = np.asarray(X, dtype=float)
    names = list(predictor.feature_names)
    if stats is None:
        stats = training_stats(table, names, config.n_bins)
    if len(X) == 0:
        return []
    samples = _draw(X[0], stats, config, np.random.default_rng(config.seed))
    bins = _bins(samples, stats, config)
    held = [j for j, fs in enumerate(stats) if fs.kind == "continuous" and fs.std == 0.0]
    groups: dict[bytes, list[int]] = {}
    for i, x in enumerate(X):
        groups.setdefault(x[held].tobytes(), []).append(i)
    sigma = config.sigma_for(len(names))
    explanations = [None] * len(X)
    for members in groups.values():
        samples[:, held] = X[members[0], held]
        outputs = predictor.predict(samples)
        for i in members:
            interp, distances = _localize(samples, bins, X[i], stats, config)
            outputs[0] = predictor.predict(X[i : i + 1])[0]
            explanations[i] = _surrogate(
                names, stats, X[i], keys[i], interp, outputs, kernel_weight(distances, sigma), config
            )
    return explanations


def fit_local_surrogate(
    predictor,
    x,
    table: DataTable,
    config: LimeConfig,
    instance_key: tuple = (),
    stats: list[FeatureStats] | None = None,
) -> LocalExplanation:
    """Explain one prediction: ``fit_local_surrogates`` on the single row x."""
    x = np.asarray(x, dtype=float)
    return fit_local_surrogates(predictor, x[None], [instance_key], table, config, stats)[0]


def _surrogate(names, stats, x, instance_key, interp, outputs, weights, config) -> LocalExplanation:
    """The surrogate fitted to ``outputs`` over one instance's neighborhood."""
    sqrt_w = np.sqrt(weights)

    w_mean = float(np.sum(weights * outputs) / np.sum(weights))
    ss_tot = float(np.sum(weights * (outputs - w_mean) ** 2))

    selected = _select(interp, outputs, sqrt_w, config.max_features_K, ss_tot)
    if selected:
        beta, sse = _weighted_lstsq(interp[:, selected], outputs, sqrt_w)
    else:
        beta, sse = (w_mean,), ss_tot

    intercept = float(beta[0])
    # Constant black-box output: weighted variance is zero up to rounding.
    if ss_tot <= 1e-20 * float(np.sum(weights)) * max(1.0, w_mean**2):
        r2 = float("nan")
    else:
        r2 = 1.0 - sse / ss_tot

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
