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
(Ribeiro et al., arXiv:1602.04938). The fit reads the rows only through
their kernel-weighted moments: the columns and outputs are centred on
their weighted means, which takes the intercept out, and one product
gives the M×M Gram matrix and the M cross-moments. Selection sweeps that
matrix, one chosen column a round, and one solve on the chosen block then
gives the weights, as refitting every candidate would.
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
# A column whose weighted variance off the intercept and the columns selected
# is at most this share of its uncentred weighted squared norm is collinear
# with them (rounding leaves a twin about 1e-16 of it): it scores 0.
_COLLINEAR = 1e-12


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


def _select(gram, cross, norms, k, ss_tot):
    """Greedy forward selection of up to ``k`` columns; returns their indices in order.

    The columns and outputs are read through their weighted moments about
    the weighted means: ``gram`` among the columns, ``cross`` with the
    outputs; ``norms`` are the columns' uncentred weighted squared norms
    and ``ss_tot`` the intercept-only SSE. Each round adds the column that
    lowers the SSE most, by ``cross[j]^2 / gram[j, j]``, the first on a
    tie, while that exceeds ``_SELECTION_EPS * max(ss_tot, 1)``, and sweeps
    it out of copies of ``gram`` and ``cross`` (Efroymson's stepwise
    regression). A column left with at most ``_COLLINEAR`` of its norm
    scores 0, as does one selected or one with no weighted variation.
    """
    gram, cross = gram.copy(), cross.copy()
    floor = _COLLINEAR * norms
    if not (gram.diagonal() > floor).any():
        log.warning("degenerate neighborhood: explanation is intercept-only")
        return []
    selected = []
    while len(selected) < min(k, len(cross)):
        diag = gram.diagonal()
        live = diag > floor
        score = np.zeros(len(cross))
        score[live] = np.square(cross[live]) / diag[live]
        i = int(score.argmax())
        if score[i] <= _SELECTION_EPS * max(ss_tot, 1.0):
            break
        selected.append(i)
        pivot = gram[i] / gram[i, i]
        cross -= pivot * cross[i]
        gram -= np.outer(pivot, gram[i])
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
    residual reduction, swept on the weighted moment matrix, followed by
    one solve of the normal equations on the selected set. The reported
    R-squared is the kernel-weighted fit quality of the surrogate against
    the black-box outputs, its SSE summed over the residual rows.
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
    w_sum = float(np.sum(weights))
    w_mean = float(np.sum(weights * outputs) / w_sum)
    means = weights @ interp / w_sum
    sqrt_w = np.sqrt(weights)
    # The columns and outputs centred on their weighted means and scaled by sqrt(w).
    rows = (interp - means) * sqrt_w[:, None]
    target = (outputs - w_mean) * sqrt_w
    ss_tot = float(target @ target)

    gram, cross = rows.T @ rows, rows.T @ target
    selected = _select(gram, cross, gram.diagonal() + w_sum * np.square(means), config.max_features_K, ss_tot)
    beta = np.linalg.solve(gram[np.ix_(selected, selected)], cross[selected])
    residual = target - rows[:, selected] @ beta
    intercept = w_mean - float(means[selected] @ beta)

    # Constant black-box output: weighted variance is zero up to rounding.
    if ss_tot <= 1e-20 * w_sum * max(1.0, w_mean**2):
        r2 = float("nan")
    else:
        r2 = 1.0 - float(residual @ residual) / ss_tot

    contributions = [
        Contribution(
            feature=names[j],
            condition=condition_label(stats[j], float(x[j])),
            weight=float(beta[rank]),
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
