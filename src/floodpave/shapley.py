"""Exact Shapley-value feature attribution for any fitted predictor.

The value of a coalition S is the interventional expectation of the
model output with the explained instance's values on S and background
rows everywhere else. ``shapley_values`` gives every instance its exact
Shapley values by the cheapest exact route:

- tree, forest and boosting predictors use interventional Tree SHAP
  (Lundberg et al., Nature MI 2020). It reads every leaf's box off the
  trees' flat arrays in one walk, reduces the background to each leaf's
  distinct outside-masks with their row counts, and attributes each
  instance over those (leaf, mask, count) triples, with no model calls;
- linear, ridge and lasso predictors use the closed form
  phi_j = coef_j * (x_j - mean b_j) / sigma_j, all instances at once;
- any other predictor enumerates all 2^M coalitions once per instance
  (memoized across features) through ``exact_shapley``, which takes its
  coalition values from ``_coalition_values``.

An instance's phi never depends on the other instances explained with
it. ``exact_shapley`` is always the 2^M enumeration; the tests hold Tree
SHAP and the linear closed form to it, so it is the oracle as well as
the fallback. Instances and background rows must be finite: the leaf-box
test cannot place -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import stage_rng
from .dataset import DataTable
from .models import BoostingPredictor, ForestPredictor, LinearPredictor, TreePredictor
from .models.tree import LEAF, joined, levels

MAX_EXACT_FEATURES = 20

# Keep batched predict calls below this many composite rows.
_CHUNK_ROWS = 200_000
# Keep each Tree SHAP step below this many (leaf, background row) or (leaf, instance)
# pairs, or (leaf, mask, count) triples.
_CHUNK_PAIRS = 50_000


@dataclass(frozen=True)
class ShapValues:
    """Per-instance attribution vectors plus the shared baseline output."""

    base_value: float
    phi: np.ndarray  # (n_instances, n_features)
    feature_names: tuple[str, ...]


@dataclass(frozen=True)
class GlobalImportance:
    ranking: tuple[str, ...]  # by mean |phi| descending, ties alphabetical
    mean_abs: dict
    points: tuple  # (feature, phi, raw feature value) triples


def draw_background(table: DataTable, feature_columns, size: int, seed: int) -> np.ndarray:
    """Seeded background sample of training rows (without replacement when possible)."""
    X = table.matrix(feature_columns)
    rng = stage_rng(seed, "shap-background")
    n = X.shape[0]
    if size >= n:
        return X
    idx = np.sort(rng.choice(n, size=size, replace=False))
    return X[idx]


def _coalition_values(predict_fn, x, background, onoff):
    """Mean prediction over the background for each row of a (coalitions, M) membership mask.

    A coalition's composite rows take x where its mask is True and each
    background row's value elsewhere.
    """
    n_bg = background.shape[0]
    values = np.empty(len(onoff))
    per_chunk = max(1, _CHUNK_ROWS // n_bg)
    for start in range(0, len(onoff), per_chunk):
        part = onoff[start : start + per_chunk]
        rows = np.tile(background, (len(part), 1))
        take_x = np.repeat(part, n_bg, axis=0)
        rows[take_x] = np.broadcast_to(x, rows.shape)[take_x]
        values[start : start + len(part)] = predict_fn(rows).reshape(len(part), n_bg).mean(axis=1)
    return values


def value_function(predictor, x: np.ndarray, subset, background: np.ndarray) -> float:
    """Interventional coalition value: mean prediction with x fixed on the subset."""
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    if background.shape[0] < 1:
        raise ValueError("background must be non-empty")
    onoff = np.zeros((1, len(x)), dtype=bool)
    onoff[0, list(subset)] = True
    return float(_coalition_values(predictor.predict, x, background, onoff)[0])


def _shapley_weights(n_features: int) -> np.ndarray:
    fact = math.factorial
    denom = fact(n_features)
    return np.array(
        [fact(s) * fact(n_features - s - 1) / denom for s in range(n_features)]
    )


def _check_exact_size(n_features: int) -> None:
    if n_features > MAX_EXACT_FEATURES:
        raise ValueError(
            f"exact Shapley values range over 2^{n_features} coalitions; "
            f"limit is M <= {MAX_EXACT_FEATURES} features"
        )


def exact_shapley(predictor, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Exact Shapley attribution by full coalition enumeration.

    Every coalition value is computed once and reused for all features.
    Refuses feature counts above MAX_EXACT_FEATURES.
    """
    x = np.asarray(x, dtype=float)
    m = len(x)
    _check_exact_size(m)
    background = np.asarray(background, dtype=float)
    masks = np.arange(1 << m)
    onoff = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    values = _coalition_values(predictor.predict, x, background, onoff)
    sizes = onoff.sum(axis=1)
    weights = _shapley_weights(m)

    phi = np.empty(m)
    for j in range(m):
        without = masks[((masks >> j) & 1) == 0]
        gain = values[without | (1 << j)] - values[without]
        phi[j] = float(np.sum(weights[sizes[without]] * gain))
    return phi


def _tree_ensemble(predictor):
    """(trees, weight) whose leaf values times weight sum to the predictor up to a constant, else None."""
    if isinstance(predictor, TreePredictor):
        return (predictor.tree,), 1.0
    if isinstance(predictor, ForestPredictor):
        return predictor.trees, 1.0 / len(predictor.trees)
    if isinstance(predictor, BoostingPredictor):
        # init_value is the same for every coalition, so it adds no attribution.
        return predictor.trees, predictor.learning_rate
    return None


def _leaf_boxes(trees, n_features: int):
    """Every leaf's value and bounds (lo, hi): a row reaches the leaf iff lo < x <= hi on every feature.

    One ``levels`` walk over all the trees at once carries the boxes of a
    level's nodes; a split cuts its children's boxes at its threshold, and
    the walk puts each split's left child just before its right one.
    """
    feature, threshold, left, right, value, roots = joined(trees)
    lo = np.full((roots.size, n_features), -np.inf)
    hi = np.full((roots.size, n_features), np.inf)
    leaves, los, his = [], [], []
    for level in levels(feature, left, right, roots):
        f = feature[level]
        leaf = f == LEAF
        leaves.append(level[leaf])
        los.append(lo[leaf])
        his.append(hi[leaf])
        split = ~leaf
        f, t = f[split], threshold[level[split]]
        lo, hi = np.repeat(lo[split], 2, axis=0), np.repeat(hi[split], 2, axis=0)
        left_row, right_row = np.arange(0, 2 * f.size, 2), np.arange(1, 2 * f.size, 2)
        hi[left_row, f] = np.minimum(hi[left_row, f], t)
        lo[right_row, f] = np.maximum(lo[right_row, f], t)
    return value[np.concatenate(leaves)], np.concatenate(los), np.concatenate(his)


def _outside_masks(lo, hi, rows):
    """(leaves, rows) bitmask of the features on which each row is outside each leaf's box.

    A feature is tested only at the leaves whose box bounds it.
    """
    out = np.zeros((lo.shape[0], rows.shape[0]), dtype=np.int32)
    for j in range(lo.shape[1]):
        bounded = np.flatnonzero((lo[:, j] > -np.inf) | (hi[:, j] < np.inf))
        col = rows[:, j]
        outside = col <= lo[bounded, j : j + 1]
        outside |= col > hi[bounded, j : j + 1]
        out[bounded] |= outside * np.int32(1 << j)
    return out


def _distinct_masks(lo, hi, background):
    """(leaf, mask, count) triples: each leaf's distinct background outside-masks, and how many rows have each.

    Leaves go in chunks of at most ``_CHUNK_PAIRS`` (leaf, background
    row) pairs, so no (leaves, rows) array is held. Triples come leaf by
    leaf, masks ascending within a leaf.
    """
    n_bg = background.shape[0]
    per_chunk = max(1, _CHUNK_PAIRS // n_bg)
    leaf, mask, count = [], [], []
    for start in range(0, lo.shape[0], per_chunk):
        part = slice(start, start + per_chunk)
        out = _outside_masks(lo[part], hi[part], background)
        out.sort(axis=1)
        first = np.ones(out.shape, dtype=bool)  # a mask's first row in its leaf's sorted row
        np.not_equal(out[:, 1:], out[:, :-1], out=first[:, 1:])
        at = np.flatnonzero(first)
        leaf.append((start + at // n_bg).astype(np.int32))
        mask.append(out.ravel()[at])
        count.append(np.diff(at, append=out.size).astype(np.int32))
    return np.concatenate(leaf), np.concatenate(mask), np.concatenate(count)


def _tree_shap(trees, weight: float, background: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Interventional Tree SHAP: the exact phi of each row of X.

    For an instance x, a background row b and a leaf with value v, let A
    be the features where x is inside the leaf's box and b is not, and B
    the reverse. A hybrid row reaches the leaf iff it takes x on all of A
    and b on all of B, so when some feature is inside for neither the
    pair adds nothing; otherwise, with a = |A| and c = |B|, each j in A
    gains v*(a-1)!c!/(a+c)! and each j in B loses v*a!(c-1)!/(a+c)!.
    Summed over leaves and averaged over b, that is exactly the Shapley
    value of the 2^M game that ``exact_shapley`` enumerates.

    b enters only through its outside-mask at the leaf, so the background
    is first reduced to each leaf's distinct masks with their counts
    (the precomputation of Fast TreeSHAP, Yang, arXiv:2109.09847), and a
    mask's terms are weighted by its count. A row's phi depends on that
    row and these triples alone, never on the other rows of X.
    """
    n, m = X.shape
    phi = np.zeros((n, m))
    if not trees:
        return phi
    size = np.zeros(1 << m, dtype=np.uint8)  # popcount of every feature-set bitmask
    for j in range(m):
        size[1 << j : 2 << j] = size[: 1 << j] + 1
    fact = [math.factorial(k) for k in range(2 * m + 1)]
    # Each feature in A gains, and each feature in B loses, this share of v; flat index a*(m+1) + c.
    gain = np.zeros((m + 1, m + 1))
    loss = np.zeros((m + 1, m + 1))
    for a in range(m + 1):
        for c in range(m + 1):
            if a:
                gain[a, c] = fact[a - 1] * fact[c] / fact[a + c]
            if c:
                loss[a, c] = -fact[a] * fact[c - 1] / fact[a + c]
    gain, loss = gain.ravel(), loss.ravel()

    value, lo, hi = _leaf_boxes(trees, m)
    leaf, set_a, count = _distinct_masks(lo, hi, background)
    mass = value.take(leaf)  # a triple's weighted leaf value times its row count
    mass *= weight
    mass *= count
    row_a = size.take(set_a) * np.uint16(m + 1)
    chunks = [slice(s, s + _CHUNK_PAIRS) for s in range(0, leaf.size, _CHUNK_PAIRS)]
    rows_per_chunk = max(1, _CHUNK_PAIRS // value.size)
    for start in range(0, n, rows_per_chunk):
        x_masks = _outside_masks(lo, hi, X[start : start + rows_per_chunk])
        for i, x_out in enumerate(x_masks.T, start):
            totals = np.zeros(1 << m)  # summed weight per feature set
            for part in chunks:
                # Triples where every feature is inside for x or for b; then A = b's mask, B = x's.
                x_leaf = x_out.take(leaf[part])
                hit = np.flatnonzero((set_a[part] & x_leaf) == 0)
                a_set, b_set = set_a[part].take(hit), x_leaf.take(hit)
                share = row_a[part].take(hit) + size.take(b_set)
                v = mass[part].take(hit)
                keys = np.concatenate([a_set, b_set])
                weights = np.concatenate([v * gain.take(share), v * loss.take(share)])
                totals += np.bincount(keys, weights=weights, minlength=1 << m)
            # Spread each feature set's weight over its features.
            sets = np.nonzero(totals)[0]
            members = (sets[:, None] >> np.arange(m)) & 1
            phi[i] = (members.T @ totals[sets]) / background.shape[0]
    return phi


def _exact_phi(predictor, X: np.ndarray, background: np.ndarray):
    """The exact phi of every row of X for a shipped model kind; None for any other predictor.

    Tree kinds get Tree SHAP. Linear kinds get the interventional closed
    form phi_j = coef_j * (x_j - mean b_j) / sigma_j (Lundberg & Lee,
    arXiv:1705.07874), with coef and sigma in the standardized space
    that ``LinearPredictor`` stores, elementwise over all rows at once.
    """
    ensemble = _tree_ensemble(predictor)
    if ensemble is not None:
        return _tree_shap(*ensemble, background, X)
    if isinstance(predictor, LinearPredictor):
        return predictor.coef * (X - background.mean(axis=0)) / predictor.sigma
    return None


def shapley_values(predictor, X: np.ndarray, background: np.ndarray) -> ShapValues:
    """The exact phi of every row of X; a row's phi never depends on the other rows.

    A shipped model kind gets Tree SHAP or the linear closed form over
    all rows at once; any other predictor gets ``exact_shapley`` row by
    row.
    """
    X = np.asarray(X, dtype=float)
    background = np.asarray(background, dtype=float)
    # A leaf box starts at lo = -inf and tests lo < x, so -inf (like NaN)
    # would sit outside every box although predict places it.
    for name, rows in (("instances to explain", X), ("background", background)):
        if not np.isfinite(rows).all():
            raise ValueError(f"{name}: missing or infinite values; filter rows first")
    _check_exact_size(X.shape[1])
    base_value = float(np.mean(predictor.predict(background)))
    phi = _exact_phi(predictor, X, background)
    if phi is None:
        phi = np.array([exact_shapley(predictor, x, background) for x in X]).reshape(X.shape)
    return ShapValues(base_value, phi, tuple(predictor.feature_names))


def summarize(values: ShapValues, table: DataTable) -> GlobalImportance:
    """Global importance: mean |phi| ranking plus per-point beeswarm triples."""
    if values.phi.shape[0] != table.n_rows:
        raise ValueError(
            f"phi has {values.phi.shape[0]} rows but the table has {table.n_rows}"
        )
    mean_abs = {
        name: float(np.mean(np.abs(values.phi[:, j])))
        for j, name in enumerate(values.feature_names)
    }
    ranking = tuple(sorted(mean_abs, key=lambda name: (-mean_abs[name], name)))
    points = []
    for j, name in enumerate(values.feature_names):
        raw = table.col(name)
        for i in range(table.n_rows):
            points.append((name, float(values.phi[i, j]), float(raw[i])))
    return GlobalImportance(ranking, mean_abs, tuple(points))
