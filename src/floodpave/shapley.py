"""Shapley-value feature attribution for any fitted predictor.

The value of a coalition S is the interventional expectation of the
model output with the explained instance's values on S and background
rows everywhere else. Every path that calls ``predict`` gets coalition
values from one evaluator, ``_coalition_values``. Sampled mode averages
marginal contributions over p seeded uniform feature permutations and
evaluates each distinct prefix coalition once: at most min(2^M, p*M + 1)
coalitions per instance. Exact mode takes the cheapest exact route:

- tree, forest and boosting predictors use interventional Tree SHAP
  (Lundberg et al., Nature MI 2020), which reads each leaf's box off the
  flat tree arrays and attributes leaf by leaf, with no model calls;
- any other predictor, linear ones included, enumerates all 2^M
  coalitions once (memoized across features) through ``exact_shapley``.

``exact_shapley`` is always the 2^M enumeration; the tests hold Tree
SHAP to it, so it is the oracle as well as the fallback. Instances and
background rows must be finite: the leaf-box test cannot place -inf.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._util import stage_rng
from .dataset import DataTable
from .models import BoostingPredictor, ForestPredictor, TreePredictor
from .models.tree import LEAF

MAX_EXACT_FEATURES = 20

# Keep batched predict calls below this many composite rows.
_CHUNK_ROWS = 200_000
# Keep each Tree SHAP step below this many (background row, leaf) pairs.
_CHUNK_PAIRS = 50_000


@dataclass(frozen=True)
class ShapConfig:
    mode: str = "exact"  # "exact" | "sampled"
    background_size: int = 100
    n_permutations: int = 2000
    seed: int = 0
    baseline: str = "interventional"  # "interventional" | "mean_impute"

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.baseline not in ("interventional", "mean_impute"):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if self.background_size < 1:
            raise ValueError("background_size must be >= 1")
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be >= 1")


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


def _apply_baseline(background: np.ndarray, config: ShapConfig) -> np.ndarray:
    if config.baseline == "mean_impute":
        return background.mean(axis=0, keepdims=True)
    return background


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
            f"exact mode enumerates 2^{n_features} coalitions; limit is M <= {MAX_EXACT_FEATURES}. "
            "Use mode='sampled'."
        )


def exact_shapley(predictor, x: np.ndarray, background: np.ndarray, config: ShapConfig) -> np.ndarray:
    """Exact Shapley attribution by full coalition enumeration.

    Every coalition value is computed once and reused for all features.
    Refuses feature counts above MAX_EXACT_FEATURES; use sampled mode
    there instead.
    """
    x = np.asarray(x, dtype=float)
    m = len(x)
    _check_exact_size(m)
    background = _apply_baseline(np.asarray(background, dtype=float), config)
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


def shapley_from_permutations(predictor, x, background, permutations, config: ShapConfig | None = None):
    """Average marginal contributions along explicit feature orderings.

    The estimator underneath sampled mode; handing it all M! orderings
    reproduces the exact attribution. The empty coalition and the p*M
    prefixes are deduplicated, so each distinct coalition is evaluated
    once: min(2^M, p*M + 1) evaluations.
    """
    x = np.asarray(x, dtype=float)
    m = len(x)
    perms = np.asarray(permutations, dtype=np.int64)
    if perms.ndim != 2 or perms.shape[1] != m:
        raise ValueError(f"permutations must be (n, {m}), got {perms.shape}")
    background = np.asarray(background, dtype=float)
    if config is not None:
        background = _apply_baseline(background, config)
    p = len(perms)

    # position[i, f] = step at which permutation i introduces feature f
    position = np.empty((p, m), dtype=np.int64)
    position[np.arange(p)[:, None], perms] = np.arange(m)
    prefixes = position[:, None, :] <= np.arange(m)[None, :, None]  # (p, step, feature)
    onoff = np.concatenate([np.zeros((1, m), dtype=bool), prefixes.reshape(p * m, m)])
    coalitions, which = np.unique(onoff, axis=0, return_inverse=True)
    # ravel: the inverse's shape differs across numpy 2.0.x releases
    v = _coalition_values(predictor.predict, x, background, coalitions)[which.ravel()]

    v_step = v[1:].reshape(p, m)
    v_prev = np.concatenate([np.full((p, 1), v[0]), v_step[:, :-1]], axis=1)
    phi = np.zeros(m)
    np.add.at(phi, perms.ravel(), (v_step - v_prev).ravel())
    return phi / p


def sampled_shapley(predictor, x, background, config: ShapConfig, index: int | None = None) -> np.ndarray:
    """Monte Carlo Shapley estimate over seeded uniform permutations.

    ``index`` keys the permutation stream, so each explained instance of
    a batch draws its own stream and the same one when explained alone.
    """
    x = np.asarray(x, dtype=float)
    rng = stage_rng(config.seed, "sampled-shap", index)
    perms = np.array([rng.permutation(len(x)) for _ in range(config.n_permutations)])
    return shapley_from_permutations(predictor, x, background, perms, config)


def _tree_terms(predictor):
    """(Tree, weight) pairs whose weighted sum is the predictor up to a constant, else None."""
    if isinstance(predictor, TreePredictor):
        return [(predictor.tree, 1.0)]
    if isinstance(predictor, ForestPredictor):
        return [(tree, 1.0 / len(predictor.trees)) for tree in predictor.trees]
    if isinstance(predictor, BoostingPredictor):
        # init_value is the same for every coalition, so it adds no attribution.
        return [(tree, predictor.learning_rate) for tree in predictor.trees]
    return None


def _leaf_boxes(tree, n_features: int):
    """Per leaf: bounds (lo, hi) such that a row reaches it iff lo < x <= hi on every feature."""
    lo = np.full((tree.n_nodes, n_features), -np.inf)
    hi = np.full((tree.n_nodes, n_features), np.inf)
    frontier = np.array([0])
    while frontier.size:
        split = frontier[tree.feature[frontier] != LEAF]
        f, t = tree.feature[split], tree.threshold[split]
        left, right = tree.left[split], tree.right[split]
        lo[left] = lo[right] = lo[split]
        hi[left] = hi[right] = hi[split]
        hi[left, f] = np.minimum(hi[split, f], t)
        lo[right, f] = np.maximum(lo[split, f], t)
        frontier = np.concatenate([left, right])
    leaves = np.nonzero(tree.feature == LEAF)[0]
    return lo[leaves], hi[leaves], tree.value[leaves]


def _outside_masks(rows, lo, hi):
    """(rows, leaves) bitmask of the features on which each row is outside each leaf's box."""
    out = np.zeros((rows.shape[0], lo.shape[0]), dtype=np.int32)
    for j in range(lo.shape[1]):
        col = rows[:, j : j + 1]
        out |= (~((lo[:, j] < col) & (col <= hi[:, j]))).astype(np.int32) << j
    return out


def _tree_shap(terms, background: np.ndarray, n_features: int):
    """Interventional Tree SHAP: a function from one instance to its exact phi.

    For an instance x, a background row b and a leaf with value v, let A
    be the features where x is inside the leaf's box and b is not, and B
    the reverse. A hybrid row reaches the leaf iff it takes x on all of A
    and b on all of B, so when some feature is inside for neither the
    pair adds nothing; otherwise, with a = |A| and c = |B|, each j in A
    gains v*(a-1)!c!/(a+c)! and each j in B loses v*a!(c-1)!/(a+c)!.
    Summed over leaves and averaged over b, that is exactly the Shapley
    value of the 2^M game that ``exact_shapley`` enumerates.
    """
    m = n_features
    size = np.zeros(1 << m, dtype=np.uint8)  # popcount of every feature-set bitmask
    for j in range(m):
        size[1 << j : 2 << j] = size[: 1 << j] + 1
    fact = [math.factorial(k) for k in range(2 * m + 1)]
    gain = np.zeros((m + 1, m + 1))  # [a, c], for each feature in A
    loss = np.zeros((m + 1, m + 1))  # [a, c], for each feature in B
    for a in range(m + 1):
        for c in range(m + 1):
            if a:
                gain[a, c] = fact[a - 1] * fact[c] / fact[a + c]
            if c:
                loss[a, c] = fact[a] * fact[c - 1] / fact[a + c]

    # Leaf table of every tree, and the background's masks, once per call.
    boxes = [_leaf_boxes(tree, m) for tree, _ in terms]
    if not boxes:
        return lambda x: np.zeros(m)
    lo = np.concatenate([box[0] for box in boxes])
    hi = np.concatenate([box[1] for box in boxes])
    value = np.concatenate([weight * box[2] for (_, weight), box in zip(terms, boxes)])
    n_bg = background.shape[0]
    leaves_per_chunk = max(1, _CHUNK_PAIRS // n_bg)
    chunks = [slice(s, s + leaves_per_chunk) for s in range(0, len(value), leaves_per_chunk)]
    bg_out = np.empty((n_bg, len(value)), dtype=np.int32)
    for part in chunks:
        bg_out[:, part] = _outside_masks(background, lo[part], hi[part])

    def phi(x: np.ndarray) -> np.ndarray:
        x_out_all = _outside_masks(x[None], lo, hi)[0]
        totals = np.zeros(1 << m)  # summed weight per feature set
        for part in chunks:
            b_out, x_out = bg_out[:, part], x_out_all[part]
            # Pairs where every feature is inside for x or for b; then A = b_out, B = x_out.
            row, leaf = np.nonzero((b_out & x_out) == 0)
            set_a, set_b = b_out[row, leaf], x_out[leaf]
            a, c, v = size[set_a], size[set_b], value[part][leaf]
            keys = np.concatenate([set_a, set_b])
            weights = np.concatenate([v * gain[a, c], -v * loss[a, c]])
            totals += np.bincount(keys, weights=weights, minlength=1 << m)
        # Spread each feature set's weight over its features.
        sets = np.nonzero(totals)[0]
        members = (sets[:, None] >> np.arange(m)) & 1
        return (members.T @ totals[sets]) / n_bg

    return phi


def _exact_explainer(predictor, background: np.ndarray, config: ShapConfig, n_features: int):
    """A function from one instance to its exact phi, by predictor type."""
    _check_exact_size(n_features)
    base_bg = _apply_baseline(background, config)
    terms = _tree_terms(predictor)
    if terms is not None:
        return _tree_shap(terms, base_bg, n_features)
    return lambda x: exact_shapley(predictor, x, background, config)


def shapley_values(
    predictor,
    X: np.ndarray,
    background: np.ndarray,
    config: ShapConfig,
    n_workers: int = 1,
) -> ShapValues:
    """Attribute every row of X; rows are independent and may run concurrently.

    Sampled mode gives each instance its own seed-derived permutation
    stream, so results do not depend on worker count or ordering.
    """
    X = np.asarray(X, dtype=float)
    background = np.asarray(background, dtype=float)
    # A leaf box starts at lo = -inf and tests lo < x, so -inf (like NaN)
    # would sit outside every box although predict places it.
    for name, rows in (("instances to explain", X), ("background", background)):
        if not np.isfinite(rows).all():
            raise ValueError(f"{name}: missing or infinite values; filter rows first")
    base_bg = _apply_baseline(background, config)
    base_value = float(np.mean(predictor.predict(base_bg)))

    if config.mode == "exact":
        explain = _exact_explainer(predictor, background, config, X.shape[1])

        def one(i: int) -> np.ndarray:
            return explain(X[i])

    else:

        def one(i: int) -> np.ndarray:
            return sampled_shapley(predictor, X[i], background, config, index=i)

    indices = range(X.shape[0])
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(one, indices))
    else:
        rows = [one(i) for i in indices]
    phi = np.vstack(rows) if rows else np.empty((0, X.shape[1]))
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
