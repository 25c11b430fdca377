"""CART regression trees and the two tree ensembles built on them.

Splits minimize the summed child squared error (equivalently, maximize
variance reduction) over midpoint thresholds between consecutive
distinct sorted values. All tie-breaks are first-come in a fixed
enumeration order, so a fit is a pure function of (data, spec, seed).

``build_tree`` sorts each feature once, at the root, with a stable
argsort, and carries a (features, rows) block of per-feature sorted row
ids down the tree. A split partitions that block stably, so every node
sees its rows in (value, row id) order, the order a stable per-node
argsort would give, and ``_best_split`` scores all candidate features
in one vectorized pass with the same per-feature arithmetic. Splits,
thresholds and ties are therefore those of sorting at every node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spec import ModelSpec

LEAF = -1
# Relative SSE-reduction floor below which a split is considered noise.
_MIN_REDUCTION = 1e-12


class Tree:
    """Flat-array binary regression tree."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            rows = np.nonzero(self.feature[node] != LEAF)[0]
            if rows.size == 0:
                return self.value[node]
            cur = node[rows]
            go_left = X[rows, self.feature[cur]] <= self.threshold[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": [float(v) for v in self.threshold],
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": [float(v) for v in self.value],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(d["feature"], d["threshold"], d["left"], d["right"], d["value"])


def _best_split(Xt, y, order, features, min_leaf):
    """Best (sse, feature, threshold) over candidate features at a node, or None.

    ``order[j]`` holds the node's rows sorted by feature j (ties by row
    id). Every candidate feature is scored in one pass over a
    (features, rows) block; per feature the arithmetic is the plain
    prefix-sum form, and the first feature holding the lowest SSE wins.
    """
    rows = order if features.size == order.shape[0] else order.take(features, axis=0)
    n = rows.shape[1]
    # flat positions into Xt: row id plus the feature's offset
    vs = Xt.take(rows + (features * Xt.shape[1]).astype(rows.dtype)[:, None])
    ys = y.take(rows)
    cum_y = np.cumsum(ys, axis=1)
    cum_y2 = np.cumsum(np.square(ys, out=ys), axis=1, out=ys)

    # split after sorted position k: left has k+1 rows
    left_n = np.arange(1, n)
    valid = vs[:, 1:] > vs[:, :-1]
    if min_leaf > 1:
        valid &= (left_n >= min_leaf) & (n - left_n >= min_leaf)
    splittable = np.flatnonzero(valid.any(axis=1))
    if splittable.size == 0:
        return None
    # sse = (cy2 - cy**2 / left_n) + ((total_y2 - cy2) - (total_y - cy)**2 / (n - left_n)),
    # evaluated in place to keep the per-node temporaries few.
    cy, cy2 = cum_y[:, :-1], cum_y2[:, :-1]
    sse = np.square(cy)
    sse /= left_n
    np.subtract(cy2, sse, out=sse)
    np.subtract(cum_y[:, -1:], cy, out=cy)
    np.square(cy, out=cy)
    cy /= n - left_n
    np.subtract(cum_y2[:, -1:], cy2, out=cy2)
    cy2 -= cy
    sse += cy2
    sse[~valid] = np.inf

    k = sse.argmin(axis=1)
    lowest = sse[np.arange(sse.shape[0]), k]
    r = splittable[np.argmin(lowest[splittable])]
    kr = k[r]
    return float(lowest[r]), int(features[r]), float((vs[r, kr] + vs[r, kr + 1]) / 2.0)


def _presort(Xt):
    """Each feature's rows in ascending value order, ties by row id.

    Ids are int32 when every flat position into ``Xt`` fits, to keep the
    per-node index blocks small.
    """
    ids = np.int32 if Xt.size <= np.iinfo(np.int32).max else np.int64
    return np.argsort(Xt, axis=1, kind="stable").astype(ids)


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    feature_subsample: float = 1.0,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a CART regression tree.

    ``feature_subsample`` < 1 draws a fresh feature subset at every
    split (the random-forest decorrelation device) and requires ``rng``;
    at exactly 1.0 no randomness is consumed and the tree is the plain
    deterministic CART fit.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n_rows, n_features = X.shape
    all_features = np.arange(n_features)
    if feature_subsample < 1.0 and rng is None:
        raise ValueError("feature_subsample < 1 requires an rng")
    n_sub = max(1, int(round(feature_subsample * n_features)))
    Xt = np.ascontiguousarray(X.T)
    go_left = np.empty(n_rows, dtype=bool)

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        value.append(0.0)
        return len(feature) - 1

    def may_split(n, depth):
        return depth < max_depth and n >= min_samples_split and n >= 2 * min_samples_leaf

    def sorted_rows(order, mask, n_kept):
        # Stable partition: each feature's sorted row list keeps its order.
        return np.compress(mask.ravel(), order).reshape(n_features, n_kept)

    def grow(idx, order, depth):
        # idx: the node's rows in ascending id order; order: (n_features, n)
        # per-feature sorted rows, or None when the node cannot split.
        node = new_node()
        y_node = y[idx]
        mean = y_node.mean()
        value[node] = float(mean)
        if order is None:
            return node
        parent_sse = float(np.sum((y_node - mean) ** 2))
        if parent_sse == 0.0:
            return node
        if feature_subsample < 1.0:
            candidates = np.sort(rng.choice(n_features, size=n_sub, replace=False))
        else:
            candidates = all_features
        best = _best_split(Xt, y, order, candidates, min_samples_leaf)
        if best is None:
            return node
        sse, feat, thr = best
        if parent_sse - sse <= _MIN_REDUCTION * max(parent_sse, 1.0):
            return node
        mask = Xt[feat, idx] <= thr
        feature[node] = feat
        threshold[node] = thr
        left_idx, right_idx = idx[mask], idx[~mask]
        go_left[idx] = mask
        goes = go_left.take(order)
        left_order = right_order = None
        if may_split(left_idx.size, depth + 1):
            left_order = sorted_rows(order, goes, left_idx.size)
        if may_split(right_idx.size, depth + 1):
            right_order = sorted_rows(order, ~goes, right_idx.size)
        del order, goes  # only the children's blocks stay alive down the recursion
        left[node] = grow(left_idx, left_order, depth + 1)
        right[node] = grow(right_idx, right_order, depth + 1)
        return node

    grow(np.arange(n_rows), _presort(Xt) if may_split(n_rows, 0) else None, 0)
    return Tree(feature, threshold, left, right, value)


def _check_dims(X, feature_names):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise ValueError(f"expected {len(feature_names)} feature columns, got shape {X.shape}")
    if np.isnan(X).any():
        raise ValueError("predict input contains missing values; filter rows first")
    return X


@dataclass(frozen=True)
class TreePredictor:
    spec: ModelSpec
    feature_names: tuple[str, ...]
    tree: Tree

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.tree.predict(_check_dims(X, self.feature_names))

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "feature_names": list(self.feature_names),
            "tree": self.tree.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreePredictor":
        return cls(ModelSpec.from_dict(d["spec"]), tuple(d["feature_names"]), Tree.from_dict(d["tree"]))


@dataclass(frozen=True)
class ForestPredictor:
    """Bagged CART trees; prediction is the plain mean over trees."""

    spec: ModelSpec
    feature_names: tuple[str, ...]
    trees: tuple = field(default_factory=tuple)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_dims(X, self.feature_names)
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.predict(X)
        return total / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "feature_names": list(self.feature_names),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ForestPredictor":
        return cls(
            ModelSpec.from_dict(d["spec"]),
            tuple(d["feature_names"]),
            tuple(Tree.from_dict(t) for t in d["trees"]),
        )


@dataclass(frozen=True)
class BoostingPredictor:
    """Stagewise least-squares boosting: mean(y) plus shrunken residual trees."""

    spec: ModelSpec
    feature_names: tuple[str, ...]
    init_value: float
    learning_rate: float
    trees: tuple = field(default_factory=tuple)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_dims(X, self.feature_names)
        out = np.full(X.shape[0], self.init_value)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out

    def staged_train_mse(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Training MSE after 0..n_estimators stages; used to audit convergence."""
        X = _check_dims(X, self.feature_names)
        y = np.asarray(y, dtype=float)
        out = np.full(X.shape[0], self.init_value)
        mses = [float(np.mean((y - out) ** 2))]
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
            mses.append(float(np.mean((y - out) ** 2)))
        return np.array(mses)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "feature_names": list(self.feature_names),
            "init_value": float(self.init_value),
            "learning_rate": float(self.learning_rate),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoostingPredictor":
        return cls(
            ModelSpec.from_dict(d["spec"]),
            tuple(d["feature_names"]),
            float(d["init_value"]),
            float(d["learning_rate"]),
            tuple(Tree.from_dict(t) for t in d["trees"]),
        )


def fit_decision_tree(spec: ModelSpec, X, y, feature_names) -> TreePredictor:
    hp = spec.hyperparameters
    tree = build_tree(
        X,
        y,
        max_depth=hp["max_depth"],
        min_samples_split=hp["min_samples_split"],
        min_samples_leaf=hp["min_samples_leaf"],
    )
    return TreePredictor(spec, tuple(feature_names), tree)


def fit_random_forest(spec: ModelSpec, X, y, feature_names) -> ForestPredictor:
    hp = spec.hyperparameters
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    root = np.random.SeedSequence(spec.seed)
    trees = []
    for child in root.spawn(hp["n_estimators"]):
        rng = np.random.default_rng(child)
        idx = np.sort(rng.integers(0, n, size=n)) if hp["bootstrap"] else np.arange(n)
        trees.append(
            build_tree(
                X[idx],
                y[idx],
                max_depth=hp["max_depth"],
                min_samples_split=hp["min_samples_split"],
                min_samples_leaf=hp["min_samples_leaf"],
                feature_subsample=hp["feature_subsample"],
                rng=rng,
            )
        )
    return ForestPredictor(spec, tuple(feature_names), tuple(trees))


def fit_gradient_boosting(spec: ModelSpec, X, y, feature_names) -> BoostingPredictor:
    hp = spec.hyperparameters
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    lr = float(hp["learning_rate"])
    init = float(y.mean())
    current = np.full(n, init)
    root = np.random.SeedSequence(spec.seed)
    trees = []
    for child in root.spawn(hp["n_estimators"]):
        rng = np.random.default_rng(child)
        residual = y - current
        if hp["subsample"] < 1.0:
            m = max(1, int(round(hp["subsample"] * n)))
            idx = np.sort(rng.permutation(n)[:m])
        else:
            idx = np.arange(n)
        tree = build_tree(X[idx], residual[idx], max_depth=hp["max_depth"])
        current += lr * tree.predict(X)
        trees.append(tree)
    return BoostingPredictor(spec, tuple(feature_names), init, lr, tuple(trees))
