"""CART regression trees and the two tree ensembles built on them.

Splits minimize the summed child squared error (equivalently, maximize
variance reduction) over midpoint thresholds between consecutive
distinct sorted values. All tie-breaks are first-come in a fixed
enumeration order, so a fit is a pure function of (data, spec, seed).

``build_tree`` carries a (features, rows) block of per-feature sorted
row ids down the tree. A split partitions that block stably, so every
node sees its rows in (value, row id) order, the order a stable
per-node argsort would give, and ``_best_split`` scores all candidate
features in one vectorized pass with the same per-feature arithmetic.
Splits, thresholds and ties are therefore those of sorting at every
node.

The block is sorted once per fit, not once per tree: an ensemble sorts
its training rows once (``_presort``), and each tree's block is derived
from that shared root order by ``_rows_block`` (rows left out of a
subsample dropped, bootstrap copies expanded), which equals a stable
argsort of the tree's own rows (XGBoost's presorted column blocks,
arXiv:1603.02754).
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

    def truncate(self, max_depth: int) -> "Tree":
        """This tree cut off at ``max_depth``, its nodes renumbered in preorder.

        Split nodes at depth ``max_depth`` become leaves that keep their
        value, and everything below them is dropped. For a fit that draws
        no randomness while it grows, the result equals a fit at
        ``max_depth``: a node's split never depends on the depth limit
        below it, and ``build_tree`` numbers nodes in preorder.
        """
        keep = np.zeros(self.n_nodes, dtype=bool)
        level = np.zeros(1, dtype=np.int64)
        for _ in range(max_depth):
            keep[level] = True
            level = level[self.feature[level] != LEAF]
            level = np.concatenate([self.left[level], self.right[level]])
        keep[level] = True
        feature = self.feature.copy()
        feature[level] = LEAF
        feature = feature[keep]
        split = feature != LEAF
        new_id = np.cumsum(keep) - 1
        left = np.where(split, new_id.take(self.left[keep]), LEAF)
        right = np.where(split, new_id.take(self.right[keep]), LEAF)
        threshold = np.where(split, self.threshold[keep], 0.0)
        return Tree(feature, threshold, left, right, self.value[keep])

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


def _best_split(Xt, y, order, features, min_leaf, left_n, right_n):
    """Best (sse, feature, threshold) over candidate features at a node, or None.

    ``order[j]`` holds the node's rows sorted by feature j (ties by row
    id). Every candidate feature is scored in one pass over a
    (features, rows) block, and the first feature holding the lowest SSE
    wins. ``left_n`` and ``right_n`` are the child sizes, as floats, of a
    split after each sorted position (see ``_divisors``). The SSE is
    computed only where a split is valid, position by position with the
    plain prefix-sum arithmetic, so it is the same number whichever
    positions are left out.
    """
    rows = order if features.size == order.shape[0] else order.take(features, axis=0)
    n = rows.shape[1]
    # flat positions into Xt: row id plus the feature's offset
    vs = Xt.take(rows + (features * Xt.shape[1]).astype(rows.dtype)[:, None])
    # a split after sorted position k leaves k+1 rows on the left
    valid = vs[:, 1:] > vs[:, :-1]
    if min_leaf > 1:
        valid[:, : min_leaf - 1] = False
        valid[:, max(n - min_leaf, 0) :] = False
    at = valid.ravel().nonzero()[0]  # in (feature, position) order
    if at.size == 0:
        return None
    f = at // (n - 1)
    k = at - f * (n - 1)
    at += f  # the same (feature, position) in a (features, n) block
    ys = y.take(rows)
    cum_y = ys.cumsum(axis=1)
    cum_y2 = np.square(ys, out=ys).cumsum(axis=1, out=ys)
    cy, cy2 = cum_y.take(at), cum_y2.take(at)
    # sse = (cy2 - cy**2 / left_n) + ((total_y2 - cy2) - (total_y - cy)**2 / right_n),
    # evaluated in place to keep the temporaries few.
    sse = np.square(cy)
    sse /= left_n.take(k)
    np.subtract(cy2, sse, out=sse)
    np.subtract(cum_y[:, -1].take(f), cy, out=cy)
    np.square(cy, out=cy)
    cy /= right_n.take(k)
    np.subtract(cum_y2[:, -1].take(f), cy2, out=cy2)
    cy2 -= cy
    sse += cy2

    best = sse.argmin()
    r, kr = f[best], k[best]
    return float(sse[best]), int(features[r]), float((vs[r, kr] + vs[r, kr + 1]) / 2.0)


def _divisors(n_rows):
    """Left and right child sizes, as floats, of each split of an ``n_rows``-row node.

    A node of n rows divides by ``left[: n - 1]`` and ``right[n_rows - n :]``,
    so one pair serves a whole tree.
    """
    return np.arange(1, n_rows, dtype=float), np.arange(n_rows - 1, 0, -1, dtype=float)


def _presort(Xt):
    """Each feature's rows in ascending value order, ties by row id.

    Ids are int32 when every flat position into ``Xt`` fits, to keep the
    per-node index blocks small.
    """
    ids = np.int32 if Xt.size <= np.iinfo(np.int32).max else np.int64
    return np.argsort(Xt, axis=1, kind="stable").astype(ids)


def _rows_block(root, idx):
    """The presorted block of ``X[idx]``, derived from ``root = _presort(X.T)``.

    ``idx`` is sorted and may leave rows out (a subsample) or repeat
    them (a bootstrap). Each entry of ``root`` is expanded by its row's
    count in ``idx`` (0, 1 or more) and each copy mapped to its position
    in ``idx``. Positions grow with the row id, and the copies of a row
    sit side by side, so the block equals a stable argsort of
    ``X[idx].T`` without sorting again.
    """
    n_features, n_rows = root.shape
    ids = root.dtype  # every position fits: idx is no longer than the fit's rows
    counts = np.bincount(idx, minlength=n_rows).astype(ids)
    first = np.cumsum(counts, dtype=ids) - counts  # position of each row's first copy in idx
    flat = root.ravel()
    reps = counts.take(flat)
    if counts.max() <= 1:
        return first.take(flat.compress(reps.astype(bool))).reshape(n_features, idx.size)
    # copy c of entry e lands at flat slot start[e] + c and holds position first[row] + c
    shift = np.cumsum(reps, dtype=ids) - reps - first.take(flat)
    block = np.arange(n_features * idx.size, dtype=ids) - np.repeat(shift, reps)
    return block.reshape(n_features, idx.size)


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    feature_subsample: float = 1.0,
    rng: np.random.Generator | None = None,
    presorted: np.ndarray | None = None,
) -> Tree:
    """Grow a CART regression tree, depth first, numbering nodes in preorder.

    ``feature_subsample`` < 1 draws a fresh feature subset at every
    split (the random-forest decorrelation device) and requires ``rng``;
    at exactly 1.0 no randomness is consumed and the tree is the plain
    deterministic CART fit.

    ``presorted`` is ``_presort(X.T)`` when the caller has it, as the
    ensembles do through ``_rows_block``; the tree then runs no argsort
    of its own. The block is only read.
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
    lefts, rights = _divisors(n_rows)

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
        return order.compress(mask.ravel()).reshape(n_features, n_kept)

    def grow(idx, order, depth):
        # idx: the node's rows in ascending id order; order: (n_features, n)
        # per-feature sorted rows, or None when the node cannot split.
        node = new_node()
        n = idx.size
        y_node = y.take(idx)
        # np.add.reduce is the pairwise sum behind ndarray.mean and np.sum
        mean = np.add.reduce(y_node) / n
        value[node] = float(mean)
        if order is None:
            return node
        y_node -= mean
        parent_sse = float(np.add.reduce(np.square(y_node, out=y_node)))
        if parent_sse == 0.0:
            return node
        if feature_subsample < 1.0:
            candidates = np.sort(rng.choice(n_features, size=n_sub, replace=False))
        else:
            candidates = all_features
        best = _best_split(
            Xt, y, order, candidates, min_samples_leaf, lefts[: n - 1], rights[n_rows - n :]
        )
        if best is None:
            return node
        sse, feat, thr = best
        if parent_sse - sse <= _MIN_REDUCTION * max(parent_sse, 1.0):
            return node
        mask = Xt[feat].take(idx) <= thr
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

    root = None
    if may_split(n_rows, 0):
        root = _presort(Xt) if presorted is None else presorted
    grow(np.arange(n_rows), root, 0)
    # grow refers to itself; unbinding it breaks that cycle, so Xt and the
    # other work arrays are freed on return rather than at the next gc pass
    del grow
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
    order = _presort(np.ascontiguousarray(X.T))
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(hp["n_estimators"]):
        rng = np.random.default_rng(child)
        if hp["bootstrap"]:
            idx = np.sort(rng.integers(0, n, size=n))
            block = _rows_block(order, idx)
        else:
            idx, block = np.arange(n), order
        trees.append(
            build_tree(
                X[idx],
                y[idx],
                max_depth=hp["max_depth"],
                min_samples_split=hp["min_samples_split"],
                min_samples_leaf=hp["min_samples_leaf"],
                feature_subsample=hp["feature_subsample"],
                rng=rng,
                presorted=block,
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
    order = _presort(np.ascontiguousarray(X.T))
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(hp["n_estimators"]):
        rng = np.random.default_rng(child)
        residual = y - current
        if hp["subsample"] < 1.0:
            m = max(1, int(round(hp["subsample"] * n)))
            idx = np.sort(rng.permutation(n)[:m])
            block = _rows_block(order, idx)
        else:
            idx, block = np.arange(n), order
        tree = build_tree(X[idx], residual[idx], max_depth=hp["max_depth"], presorted=block)
        current += lr * tree.predict(X)
        trees.append(tree)
    return BoostingPredictor(spec, tuple(feature_names), init, lr, tuple(trees))
