"""CART regression trees and the two tree ensembles built on them.

Splits maximize the reduction of the summed child squared error over
midpoint thresholds between consecutive distinct sorted values. A
node's targets are centred on its mean, so a split after the first k
of n sorted rows, whose centred targets sum to c, reduces the SSE by
c² · n / (k · (n - k)): one prefix sum per feature scores every split.
Candidates whose reductions lie within ``_TIE`` of the best, relative
to it, tie, and ties go to the first in (feature, position) order, so
a fit is a pure function of (data, spec, seed) and rounding cannot
pick between two features that put the same rows on each side.

``build_tree`` carries a (features, rows) block of per-feature sorted
row ids down the tree. A split partitions that block stably, so every
node sees its rows in (value, row id) order, the order a stable
per-node argsort would give, and ``_best_split`` scores all candidate
features in one vectorized pass with the same per-feature arithmetic.
Splits, thresholds and ties are therefore those of sorting at every
node.

The block is sorted once per fit, not once per tree: an ensemble sorts
its training rows once (``_presort``) (XGBoost's presorted column
blocks, arXiv:1603.02754). Every ensemble tree grows in the fit's own
row ids (``_grow_tree``), so it gathers no rows. A forest tree's
bootstrap or a boosting stage's subsample is a count per row, and its
block is the root order with each row repeated by its count (dropped at
0), the copies of a row side by side. That is the stable argsort of the
gathered rows, so the tree equals one grown on them bit for bit. A
boosting stage takes the update of its fitted rows from the leaves the
build put them in, and predicts only the rows its subsample left out.

Prediction walks all of a predictor's trees at once (Hummingbird's tree
traversal, Nakandala et al., OSDI 2020). ``_Stacked`` renumbers the
trees breadth first into one set of flat arrays in which a split node's
two children are adjacent and a leaf is its own child with threshold
NaN, so every (tree, row) pair steps as ``node = first_child[node] + (x
> threshold)``. The arrays are built once and cached on the predictor
(a lone ``Tree`` caches its own). Rows go in blocks of at most
``_BLOCK_PAIRS`` pairs; pairs at leaves are dropped once they are a
quarter of those still walking; and each block's leaf values are summed
down the trees in tree order, which gives the sums of adding one tree's
predictions after another bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .._util import _typed
from ..errors import SchemaError
from .spec import ModelSpec, _check_dims, _feature_names

LEAF = -1
# The arrays of a tree's ``to_dict`` form and the numpy kinds each may hold.
_TREE_ARRAYS = {"feature": "iu", "threshold": "iuf", "left": "iu", "right": "iu", "value": "iuf"}
# Most (tree, row) pairs that one traversal block holds.
_BLOCK_PAIRS = 1 << 13
# Relative SSE-reduction floor below which a split is considered noise.
_MIN_REDUCTION = 1e-12
# Candidate splits whose SSE reductions are this close, relative to the best, tie.
_TIE = 1e-9


class Tree:
    """Flat-array binary regression tree."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)
        self._stacked = None  # built on the first predict; the arrays above are not changed after

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
        """Each row's leaf value: the one-tree case of ``_Stacked``, cached on the tree."""
        if self._stacked is None:
            self._stacked = _Stacked((self,))
        return self._stacked.predict(X)

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": [float(v) for v in self.threshold],
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": [float(v) for v in self.value],
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Tree":
        """The tree ``to_dict`` wrote; a SchemaError unless it is a proper tree.

        A proper tree has five arrays of one length, every node reached
        exactly once from node 0, split features below ``n_features``,
        leaves with feature and children ``LEAF``, and finite split
        thresholds and leaf values. Traversal relies on all of it: a
        cycle would never reach a leaf.
        """
        if not isinstance(d, dict):
            raise SchemaError("a tree must be a JSON object")
        arrays = {}
        for key, kinds in _TREE_ARRAYS.items():
            if key not in d:
                raise SchemaError(f"tree has no {key!r} array")
            try:
                a = np.asarray(d[key]) if isinstance(d[key], list) else np.empty(0)
            except ValueError:  # a ragged nested list
                a = np.empty(0)
            if a.ndim != 1 or a.size == 0 or a.dtype.kind not in kinds:
                what = "integers" if kinds == "iu" else "numbers"
                raise SchemaError(f"tree {key!r} must be a non-empty array of {what}")
            arrays[key] = a
        feature, threshold, left, right, value = arrays.values()
        n = feature.size
        if any(a.size != n for a in arrays.values()):
            raise SchemaError(f"tree arrays differ in length: {[a.size for a in arrays.values()]}")
        split = feature != LEAF
        if ((feature < LEAF) | (feature >= n_features)).any():
            raise SchemaError(f"tree split feature out of range for {n_features} features")
        if (left[~split] != LEAF).any() or (right[~split] != LEAF).any():
            raise SchemaError("tree leaf has children")
        if not (np.isfinite(threshold[split]).all() and np.isfinite(value[~split]).all()):
            raise SchemaError("tree split thresholds and leaf values must be finite")
        for child in (left[split], right[split]):
            if ((child < 0) | (child >= n)).any():
                raise SchemaError(f"tree child index out of range for {n} nodes")
        seen = np.zeros(n, dtype=bool)
        level = np.zeros(1, dtype=np.int64)
        n_seen = 0
        while level.size:
            seen[level] = True
            if np.count_nonzero(seen) != n_seen + level.size:
                raise SchemaError("tree node reached more than once from the root")
            n_seen += level.size
            level = level[split[level]]
            level = np.concatenate([left[level], right[level]])
        if n_seen < n:
            raise SchemaError("tree node not reached from the root")
        return cls(feature, threshold, left, right, value)


def _tree_sum(values, initial):
    """``initial`` plus each column of ``values`` summed down its rows, in row order.

    ``np.add.reduce`` along axis 0 of a C-ordered (trees, rows) block
    adds one row of leaf values after another, the order of ``out +=
    tree.predict(X)`` tree by tree. A one-column block would fall to
    numpy's pairwise sum, so it is summed as two equal columns.
    """
    if values.shape[1] == 1:
        return np.add.reduce(np.repeat(values, 2, axis=1), axis=0, initial=initial)[:1]
    return np.add.reduce(values, axis=0, initial=initial)


class _Stacked:
    """Trees renumbered breadth first into one set of flat arrays.

    All trees' roots come first (node t is tree t's root), then each
    level's nodes, so a split node's two children are adjacent and one
    step of every (tree, row) pair is ``node = first_child[node] + (x >
    threshold)``: a row goes left exactly when ``x <= threshold``. A
    leaf is its own first child with threshold NaN, which no x exceeds,
    so a pair that reached a leaf stays there. Leaf values are scaled by ``scale`` (the
    boosting learning rate) once, here. X must hold no NaN.
    """

    def __init__(self, trees, scale: float = 1.0):
        sizes = np.array([t.n_nodes for t in trees], dtype=np.intp)
        offsets = np.cumsum(sizes) - sizes
        shift = np.repeat(offsets, sizes)
        feature = np.concatenate([t.feature for t in trees])
        split = feature != LEAF
        left = np.where(split, np.concatenate([t.left for t in trees]) + shift, 0)
        right = np.where(split, np.concatenate([t.right for t in trees]) + shift, 0)
        level, levels = offsets, [offsets]
        while True:
            level = level[split.take(level)]
            if level.size == 0:
                break
            level = np.stack([left.take(level), right.take(level)], axis=1).ravel()
            levels.append(level)
        old = np.concatenate(levels)  # the old id of each new node
        new = np.empty_like(old)
        new[old] = np.arange(old.size)
        leaf = ~split.take(old)
        self.first_child = np.where(leaf, np.arange(old.size), new.take(left.take(old)))
        self.feature = np.where(leaf, 0, feature.take(old))
        self.threshold = np.where(leaf, np.nan, np.concatenate([t.threshold for t in trees]).take(old))
        self.value = np.concatenate([t.value for t in trees]).take(old) * scale
        self.n_trees = len(trees)
        self.depth = len(levels) - 1

    def predict(self, X, initial=None) -> np.ndarray:
        """Per row, ``initial`` plus the trees' leaf values in tree order.

        With ``initial`` None there must be one tree, whose leaf values are
        returned as they are. Rows go in blocks of at most ``_BLOCK_PAIRS``
        (tree, row) pairs, so no (trees, rows) array is ever held.
        """
        X = np.ascontiguousarray(X, dtype=float)
        n, width = X.shape
        flat = X.ravel()
        out = np.empty(n)
        rows = max(1, min(n, _BLOCK_PAIRS // self.n_trees))
        pairs = self._pairs(rows, width)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            if hi - lo < rows:
                pairs = self._pairs(hi - lo, width)
            leaves = self._leaves(flat[lo * width : hi * width], *pairs)
            values = self.value.take(leaves).reshape(self.n_trees, hi - lo)
            out[lo:hi] = values[0] if initial is None else _tree_sum(values, initial)
        return out

    def _pairs(self, n_rows, width):
        """Each (tree, row) pair's root and the flat offset of its row, tree-major."""
        roots = np.repeat(np.arange(self.n_trees), n_rows)
        return roots, np.tile(np.arange(n_rows) * width, self.n_trees)

    def _leaves(self, flat, node, base):
        """The leaf each (tree, row) pair reaches from ``node``; ``flat`` holds the rows."""
        leaves = pos = None  # set once pairs start to drop out
        for step in range(self.depth):
            threshold = self.threshold.take(node)
            if step:
                done = np.isnan(threshold)
                n_done = np.count_nonzero(done)
                if 4 * n_done >= node.size:
                    # a quarter of the pairs sit at leaves: drop them
                    if pos is None:
                        leaves, pos = np.empty_like(node), np.arange(node.size)
                    leaves[pos[done]] = node[done]
                    keep = ~done
                    node, base, pos, threshold = node[keep], base[keep], pos[keep], threshold[keep]
                    if node.size == 0:
                        break
            at = self.feature.take(node)
            at += base
            right = flat.take(at) > threshold
            node = self.first_child.take(node)
            node += right
        if pos is None:
            return node
        leaves[pos] = node
        return leaves


def _best_split(Xt, centred, order, features, min_leaf, left_n, right_n):
    """Best (SSE reduction, feature, threshold) over candidate features at a node, or None.

    ``order[j]`` holds the node's rows sorted by feature j (ties by row
    id), and ``centred`` each row's target minus the node's mean. A split
    after the first k of n sorted rows, whose centred targets sum to c,
    leaves the other side summing to -c, so it reduces the node's SSE by
    c² · n / (k · (n - k)): one prefix sum per feature scores every split
    (the gain of XGBoost, arXiv:1603.02754, eq. 7, for squared error).
    Every candidate feature is scored in one pass over the (features,
    n - 1) block, with a per-node weight that is zero where a child would
    hold fewer than ``min_leaf`` rows, and masked where the values on
    either side are equal. The winner is the first candidate in
    (feature, position) order whose score is within ``_TIE`` relative of
    the best, so two features that put the same rows on each side tie
    whatever the rounding of their sums. ``left_n`` and ``right_n`` are
    the child sizes, as floats, of a split after each sorted position
    (see ``_divisors``). None when no split reduces the SSE at all.
    """
    rows = order if features.size == order.shape[0] else order.take(features, axis=0)
    n = rows.shape[1]
    # flat positions into Xt: row id plus the feature's offset
    vs = Xt.take(rows + (features * Xt.shape[1]).astype(rows.dtype)[:, None])
    weight = n / (left_n * right_n)
    if min_leaf > 1:
        weight[: min_leaf - 1] = 0.0
        weight[max(n - min_leaf, 0) :] = 0.0
    score = centred.take(rows[:, :-1]).cumsum(axis=1)  # no split after the last row
    np.square(score, out=score)
    score *= weight
    score *= vs[:, 1:] > vs[:, :-1]
    best = score.max(initial=0.0)  # a block of no features holds no split
    if not best > 0.0:
        return None
    r, k = divmod(int((score >= best * (1.0 - _TIE)).argmax()), n - 1)
    return float(score[r, k]), int(features[r]), float((vs[r, k] + vs[r, k + 1]) / 2.0)


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


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    feature_subsample: float = 1.0,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a CART regression tree, depth first, numbering nodes in preorder.

    ``feature_subsample`` < 1 draws a fresh feature subset at every
    split (the random-forest decorrelation device) and requires ``rng``;
    at exactly 1.0 no randomness is consumed and the tree is the plain
    deterministic CART fit.
    """
    X = np.asarray(X, dtype=float)
    return _grow_tree(
        np.ascontiguousarray(X.T),
        np.asarray(y, dtype=float),
        np.arange(X.shape[0]),
        None,
        max_depth,
        min_samples_split,
        min_samples_leaf,
        feature_subsample,
        rng,
    )[0]


def _grow_tree(
    Xt,
    y,
    rows,
    order,
    max_depth,
    min_samples_split=2,
    min_samples_leaf=1,
    feature_subsample=1.0,
    rng=None,
):
    """The tree fitted to ``rows`` of ``Xt`` and ``y``, and the fitted rows' leaf values.

    ``Xt`` is the (features, all rows) matrix and ``y`` the targets of
    all rows; ``rows`` holds the ids to fit, ascending, and may repeat an
    id (a bootstrap). ``order`` is the presorted block of exactly those
    ids (each feature's ids in (value, id) order, the copies of an id
    side by side), or None when ``rows`` is every row, to presort here.
    Ids keep their order, so the tree equals ``build_tree(Xt.T[rows],
    y[rows])`` bit for bit: a forest tree grows on its bootstrap and a
    boosting stage on its subsample without gathering either. The second
    result holds, at each fitted row's id, the value of the leaf that the
    split tests ``x <= threshold`` send it to, which equals
    ``tree.predict`` of that row; other entries are unset.
    """
    n_features = Xt.shape[0]
    n_rows = rows.size
    all_features = np.arange(n_features)
    if feature_subsample < 1.0 and rng is None:
        raise ValueError("feature_subsample < 1 requires an rng")
    n_sub = max(1, int(round(feature_subsample * n_features)))
    go_left = np.empty(y.size, dtype=bool)
    centred = np.empty(y.size)
    fitted = np.empty(y.size)
    lefts, rights = _divisors(n_rows)

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        value.append(0.0)
        return len(feature) - 1

    def leaf(node, idx):
        fitted[idx] = value[node]
        return node

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
            return leaf(node, idx)
        y_node -= mean
        # A second pass takes out the sum the rounded mean left, so the
        # centred targets sum to zero up to their own rounding rather than
        # the targets' (the corrected two-pass algorithm; Chan, Golub and
        # LeVeque, Am. Stat. 1983), and a large common offset in y cannot
        # tip the split scores.
        y_node -= np.add.reduce(y_node) / n
        centred[idx] = y_node
        parent_sse = float(np.add.reduce(np.square(y_node, out=y_node)))
        if parent_sse == 0.0:
            return leaf(node, idx)
        if feature_subsample < 1.0:
            candidates = rng.choice(n_features, size=n_sub, replace=False)
            candidates.sort()
        else:
            candidates = all_features
        best = _best_split(
            Xt, centred, order, candidates, min_samples_leaf, lefts[: n - 1], rights[n_rows - n :]
        )
        if best is None:
            return leaf(node, idx)
        reduction, feat, thr = best
        if reduction <= _MIN_REDUCTION * max(parent_sse, 1.0):
            return leaf(node, idx)
        mask = Xt[feat].take(idx) <= thr
        feature[node] = feat
        threshold[node] = thr
        left_idx, right_idx = idx.compress(mask), idx.compress(~mask)
        left_order = right_order = None
        left_splits = may_split(left_idx.size, depth + 1)
        right_splits = may_split(right_idx.size, depth + 1)
        if left_splits or right_splits:  # a leaf child needs no block
            go_left[idx] = mask
            goes = go_left.take(order)
            if left_splits:
                left_order = sorted_rows(order, goes, left_idx.size)
            if right_splits:
                right_order = sorted_rows(order, ~goes, right_idx.size)
            del goes
        del order  # only the children's blocks stay alive down the recursion
        left[node] = grow(left_idx, left_order, depth + 1)
        right[node] = grow(right_idx, right_order, depth + 1)
        return node

    root = None
    if may_split(n_rows, 0):
        root = _presort(Xt) if order is None else order
    grow(rows, root, 0)
    # grow refers to itself; unbinding it breaks that cycle, so the work
    # arrays are freed on return rather than at the next gc pass
    del grow
    return Tree(feature, threshold, left, right, value), fitted


def _trees(d: dict, n_features: int) -> tuple[Tree, ...]:
    if not isinstance(d["trees"], list):
        raise SchemaError("model trees must be a list")
    return tuple(Tree.from_dict(t, n_features) for t in d["trees"])


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
        names = _feature_names(d)
        return cls(ModelSpec.from_dict(d["spec"]), names, Tree.from_dict(d["tree"], len(names)))


@dataclass(frozen=True)
class ForestPredictor:
    """Bagged CART trees; prediction is the plain mean over trees."""

    spec: ModelSpec
    feature_names: tuple[str, ...]
    trees: tuple = field(default_factory=tuple)

    @functools.cached_property
    def _stacked(self) -> _Stacked:
        return _Stacked(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_dims(X, self.feature_names)
        return self._stacked.predict(X, initial=0.0) / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "feature_names": list(self.feature_names),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ForestPredictor":
        names = _feature_names(d)
        trees = _trees(d, len(names))
        if not trees:
            raise SchemaError("a random forest needs at least one tree")
        return cls(ModelSpec.from_dict(d["spec"]), names, trees)


@dataclass(frozen=True)
class BoostingPredictor:
    """Stagewise least-squares boosting: mean(y) plus shrunken residual trees."""

    spec: ModelSpec
    feature_names: tuple[str, ...]
    init_value: float
    learning_rate: float
    trees: tuple = field(default_factory=tuple)

    @functools.cached_property
    def _stacked(self) -> _Stacked:
        return _Stacked(self.trees, scale=self.learning_rate)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_dims(X, self.feature_names)
        if not self.trees:
            return np.full(X.shape[0], self.init_value)
        return self._stacked.predict(X, initial=self.init_value)

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
        names = _feature_names(d)
        spec = ModelSpec.from_dict(d["spec"])
        learning_rate = _typed(float, "learning_rate", d["learning_rate"])
        if learning_rate != spec.hyperparameters["learning_rate"]:
            raise SchemaError(
                f"learning_rate {learning_rate!r} differs from the spec's {spec.hyperparameters['learning_rate']!r}"
            )
        return cls(spec, names, _typed(float, "init_value", d["init_value"]), learning_rate, _trees(d, len(names)))


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
    Xt = np.ascontiguousarray(X.T)
    order = _presort(Xt)
    all_rows = np.arange(n)
    limits = hp["max_depth"], hp["min_samples_split"], hp["min_samples_leaf"], hp["feature_subsample"]
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(hp["n_estimators"]):
        rng = np.random.default_rng(child)
        if hp["bootstrap"]:
            # The tree grows on its bootstrap in the fit's own row ids; the
            # root order with each row repeated by its count is its block.
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            rows = np.repeat(all_rows, counts)
            block = np.repeat(order.ravel(), counts.take(order).ravel()).reshape(order.shape[0], n)
        else:
            rows, block = all_rows, order
        trees.append(_grow_tree(Xt, y, rows, block, *limits, rng)[0])
    return ForestPredictor(spec, tuple(feature_names), tuple(trees))


def fit_gradient_boosting(spec: ModelSpec, X, y, feature_names) -> BoostingPredictor:
    hp = spec.hyperparameters
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    lr = float(hp["learning_rate"])
    init = float(y.mean())
    current = np.full(n, init)
    Xt = np.ascontiguousarray(X.T)
    order = _presort(Xt)
    all_rows = np.arange(n)
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(hp["n_estimators"]):
        rng = np.random.default_rng(child)
        residual = y - current
        if hp["subsample"] < 1.0:
            # The stage grows on its subsample in the fit's own row ids; the
            # root order with the left-out rows dropped is its presorted block.
            m = max(1, int(round(hp["subsample"] * n)))
            kept = np.zeros(n, dtype=bool)
            kept[rng.permutation(n)[:m]] = True
            rows = kept.nonzero()[0]
            block = order.compress(kept.take(order).ravel()).reshape(order.shape[0], m)
        else:
            rows, block = all_rows, order
        # In-sample rows take their leaf value from the fit itself; only
        # the rows the subsample left out go through the tree.
        tree, fitted = _grow_tree(Xt, residual, rows, block, hp["max_depth"])
        if rows.size < n:
            fitted[~kept] = _Stacked((tree,)).predict(X[~kept])
        current += lr * fitted
        trees.append(tree)
    return BoostingPredictor(spec, tuple(feature_names), init, lr, tuple(trees))
