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
arXiv:1603.02754). ``fit_gradient_boosting`` takes each stage's update
of the fitted rows from the leaves the build put them in, and predicts
only the rows a subsample left out.

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
from .spec import ModelSpec

LEAF = -1
# The arrays of a tree's ``to_dict`` form and the numpy kinds each may hold.
_TREE_ARRAYS = {"feature": "iu", "threshold": "iuf", "left": "iu", "right": "iu", "value": "iuf"}
# Most (tree, row) pairs that one traversal block holds.
_BLOCK_PAIRS = 1 << 13
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
        rows = min(n, max(1, _BLOCK_PAIRS // self.n_trees))
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
    return _grow_tree(
        X, y, max_depth, min_samples_split, min_samples_leaf, feature_subsample, rng, presorted
    )[0]


def _grow_tree(
    X,
    y,
    max_depth,
    min_samples_split=2,
    min_samples_leaf=1,
    feature_subsample=1.0,
    rng=None,
    presorted=None,
):
    """``build_tree``'s tree and each fitted row's leaf value.

    A row lands in the leaf that the split tests ``x <= threshold`` send
    it to, so its value equals ``tree.predict`` of that row.
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
    fitted = np.empty(n_rows)
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
        parent_sse = float(np.add.reduce(np.square(y_node, out=y_node)))
        if parent_sse == 0.0:
            return leaf(node, idx)
        if feature_subsample < 1.0:
            candidates = np.sort(rng.choice(n_features, size=n_sub, replace=False))
        else:
            candidates = all_features
        best = _best_split(
            Xt, y, order, candidates, min_samples_leaf, lefts[: n - 1], rights[n_rows - n :]
        )
        if best is None:
            return leaf(node, idx)
        sse, feat, thr = best
        if parent_sse - sse <= _MIN_REDUCTION * max(parent_sse, 1.0):
            return leaf(node, idx)
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
    return Tree(feature, threshold, left, right, value), fitted


def _check_dims(X, feature_names):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise ValueError(f"expected {len(feature_names)} feature columns, got shape {X.shape}")
    if np.isnan(X).any():
        raise ValueError("predict input contains missing values; filter rows first")
    return X


def _feature_names(d: dict) -> tuple[str, ...]:
    names = d["feature_names"]
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise SchemaError("model feature_names must be a list of strings")
    return tuple(names)


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
        return cls(
            ModelSpec.from_dict(d["spec"]),
            names,
            _typed(float, "init_value", d["init_value"]),
            _typed(float, "learning_rate", d["learning_rate"]),
            _trees(d, len(names)),
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
        # In-sample rows take their leaf value from the fit itself; only
        # the rows the subsample left out go through the tree.
        tree, fitted = _grow_tree(X[idx], residual[idx], max_depth=hp["max_depth"], presorted=block)
        if idx.size < n:
            rest = np.ones(n, dtype=bool)
            rest[idx] = False
            step = np.empty(n)
            step[rest] = _Stacked((tree,)).predict(X[rest])
            step[idx] = fitted
            fitted = step
        current += lr * fitted
        trees.append(tree)
    return BoostingPredictor(spec, tuple(feature_names), init, lr, tuple(trees))
