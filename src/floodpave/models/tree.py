"""Regression trees as flat arrays, and the three predictors built on them.

A ``Tree`` is one fitted CART tree; ``TreePredictor``, ``ForestPredictor``
and ``BoostingPredictor`` predict with a decision tree, a forest and a
boosting model, and write and read their model files. Growing trees and
fitting the models is ``grow``'s, which a command that only predicts
never loads.

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
        value, and everything below them is dropped. For a decision or
        forest tree the result equals a fit at ``max_depth``: a node's
        split, and its feature subset, never depend on the depth limit
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


def __getattr__(name: str):
    # ``build_tree`` is public under this module too; loading ``grow`` on its
    # first use keeps predict-only commands from compiling it (PEP 562).
    if name == "build_tree":
        from .grow import build_tree

        return build_tree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
