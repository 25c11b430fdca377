"""The stacked traversal of every tree predictor against a per-tree walk.

``reference_tree_predict`` walks one tree level by level. Every prediction
must equal it, and the ensembles' sums must equal adding the trees' values
one tree after another, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodpave import models
from floodpave.models import tree as tree_module
from floodpave.models.tree import LEAF, Tree, build_tree

from conftest import reference_tree_predict

SPEC = models.ModelSpec("linear", {}, 0)


def hand_built_tree(rng, max_depth, n_features, cuts):
    """A random tree, possibly unbalanced, with ids shuffled behind the root.

    Thresholds come from ``cuts``, so rows can hold values equal to them.
    """
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        value.append(float(rng.normal()))
        if depth < max_depth and rng.random() < 0.75:
            feature[node] = int(rng.integers(n_features))
            threshold[node] = float(rng.choice(cuts))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    grow(0)
    n = len(feature)
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])  # old id -> new id
    inv = np.argsort(perm)
    f, t, v = (np.asarray(a)[inv] for a in (feature, threshold, value))
    left_new = np.array([perm[c] if c != LEAF else LEAF for c in np.asarray(left)[inv]])
    right_new = np.array([perm[c] if c != LEAF else LEAF for c in np.asarray(right)[inv]])
    return Tree(f, t, left_new, right_new, v)


def rows_with_ties(rng, n, n_features, cuts):
    """Rows mixing normal draws, the cut values themselves and ±inf."""
    X = rng.normal(size=(n, n_features))
    pick = rng.random(size=X.shape)
    X[pick < 0.3] = rng.choice(cuts, size=int((pick < 0.3).sum()))
    X[(pick >= 0.3) & (pick < 0.35)] = np.inf
    X[(pick >= 0.35) & (pick < 0.4)] = -np.inf
    return X


def assert_predictors_match(trees, X, n_features):
    names = tuple(f"x{j}" for j in range(n_features))
    values = [reference_tree_predict(t, X) for t in trees]
    for t, v in zip(trees, values):
        assert np.array_equal(t.predict(X), v)
    forest = models.ForestPredictor(SPEC, names, tuple(trees))
    total = np.zeros(X.shape[0])
    for v in values:
        total += v
    assert np.array_equal(forest.predict(X), total / len(trees))
    boost = models.BoostingPredictor(SPEC, names, 0.37, 0.1, tuple(trees))
    out = np.full(X.shape[0], 0.37)
    for v in values:
        out += 0.1 * v
    assert np.array_equal(boost.predict(X), out)
    single = models.TreePredictor(SPEC, names, trees[0])
    assert np.array_equal(single.predict(X), values[0])


@settings(max_examples=60, deadline=None)
@given(
    n_trees=st.integers(1, 6),
    depth=st.integers(0, 20),
    n=st.integers(1, 80),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_hand_built_trees(n_trees, depth, n, m, seed):
    rng = np.random.default_rng(seed)
    cuts = np.round(rng.normal(size=5), 1)
    trees = [hand_built_tree(rng, depth, m, cuts) for _ in range(n_trees)]
    assert_predictors_match(trees, rows_with_ties(rng, n, m, cuts), m)


@settings(max_examples=40, deadline=None)
@given(
    n_trees=st.integers(1, 4),
    depth=st.integers(0, 20),
    n=st.integers(2, 120),
    levels=st.integers(2, 8),
    seed=st.integers(0, 2**16),
)
def test_fitted_trees(n_trees, depth, n, levels, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, 3)).astype(float)
    trees = [build_tree(X, rng.normal(size=n) + X[:, 0], max_depth=depth) for _ in range(n_trees)]
    # rows at, between and beyond the fitted midpoints
    grid = np.concatenate([X, X + 0.5, rows_with_ties(rng, 30, 3, np.arange(levels) + 0.5)])
    assert_predictors_match(trees, grid, 3)


def test_single_leaf_trees():
    stumps = [Tree([LEAF], [0.0], [LEAF], [LEAF], [v]) for v in (1.5, -0.25, 3.0)]
    assert_predictors_match(stumps, np.array([[0.0, np.inf], [-np.inf, 1.0]]), 2)
    assert_predictors_match(stumps, np.empty((3, 0)), 0)  # a model left with no features


def test_infinite_split_threshold():
    # The midpoint of two huge values overflows to +inf; such a split sends every row left.
    tree = Tree([0, LEAF, 1, LEAF, LEAF], [0.0, 0.0, np.inf, 0.0, 0.0],
                [1, LEAF, 3, LEAF, LEAF], [2, LEAF, 4, LEAF, LEAF], [0.0, 1.0, 9.0, 2.0, 3.0])
    X = np.array([[-1.0, 0.0], [1.0, 5.0], [1.0, np.inf], [-np.inf, -np.inf]] * 3)
    assert_predictors_match([tree, tree], X, 2)


@pytest.mark.parametrize("n_trees", [1, 3, 7])
def test_rows_on_both_sides_of_a_block(n_trees):
    rng = np.random.default_rng(n_trees)
    cuts = np.round(rng.normal(size=4), 1)
    trees = [hand_built_tree(rng, 6, 3, cuts) for _ in range(n_trees)]
    rows = tree_module._BLOCK_PAIRS // n_trees
    X = rows_with_ties(rng, 2 * rows + 1, 3, cuts)
    for n in (1, 2, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1):
        assert_predictors_match(trees, X[:n], 3)


def test_more_trees_than_a_block_holds():
    rng = np.random.default_rng(3)
    base = [build_tree(rng.normal(size=(40, 2)), rng.normal(size=40), max_depth=2) for _ in range(8)]
    trees = [base[i % 8] for i in range(tree_module._BLOCK_PAIRS * 4 + 3)]
    X = rng.normal(size=(3, 2))
    boost = models.BoostingPredictor(SPEC, ("a", "b"), 0.5, 0.01, tuple(trees))
    values = [reference_tree_predict(t, X) for t in base]
    out = np.full(3, 0.5)
    for i in range(len(trees)):
        out += 0.01 * values[i % 8]
    assert np.array_equal(boost.predict(X), out)
    assert np.array_equal(boost.predict(X[:1]), out[:1])


@pytest.mark.parametrize("n_trees", [1, 2, 3, 9, 100, 5000])
@pytest.mark.parametrize("n_rows", [1, 2, 3, 17])
def test_tree_sum_adds_in_tree_order(n_trees, n_rows):
    # The traversal's sums rest on numpy adding axis 0 row after row;
    # a numpy that sums in another order must fail here.
    rng = np.random.default_rng(n_trees * 31 + n_rows)
    values = rng.normal(size=(n_trees, n_rows)) * 10.0 ** rng.integers(-8, 9, size=(n_trees, 1))
    out = np.full(n_rows, 0.1)
    for row in values:
        out += row
    assert np.array_equal(tree_module._tree_sum(values, 0.1), out)
    if n_rows > 1:
        assert np.array_equal(np.add.reduce(values, axis=0, initial=0.1), out)


def test_stacked_layout_has_adjacent_children():
    rng = np.random.default_rng(4)
    trees = [hand_built_tree(rng, 5, 2, np.array([0.0, 1.0])) for _ in range(3)]
    stacked = tree_module._Stacked(trees)
    split = ~np.isnan(stacked.threshold)
    assert np.array_equal(np.nonzero(~split)[0], np.nonzero(stacked.first_child == np.arange(split.size))[0])
    assert (stacked.first_child[split] > np.nonzero(split)[0]).all()
    assert sorted(stacked.value[~split].tolist()) == sorted(
        v for t in trees for v in t.value[t.feature == LEAF].tolist()
    )


@pytest.mark.parametrize("subsample", [1.0, 0.75])
def test_boosting_stage_update_matches_predict(subsample):
    # Fitted rows take their stage update from the fit's own partition;
    # the reference predicts every row through the fresh tree.
    rng = np.random.default_rng(8)
    X = rng.integers(0, 6, size=(150, 3)).astype(float)
    y = X @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=150)
    spec = models.ModelSpec(
        "gradient_boosting", {"n_estimators": 12, "max_depth": 3, "subsample": subsample}, 5
    )
    fitted = models.fit(spec, X, y)

    hp = spec.hyperparameters
    current = np.full(150, float(y.mean()))
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(hp["n_estimators"]):
        rng = np.random.default_rng(child)
        residual = y - current
        idx = np.arange(150)
        if subsample < 1.0:
            idx = np.sort(rng.permutation(150)[: int(round(subsample * 150))])
        tree = build_tree(X[idx], residual[idx], max_depth=hp["max_depth"])
        current += hp["learning_rate"] * reference_tree_predict(tree, X)
        trees.append(tree)
    for a, b in zip(fitted.trees, trees):
        for key in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(a, key), getattr(b, key))
    assert np.array_equal(fitted.predict(X), current)
