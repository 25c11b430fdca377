import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodpave import models, shapley
from floodpave.dataset import DataTable
from floodpave.models.tree import LEAF, joined
from floodpave.shapley import exact_shapley, value_function

from conftest import CountingPredictor, manual_linear


class ProductModel:
    feature_names = ("a", "b")

    def predict(self, X):
        return X[:, 0] * X[:, 1]


class TestValueFunction:
    def test_full_coalition_returns_fx(self):
        p = manual_linear([2.0, -1.0], intercept=3.0)
        x = np.array([1.5, 2.0])
        bg = np.random.default_rng(0).normal(size=(20, 2))
        assert value_function(p, x, [0, 1], bg) == pytest.approx(
            float(p.predict(x[None])[0]), abs=1e-12
        )

    def test_empty_coalition_is_background_mean(self):
        p = manual_linear([2.0, -1.0], intercept=3.0)
        bg = np.random.default_rng(1).normal(size=(30, 2))
        expected = float(np.mean(p.predict(bg)))
        assert value_function(p, np.zeros(2), [], bg) == pytest.approx(expected, abs=1e-12)

    def test_linear_single_feature_closed_form(self):
        w = np.array([3.0, -2.0, 0.5])
        p = manual_linear(w)
        bg = np.random.default_rng(2).normal(size=(50, 3))
        x = np.array([1.0, 2.0, -1.0])
        got = value_function(p, x, [0], bg)
        expected = w[0] * x[0] + w[1] * np.mean(bg[:, 1]) + w[2] * np.mean(bg[:, 2])
        assert got == pytest.approx(expected, abs=1e-10)

    def test_empty_background_rejected(self):
        with pytest.raises(ValueError):
            value_function(manual_linear([1.0]), np.ones(1), [0], np.empty((0, 1)))


class TestExactShapley:
    def test_hand_enumerated_product_case(self):
        phi = exact_shapley(ProductModel(), np.array([1.0, 1.0]), np.zeros((1, 2)))
        assert phi.tolist() == [0.5, 0.5]

    def test_linear_closed_form(self):
        w = np.array([2.0, -3.0, 0.0, 1.5])
        p = manual_linear(w, intercept=7.0)
        rng = np.random.default_rng(3)
        bg = rng.normal(size=(40, 4))
        for _ in range(5):
            x = rng.normal(size=4)
            phi = exact_shapley(p, x, bg)
            expected = w * (x - bg.mean(axis=0))
            assert np.max(np.abs(phi - expected)) < 1e-8

    def test_dummy_feature_exactly_zero(self):
        w = np.array([1.0, 0.0, 2.0])
        p = manual_linear(w)
        rng = np.random.default_rng(4)
        bg = rng.normal(size=(25, 3))
        phi = exact_shapley(p, rng.normal(size=3), bg)
        assert phi[1] == 0.0

    def test_dummy_feature_in_tree_exactly_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(100, 3))
        x[:, 2] = 0.0  # constant: never split on
        y = np.where(x[:, 0] > 0, 5.0, -5.0)
        tree = models.fit(models.ModelSpec("decision_tree", {"max_depth": 3}, 0), x, y)
        bg = rng.normal(size=(30, 3))
        phi = exact_shapley(tree, np.array([1.0, 0.0, 9.9]), bg)
        assert phi[2] == 0.0

    def test_symmetry_of_exchangeable_features(self):
        p = manual_linear([1.0, 1.0])
        rng = np.random.default_rng(6)
        col = rng.normal(size=30)
        bg = np.column_stack([col, col])
        phi = exact_shapley(p, np.array([2.0, 2.0]), bg)
        assert abs(phi[0] - phi[1]) < 1e-10

    def test_efficiency(self):
        p = ProductModel()
        rng = np.random.default_rng(7)
        bg = rng.normal(size=(15, 2))
        for _ in range(5):
            x = rng.normal(size=2)
            phi = exact_shapley(p, x, bg)
            base = float(np.mean(p.predict(bg)))
            fx = float(p.predict(x[None])[0])
            assert abs(base + phi.sum() - fx) < 1e-8

    def test_feature_cap(self):
        p = manual_linear(np.ones(21))
        with pytest.raises(ValueError, match="limit is M <= 20"):
            exact_shapley(p, np.zeros(21), np.zeros((1, 21)))

    def test_memoized_enumeration_cost(self):
        inner = manual_linear([1.0, -2.0, 0.5])
        counted = CountingPredictor(inner)
        bg = np.random.default_rng(8).normal(size=(10, 3))
        exact_shapley(counted, np.ones(3), bg)
        # 2^M coalition evaluations, each over the full background
        assert counted.rows_predicted == (2**3) * 10

class ProductModelThree:
    feature_names = ("a", "b", "c")

    def predict(self, X):
        return X[:, 0] * X[:, 1] + 2.0 * X[:, 2]


class TestBatchAndSummary:
    def _tiny_table(self, vals, names=("a", "b")):
        keys = tuple(("R", str(i), 2000) for i in range(len(vals)))
        return DataTable(tuple(names), np.asarray(vals, dtype=float), {}, keys)

    def test_all_zero_phi_ranks_alphabetically(self):
        vals = shapley.ShapValues(0.0, np.zeros((3, 2)), ("b", "a"))
        table = self._tiny_table(np.ones((3, 2)), names=("b", "a"))
        imp = shapley.summarize(vals, table)
        assert imp.ranking == ("a", "b")

    def test_dominant_feature_ranks_first(self):
        phi = np.array([[0.1, 5.0], [0.2, -6.0]])
        vals = shapley.ShapValues(0.0, phi, ("a", "b"))
        imp = shapley.summarize(vals, self._tiny_table(np.ones((2, 2))))
        assert imp.ranking[0] == "b"
        assert imp.mean_abs["b"] == pytest.approx(5.5)

    def test_points_pair_phi_with_raw_values(self):
        phi = np.array([[1.0, -2.0]])
        vals = shapley.ShapValues(0.0, phi, ("a", "b"))
        table = self._tiny_table([[10.0, 20.0]])
        imp = shapley.summarize(vals, table)
        assert ("a", 1.0, 10.0) in imp.points
        assert ("b", -2.0, 20.0) in imp.points

    def test_row_count_mismatch(self):
        vals = shapley.ShapValues(0.0, np.zeros((2, 2)), ("a", "b"))
        with pytest.raises(ValueError):
            shapley.summarize(vals, self._tiny_table(np.ones((3, 2))))

    def test_flood_bump_positive_phi_for_flooded_rows(self, flood_bump_split, flood_bump_boosting):
        from floodpave.dataset import FEATURE_COLUMNS

        train = flood_bump_split["train"]
        feats = list(FEATURE_COLUMNS)
        X = train.matrix(feats)
        flood_idx = feats.index("Flood")
        rows = np.nonzero(X[:, flood_idx] == 1.0)[0][:5]
        bg = shapley.draw_background(train, feats, 60, 0)
        vals = shapley.shapley_values(flood_bump_boosting, X[rows], bg)
        assert np.all(vals.phi[:, flood_idx] > 0.0)


def tied_data(seed, n=200, m=4):
    """Integer-valued features, so many rows tie on every feature."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, m)).astype(float)
    y = X[:, 0] * X[:, 1] - 2.0 * (X[:, 2] > 1) + rng.normal(scale=0.5, size=n)
    return X, y


def continuous_data(seed, n=200, m=4):
    """``tied_data`` with a little noise on every cell, so no column is constant."""
    X, y = tied_data(seed, n, m)
    return X + np.random.default_rng(seed).normal(scale=0.1, size=X.shape), y


TREE_FITS = [
    ("decision_tree", {"max_depth": 6}),
    ("random_forest", {"n_estimators": 4, "max_depth": 5, "feature_subsample": 0.5}),
    ("gradient_boosting", {"n_estimators": 15, "max_depth": 3, "subsample": 0.75}),
]
LINEAR_FITS = [("linear", {}), ("ridge", {"alpha": 3.0}), ("lasso", {"alpha": 0.5})]


def hand_tree(feature, threshold, left, right, value, m):
    tree = models.Tree(feature, threshold, left, right, value)
    names = tuple(f"x{j}" for j in range(m))
    return models.TreePredictor(models.ModelSpec("decision_tree", {}, 0), names, tree)


def assert_matches_enumeration(predictor, X, bg):
    values = shapley.shapley_values(predictor, X, bg)
    oracle = np.vstack([exact_shapley(predictor, x, bg) for x in X])
    assert np.max(np.abs(values.phi - oracle)) < 1e-10


class TestExactDispatch:
    """Tree SHAP against the 2^M enumeration."""

    @pytest.mark.parametrize("kind, hp", TREE_FITS)
    def test_fitted_tree_models(self, kind, hp):
        X, y = tied_data(13)
        predictor = models.fit(models.ModelSpec(kind, hp, 3), X, y)
        assert_matches_enumeration(predictor, X[:8], X[100:130])

    @pytest.mark.parametrize("chunk_pairs", [1, 45])
    def test_leaf_chunks(self, monkeypatch, chunk_pairs):
        X, y = tied_data(21)
        predictor = models.fit(models.ModelSpec("random_forest", {"n_estimators": 3, "max_depth": 4}, 0), X, y)
        monkeypatch.setattr(shapley, "_CHUNK_PAIRS", chunk_pairs)
        assert_matches_enumeration(predictor, X[:5], X[20:40])

    def test_one_row_background(self):
        X, y = tied_data(14)
        predictor = models.fit(models.ModelSpec("gradient_boosting", {"n_estimators": 10}, 0), X, y)
        assert_matches_enumeration(predictor, X[:8], X[50:51])

    @pytest.mark.parametrize(
        "arrays",
        [
            # x0 <= 2 -> (x0 <= 1 -> (x1 <= 0.5 -> 1 | 2) | 3) | 4
            dict(
                feature=[0, 0, 1, -1, -1, -1, -1],
                threshold=[2.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0],
                left=[1, 2, 3, -1, -1, -1, -1],
                right=[6, 5, 4, -1, -1, -1, -1],
                value=[0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0],
            ),
            # x0 <= 1 -> (x0 <= 2 -> 1 | 2) | (x0 <= 0.5 -> 3 | (x1 <= 0.5 -> 4 | 5));
            # the second split on x0 is redundant on both sides, so leaves 2 and 3 are unreachable
            dict(
                feature=[0, 0, -1, -1, 0, -1, 1, -1, -1],
                threshold=[1.0, 2.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0],
                left=[1, 2, -1, -1, 5, -1, 7, -1, -1],
                right=[4, 3, -1, -1, 6, -1, 8, -1, -1],
                value=[0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 4.0, 5.0],
            ),
        ],
        ids=["nested", "redundant"],
    )
    def test_same_feature_split_twice_on_one_path(self, arrays):
        predictor = hand_tree(m=3, **arrays)
        # instances sit on the thresholds as well as between them
        grid = np.array(list(itertools.product([0.0, 0.5, 1.0, 1.5, 2.0, 3.0], [0.0, 0.5, 1.0], [0.0])))
        assert_matches_enumeration(predictor, grid, grid[::2])

    def test_single_leaf_tree(self):
        predictor = hand_tree([-1], [0.0], [-1], [-1], [7.5], m=2)
        values = shapley.shapley_values(predictor, np.ones((3, 2)), np.zeros((4, 2)))
        assert values.phi.tolist() == [[0.0, 0.0]] * 3
        assert values.base_value == 7.5

    def test_boosting_without_trees(self):
        X, y = tied_data(15)
        predictor = models.fit(models.ModelSpec("gradient_boosting", {"n_estimators": 0}, 0), X, y)
        assert_matches_enumeration(predictor, X[:3], X[10:20])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), depth=st.integers(0, 4))
    def test_random_small_trees(self, data, m, depth):
        feature, threshold, left, right, value = [], [], [], [], []

        def grow(d):
            node = len(feature)
            for column in (feature, threshold, left, right, value):
                column.append(-1)
            value[node] = data.draw(st.floats(-10, 10), label="value")
            if d < depth and data.draw(st.booleans(), label="split"):
                feature[node] = data.draw(st.integers(0, m - 1), label="feature")
                threshold[node] = data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), label="threshold")
                left[node] = grow(d + 1)
                right[node] = grow(d + 1)
            return node

        grow(0)
        predictor = hand_tree(feature, threshold, left, right, value, m)
        cells = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        rows = lambda n: st.lists(st.lists(cells, min_size=m, max_size=m), min_size=1, max_size=n)
        X = np.array(data.draw(rows(3), label="instances"))
        bg = np.array(data.draw(rows(6), label="background"))
        assert_matches_enumeration(predictor, X, bg)

    def test_other_predictors_enumerate(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(4, 3))
        bg = rng.normal(size=(9, 3))
        values = shapley.shapley_values(ProductModelThree(), X, bg)
        oracle = np.vstack([exact_shapley(ProductModelThree(), x, bg) for x in X])
        assert np.array_equal(values.phi, oracle)

    def test_tree_models_do_not_enumerate(self, monkeypatch):
        X, y = tied_data(18)
        predictor = models.fit(models.ModelSpec("random_forest", {"n_estimators": 3}, 0), X, y)

        def refuse(*args, **kwargs):
            raise AssertionError("exact_shapley called for a tree model")

        monkeypatch.setattr(shapley, "exact_shapley", refuse)
        shapley.shapley_values(predictor, X[:2], X[10:20])

    @pytest.mark.parametrize("kind, hp", LINEAR_FITS)
    def test_linear_models_do_not_enumerate(self, monkeypatch, kind, hp):
        X, y = continuous_data(18)
        predictor = models.fit(models.ModelSpec(kind, hp, 0), X, y)

        def refuse(*args, **kwargs):
            raise AssertionError("exact_shapley called for a linear model")

        monkeypatch.setattr(shapley, "exact_shapley", refuse)
        shapley.shapley_values(predictor, X[:2], X[10:20])

    def test_missing_instance_values_rejected(self):
        X, y = tied_data(20)
        predictor = models.fit(models.ModelSpec("decision_tree", {"max_depth": 3}, 0), X, y)
        row = X[:1].copy()
        row[0, 1] = np.nan
        with pytest.raises(ValueError, match="missing"):
            shapley.shapley_values(predictor, row, X[10:20])

    @pytest.mark.parametrize("where", ["instance", "background"])
    @pytest.mark.parametrize("cell", [-np.inf, np.inf])
    def test_infinite_values_rejected(self, where, cell):
        # Refused for every kind: the linear closed form would turn inf
        # into an infinite or NaN phi.
        X, y = tied_data(22)
        predictor = models.fit(models.ModelSpec("decision_tree", {"max_depth": 3}, 0), X, y)
        rows, bg = X[:2].copy(), X[10:20].copy()
        (rows if where == "instance" else bg)[1, 2] = cell
        with pytest.raises(ValueError, match=f"{where}.*infinite"):
            shapley.shapley_values(predictor, rows, bg)

    def test_feature_cap_applies_to_every_kind(self):
        predictor = hand_tree([-1], [0.0], [-1], [-1], [1.0], m=21)
        with pytest.raises(ValueError, match="limit is M <= 20"):
            shapley.shapley_values(predictor, np.zeros((1, 21)), np.zeros((1, 21)))

class TestLinearClosedForm:
    """phi_j = coef_j * (x_j - mean b_j) / sigma_j against the 2^M enumeration."""

    @pytest.mark.parametrize("kind, hp", LINEAR_FITS)
    def test_fitted_linear_models(self, kind, hp):
        X, y = continuous_data(30)
        predictor = models.fit(models.ModelSpec(kind, hp, 0), X, y)
        assert_matches_enumeration(predictor, X[:8], X[100:140])

    @pytest.mark.parametrize("kind, hp", LINEAR_FITS)
    def test_fit_after_train_drops_a_constant_column(self, kind, hp):
        from floodpave import cli

        X, y = continuous_data(31, m=5)
        X[:, 3] = 2.5
        names = [f"x{j}" for j in range(5)]
        kept = cli._varying_columns(DataTable(tuple(names), X), names)
        assert kept == ["x0", "x1", "x2", "x4"]
        X = X[:, [0, 1, 2, 4]]
        predictor = models.fit(models.ModelSpec(kind, hp, 0), X, y, feature_names=kept)
        assert_matches_enumeration(predictor, X[:8], X[100:140])

    @pytest.mark.parametrize("kind, hp", LINEAR_FITS)
    def test_efficiency_to_a_tolerance(self, kind, hp):
        # predict can round a row differently with the batch it is in, so
        # base + sum(phi) meets f(x) to a tolerance, not bit for bit.
        X, y = continuous_data(32)
        predictor = models.fit(models.ModelSpec(kind, hp, 0), X, y)
        values = shapley.shapley_values(predictor, X[:30], X[100:140])
        gaps = values.base_value + values.phi.sum(axis=1) - predictor.predict(X[:30])
        assert np.max(np.abs(gaps)) < 1e-10


@pytest.mark.parametrize("chunk_pairs", [None, 45])
@pytest.mark.parametrize("kind, hp", TREE_FITS + [("linear", {})])
def test_phi_does_not_depend_on_the_other_instances(monkeypatch, kind, hp, chunk_pairs):
    X, y = continuous_data(33)
    predictor = models.fit(models.ModelSpec(kind, hp, 0), X, y)
    if chunk_pairs is not None:
        monkeypatch.setattr(shapley, "_CHUNK_PAIRS", chunk_pairs)
    bg = X[100:140]
    batch = shapley.shapley_values(predictor, X[:50], bg).phi
    for i in (0, 1, 17, 49):
        alone = shapley.shapley_values(predictor, X[i : i + 1], bg).phi
        assert np.array_equal(alone[0], batch[i])


class TestBackgroundCompression:
    """Tree SHAP's (leaf, mask, count) triples."""

    @pytest.mark.parametrize("kind, hp", TREE_FITS)
    def test_tiled_background_gives_the_same_phi(self, kind, hp):
        X, y = tied_data(34)
        predictor = models.fit(models.ModelSpec(kind, hp, 0), X, y)
        bg = X[100:130]
        once = shapley.shapley_values(predictor, X[:8], bg).phi
        tiled = shapley.shapley_values(predictor, X[:8], np.tile(bg, (3, 1))).phi
        assert np.max(np.abs(tiled - once)) < 1e-12

    @pytest.mark.parametrize("chunk_pairs", [None, 10])
    def test_one_triple_per_distinct_mask_per_leaf(self, monkeypatch, chunk_pairs):
        # x0 <= 1 -> (x1 <= 1 -> 1 | 2) | 3; the walk meets leaf 4 first, then 2 and 3.
        predictor = hand_tree(
            feature=[0, 1, -1, -1, -1],
            threshold=[1.0, 1.0, 0.0, 0.0, 0.0],
            left=[1, 2, -1, -1, -1],
            right=[4, 3, -1, -1, -1],
            value=[0.0, 0.0, 1.0, 2.0, 3.0],
            m=2,
        )
        bg = np.array([[0.0, 0.0]] * 3 + [[2.0, 0.0]] * 2 + [[0.0, 2.0]] + [[2.0, 2.0]] * 4)
        if chunk_pairs is not None:
            monkeypatch.setattr(shapley, "_CHUNK_PAIRS", chunk_pairs)  # one node per run
        tree = joined((predictor.tree,))
        leaf, mask, count = shapley._distinct_masks(tree, bg)
        leaves = list(dict.fromkeys(leaf.tolist()))
        assert leaves == [4, 2, 3]
        assert tree[4][leaves].tolist() == [3.0, 1.0, 2.0]
        triples = list(zip([leaves.index(node) for node in leaf.tolist()], mask.tolist(), count.tolist()))
        assert triples == [
            (0, 0, 6), (0, 1, 4),
            (1, 0, 3), (1, 1, 2), (1, 2, 1), (1, 3, 4),
            (2, 0, 1), (2, 1, 4), (2, 2, 3), (2, 3, 2),
        ]
        assert sum(count for _, _, count in triples) == len(bg) * len(leaves)
        assert_matches_enumeration(predictor, bg, bg)


def root_paths(tree):
    """Every leaf of joined trees level by level, from every root at once, with its root path.

    A path is a list of (feature, threshold, went right) splits.
    """
    feature, threshold, left, right, _, roots = tree
    level = [(int(root), []) for root in roots]
    found = []
    while level:
        found += [(node, path) for node, path in level if feature[node] == LEAF]
        level = [
            (int(child), path + [(feature[node], threshold[node], went_right)])
            for node, path in level
            if feature[node] != LEAF
            for went_right, child in ((False, left[node]), (True, right[node]))
        ]
    return found


def outside_mask(path, x):
    """Bit f for each split on f on the path that sends x the other way."""
    mask = 0
    for f, t, went_right in path:
        if (x[f] > t) != went_right:
            mask |= 1 << f
    return mask


def joined_hand_trees():
    # x0 <= 2 -> (x0 <= 1 -> (x1 <= 0.5 -> 1 | 2) | 3) | 4: x0 split twice on one path
    nested = models.Tree(
        [0, 0, 1, -1, -1, -1, -1], [2.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0],
        [1, 2, 3, -1, -1, -1, -1], [6, 5, 4, -1, -1, -1, -1], [0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0],
    )
    # x0 <= 1 -> (x0 <= 2 -> 1 | 2) | 3: x0 <= 1 and x0 > 2 contradict, so node 3 is unreachable
    contradictory = models.Tree(
        [0, 0, -1, -1, -1], [1.0, 2.0, 0.0, 0.0, 0.0], [1, 2, -1, -1, -1], [4, 3, -1, -1, -1], [0.0, 0.0, 1.0, 2.0, 3.0],
    )
    grid = np.array(list(itertools.product([0.0, 0.5, 1.0, 1.5, 2.0, 3.0], [0.0, 0.5, 1.0], [0.0])))
    return joined((nested, contradictory)), grid[::2], grid


def joined_forest():
    X, y = tied_data(36)
    predictor = models.fit(models.ModelSpec("random_forest", {"n_estimators": 3, "max_depth": 5}, 0), X, y)
    return joined(predictor.trees), X[:40], X[40:47]


@pytest.mark.parametrize("chunk_pairs", [1, None])
@pytest.mark.parametrize("case", [joined_hand_trees, joined_forest], ids=["hand", "forest"])
class TestLeafMasksAgainstRootPaths:
    """``_leaf_masks`` and ``_distinct_masks`` against each row checked on each leaf's root path."""

    def test_triples(self, monkeypatch, chunk_pairs, case):
        tree, bg, _ = case()
        if chunk_pairs is not None:
            monkeypatch.setattr(shapley, "_CHUNK_PAIRS", chunk_pairs)
        expected = []
        for node, path in root_paths(tree):
            masks = [outside_mask(path, b) for b in bg]
            expected += [(node, mask, masks.count(mask)) for mask in sorted(set(masks))]
        assert list(zip(*(a.tolist() for a in shapley._distinct_masks(tree, bg)))) == expected

    def test_instance_masks(self, monkeypatch, chunk_pairs, case):
        tree, _, X = case()
        if chunk_pairs is not None:
            monkeypatch.setattr(shapley, "_CHUNK_PAIRS", chunk_pairs)
        found = {}
        for depth, nodes, masks in shapley._leaf_masks(tree, X):
            for node, row in zip(nodes.tolist(), masks.tolist()):
                assert node not in found
                found[node] = (depth, row)
        assert found == {node: (len(path), [outside_mask(path, x) for x in X]) for node, path in root_paths(tree)}


def test_peak_memory_of_a_bench_sized_forest():
    # A 10-tree depth-10 forest with 4618 leaves, 100 background rows and
    # 10 instances. The bound is the traced peak of this call (4243286 B
    # in a run of this file, 4245270 B alone) when Tree SHAP still built
    # a box per leaf and tested every (leaf, row) pair against it.
    X, y = continuous_data(35, n=2000, m=9)
    spec = models.ModelSpec("random_forest", {"n_estimators": 10, "max_depth": 10, "feature_subsample": 0.6}, 0)
    predictor = models.fit(spec, X, y)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        shapley.shapley_values(predictor, X[:10], X[-100:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak - before <= 4_245_270, f"peak {peak - before} B"
