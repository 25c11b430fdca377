import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodpave import models, shapley
from floodpave.dataset import DataTable
from floodpave.shapley import ShapConfig, exact_shapley, sampled_shapley, value_function

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
        phi = exact_shapley(
            ProductModel(), np.array([1.0, 1.0]), np.zeros((1, 2)), ShapConfig()
        )
        assert phi.tolist() == [0.5, 0.5]

    def test_linear_closed_form(self):
        w = np.array([2.0, -3.0, 0.0, 1.5])
        p = manual_linear(w, intercept=7.0)
        rng = np.random.default_rng(3)
        bg = rng.normal(size=(40, 4))
        for _ in range(5):
            x = rng.normal(size=4)
            phi = exact_shapley(p, x, bg, ShapConfig())
            expected = w * (x - bg.mean(axis=0))
            assert np.max(np.abs(phi - expected)) < 1e-8

    def test_dummy_feature_exactly_zero(self):
        w = np.array([1.0, 0.0, 2.0])
        p = manual_linear(w)
        rng = np.random.default_rng(4)
        bg = rng.normal(size=(25, 3))
        phi = exact_shapley(p, rng.normal(size=3), bg, ShapConfig())
        assert phi[1] == 0.0

    def test_dummy_feature_in_tree_exactly_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(100, 3))
        x[:, 2] = 0.0  # constant: never split on
        y = np.where(x[:, 0] > 0, 5.0, -5.0)
        tree = models.fit(models.ModelSpec("decision_tree", {"max_depth": 3}, 0), x, y)
        bg = rng.normal(size=(30, 3))
        phi = exact_shapley(tree, np.array([1.0, 0.0, 9.9]), bg, ShapConfig())
        assert phi[2] == 0.0

    def test_symmetry_of_exchangeable_features(self):
        p = manual_linear([1.0, 1.0])
        rng = np.random.default_rng(6)
        col = rng.normal(size=30)
        bg = np.column_stack([col, col])
        phi = exact_shapley(p, np.array([2.0, 2.0]), bg, ShapConfig())
        assert abs(phi[0] - phi[1]) < 1e-10

    def test_efficiency(self):
        p = ProductModel()
        rng = np.random.default_rng(7)
        bg = rng.normal(size=(15, 2))
        for _ in range(5):
            x = rng.normal(size=2)
            phi = exact_shapley(p, x, bg, ShapConfig())
            base = float(np.mean(p.predict(bg)))
            fx = float(p.predict(x[None])[0])
            assert abs(base + phi.sum() - fx) < 1e-8

    def test_feature_cap(self):
        p = manual_linear(np.ones(21))
        with pytest.raises(ValueError, match="sampled"):
            exact_shapley(p, np.zeros(21), np.zeros((1, 21)), ShapConfig())

    def test_memoized_enumeration_cost(self):
        inner = manual_linear([1.0, -2.0, 0.5])
        counted = CountingPredictor(inner)
        bg = np.random.default_rng(8).normal(size=(10, 3))
        exact_shapley(counted, np.ones(3), bg, ShapConfig())
        # 2^M coalition evaluations, each over the full background
        assert counted.rows_predicted == (2**3) * 10

    def test_mean_impute_baseline(self):
        p = ProductModel()
        bg = np.array([[1.0, 2.0], [3.0, 4.0]])
        cfg = ShapConfig(baseline="mean_impute")
        phi = exact_shapley(p, np.array([5.0, 6.0]), bg, cfg)
        # baseline collapses to the single mean row (2, 3)
        base = 2.0 * 3.0
        fx = 30.0
        assert phi.sum() == pytest.approx(fx - base, abs=1e-10)


class TestSampledShapley:
    def test_exhaustive_permutations_match_exact(self):
        p = ProductModelThree()
        rng = np.random.default_rng(9)
        bg = rng.normal(size=(12, 3))
        x = np.array([1.2, -0.7, 2.0])
        exact = exact_shapley(p, x, bg, ShapConfig())
        perms = np.array(list(itertools.permutations(range(3))))
        via_perms = shapley.shapley_from_permutations(p, x, bg, perms)
        assert np.max(np.abs(via_perms - exact)) < 1e-10

    def test_linear_statistical_tolerance(self):
        w = np.array([4.0, -2.0, 1.0, 0.3, -0.9])
        p = manual_linear(w)
        rng = np.random.default_rng(10)
        bg = rng.normal(size=(30, 5))
        x = rng.normal(size=5)
        cfg = ShapConfig(mode="sampled", n_permutations=2000, seed=44)
        phi = sampled_shapley(p, x, bg, cfg)
        expected = w * (x - bg.mean(axis=0))
        span = expected.max() - expected.min()
        assert np.max(np.abs(phi - expected)) < 0.05 * span

    def test_each_distinct_coalition_is_predicted_once(self):
        counted = CountingPredictor(ProductModelThree())
        bg = np.random.default_rng(23).normal(size=(7, 3))
        perms = np.array(list(itertools.permutations(range(3))))
        shapley.shapley_from_permutations(counted, np.ones(3), bg, perms)
        # 19 prefixes (the empty one and 3 per ordering) are 2^3 distinct coalitions
        assert counted.rows_predicted == (2**3) * 7

    @pytest.mark.parametrize(
        "kind, hp",
        [
            ("linear", {}),
            ("decision_tree", {"max_depth": 6}),
            ("random_forest", {"n_estimators": 4, "max_depth": 5, "feature_subsample": 0.5}),
            ("gradient_boosting", {"n_estimators": 15, "max_depth": 3, "subsample": 0.75}),
        ],
    )
    @pytest.mark.parametrize("baseline", ["interventional", "mean_impute"])
    def test_matches_per_permutation_estimator(self, kind, hp, baseline):
        X, y = tied_data(24, m=6)
        X += np.random.default_rng(24).normal(scale=0.1, size=X.shape)
        predictor = models.fit(models.ModelSpec(kind, hp, 0), X, y)
        cfg = ShapConfig(mode="sampled", n_permutations=200, seed=6, baseline=baseline)
        bg = shapley._apply_baseline(X[100:140], cfg)
        rng = np.random.default_rng(25)
        perms = np.array([rng.permutation(6) for _ in range(200)])
        for x in X[:3]:
            got = shapley.shapley_from_permutations(predictor, x, X[100:140], perms, cfg)
            assert np.array_equal(got, per_permutation_estimator(predictor, x, bg, perms))

    def test_seed_determinism(self):
        p = ProductModel()
        bg = np.random.default_rng(11).normal(size=(10, 2))
        cfg = ShapConfig(mode="sampled", n_permutations=50, seed=5)
        a = sampled_shapley(p, np.ones(2), bg, cfg)
        b = sampled_shapley(p, np.ones(2), bg, cfg)
        assert np.array_equal(a, b)


def per_permutation_estimator(predictor, x, background, perms):
    """Sampled mode's estimator with no shared coalitions: predict every prefix of every ordering."""
    m, n_bg = len(x), background.shape[0]
    v_empty = float(np.mean(predictor.predict(background)))
    phi = np.zeros(m)
    for perm in perms:
        rows = np.tile(background, (m, 1))
        for step, feature in enumerate(perm):
            rows[step * n_bg :, feature] = x[feature]  # prefix `step` and every later one
        prev = v_empty
        for feature, v in zip(perm, predictor.predict(rows).reshape(m, n_bg).mean(axis=1)):
            phi[feature] += v - prev
            prev = v
    return phi / len(perms)


class ProductModelThree:
    feature_names = ("a", "b", "c")

    def predict(self, X):
        return X[:, 0] * X[:, 1] + 2.0 * X[:, 2]


class TestBatchAndSummary:
    def _tiny_table(self, vals, names=("a", "b")):
        keys = tuple(("R", str(i), 2000) for i in range(len(vals)))
        return DataTable(tuple(names), np.asarray(vals, dtype=float), {}, keys)

    def test_worker_count_does_not_change_values(self):
        p = ProductModel()
        rng = np.random.default_rng(12)
        bg = rng.normal(size=(10, 2))
        X = rng.normal(size=(6, 2))
        cfg = ShapConfig(mode="sampled", n_permutations=40, seed=3)
        serial = shapley.shapley_values(p, X, bg, cfg, n_workers=1)
        threaded = shapley.shapley_values(p, X, bg, cfg, n_workers=4)
        assert np.array_equal(serial.phi, threaded.phi)

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
        cfg = ShapConfig(mode="sampled", n_permutations=150, seed=2)
        vals = shapley.shapley_values(flood_bump_boosting, X[rows], bg, cfg)
        assert np.all(vals.phi[:, flood_idx] > 0.0)


def tied_data(seed, n=200, m=4):
    """Integer-valued features, so many rows tie on every feature."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, m)).astype(float)
    y = X[:, 0] * X[:, 1] - 2.0 * (X[:, 2] > 1) + rng.normal(scale=0.5, size=n)
    return X, y


def hand_tree(feature, threshold, left, right, value, m):
    tree = models.Tree(feature, threshold, left, right, value)
    names = tuple(f"x{j}" for j in range(m))
    return models.TreePredictor(models.ModelSpec("decision_tree", {}, 0), names, tree)


def assert_matches_enumeration(predictor, X, bg, config=ShapConfig()):
    values = shapley.shapley_values(predictor, X, bg, config)
    oracle = np.vstack([exact_shapley(predictor, x, bg, config) for x in X])
    assert np.max(np.abs(values.phi - oracle)) < 1e-10


class TestExactDispatch:
    """Tree SHAP against the 2^M enumeration."""

    @pytest.mark.parametrize(
        "kind, hp",
        [
            ("decision_tree", {"max_depth": 6}),
            ("random_forest", {"n_estimators": 4, "max_depth": 5, "feature_subsample": 0.5}),
            ("gradient_boosting", {"n_estimators": 15, "max_depth": 3, "subsample": 0.75}),
        ],
    )
    @pytest.mark.parametrize("baseline", ["interventional", "mean_impute"])
    def test_fitted_tree_models(self, kind, hp, baseline):
        X, y = tied_data(13)
        predictor = models.fit(models.ModelSpec(kind, hp, 3), X, y)
        assert_matches_enumeration(predictor, X[:8], X[100:130], ShapConfig(baseline=baseline))

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
        values = shapley.shapley_values(predictor, np.ones((3, 2)), np.zeros((4, 2)), ShapConfig())
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
        values = shapley.shapley_values(ProductModelThree(), X, bg, ShapConfig())
        oracle = np.vstack([exact_shapley(ProductModelThree(), x, bg, ShapConfig()) for x in X])
        assert np.array_equal(values.phi, oracle)

    def test_tree_models_do_not_enumerate(self, monkeypatch):
        X, y = tied_data(18)
        predictor = models.fit(models.ModelSpec("random_forest", {"n_estimators": 3}, 0), X, y)

        def refuse(*args, **kwargs):
            raise AssertionError("exact_shapley called for a tree model")

        monkeypatch.setattr(shapley, "exact_shapley", refuse)
        shapley.shapley_values(predictor, X[:2], X[10:20], ShapConfig())

    def test_missing_instance_values_rejected(self):
        X, y = tied_data(20)
        predictor = models.fit(models.ModelSpec("decision_tree", {"max_depth": 3}, 0), X, y)
        row = X[:1].copy()
        row[0, 1] = np.nan
        with pytest.raises(ValueError, match="missing"):
            shapley.shapley_values(predictor, row, X[10:20], ShapConfig())

    @pytest.mark.parametrize("where", ["instance", "background"])
    @pytest.mark.parametrize("cell", [-np.inf, np.inf])
    def test_infinite_values_rejected(self, where, cell):
        # The leaf-box test lo < x puts x = -inf outside every box, where
        # predict sends it left; exact_shapley would disagree.
        X, y = tied_data(22)
        predictor = models.fit(models.ModelSpec("decision_tree", {"max_depth": 3}, 0), X, y)
        rows, bg = X[:2].copy(), X[10:20].copy()
        (rows if where == "instance" else bg)[1, 2] = cell
        with pytest.raises(ValueError, match=f"{where}.*infinite"):
            shapley.shapley_values(predictor, rows, bg, ShapConfig())

    def test_feature_cap_applies_to_every_kind(self):
        predictor = hand_tree([-1], [0.0], [-1], [-1], [1.0], m=21)
        with pytest.raises(ValueError, match="sampled"):
            shapley.shapley_values(predictor, np.zeros((1, 21)), np.zeros((1, 21)), ShapConfig())

    def test_sampled_rows_use_the_per_index_stream(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(3, 3))
        bg = rng.normal(size=(8, 3))
        cfg = ShapConfig(mode="sampled", n_permutations=30, seed=4)
        values = shapley.shapley_values(ProductModelThree(), X, bg, cfg)
        for i in range(3):
            row = sampled_shapley(ProductModelThree(), X[i], bg, cfg, index=i)
            assert np.array_equal(values.phi[i], row)
