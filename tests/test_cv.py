import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodpave import models
from floodpave.models import ModelSpec, grid_search_cv, kfold_indices


def assert_valid_partition(folds, n, k):
    all_idx = np.concatenate(folds)
    assert len(all_idx) == n
    assert len(set(all_idx.tolist())) == n
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    assert len(folds) == k


class TestKFold:
    def test_documented_sizes_103(self):
        folds, assignments = kfold_indices(103, 5, seed=0)
        assert sorted(len(f) for f in folds) == [20, 20, 21, 21, 21]
        assert_valid_partition(folds, 103, 5)
        for f, fold in enumerate(folds):
            assert np.all(assignments[fold] == f)

    @pytest.mark.parametrize("n", [10, 103, 10022])
    def test_partition_property(self, n):
        folds, _ = kfold_indices(n, 5, seed=3)
        assert_valid_partition(folds, n, 5)

    def test_seed_determinism(self):
        a, _ = kfold_indices(50, 5, seed=9)
        b, _ = kfold_indices(50, 5, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1, seed=0)
        with pytest.raises(ValueError):
            kfold_indices(3, 5, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(5, 500), k=st.integers(2, 5), seed=st.integers(0, 1000))
    def test_partition_property_randomized(self, n, k, seed):
        if n < k:
            n = k
        folds, _ = kfold_indices(n, k, seed)
        assert_valid_partition(folds, n, k)


class TestGridSearch:
    def test_singleton_grid(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2))
        y = x[:, 0] + rng.normal(scale=0.1, size=30)
        res = grid_search_cv("ridge", {"alpha": [0.5]}, x, y, k=5, seed=0)
        assert res.best_spec.hyperparameters["alpha"] == 0.5
        assert len(res.per_candidate) == 1

    def test_empty_grid_rejected(self):
        x = np.ones((10, 1))
        with pytest.raises(ValueError):
            grid_search_cv("ridge", {}, x, np.arange(10.0), k=5, seed=0)

    def test_noisy_data_prefers_larger_alpha(self):
        # Heavily overparameterized fit: shrinkage must win the held-out score.
        rng = np.random.default_rng(0)
        n, p = 30, 15
        x = rng.normal(size=(n, p))
        y = x @ (rng.normal(size=p) * 0.1) + rng.normal(scale=8.0, size=n)
        res = grid_search_cv("ridge", {"alpha": [0.001, 100.0]}, x, y, k=5, seed=0)
        assert res.best_spec.hyperparameters["alpha"] == 100.0
        scores = dict((s.hyperparameters["alpha"], mse) for s, mse in res.per_candidate)
        assert scores[100.0] < scores[0.001]

    def test_tie_break_first_candidate(self):
        # alpha, then max 0 effect: duplicate candidates score identically.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 2))
        y = x[:, 0]
        res = grid_search_cv("ridge", {"alpha": [0.3, 0.3]}, x, y, k=4, seed=1)
        a, b = res.per_candidate
        assert a[1] == b[1]
        assert res.best_spec is res.per_candidate[0][0]

    def test_enumeration_order_is_key_major(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, 2))
        y = x[:, 0] + rng.normal(scale=0.5, size=25)
        grid = {"max_depth": [1, 2], "min_samples_leaf": [1, 3]}
        res = grid_search_cv("decision_tree", grid, x, y, k=5, seed=2)
        combos = [
            (s.hyperparameters["max_depth"], s.hyperparameters["min_samples_leaf"])
            for s, _ in res.per_candidate
        ]
        assert combos == [(1, 1), (1, 3), (2, 1), (2, 3)]

    @pytest.mark.parametrize(
        "kind, grid, fitted_per_fold",
        [
            (
                "random_forest",
                {"max_depth": [2, 4], "n_estimators": [4, 1, 4, 2], "feature_subsample": [0.5]},
                [(2, 4, 0.5), (4, 4, 0.5)],
            ),
            (
                "gradient_boosting",
                {"subsample": [0.75, 1.0], "n_estimators": [3, 0, 6, 3], "max_depth": [2]},
                [(0.75, 6, 2), (1.0, 6, 2)],
            ),
            (
                "random_forest",
                {"max_depth": [2, 5, 3], "n_estimators": [2, 3], "min_samples_leaf": [1, 4]},
                [(5, 3, 1), (5, 3, 4)],
            ),
            (
                "random_forest",
                {"feature_subsample": [0.5, 1.0], "max_depth": [2, 4], "n_estimators": [1, 3]},
                [(0.5, 2, 3), (0.5, 4, 3), (1.0, 4, 3)],
            ),
            (
                "decision_tree",
                {"max_depth": [1, 4, 2], "min_samples_split": [2, 9], "min_samples_leaf": [1, 3]},
                [(4, 2, 1), (4, 2, 3), (4, 9, 1), (4, 9, 3)],
            ),
        ],
        ids=["random_forest", "gradient_boosting", "forest-depths", "forest-mixed", "decision_tree"],
    )
    def test_prefix_reuse_equals_independent_fits(self, monkeypatch, kind, grid, fitted_per_fold):
        # Candidates that one fit can serve share it per fold: a prefix of its
        # trees, cut at their own depth where the trees draw no randomness as
        # they grow. Every score must equal that of fitting the candidate on its
        # own, and each group is fitted once per fold, at its deepest depth and
        # largest n_estimators. Forests with feature_subsample < 1 are never
        # nested by depth.
        rng = np.random.default_rng(3)
        x = rng.integers(0, 4, size=(45, 3)).astype(float)
        y = x[:, 0] - x[:, 2] + rng.normal(scale=0.3, size=45)
        k, seed = 3, 5
        folds, _ = kfold_indices(len(y), k, seed)
        expected = []
        for spec in models.expand_grid(kind, grid, seed):
            mses = []
            for fold in folds:
                train = np.setdiff1d(np.arange(len(y)), fold)
                p = models.fit(spec, x[train], y[train])
                mses.append(float(np.mean((y[fold] - p.predict(x[fold])) ** 2)))
            expected.append(mses)

        fitted = []
        real_fit = models.fit

        def counting_fit(spec, *args, **kwargs):
            fitted.append(tuple(spec.hyperparameters[key] for key in grid))
            return real_fit(spec, *args, **kwargs)

        monkeypatch.setattr(models, "fit", counting_fit)
        res = grid_search_cv(kind, grid, x, y, k=k, seed=seed)
        means = [float(np.mean(mses)) for mses in expected]
        assert [m for _, m in res.per_candidate] == means
        assert [list(f) for f in res.fold_mses] == expected
        assert [s for s, _ in res.per_candidate] == models.expand_grid(kind, grid, seed)
        assert res.best_spec is res.per_candidate[int(np.argmin(means))][0]
        assert sorted(fitted) == sorted(fitted_per_fold * k)

    def test_sources_name_the_fitted_candidate(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 2))
        y = x[:, 0] + rng.normal(scale=0.3, size=30)
        grid = {"n_estimators": [1, 2], "max_depth": [1, 3], "feature_subsample": [1.0, 0.5]}
        res = grid_search_cv("random_forest", grid, x, y, k=3, seed=1)
        # candidates in key order: (n_estimators, max_depth, feature_subsample)
        assert res.sources == (
            "depth truncation of #6",
            "n_estimators prefix of #5",
            "n_estimators prefix of #6",
            "n_estimators prefix of #7",
            "depth truncation of #6",
            "own fit",
            "own fit",
            "own fit",
        )
        res = grid_search_cv("ridge", {"alpha": [0.1, 1.0]}, x, y, k=3, seed=1)
        assert res.sources == ("own fit", "own fit")
        assert [len(f) for f in res.fold_mses] == [3, 3]

    def test_default_grids_construct_valid_specs(self):
        for kind in models.MODEL_KINDS:
            grid = models.default_grid(kind)
            specs = models.expand_grid(kind, grid, seed=0)
            assert all(isinstance(s, ModelSpec) for s in specs)
            if kind in ("ridge", "lasso"):
                alphas = [s.hyperparameters["alpha"] for s in specs]
                assert min(alphas) == pytest.approx(1e-3)
                assert max(alphas) == pytest.approx(1e2)
