import hashlib
import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest

from floodpave import models
from floodpave._util import write_text_atomic
from floodpave.errors import InsufficientDataError, SchemaError, SingularDesignError, ZeroVarianceError
from floodpave.models import ModelSpec, linear
from floodpave.models.tree import LEAF, ForestPredictor, Tree, levels

from conftest import manual_linear


def spec(kind, seed=0, **hp):
    return ModelSpec(kind, hp, seed)


def test_every_public_name_resolves():
    # The package imports its submodules on first use; each name still resolves.
    for name in models.__all__:
        assert getattr(models, name) is not None, name
    assert models.fit_decision_tree is models.grow.fit_decision_tree
    assert models.tree.build_tree is models.build_tree
    with pytest.raises(AttributeError, match="no_such_name"):
        models.no_such_name


class TestModelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelSpec("svm", {}, 0)

    def test_unknown_hyperparameter_for_kind(self):
        with pytest.raises(ValueError, match="alpha"):
            ModelSpec("decision_tree", {"alpha": 1.0}, 0)

    def test_defaults_filled_in(self):
        s = ModelSpec("gradient_boosting", {"n_estimators": 7}, 0)
        assert s.hyperparameters["learning_rate"] == 0.1
        assert s.hyperparameters["n_estimators"] == 7

    def test_range_checks(self):
        with pytest.raises(ValueError):
            ModelSpec("ridge", {"alpha": -1.0}, 0)
        with pytest.raises(ValueError):
            ModelSpec("gradient_boosting", {"subsample": 0.0}, 0)
        with pytest.raises(ValueError):
            ModelSpec("random_forest", {"n_estimators": 0}, 0)

    def test_hyperparameters_take_the_type_of_their_default(self):
        s = ModelSpec("random_forest", {"max_depth": 3.0, "feature_subsample": 1, "bootstrap": False}, 0)
        assert [type(s.hyperparameters[k]) for k in ("max_depth", "feature_subsample", "bootstrap")] == [int, float, bool]
        for hp, message in [
            ({"max_depth": 2.5}, "random_forest.max_depth must be an integer, got 2.5"),
            ({"max_depth": "3"}, "random_forest.max_depth must be an integer, got '3'"),
            ({"bootstrap": "false"}, "random_forest.bootstrap must be a boolean"),
            ({"n_estimators": True}, "random_forest.n_estimators must be an integer"),
            ({"feature_subsample": float("nan")}, "random_forest.feature_subsample must be a finite number"),
        ]:
            with pytest.raises(SchemaError, match=re.escape(message)):
                ModelSpec("random_forest", hp, 0)


class TestLinearFamily:
    def test_exact_line_recovery(self):
        x = np.array([[0.0], [1], [2], [3], [4]])
        y = 2 * x[:, 0] + 1
        p = models.fit(spec("linear"), x, y)
        w, b = p.raw_coefficients()
        assert w[0] == pytest.approx(2.0, abs=1e-9)
        assert b == pytest.approx(1.0, abs=1e-9)
        assert p.predict(np.array([[10.0]]))[0] == pytest.approx(21.0, abs=1e-8)

    def test_singular_design_reports_condition(self):
        x = np.column_stack([np.arange(6.0), np.arange(6.0)])  # duplicated column
        y = np.arange(6.0)
        with pytest.raises(SingularDesignError) as err:
            models.fit(spec("linear"), x, y)
        assert err.value.condition_number is not None

    def test_zero_variance_feature_is_singular(self):
        x = np.column_stack([np.arange(6.0), np.full(6, 3.0)])
        with pytest.raises(SingularDesignError):
            models.fit(spec("linear"), x, np.arange(6.0))

    def test_huge_alpha_shrinks_ridge_to_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=50)
        p = models.fit(spec("ridge", alpha=1e9), x, y)
        assert np.all(np.abs(p.coef) < 1e-6)

    def test_ridge_norm_non_increasing_in_alpha(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 4))
        y = x @ np.array([2.0, -1.0, 0.3, 0.8]) + rng.normal(size=60)
        norms = []
        for alpha in (0.0, 0.1, 1.0, 10.0, 100.0, 1000.0):
            p = models.fit(spec("ridge", alpha=alpha), x, y)
            norms.append(float(np.linalg.norm(p.coef)))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_lasso_alpha_zero_matches_least_squares(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 4))
        y = x @ np.array([1.5, 0.0, -0.7, 2.0]) + rng.normal(scale=0.1, size=80)
        lasso = models.fit(spec("lasso", alpha=0.0), x, y)
        ols = models.fit(spec("linear"), x, y)
        assert np.max(np.abs(lasso.coef - ols.coef)) < 1e-6

    def test_lasso_orthonormal_soft_threshold(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(40, 6)))
        y = rng.normal(size=40)
        w_ols = q.T @ y
        for alpha in (0.1, 0.5, 2.0):
            w_cd, _ = models.lasso_coordinate_descent(q, y, alpha)
            w_soft = np.sign(w_ols) * np.maximum(np.abs(w_ols) - alpha, 0.0)
            assert np.max(np.abs(w_cd - w_soft)) < 1e-6


class TestTrees:
    def test_single_split_step_function(self):
        x = np.array([[-3.0], [-2], [-1], [1], [2], [3]])
        y = np.array([0.0, 0, 0, 10, 10, 10])
        p = models.fit(spec("decision_tree", max_depth=1), x, y)
        assert p.predict(np.array([[-5.0]]))[0] == 0.0
        assert p.predict(np.array([[5.0]]))[0] == 10.0

    def test_depth_and_leaf_constraints(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        p = models.fit(spec("decision_tree", max_depth=2, min_samples_leaf=20), x, y)
        tree = p.tree
        assert tree.n_nodes <= 7  # depth-2 binary tree
        # every leaf must hold >= 20 training rows
        leaf_counts = {}
        node = np.zeros(200, dtype=int)
        preds = tree.predict(x)
        for v in preds:
            leaf_counts[v] = leaf_counts.get(v, 0) + 1
        assert min(leaf_counts.values()) >= 20

    def test_constant_target_single_leaf(self):
        x = np.arange(10.0).reshape(-1, 1)
        p = models.fit(spec("decision_tree", max_depth=5), x, np.full(10, 4.0))
        assert p.tree.n_nodes == 1
        assert p.predict(x).tolist() == [4.0] * 10

    def test_single_tree_forest_equals_plain_tree(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 4))
        y = x[:, 0] * 3 + rng.normal(size=100)
        forest = models.fit(
            spec("random_forest", n_estimators=1, max_depth=4, feature_subsample=1.0, bootstrap=False),
            x,
            y,
        )
        tree = models.fit(spec("decision_tree", max_depth=4), x, y)
        assert np.array_equal(forest.predict(x), tree.predict(x))

    def test_forest_of_identical_trees_matches_single(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 3))
        y = x[:, 1] - x[:, 2] + rng.normal(size=60)
        forest = models.fit(
            spec("random_forest", n_estimators=3, max_depth=3, feature_subsample=1.0, bootstrap=False),
            x,
            y,
        )
        single = models.fit(spec("decision_tree", max_depth=3), x, y)
        assert np.allclose(forest.predict(x), single.predict(x), atol=1e-12)

    def test_boosting_zero_stages_is_mean(self):
        x = np.arange(8.0).reshape(-1, 1)
        y = np.array([1.0, 2, 3, 4, 5, 6, 7, 8])
        p = models.fit(spec("gradient_boosting", n_estimators=0), x, y)
        assert np.all(p.predict(x) == np.mean(y))

    def test_boosting_training_mse_non_increasing(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(150, 4))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2 + rng.normal(scale=0.2, size=150)
        p = models.fit(
            spec("gradient_boosting", n_estimators=60, max_depth=2, subsample=1.0), x, y
        )
        curve = p.staged_train_mse(x, y)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_fits_are_seed_reproducible(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 4))
        y = rng.normal(size=80)
        for kind, hp in [
            ("random_forest", {"n_estimators": 5, "max_depth": 3, "feature_subsample": 0.5}),
            ("gradient_boosting", {"n_estimators": 10, "max_depth": 2, "subsample": 0.6}),
        ]:
            a = models.fit(ModelSpec(kind, hp, 42), x, y)
            b = models.fit(ModelSpec(kind, hp, 42), x, y)
            assert np.array_equal(a.predict(x), b.predict(x))
            c = models.fit(ModelSpec(kind, hp, 43), x, y)
            assert not np.array_equal(a.predict(x), c.predict(x))


def hand_tree(children, n):
    """An ``n``-node tree dict whose node i splits feature 0 at i into ``children[i]``; other nodes are leaves."""
    feature, left, right = np.full((3, n), LEAF)
    for node, (lo, hi) in children.items():
        feature[node], left[node], right[node] = 0, lo, hi
    return {
        "feature": feature.tolist(),
        "threshold": [float(i) for i in range(n)],
        "left": left.tolist(),
        "right": right.tolist(),
        "value": [10.0 * i for i in range(n)],
    }


class TestTreeArrays:
    def test_levels_walks_breadth_first_with_children_adjacent(self):
        # Preorder ids: 0 splits into 1 and 4, 1 into 2 and 3, 4 into 5 and 6.
        tree = Tree.from_dict(hand_tree({0: (1, 4), 1: (2, 3), 4: (5, 6)}, 7), 1)
        walk = [level.tolist() for level in levels(tree.feature, tree.left, tree.right)]
        assert walk == [[0], [1, 4], [2, 3, 5, 6]]
        assert [level.tolist() for level in levels(tree.feature, tree.left, tree.right, roots=(4, 1))] == [
            [4, 1],
            [5, 6, 2, 3],
        ]
        stump = tree.truncate(0)
        assert stump.feature.tolist() == [LEAF] and stump.left.tolist() == [LEAF] and stump.right.tolist() == [LEAF]
        assert stump.value.tolist() == [0.0]
        cut = tree.truncate(1)
        assert cut.feature.tolist() == [0, LEAF, LEAF]
        assert (cut.left.tolist(), cut.right.tolist()) == ([1, LEAF, LEAF], [2, LEAF, LEAF])
        assert cut.value.tolist() == [0.0, 10.0, 40.0]

    @pytest.mark.parametrize(
        "children, n, message",
        [
            ({0: (1, 2), 1: (3, 0)}, 5, "tree node reached more than once from the root"),
            ({0: (1, 2), 1: (3, 4), 2: (4, 5)}, 6, "tree node reached more than once from the root"),
            ({0: (1, 1)}, 3, "tree node reached more than once from the root"),
            ({0: (1, 2)}, 4, "tree node not reached from the root"),
        ],
        ids=["child-points-at-grandparent", "split-nodes-share-a-child", "left-equals-right", "unreached-node"],
    )
    def test_from_dict_refuses_a_malformed_walk(self, children, n, message):
        with pytest.raises(SchemaError, match=message):
            Tree.from_dict(hand_tree(children, n), 1)


class TestFitValidation:
    def test_empty_data(self):
        with pytest.raises(ValueError):
            models.fit(spec("linear"), np.empty((0, 2)), np.empty(0))

    def test_nan_rejected(self):
        x = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError, match="missing"):
            models.fit(spec("linear"), x, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("kind", ["linear", "decision_tree"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_non_finite_rejected(self, kind, bad, where):
        # An infinite threshold would leave one child of its split unreachable.
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        if where == "X":
            x[1, 0] = bad
        else:
            y[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            models.fit(spec(kind), x, y)

    def test_lasso_sweep_cap_is_logged(self, monkeypatch, caplog):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 3))
        x[:, 1] = x[:, 0] + 0.01 * rng.normal(size=50)
        y = x @ np.array([1.0, 2.0, -1.0]) + rng.normal(size=50)
        with caplog.at_level("WARNING", logger="floodpave.models.linear"):
            converged = models.fit(spec("lasso", alpha=0.1), x, y)
        assert not caplog.records
        monkeypatch.setattr(linear, "LASSO_MAX_SWEEPS", 2)
        with caplog.at_level("WARNING", logger="floodpave.models.linear"):
            capped = models.fit(spec("lasso", alpha=0.1), x, y)
        [record] = caplog.records
        assert "alpha=0.1" in record.getMessage() and "(2 sweeps)" in record.getMessage()
        assert not np.array_equal(capped.coef, converged.coef)
        assert set(capped.to_dict()) == set(converged.to_dict())

    @pytest.mark.parametrize("kind", ["linear", "ridge", "lasso"])
    def test_linear_predict_rejects_nan(self, kind):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 2))
        p = models.fit(spec(kind), x, x[:, 0] + rng.normal(size=20))
        with pytest.raises(ValueError, match="missing"):
            p.predict(np.array([[np.nan, 1.0]]))
        assert np.isfinite(p.predict(x)).all()

    def test_dimension_mismatch_on_predict(self):
        rng = np.random.default_rng(0)
        p = models.fit(spec("linear"), rng.normal(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(ValueError):
            p.predict(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "kind, hp",
        [
            ("decision_tree", {"max_depth": 3}),
            ("random_forest", {"n_estimators": 3, "max_depth": 3}),
            ("gradient_boosting", {"n_estimators": 3, "max_depth": 2}),
        ],
    )
    def test_tree_predict_rejects_nan(self, kind, hp):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 2))
        p = models.fit(spec(kind, **hp), x, x[:, 0] + rng.normal(size=40))
        row = np.array([[0.5, np.nan]])
        with pytest.raises(ValueError, match="missing"):
            p.predict(row)

    @pytest.mark.parametrize(
        "kind, hp",
        [
            ("decision_tree", {"max_depth": 3}),
            ("random_forest", {"n_estimators": 3, "max_depth": 3}),
            ("gradient_boosting", {"n_estimators": 3, "max_depth": 2}),
        ],
    )
    def test_tree_predict_on_zero_rows_is_empty(self, kind, hp):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 2))
        p = models.fit(spec(kind, **hp), x, x[:, 0] + rng.normal(size=40))
        got = p.predict(np.empty((0, 2)))
        assert got.shape == (0,) and got.dtype == np.float64
        if kind == "decision_tree":
            assert p.tree.predict(np.empty((0, 2))).shape == (0,)


class TestEvaluate:
    def test_perfect_fit(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = 3 * x[:, 0]
        p = models.fit(spec("linear"), x, y)
        m = models.evaluate(p, x, y)
        assert m.mse == pytest.approx(0.0, abs=1e-18)
        assert m.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_mean_prediction_r2_zero(self):
        y = np.array([2.0, 4.0, 6.0, 8.0])
        x = np.ones((4, 1))
        p = manual_linear([0.0], intercept=float(np.mean(y)))
        m = models.evaluate(p, x, y)
        assert m.r2 == pytest.approx(0.0, abs=1e-12)

    def test_hand_arithmetic_fixture(self):
        p = manual_linear([1.0])  # identity on one feature
        x = np.array([[1.0], [2.0], [5.0]])
        y = np.array([1.0, 2.0, 3.0])
        m = models.evaluate(p, x, y)
        assert m.mse == pytest.approx(4 / 3, abs=1e-9)
        assert m.mae == pytest.approx(2 / 3, abs=1e-9)
        assert m.r2 == pytest.approx(-1.0, abs=1e-9)

    def test_zero_variance_target(self):
        p = manual_linear([1.0])
        with pytest.raises(ZeroVarianceError):
            models.evaluate(p, np.ones((3, 1)), np.full(3, 5.0))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            models.evaluate(manual_linear([1.0]), np.ones((1, 1)), np.ones(1))


@pytest.mark.parametrize(
    "kind,hp",
    [
        ("linear", {}),
        ("ridge", {"alpha": 0.7}),
        ("lasso", {"alpha": 0.3}),
        ("decision_tree", {"max_depth": 6}),
        ("random_forest", {"n_estimators": 4, "max_depth": 5}),
        ("gradient_boosting", {"n_estimators": 8, "max_depth": 3}),
    ],
)
def test_a_row_predicts_the_same_bits_alone_as_in_a_batch(kind, hp):
    rng = np.random.default_rng(5)
    X = rng.normal(loc=50.0, scale=20.0, size=(700, 9))
    y = X @ rng.normal(size=9) + rng.normal(size=700)
    p = models.fit(ModelSpec(kind, hp, 5), X, y, feature_names=[f"f{j}" for j in range(9)])
    batch = p.predict(X)
    alone = np.array([p.predict(X[i : i + 1])[0] for i in range(len(X))])
    assert batch.tobytes() == alone.tobytes()


class TestPersistence:
    @pytest.mark.parametrize(
        "kind,hp",
        [
            ("linear", {}),
            ("ridge", {"alpha": 0.7}),
            ("lasso", {"alpha": 0.3}),
            ("decision_tree", {"max_depth": 4}),
            ("random_forest", {"n_estimators": 4, "max_depth": 3, "feature_subsample": 0.7}),
            ("gradient_boosting", {"n_estimators": 8, "max_depth": 2, "subsample": 0.8}),
        ],
    )
    def test_round_trip_bit_exact(self, tmp_path, kind, hp):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 5))
        y = x @ np.array([1.0, 0.5, -2.0, 0.0, 0.1]) + rng.normal(scale=0.5, size=60)
        p = models.fit(ModelSpec(kind, hp, 11), x, y, feature_names=list("abcde"))
        path = tmp_path / f"{kind}.json"
        models.save_model(p, path)
        q = models.load_model(path)
        assert q.feature_names == p.feature_names
        assert np.array_equal(p.predict(x), q.predict(x))

    @pytest.mark.parametrize(
        "kind, hp, digest",
        [
            (
                "random_forest",
                {"n_estimators": 4, "max_depth": 6, "feature_subsample": 0.6},
                "2e7ddd66875214703b960d8102b6b3a1390af4d8b48b54a0058be2db3b5a8993",
            ),
            (
                "random_forest",
                {"n_estimators": 3, "max_depth": 6, "bootstrap": False, "min_samples_leaf": 3},
                "23f5a7cb019f9d795b8a0cbbe6a47f23b2a5aba4d7feeefeae9f20d0c30c90c3",
            ),
            (
                "gradient_boosting",
                {"n_estimators": 6, "max_depth": 3, "subsample": 0.75},
                "4619525e559753c6c8283c0c51cba3767c28ba7bb5499c65d4eed1cbba8553b7",
            ),
        ],
        ids=["forest-bootstrap", "forest-no-bootstrap", "boosting-subsample"],
    )
    def test_ensemble_model_files_are_pinned(self, tmp_path, kind, hp, digest):
        # The bytes save_model writes for seeded ensemble fits: a change to
        # how trees are grown or written must leave every model file as it was.
        rng = np.random.default_rng(19)
        tied = rng.integers(0, 4, size=(300, 2)).astype(float)
        x = np.column_stack([tied, rng.normal(size=(300, 3))])
        y = x @ np.array([0.8, -0.5, 1.0, 0.3, 0.0]) + rng.normal(scale=0.5, size=300)
        p = models.fit(ModelSpec(kind, hp, 7), x, y, feature_names=list("abcde"))
        path = tmp_path / "model.json"
        models.save_model(p, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["linear", "decision_tree", "random_forest", "gradient_boosting"])
    def test_model_file_is_indented_json(self, tmp_path, kind):
        # The layout models/io.py states: json.dumps(model_to_dict(p), indent=2) and a newline.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 3))
        hp = {} if kind == "linear" else {"max_depth": 3} if kind == "decision_tree" else {"n_estimators": 3}
        p = models.fit(ModelSpec(kind, hp, 5), x, x[:, 0] - x[:, 2], feature_names=list("abc"))
        path = tmp_path / "model.json"
        models.save_model(p, path)
        assert path.read_text(encoding="utf-8") == json.dumps(models.model_to_dict(p), indent=2) + "\n"

    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # A write that fails part-way through the trees leaves an existing
        # model file as it was, makes no new one and leaves no temp file.
        x = np.random.default_rng(6).normal(size=(60, 3))
        p = models.fit(ModelSpec("random_forest", {"n_estimators": 4}, 6), x, x[:, 1], feature_names=list("abc"))
        kept = tmp_path / "kept.json"
        models.save_model(p, kept)
        before = kept.read_bytes()
        real, written = Tree.to_dict, []

        def fails_at_third(tree):
            written.append(tree)
            if len(written) % 3 == 0:
                raise OSError("device full")
            return real(tree)

        monkeypatch.setattr(Tree, "to_dict", fails_at_third)
        for name in ("kept.json", "new.json"):
            with pytest.raises(OSError, match="device full"):
                models.save_model(p, tmp_path / name)
        assert len(written) == 6
        assert sorted(os.listdir(tmp_path)) == ["kept.json"]
        assert kept.read_bytes() == before

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
    def test_written_files_take_the_umask(self, tmp_path, umask, mode):
        # Reports and model files get the mode open() would give them.
        x = np.random.default_rng(4).normal(size=(30, 3))
        p = models.fit(ModelSpec("decision_tree", {"max_depth": 2}, 4), x, x[:, 0], feature_names=list("abc"))
        old = os.umask(umask)
        try:
            write_text_atomic(tmp_path / "report.txt", "text\n")
            models.save_model(p, tmp_path / "model.json")
        finally:
            os.umask(old)
        for name in ("report.txt", "model.json"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode

    def test_save_model_memory_is_a_fraction_of_the_file(self, tmp_path):
        # save_model holds one tree's numbers at a time, never the whole
        # file's text: on a 100k-node forest its tracemalloc peak stays
        # at or below half the file's size.
        rng = np.random.default_rng(8)
        n, inner = 5001, np.arange(2500)
        trees = []
        for _ in range(20):
            feature, left, right = np.full((3, n), -1)
            feature[inner] = rng.integers(0, 5, size=inner.size)
            left[inner], right[inner] = 2 * inner + 1, 2 * inner + 2
            trees.append(Tree(feature, rng.normal(size=n), left, right, rng.normal(size=n)))
        p = ForestPredictor(ModelSpec("random_forest", {}, 0), tuple("abcde"), tuple(trees))
        path = tmp_path / "forest.json"
        tracemalloc.start()
        try:
            models.save_model(p, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(t.n_nodes for t in trees) >= 100_000
        assert peak <= os.path.getsize(path) / 2
        X = rng.normal(size=(50, 5))
        assert np.array_equal(models.load_model(path).predict(X), p.predict(X))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("feature_names", "abc", "model feature_names must be a list of strings"),
            ("coef", [0.5, 1.0], "model coef must be a list of 3 numbers, one per feature"),
            ("sigma", [1.0, 0.0, 2.0], "model sigma must be positive"),
            ("coef", [0.5, float("nan"), 1.0], "coef[1] must be a finite number, got nan"),
            ("intercept", "x", "intercept must be a number, got 'x'"),
            ("feature_names", ["a", "a", "b"], "model feature_names repeat ['a']"),
        ],
        ids=["names-not-a-list", "coef-too-short", "sigma-zero", "coef-nan", "intercept-not-a-number", "names-repeated"],
    )
    def test_malformed_linear_file_is_refused(self, key, value, message):
        doc = models.model_to_dict(manual_linear([1.0, -2.0, 0.5]))
        doc[key] = value
        with pytest.raises(SchemaError, match=re.escape(message)):
            models.model_from_dict(doc)

    def test_version_guard(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format_version": 999, "spec": {"kind": "linear"}}))
        with pytest.raises(SchemaError, match="version"):
            models.load_model(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        p = manual_linear([1.0, -2.0, 0.5])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(models.model_to_dict(p)), encoding="utf-8-sig")
        X = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(models.load_model(path).predict(X), p.predict(X))
