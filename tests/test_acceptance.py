"""End-to-end acceptance checks at their stated tolerances.

Each test prints one `[ACCEPTANCE] <name>: PASS|FAIL` line; run with
``pytest tests/test_acceptance.py -s`` to watch them stream.
"""

import hashlib
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from floodpave import deterioration, lime, models, shapley, synth
from floodpave.cli import EXIT_OK, main
from floodpave.dataset import (
    FEATURE_COLUMNS,
    TARGET_COLUMN,
    filter_complete,
    train_test_split,
)
from floodpave.floods import apply_maintenance_exclusion, extract_windows, tag_flooded
from floodpave.lime import LimeConfig, fit_local_surrogate, kernel_weight, training_stats
from floodpave.shapley import exact_shapley

from conftest import make_flood_bump_data, manual_linear

FEATS = list(FEATURE_COLUMNS)
FEATS8 = [c for c in FEATS if c != "TX_RURAL_URBAN_CODE"]  # 8-feature design
FLOOD_IDX8 = FEATS8.index("Flood")


class _outcome:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"[ACCEPTANCE] {self.name}: {'PASS' if exc_type is None else 'FAIL'}")
        return False


@pytest.fixture(scope="module")
def synthetic8():
    """8-feature synthetic dataset with a fitted boosting model."""
    gt = synth.GroundTruth(
        weights={"TX_TRUCK_AADT_PCT": 0.1},
        flood_bump=5.0,
        drift=2.0,
        noise_std=2.0,
        interactions=(("TX_CONDITION_SCORE", "TX_IRI_AVERAGE_SCORE", 6.0),),
    )
    spec = synth.SynthSpec(n_sections=300, flood_fraction=0.3, ground_truth=gt, seed=42)
    table, _, _ = synth.generate(spec)
    complete = filter_complete(table, FEATS + [TARGET_COLUMN])
    train, _ = train_test_split(complete, 0.2, 42)
    X = train.matrix(FEATS8)
    y = train.col(TARGET_COLUMN)
    boost = models.fit(
        models.ModelSpec("gradient_boosting", {"n_estimators": 80, "max_depth": 3}, 42),
        X,
        y,
        feature_names=FEATS8,
    )
    background = shapley.draw_background(train, FEATS8, 100, 0)
    return {"train": train, "X": X, "y": y, "boost": boost, "background": background}


def test_shapley_efficiency(synthetic8):
    with _outcome("shapley-efficiency (100 instances, exact, <1e-8, <60s)"):
        X, boost, bg = synthetic8["X"], synthetic8["boost"], synthetic8["background"]
        rng = np.random.default_rng(0)
        idx = rng.choice(X.shape[0], size=100, replace=False)
        start = time.time()
        values = shapley.shapley_values(boost, X[idx], bg)
        elapsed = time.time() - start
        fx = boost.predict(X[idx])
        gaps = np.abs(values.base_value + values.phi.sum(axis=1) - fx)
        assert np.max(gaps) < 1e-8
        assert elapsed < 60.0


def test_shapley_linear_oracle():
    with _outcome("shapley-linear-oracle (phi == w*(x - mean bg), <1e-8)"):
        w = np.array([3.0, -1.5, 0.0, 2.2, 0.7, -0.3, 1.1, 4.0])
        predictor = manual_linear(w, intercept=12.0)
        rng = np.random.default_rng(1)
        background = rng.normal(size=(60, 8))
        for _ in range(10):
            x = rng.normal(size=8)
            phi = exact_shapley(predictor, x, background)
            expected = w * (x - background.mean(axis=0))
            assert np.max(np.abs(phi - expected)) < 1e-8


def test_shapley_dummy_and_symmetry():
    with _outcome("shapley-axioms (dummy exactly 0; symmetry <1e-10)"):
        rng = np.random.default_rng(2)
        dummy = manual_linear([1.0, 0.0, -2.0])
        bg = rng.normal(size=(40, 3))
        phi = exact_shapley(dummy, rng.normal(size=3), bg)
        assert phi[1] == 0.0

        sym = manual_linear([1.0, 1.0])
        col = rng.normal(size=40)
        bg2 = np.column_stack([col, col])
        phi2 = exact_shapley(sym, np.array([3.3, 3.3]), bg2)
        assert abs(phi2[0] - phi2[1]) < 1e-10


def test_hand_enumerated_two_feature_case():
    with _outcome("shapley-hand-case (f=x1*x2, bg=(0,0), x=(1,1) -> (0.5, 0.5))"):

        class Product:
            feature_names = ("a", "b")

            def predict(self, Z):
                return Z[:, 0] * Z[:, 1]

        phi = exact_shapley(Product(), np.array([1.0, 1.0]), np.zeros((1, 2)))
        assert phi.tolist() == [0.5, 0.5]


def test_lime_kernel_reference_values():
    with _outcome("lime-kernel (D in {0, s, 2s} -> {1, 1/e, 1/e^4}, <1e-12)"):
        for sigma in (0.25, 1.0, 2.25):
            assert abs(kernel_weight(0.0, sigma) - 1.0) < 1e-12
            assert abs(kernel_weight(sigma, sigma) - math.exp(-1)) < 1e-12
            assert abs(kernel_weight(2 * sigma, sigma) - math.exp(-4)) < 1e-12


def test_lime_linear_recovery():
    with _outcome("lime-linear-recovery (undiscretized, 1% at n=10,000)"):
        gt = synth.GroundTruth(
            weights={
                "TX_TRUCK_AADT_PCT": 0.4,
                "TX_CONDITION_SCORE": -0.2,
                "TX_CURRENT_18KIP_MEAS": 0.002,
            },
            flood_bump=5.0,
            drift=2.0,
            noise_std=0.0,
        )
        spec = synth.SynthSpec(n_sections=200, flood_fraction=0.2, ground_truth=gt, seed=9)
        table, _, _ = synth.generate(spec)
        complete = filter_complete(table, FEATS + [TARGET_COLUMN])
        X = complete.matrix(FEATS)
        y = complete.col(TARGET_COLUMN)
        linear = models.fit(models.ModelSpec("linear", {}, 0), X, y, feature_names=FEATS)
        w_true, _ = linear.raw_coefficients()

        cfg = LimeConfig(n_samples=10000, max_features_K=len(FEATS), discretize=False, seed=3)
        stats = training_stats(complete, FEATS)
        explanation = fit_local_surrogate(linear, X[10], complete, cfg, stats=stats)
        std = {s.name: s.std for s in stats}
        kind = {s.name: s.kind for s in stats}
        checked = 0
        for c in explanation.contributions:
            j = FEATS.index(c.feature)
            if kind[c.feature] != "continuous" or abs(w_true[j]) < 1e-9:
                continue
            recovered = c.weight / std[c.feature]
            assert abs(recovered - w_true[j]) / abs(w_true[j]) < 0.01
            checked += 1
        assert checked >= 3


def test_lime_flood_reading():
    with _outcome("lime-flood-reading (bump=5, zero noise -> 5.0 +/- 0.5)"):
        table, _, _ = make_flood_bump_data(n_sections=400, seed=21)
        complete = filter_complete(table, FEATS + [TARGET_COLUMN])
        train, _ = train_test_split(complete, 0.2, 21)
        X = train.matrix(FEATS)
        y = train.col(TARGET_COLUMN)
        flood_idx = FEATS.index("Flood")
        x = X[np.nonzero(X[:, flood_idx] == 1.0)[0][0]]

        # zero-noise data is exactly linear, so the fitted model carries
        # the configured bump as its Flood coefficient
        linear = models.fit(models.ModelSpec("linear", {}, 21), X, y, feature_names=FEATS)
        cfg = LimeConfig(n_samples=10000, max_features_K=len(FEATS), discretize=False, seed=5)
        explanation = fit_local_surrogate(linear, x, train, cfg)
        weights = {c.feature: c.weight for c in explanation.contributions}
        assert weights["Flood"] == pytest.approx(5.0, abs=0.5)

        # the pure flood-bump oracle reads the same under discretization
        class FloodBump:
            feature_names = tuple(FEATS)

            def predict(self, Z):
                return 100.0 + 5.0 * Z[:, flood_idx]

        cfg2 = LimeConfig(n_samples=5000, seed=5)
        explanation2 = fit_local_surrogate(FloodBump(), x, train, cfg2)
        weights2 = {c.feature: c.weight for c in explanation2.contributions}
        assert weights2["Flood"] == pytest.approx(5.0, abs=0.5)


def test_solver_oracles():
    with _outcome("solver-oracles (ridge <1e-8; lasso <1e-6; boosting monotone 500)"):
        rng = np.random.default_rng(5)

        # ridge vs a library-free normal-equation solve
        def eliminate(A, b):
            A = A.astype(float).copy()
            b = b.astype(float).copy()
            m = len(b)
            for col in range(m):
                pivot = col + int(np.argmax(np.abs(A[col:, col])))
                A[[col, pivot]] = A[[pivot, col]]
                b[[col, pivot]] = b[[pivot, col]]
                for row in range(col + 1, m):
                    f = A[row, col] / A[col, col]
                    A[row, col:] -= f * A[col, col:]
                    b[row] -= f * b[col]
            x = np.zeros(m)
            for row in range(m - 1, -1, -1):
                x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
            return x

        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        alpha = 2.5
        w_impl = models.ridge_normal_equations(X, y, alpha)
        w_hand = eliminate(X.T @ X + alpha * np.eye(5), X.T @ y)
        assert np.max(np.abs(w_impl - w_hand)) < 1e-8

        # lasso on an orthonormal design equals closed-form soft-thresholding
        Q, _ = np.linalg.qr(rng.normal(size=(40, 6)))
        yq = rng.normal(size=40)
        w_ols = Q.T @ yq
        for a in (0.1, 0.5, 2.0):
            w_cd, _ = models.lasso_coordinate_descent(Q, yq, a)
            w_soft = np.sign(w_ols) * np.maximum(np.abs(w_ols) - a, 0.0)
            assert np.max(np.abs(w_cd - w_soft)) < 1e-6

        # boosting training MSE never increases across 500 full-sample stages
        Xb = rng.normal(size=(400, 6))
        yb = Xb[:, 0] * 2 + np.sin(3 * Xb[:, 1]) + rng.normal(scale=0.3, size=400)
        boost = models.fit(
            models.ModelSpec(
                "gradient_boosting",
                {"n_estimators": 500, "max_depth": 3, "learning_rate": 0.1, "subsample": 1.0},
                3,
            ),
            Xb,
            yb,
        )
        curve = boost.staged_train_mse(Xb, yb)
        assert len(curve) == 501
        assert np.all(np.diff(curve) <= 1e-12)


def test_metrics_fixture():
    with _outcome("metrics-fixture (MSE 4/3, MAE 2/3, R2 -1, <1e-9)"):
        identity = manual_linear([1.0])
        X = np.array([[1.0], [2.0], [5.0]])
        y = np.array([1.0, 2.0, 3.0])
        m = models.evaluate(identity, X, y)
        assert m.mse == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert m.mae == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert m.r2 == pytest.approx(-1.0, abs=1e-9)


def test_cv_partition_property():
    with _outcome("cv-partition (n in {10, 103, 10022}, k=5)"):
        for n in (10, 103, 10022):
            folds, assignments = models.kfold_indices(n, 5, seed=13)
            merged = np.concatenate(folds)
            assert len(merged) == n
            assert len(np.unique(merged)) == n
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            assert len(assignments) == n


def test_pipeline_construction(tmp_path):
    with _outcome("pipeline-construction (mean diff 5.00 +/- 0.01; deltas exact)"):
        table, events, gt = make_flood_bump_data(n_sections=120, seed=11)
        records = tmp_path / "records.csv"
        events_path = tmp_path / "events.csv"
        synth.write_dataset(table, events, gt, records, events_path, tmp_path / "t.json")

        config = {
            "records_csv": str(records),
            "events_csv": str(events_path),
            "out_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["--config", str(cfg_path), "--quiet", "flood-analysis"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "flood_summary.json").read_text())
        assert report["flooded_vs_nonflooded"]["mean_diff"] == pytest.approx(5.0, abs=0.01)

        # module-level: mean delta is exactly bump + 2 years of drift
        tagged, _ = tag_flooded(table, events)
        (windows, _), _ = extract_windows(tagged, events)
        summary = deterioration.pre_post_deltas(apply_maintenance_exclusion(windows))
        assert summary.mean == pytest.approx(gt.flood_bump + 2 * gt.drift, abs=1e-9)


def test_model_ordering_property():
    with _outcome("model-ordering (GBR <= linear test MSE, >=9/10 seeds, <5 min)"):
        start = time.time()
        wins = 0
        for seed in range(10):
            gt = synth.GroundTruth(
                weights={"TX_TRUCK_AADT_PCT": 0.1},
                flood_bump=5.0,
                drift=2.0,
                noise_std=2.0,
                interactions=(
                    ("TX_CONDITION_SCORE", "TX_IRI_AVERAGE_SCORE", 6.0),
                    ("TX_TRUCK_AADT_PCT", "TX_CURRENT_18KIP_MEAS", 4.0),
                ),
            )
            spec = synth.SynthSpec(
                n_sections=1250, flood_fraction=0.05, ground_truth=gt, seed=100 + seed
            )
            table, _, _ = synth.generate(spec)
            complete = filter_complete(table, FEATS + [TARGET_COLUMN])
            assert complete.n_rows == 10000
            train, test = train_test_split(complete, 0.2, seed)
            X_train, y_train = train.matrix(FEATS), train.col(TARGET_COLUMN)
            X_test, y_test = test.matrix(FEATS), test.col(TARGET_COLUMN)
            linear = models.fit(models.ModelSpec("linear", {}, seed), X_train, y_train)
            boost = models.fit(
                models.ModelSpec(
                    "gradient_boosting",
                    {"learning_rate": 0.1, "n_estimators": 300, "max_depth": 3, "subsample": 1.0},
                    seed,
                ),
                X_train,
                y_train,
            )
            mse_linear = models.evaluate(linear, X_test, y_test).mse
            mse_boost = models.evaluate(boost, X_test, y_test).mse
            wins += mse_boost <= mse_linear
        elapsed = time.time() - start
        assert wins >= 9
        assert elapsed < 300.0


def test_command_determinism(tmp_path):
    with _outcome("determinism (all commands byte-identical on re-run)"):
        grids = {
            "gradient_boosting": {
                "learning_rate": [0.1], "n_estimators": [40], "max_depth": [3], "subsample": [1.0]
            }
        }
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / f"out_{run}"
            data = tmp_path / f"data_{run}"
            base = {
                "out_dir": str(data),
                "seed": 17,
                "synth": {"n_sections": 60, "flood_fraction": 0.2,
                          "ground_truth": {"noise_std": 1.0}},
            }
            cfg = tmp_path / f"synth_{run}.json"
            cfg.write_text(json.dumps(base))
            assert main(["--config", str(cfg), "--quiet", "synth-gen"]) == EXIT_OK

            stage = {
                "records_csv": str(data / "records.csv"),
                "events_csv": str(data / "events.csv"),
                "out_dir": str(out),
                "seed": 17,
                "grids": grids,
                "model_kinds": ["linear", "gradient_boosting"],
            }
            cfg2 = tmp_path / f"run_{run}.json"
            cfg2.write_text(json.dumps(stage))
            for command in ("describe", "flood-analysis", "train"):
                assert main(["--config", str(cfg2), "--quiet", command]) == EXIT_OK
            stage["explain"] = {
                "model_path": str(out / "model_gradient_boosting.json"),
                "instances": "sample:2",
            }
            stage["shap"] = {"mode": "exact", "background_size": 30}
            stage["lime"] = {"n_samples": 400}
            cfg3 = tmp_path / f"explain_{run}.json"
            cfg3.write_text(json.dumps(stage))
            assert main(["--config", str(cfg3), "--quiet", "explain"]) == EXIT_OK

            digest = {}
            for root in (data, out):
                for name in sorted(os.listdir(root)):
                    with open(os.path.join(root, name), "rb") as fh:
                        digest[name] = hashlib.sha256(fh.read()).hexdigest()
            hashes.append(digest)
        assert hashes[0] == hashes[1]


def test_shap_global_ranking(synthetic8):
    with _outcome("shap-global-ranking (current IRI ranked first)"):
        X, boost, bg = synthetic8["X"], synthetic8["boost"], synthetic8["background"]
        train = synthetic8["train"]
        rng = np.random.default_rng(3)
        idx = np.sort(rng.choice(X.shape[0], size=60, replace=False))
        values = shapley.shapley_values(boost, X[idx], bg)
        explained = train.subset(idx)
        importance = shapley.summarize(values, explained)
        assert importance.ranking[0] == "TX_IRI_AVERAGE_SCORE"
