import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floodpave import lime, models
from floodpave.dataset import DataTable, FEATURE_COLUMNS
from floodpave.lime import (
    FeatureStats,
    LimeConfig,
    condition_label,
    fit_local_surrogate,
    kernel_weight,
    perturb_neighborhood,
    training_stats,
)

from conftest import manual_linear

FEATS = list(FEATURE_COLUMNS)


def toy_table(n=300, seed=0):
    rng = np.random.default_rng(seed)
    vals = np.column_stack(
        [
            rng.normal(50, 10, size=n),
            rng.normal(0, 2, size=n),
            (rng.random(size=n) < 0.3).astype(float),
        ]
    )
    keys = tuple(("R", str(i), 2000) for i in range(n))
    return DataTable(("u", "v", "flag"), vals, {}, keys)


class TestKernel:
    def test_reference_points(self):
        sigma = 1.7
        assert kernel_weight(0.0, sigma) == pytest.approx(1.0, abs=1e-12)
        assert kernel_weight(sigma, sigma) == pytest.approx(math.exp(-1), abs=1e-12)
        assert kernel_weight(2 * sigma, sigma) == pytest.approx(math.exp(-4), abs=1e-12)

    def test_rejects_nonpositive_sigma(self):
        for sigma in (0.0, -1.0):
            with pytest.raises(ValueError):
                kernel_weight(1.0, sigma)

    @settings(max_examples=40, deadline=None)
    @given(
        d1=st.floats(min_value=0, max_value=20),
        gap=st.floats(min_value=1e-3, max_value=10),
        sigma=st.floats(min_value=0.05, max_value=8),
    )
    def test_strictly_decreasing(self, d1, gap, sigma):
        # stay clear of float underflow at either end, where exp(-d^2/s^2)
        # flushes to 0.0 or d^2 itself flushes to 0
        assume((d1 + gap) / sigma < 25)
        assert kernel_weight(d1 + gap, sigma) < kernel_weight(d1, sigma)
        if d1 / sigma > 1e-7:
            assert kernel_weight(d1, sigma) < 1.0

    def test_vectorized(self):
        out = kernel_weight(np.array([0.0, 1.0]), 1.0)
        assert out[0] == 1.0 and out[1] == pytest.approx(math.exp(-1))


class TestPerturbation:
    def test_first_sample_is_x(self):
        table = toy_table()
        stats = training_stats(table, ["u", "v", "flag"], 4)
        x = table.values[0]
        cfg = LimeConfig(n_samples=100, seed=1)
        samples, interp, dist = perturb_neighborhood(x, stats, cfg, np.random.default_rng(1))
        assert np.array_equal(samples[0], x)
        assert dist[0] == 0.0
        assert np.all(interp[0] == 1.0)

    def test_zero_variance_feature_held_constant(self, caplog):
        vals = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
        table = DataTable(("c", "u"), vals, {}, tuple(("R", str(i), 2000) for i in range(50)))
        stats = training_stats(table, ["c", "u"], 4)
        cfg = LimeConfig(n_samples=64, seed=0)
        with caplog.at_level("WARNING"):
            samples, interp, _ = perturb_neighborhood(
                np.array([7.0, 3.0]), stats, cfg, np.random.default_rng(0)
            )
        assert np.all(samples[:, 0] == 7.0)
        assert np.all(interp[:, 0] == 1.0)
        assert any("zero training std" in r.message for r in caplog.records)

    def test_categorical_resampled_from_frequencies(self):
        table = toy_table(n=2000, seed=3)
        stats = training_stats(table, ["u", "v", "flag"], 4)
        cfg = LimeConfig(n_samples=4000, seed=3)
        samples, interp, _ = perturb_neighborhood(
            table.values[0], stats, cfg, np.random.default_rng(3)
        )
        rate = float(np.mean(samples[1:, 2]))
        assert 0.25 < rate < 0.35  # close to the training 0.3
        assert set(np.unique(samples[:, 2]).tolist()) <= {0.0, 1.0}

    def test_seeded_runs_are_byte_identical(self):
        table = toy_table()
        stats = training_stats(table, ["u", "v", "flag"], 4)
        cfg = LimeConfig(n_samples=500, seed=9)
        a = perturb_neighborhood(table.values[2], stats, cfg, np.random.default_rng(9))
        b = perturb_neighborhood(table.values[2], stats, cfg, np.random.default_rng(9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_distance_only_over_continuous_dims(self):
        table = toy_table()
        stats = training_stats(table, ["u", "v", "flag"], 4)
        cfg = LimeConfig(n_samples=50, seed=4)
        x = table.values[0]
        samples, _, dist = perturb_neighborhood(x, stats, cfg, np.random.default_rng(4))
        expect = np.sqrt(
            ((samples[:, 0] - x[0]) / stats[0].std) ** 2
            + ((samples[:, 1] - x[1]) / stats[1].std) ** 2
        )
        assert np.allclose(dist, expect, atol=1e-12)


class TestConditionLabels:
    def test_middle_bin_label(self):
        fs = FeatureStats(name="TX_IRI_AVERAGE_SCORE", kind="continuous", mean=0, std=1,
                          bin_edges=(57.0, 90.0, 100.0))
        assert condition_label(fs, 95.0) == "90.00 < TX_IRI_AVERAGE_SCORE <= 100.00"

    def test_outer_bin_labels(self):
        fs = FeatureStats(name="u", kind="continuous", mean=0, std=1, bin_edges=(1.0, 2.0))
        assert condition_label(fs, 0.5) == "u <= 1.00"
        assert condition_label(fs, 9.0) == "u > 2.00"

    def test_binary_labels(self):
        fs = FeatureStats(name="Flood", kind="categorical", categories=(0.0, 1.0),
                          frequencies=(0.95, 0.05))
        assert condition_label(fs, 1.0) == "Flood > 0.00"
        assert condition_label(fs, 0.0) == "Flood <= 0.00"

    def test_encoded_label(self):
        fs = FeatureStats(name="CLIMATE_ZONES", kind="categorical", categories=(0.0, 1.0, 2.0),
                          frequencies=(0.5, 0.3, 0.2), labels=("west", "east", "north"))
        assert condition_label(fs, 1.0) == "CLIMATE_ZONES = east"


class TestSurrogate:
    def test_linear_recovery_undiscretized(self):
        rng = np.random.default_rng(30)
        vals = np.column_stack([rng.normal(10, 3, 400), rng.normal(-5, 2, 400)])
        table = DataTable(("p", "q"), vals, {}, tuple(("R", str(i), 2000) for i in range(400)))
        w = np.array([2.5, -1.25])
        f = manual_linear(w, intercept=4.0, names=("p", "q"))
        cfg = LimeConfig(n_samples=10000, max_features_K=2, discretize=False, seed=8)
        stats = training_stats(table, ["p", "q"], cfg.n_bins)
        exp = fit_local_surrogate(f, vals[0], table, cfg, stats=stats)
        recovered = {c.feature: c.weight / dict(p=stats[0], q=stats[1])[c.feature].std
                     for c in exp.contributions}
        for j, name in enumerate(("p", "q")):
            assert abs(recovered[name] - w[j]) / abs(w[j]) < 0.01

    def test_constant_model(self):
        table = toy_table()
        class Const:
            feature_names = ("u", "v", "flag")
            def predict(self, X):
                return np.full(X.shape[0], 42.0)
        cfg = LimeConfig(n_samples=200, seed=2)
        exp = fit_local_surrogate(Const(), table.values[0], table, cfg)
        assert exp.intercept == pytest.approx(42.0, abs=1e-9)
        assert math.isnan(exp.local_fit_r2)
        assert all(abs(c.weight) < 1e-9 for c in exp.contributions)

    def test_flood_bump_reading(self, flood_bump_split):
        train = flood_bump_split["train"]
        X = train.matrix(FEATS)
        flood_idx = FEATS.index("Flood")
        x = X[np.nonzero(X[:, flood_idx] == 1.0)[0][0]]

        class FloodBump:
            feature_names = tuple(FEATS)
            def predict(self, Z):
                return 100.0 + 5.0 * Z[:, flood_idx]

        cfg = LimeConfig(n_samples=5000, seed=5)
        exp = fit_local_surrogate(FloodBump(), x, train, cfg)
        weights = {c.feature: c.weight for c in exp.contributions}
        conditions = {c.feature: c.condition for c in exp.contributions}
        assert weights["Flood"] == pytest.approx(5.0, abs=0.5)
        assert conditions["Flood"] == "Flood > 0.00"
        assert exp.contributions[0].direction in ("increases IRI", "decreases IRI")

    def test_contribution_cap_respected(self, flood_bump_split, flood_bump_boosting):
        train = flood_bump_split["train"]
        x = train.matrix(FEATS)[0]
        cfg = LimeConfig(n_samples=1000, max_features_K=3, seed=6)
        exp = fit_local_surrogate(flood_bump_boosting, x, train, cfg)
        assert len(exp.contributions) <= 3

    def test_weighted_objective_beats_zero_model(self, flood_bump_split, flood_bump_boosting):
        train = flood_bump_split["train"]
        X = train.matrix(FEATS)
        cfg = LimeConfig(n_samples=800, seed=7)
        stats = training_stats(train, FEATS, cfg.n_bins)
        for i in (0, 11, 42):
            x = X[i]
            rng = np.random.default_rng(cfg.seed)
            samples, interp, dist = perturb_neighborhood(x, stats, cfg, rng)
            outputs = flood_bump_boosting.predict(samples)
            weights = kernel_weight(dist, cfg.sigma_for(len(FEATS)))
            exp = fit_local_surrogate(flood_bump_boosting, x, train, cfg, stats=stats)
            idx = {name: j for j, name in enumerate(FEATS)}
            g = np.full(len(outputs), exp.intercept)
            for c in exp.contributions:
                g += c.weight * interp[:, idx[c.feature]]
            assert np.sum(weights * (outputs - g) ** 2) <= np.sum(weights * outputs**2)

    def test_deterministic_given_seed(self, flood_bump_split, flood_bump_linear):
        train = flood_bump_split["train"]
        x = train.matrix(FEATS)[5]
        cfg = LimeConfig(n_samples=600, seed=13)
        a = fit_local_surrogate(flood_bump_linear, x, train, cfg, instance_key=("a", "b", 1))
        b = fit_local_surrogate(flood_bump_linear, x, train, cfg, instance_key=("a", "b", 1))
        assert a == b

    def test_predicted_value_is_model_output_at_x(self, flood_bump_split, flood_bump_linear):
        train = flood_bump_split["train"]
        x = train.matrix(FEATS)[3]
        cfg = LimeConfig(n_samples=300, seed=1)
        exp = fit_local_surrogate(flood_bump_linear, x, train, cfg)
        assert exp.predicted_value == pytest.approx(
            float(flood_bump_linear.predict(x[None])[0]), abs=1e-10
        )


def reference_select(interp, outputs, sqrt_w, usable, k, beta, sse):
    """Greedy forward selection by refitting every remaining candidate each round.

    Also returns whether some round's two best candidate SSEs lay within
    1e-9 relative, where rounding may order them either way.
    """
    ss_tot, selected, near_tie = sse, [], False
    while len(selected) < k:
        fits = [
            (lime._weighted_lstsq([interp[:, selected + [j]]], outputs, sqrt_w), j)
            for j in usable
            if j not in selected
        ]
        if not fits:
            break
        best = None
        for (cand_beta, cand_sse), j in fits:
            if best is None or cand_sse < best[0]:
                best = (cand_sse, j, cand_beta)
        sses = sorted(cand_sse for (_, cand_sse), _ in fits)
        if len(sses) > 1 and sses[1] - sses[0] <= 1e-9 * abs(sses[1]):
            near_tie = True
        cand_sse, j, cand_beta = best
        if sse - cand_sse <= lime._SELECTION_EPS * max(ss_tot, 1.0):
            break
        selected.append(j)
        beta, sse = cand_beta, cand_sse
    return selected, beta, sse, near_tie


def neighbourhood(seed, n, m, binary=True, noise=0.5):
    rng = np.random.default_rng(seed)
    if binary:
        interp = (rng.random((n, m)) < rng.uniform(0.1, 0.9, size=m)).astype(float)
    else:
        interp = rng.normal(size=(n, m))
    outputs = interp @ rng.normal(size=m) * rng.uniform(0.1, 10) + noise * rng.normal(size=n) + 50.0
    weights = np.exp(-rng.uniform(0, 3, size=n) ** 2)
    return interp, outputs, weights


def both_selections(interp, outputs, weights, k):
    sqrt_w = np.sqrt(weights)
    w_mean = float(np.sum(weights * outputs) / np.sum(weights))
    ss_tot = float(np.sum(weights * (outputs - w_mean) ** 2))
    wsum = np.sum(weights)
    usable = [
        j for j in range(interp.shape[1])
        if float(np.sum(weights * (interp[:, j] - np.sum(weights * interp[:, j]) / wsum) ** 2)) > 0.0
    ]
    args = (interp, outputs, sqrt_w, usable, k, np.array([w_mean]), ss_tot)
    return lime._select(*args), reference_select(*args)


def assert_same_selection(new, ref):
    assert new[0] == ref[0]
    assert np.array_equal(new[1], ref[1])
    assert new[2] == ref[2]


class TestSelection:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(20, 400),
        m=st.integers(1, 9),
        k=st.integers(1, 6),
        binary=st.booleans(),
        noise=st.sampled_from([0.0, 0.01, 0.5, 5.0]),
    )
    def test_matches_brute_force(self, seed, n, m, k, binary, noise):
        new, ref = both_selections(*neighbourhood(seed, n, m, binary, noise), k)
        assume(not ref[3])
        assert_same_selection(new, ref)

    @pytest.mark.parametrize("kind", ["duplicate", "complement", "scaled"])
    def test_collinear_pair(self, kind):
        interp, outputs, weights = neighbourhood(9, 300, 5, binary=kind != "scaled")
        interp[:, 3] = {"duplicate": interp[:, 0], "complement": 1.0 - interp[:, 0],
                        "scaled": 2.0 * interp[:, 0]}[kind]
        outputs = outputs + 20.0 * interp[:, 0]  # column 0 is picked first
        new, ref = both_selections(interp, outputs, weights, 5)
        # one twin is picked first and the other never; equal twins pick the first
        assert new[0][0] in (0, 3) and len({0, 3} & set(new[0])) == 1
        if kind == "duplicate":
            assert_same_selection(new, ref)
        else:  # the twins' SSEs differ by rounding alone, so either may come first
            assert new[0][1:] == ref[0][1:]
            assert new[2] == pytest.approx(ref[2], rel=1e-9)

    def test_matches_brute_force_on_a_model(self, flood_bump_split, flood_bump_boosting, monkeypatch):
        train = flood_bump_split["train"]
        X = train.matrix(FEATS)
        cfg = LimeConfig(n_samples=2000, seed=3)
        stats = training_stats(train, FEATS, cfg.n_bins)
        got = [fit_local_surrogate(flood_bump_boosting, X[i], train, cfg, stats=stats) for i in range(0, 400, 40)]
        monkeypatch.setattr(lime, "_select", lambda *a: reference_select(*a)[:3])
        want = [fit_local_surrogate(flood_bump_boosting, X[i], train, cfg, stats=stats) for i in range(0, 400, 40)]
        assert [e.to_dict() for e in got] == [e.to_dict() for e in want]

    def test_no_usable_column(self, caplog):
        vals = np.column_stack([np.full(50, 3.0), np.ones(50)])
        table = DataTable(("c", "flag"), vals, {}, tuple(("R", str(i), 2000) for i in range(50)))
        exp = fit_local_surrogate(manual_linear([2.0, 1.0], 1.0, names=("c", "flag")), vals[0], table,
                                  LimeConfig(n_samples=100, seed=1))
        assert exp.contributions == ()
        assert exp.intercept == pytest.approx(8.0)
        assert "intercept-only" in caplog.text


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LimeConfig(n_samples=5)
        with pytest.raises(ValueError):
            LimeConfig(kernel_width_sigma=0.0)
        with pytest.raises(ValueError):
            LimeConfig(n_bins=1)

    def test_default_sigma_scales_with_features(self):
        cfg = LimeConfig()
        assert cfg.sigma_for(9) == pytest.approx(0.75 * math.sqrt(9))
        assert LimeConfig(kernel_width_sigma=2.0).sigma_for(9) == 2.0
