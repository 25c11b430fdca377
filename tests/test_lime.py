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
        stats = training_stats(table, ["u", "v", "flag"])
        x = table.values[0]
        cfg = LimeConfig(n_samples=100, seed=1)
        samples, interp, dist = perturb_neighborhood(x, stats, cfg, np.random.default_rng(1))
        assert np.array_equal(samples[0], x)
        assert dist[0] == 0.0
        assert np.all(interp[0] == 1.0)

    def test_training_stats_equal_numpy_quantiles_and_counts(self):
        # Signed zeros and repeated values, where a quantile written out
        # could part from numpy's.
        rng = np.random.default_rng(5)
        u = rng.choice([-0.0, 0.0, 1.5, 2.0, 7.25], size=301)
        v = rng.normal(size=301).round(1)
        flag = (rng.random(301) < 0.3).astype(float)
        keys = tuple(("R", str(i), 2000) for i in range(301))
        table = DataTable(("u", "v", "flag"), np.column_stack([u, v, flag]), {}, keys)
        stats = training_stats(table, ["u", "v", "flag"])
        for fs, col in zip(stats[:2], (u, v)):
            want = np.quantile(col, [0.25, 0.5, 0.75])
            assert np.array(fs.bin_edges).tobytes() == want.tobytes()
        distinct = np.unique(flag)
        counts = np.array([(flag == c).sum() for c in distinct], dtype=float)
        assert stats[2].categories == tuple(distinct.tolist())
        assert stats[2].frequencies == tuple(counts / counts.sum())

    def test_zero_variance_feature_held_constant(self, caplog):
        # A constant column is a one-value category: it samples its training value.
        vals = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
        table = DataTable(("c", "u"), vals, {}, tuple(("R", str(i), 2000) for i in range(50)))
        stats = training_stats(table, ["c", "u"])
        assert (stats[0].kind, stats[0].categories, stats[0].frequencies) == ("categorical", (7.0,), (1.0,))
        cfg = LimeConfig(n_samples=64, seed=0)
        with caplog.at_level("WARNING"):
            samples, interp, _ = perturb_neighborhood(
                np.array([7.0, 3.0]), stats, cfg, np.random.default_rng(0)
            )
        assert np.all(samples[:, 0] == 7.0)
        assert np.array_equal(interp[:, 0], (samples[:, 0] == 7.0).astype(float))
        assert not caplog.records

    def test_constant_feature_off_its_training_value(self):
        # An instance off the training value keeps it in row 0 alone.
        vals = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
        table = DataTable(("c", "u"), vals, {}, tuple(("R", str(i), 2000) for i in range(50)))
        stats = training_stats(table, ["c", "u"])
        for discretize in (True, False):
            cfg = LimeConfig(n_samples=64, discretize=discretize, seed=0)
            samples, interp, _ = perturb_neighborhood(np.array([9.0, 3.0]), stats, cfg, np.random.default_rng(0))
            assert samples[0, 0] == 9.0 and np.all(samples[1:, 0] == 7.0)
            assert interp[0, 0] == 1.0 and np.all(interp[1:, 0] == 0.0)

    def test_one_value_column_is_categorical_however_its_mean_rounds(self):
        col = np.full(7130, 17.3)
        assert np.std(col) > 0.0  # the mean rounds off 17.3
        table = DataTable(("c",), col[:, None], {}, tuple(("R", str(i), 2000) for i in range(len(col))))
        [fs] = training_stats(table, ["c"])
        assert (fs.kind, fs.categories, fs.frequencies) == ("categorical", (17.3,), (1.0,))

    def test_categorical_resampled_from_frequencies(self):
        table = toy_table(n=2000, seed=3)
        stats = training_stats(table, ["u", "v", "flag"])
        cfg = LimeConfig(n_samples=4000, seed=3)
        samples, interp, _ = perturb_neighborhood(
            table.values[0], stats, cfg, np.random.default_rng(3)
        )
        rate = float(np.mean(samples[1:, 2]))
        assert 0.25 < rate < 0.35  # close to the training 0.3
        assert set(np.unique(samples[:, 2]).tolist()) <= {0.0, 1.0}

    def test_seeded_runs_are_byte_identical(self):
        table = toy_table()
        stats = training_stats(table, ["u", "v", "flag"])
        cfg = LimeConfig(n_samples=500, seed=9)
        a = perturb_neighborhood(table.values[2], stats, cfg, np.random.default_rng(9))
        b = perturb_neighborhood(table.values[2], stats, cfg, np.random.default_rng(9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_distance_only_over_continuous_dims(self):
        table = toy_table()
        stats = training_stats(table, ["u", "v", "flag"])
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
        stats = training_stats(table, ["p", "q"])
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
        stats = training_stats(train, FEATS)
        for i in (0, 11, 42):
            x = X[i]
            rng = np.random.default_rng(cfg.seed)
            samples, interp, dist = perturb_neighborhood(x, stats, cfg, rng)
            outputs = flood_bump_boosting.predict(samples)
            weights = kernel_weight(dist, 0.75 * math.sqrt(len(FEATS)))
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


def row_lstsq(columns, target, sqrt_w):
    """Weighted least squares of ``target`` on an intercept and ``columns``, from the rows; returns (beta, SSE)."""
    a = np.hstack([np.ones((len(target), 1)), columns]) * sqrt_w[:, None]
    b = target * sqrt_w
    beta = np.linalg.lstsq(a, b, rcond=None)[0]
    return beta, float(np.sum((b - a @ beta) ** 2))


def reference_select(interp, outputs, sqrt_w, k, ss_tot):
    """Greedy forward selection by refitting every remaining candidate each round.

    The candidates are the columns with positive weighted variance, that
    is, not constant over the rows of positive weight. Returns the
    selected columns, the last accepted fit's SSE, and whether some
    round's two best candidate SSEs lay within 1e-9 relative, where
    rounding may order them either way.
    """
    weighted = sqrt_w > 0
    usable = [j for j in range(interp.shape[1]) if np.ptp(interp[weighted, j]) > 0]
    selected, sse, near_tie = [], ss_tot, False
    while len(selected) < k:
        fits = [
            (row_lstsq(interp[:, selected + [j]], outputs, sqrt_w)[1], j)
            for j in usable
            if j not in selected
        ]
        if not fits:
            break
        cand_sse, j = min(fits, key=lambda fit: fit[0])  # the first on a tie
        sses = sorted(fit[0] for fit in fits)
        if len(sses) > 1 and sses[1] - sses[0] <= 1e-9 * abs(sses[1]):
            near_tie = True
        if sse - cand_sse <= lime._SELECTION_EPS * max(ss_tot, 1.0):
            break
        selected.append(j)
        sse = cand_sse
    return selected, sse, near_tie


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
    """``_select`` on the weighted moments and ``reference_select`` on the rows, over every column of ``interp``."""
    z = interp - np.average(interp, axis=0, weights=weights)
    y = outputs - np.average(outputs, weights=weights)
    ss_tot = float(weights @ y**2)
    gram, cross = (weights[:, None] * z).T @ z, (weights[:, None] * z).T @ y
    new = lime._select(gram, cross, weights @ interp**2, k, ss_tot)
    return new, reference_select(interp, outputs, np.sqrt(weights), k, ss_tot)


class TestSelection:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(20, 400),
        m=st.integers(1, 9),
        k=st.integers(1, 6),
        binary=st.booleans(),
        noise=st.sampled_from([0.0, 0.01, 0.5, 5.0]),
        constants=st.lists(st.tuples(st.integers(0, 11), st.sampled_from([0.0, 1.0, 0.37])), max_size=2),
    )
    def test_matches_brute_force(self, seed, n, m, k, binary, noise, constants):
        interp, outputs, weights = neighbourhood(seed, n, m, binary, noise)
        # exactly constant columns: collinear with the intercept, never selected
        for position, value in constants:
            interp = np.insert(interp, min(position, interp.shape[1]), value, axis=1)
        new, (selected, _, near_tie) = both_selections(interp, outputs, weights, k)
        assume(not near_tie)
        assert new == selected

    @pytest.mark.parametrize("kind", ["duplicate", "complement", "scaled"])
    def test_collinear_pair(self, kind):
        interp, outputs, weights = neighbourhood(9, 300, 5, binary=kind != "scaled")
        interp[:, 3] = {"duplicate": interp[:, 0], "complement": 1.0 - interp[:, 0],
                        "scaled": 2.0 * interp[:, 0]}[kind]
        outputs = outputs + 20.0 * interp[:, 0]  # column 0 is picked first
        new, (selected, sse, _) = both_selections(interp, outputs, weights, 5)
        # one twin is picked first and the other never; equal twins pick the first
        assert new[0] in (0, 3) and len({0, 3} & set(new)) == 1
        if kind == "duplicate":
            assert new == selected
        else:  # the twins' SSEs differ by rounding alone, so either may come first
            assert new[1:] == selected[1:]
            assert row_lstsq(interp[:, new], outputs, np.sqrt(weights))[1] == pytest.approx(sse, rel=1e-9)

    def test_matches_brute_force_on_a_model(self, flood_bump_split, flood_bump_boosting, monkeypatch):
        # Each explanation against the brute-force selection and a row
        # least-squares refit on the same neighbourhood rows.
        train = flood_bump_split["train"]
        X = train.matrix(FEATS)[0:400:40]
        cfg = LimeConfig(n_samples=2000, seed=3)
        neighbourhoods, selections = [], []
        surrogate, select = lime._surrogate, lime._select

        def spied_surrogate(*args):
            neighbourhoods.append([a.copy() for a in args[4:7]])  # interp, outputs, weights
            return surrogate(*args)

        def spied_select(*args):
            selections.append(select(*args))
            return selections[-1]

        monkeypatch.setattr(lime, "_surrogate", spied_surrogate)
        monkeypatch.setattr(lime, "_select", spied_select)
        keys = [("R", str(i), 2000) for i in range(len(X))]
        got = lime.fit_local_surrogates(flood_bump_boosting, X, keys, train, cfg)
        for exp, selected, (interp, outputs, weights) in zip(got, selections, neighbourhoods):
            w_mean = np.sum(weights * outputs) / np.sum(weights)
            ss_tot = float(np.sum(weights * (outputs - w_mean) ** 2))
            want, _, near_tie = reference_select(interp, outputs, np.sqrt(weights), cfg.max_features_K, ss_tot)
            assert not near_tie and selected == want
            beta, sse = row_lstsq(interp[:, want], outputs, np.sqrt(weights))
            assert exp.intercept == pytest.approx(beta[0], rel=1e-9)
            assert {c.feature: c.weight for c in exp.contributions} == pytest.approx(
                {FEATS[j]: b for j, b in zip(want, beta[1:])}, rel=1e-9
            )
            assert exp.local_fit_r2 == pytest.approx(1.0 - sse / ss_tot, abs=1e-12)
            assert exp.local_fit_r2 <= 1.0
        assert sum(len(s) for s in selections) > 2 * len(X)

    def test_one_least_squares_per_instance(self, flood_bump_split, flood_bump_boosting, monkeypatch):
        train = flood_bump_split["train"]
        X = train.matrix(FEATS)[:8]
        calls = {"select": 0, "solve": 0}
        select, solve = lime._select, np.linalg.solve

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        def no_lstsq(*args, **kwargs):
            raise AssertionError("a row least-squares fit was run")

        monkeypatch.setattr(lime, "_select", counted("select", select))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", solve))
        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        keys = [("R", str(i), 2000) for i in range(len(X))]
        explanations = lime.fit_local_surrogates(flood_bump_boosting, X, keys, train, LimeConfig(n_samples=1000, seed=4))
        # several features kept per instance, so several selection rounds
        assert sum(len(e.contributions) for e in explanations) > 2 * len(X)
        assert calls == {"select": len(X), "solve": len(X)}

    def test_no_usable_column(self, caplog):
        vals = np.column_stack([np.full(50, 3.0), np.ones(50)])
        table = DataTable(("c", "flag"), vals, {}, tuple(("R", str(i), 2000) for i in range(50)))
        exp = fit_local_surrogate(manual_linear([2.0, 1.0], 1.0, names=("c", "flag")), vals[0], table,
                                  LimeConfig(n_samples=100, seed=1))
        assert exp.contributions == ()
        assert exp.intercept == pytest.approx(8.0)
        assert "intercept-only" in caplog.text


def shared_neighbourhood_case():
    """A training table whose column "c" is constant, and six instances that
    take two values on it; "zone" is label-encoded and "flag" binary."""
    rng = np.random.default_rng(40)
    names = ("u", "zone", "flag", "c")

    def rows(n, c):
        return np.column_stack(
            [rng.normal(50, 10, n), rng.integers(0, 3, n).astype(float), (rng.random(n) < 0.3).astype(float), c]
        )

    train = DataTable(names, rows(300, np.full(300, 7.0)), {"zone": ("west", "east", "north")},
                      tuple(("R", str(i), 2000) for i in range(300)))
    fit_X = rows(400, rng.choice([7.0, 9.0], 400))
    fit_y = 0.2 * fit_X[:, 0] + 3.0 * fit_X[:, 1] + 5.0 * fit_X[:, 2] + 4.0 * fit_X[:, 3] + rng.normal(0, 1, 400)
    X = rows(6, np.array([7.0, 9.0, 9.0, 7.0, 9.0, 7.0]))
    return train, fit_X, fit_y, X


SHARED_KINDS = [
    ("gradient_boosting", {"n_estimators": 10, "max_depth": 3, "subsample": 0.75}),
    ("random_forest", {"n_estimators": 5, "max_depth": 5, "feature_subsample": 0.6}),
    ("linear", {}),
]


def reference_surrogate(predictor, x, stats, cfg, key):
    """One instance the way LIME explained each before the neighbourhood was
    shared: its own draw from the seed, column by column, predicted whole,
    with x's own output predicted alone."""
    rng = np.random.default_rng(cfg.seed)
    n, m = cfg.n_samples, len(x)
    samples, interp, sq_dist = np.empty((n, m)), np.empty((n, m)), np.zeros(n)
    samples[0] = x
    for j, fs in enumerate(stats):
        if fs.kind == "categorical":
            samples[1:, j] = rng.choice(np.asarray(fs.categories), size=n - 1, p=np.asarray(fs.frequencies))
            interp[:, j] = (samples[:, j] == x[j]).astype(float)
        else:
            samples[1:, j] = rng.normal(fs.mean, fs.std, size=n - 1)
            z = (samples[:, j] - x[j]) / fs.std
            sq_dist += z**2
            if cfg.discretize:
                edges = np.asarray(fs.bin_edges)
                interp[:, j] = (np.searchsorted(edges, samples[:, j]) == np.searchsorted(edges, x[j])).astype(float)
            else:
                interp[:, j] = (samples[:, j] - fs.mean) / fs.std
    outputs = predictor.predict(samples)
    outputs[0] = predictor.predict(x[None])[0]
    weights = kernel_weight(np.sqrt(sq_dist), 0.75 * math.sqrt(m))
    return lime._surrogate(list(predictor.feature_names), stats, x, key, interp, outputs, weights, cfg)


class TestSharedNeighbourhood:
    @pytest.mark.parametrize("discretize", [True, False])
    @pytest.mark.parametrize("kind, hp", SHARED_KINDS, ids=[k for k, _ in SHARED_KINDS])
    def test_batch_equals_one_row_calls_bit_for_bit(self, kind, hp, discretize):
        train, fit_X, fit_y, X = shared_neighbourhood_case()
        predictor = models.fit(models.ModelSpec(kind, hp, 3), fit_X, fit_y, feature_names=list(train.column_names))
        cfg = LimeConfig(n_samples=500, discretize=discretize, seed=17)
        stats = training_stats(train, list(train.column_names))
        assert [fs.kind for fs in stats] == ["continuous", "categorical", "categorical", "categorical"]
        assert stats[3].categories == (7.0,)
        keys = [("R", str(i), 2001) for i in range(len(X))]
        sizes = []

        class Counted:
            feature_names = predictor.feature_names

            def predict(self, Z):
                sizes.append(len(Z))
                return predictor.predict(Z)

        batch = lime.fit_local_surrogates(Counted(), X, keys, train, cfg, stats)
        # one neighbourhood, whatever the instances hold on the constant column "c", and x alone per instance
        assert sorted(sizes) == [1] * len(X) + [cfg.n_samples]
        for x, key, got in zip(X, keys, batch):
            # repr shows every float to the last bit, NaN R² included
            assert repr(got) == repr(fit_local_surrogate(predictor, x, train, cfg, key, stats))
            assert repr(got) == repr(reference_surrogate(predictor, x, stats, cfg, key))
        assert lime.fit_local_surrogates(predictor, X[:0], [], train, cfg, stats) == []


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LimeConfig(n_samples=5)
        with pytest.raises(ValueError):
            LimeConfig(max_features_K=0)

    def test_default_sigma_scales_with_features(self, monkeypatch):
        # The kernel width is the lime package's 0.75 * sqrt(M) for M features.
        widths, weight = [], lime.kernel_weight
        monkeypatch.setattr(lime, "kernel_weight", lambda d, sigma: widths.append(sigma) or weight(d, sigma))
        table = toy_table()
        for names in (["u"], ["u", "v", "flag"]):
            f = manual_linear(np.ones(len(names)), names=tuple(names))
            lime.fit_local_surrogates(f, table.matrix(names)[:1], [()], table, LimeConfig(n_samples=50))
        assert widths == [0.75, 0.75 * math.sqrt(3)]
