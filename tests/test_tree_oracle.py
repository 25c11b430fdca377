"""The presorted CART builder against a per-node argsort reference.

``reference_build_tree`` sorts every candidate feature at every node, one
feature at a time, exactly as the builder did before it presorted once at
the root. Every tree array must match it bit for bit. It accepts the
``presorted`` block that the ensembles pass and ignores it, so it always
sorts on its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodpave import models
from floodpave.models import tree as tree_module
from floodpave.models.tree import LEAF, Tree, build_tree

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def reference_best_split(X, y, idx, features, min_leaf):
    n = idx.size
    y_node = y[idx]
    best = None
    for j in features:
        v = X[idx, j]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y_node[order]
        cum_y = np.cumsum(ys)
        cum_y2 = np.cumsum(ys * ys)
        total_y, total_y2 = cum_y[-1], cum_y2[-1]
        left_n = np.arange(1, n)
        valid = vs[1:] > vs[:-1]
        if min_leaf > 1:
            valid &= (left_n >= min_leaf) & (n - left_n >= min_leaf)
        if not valid.any():
            continue
        left_sse = cum_y2[:-1] - cum_y[:-1] ** 2 / left_n
        right_sse = (total_y2 - cum_y2[:-1]) - (total_y - cum_y[:-1]) ** 2 / (n - left_n)
        sse = np.where(valid, left_sse + right_sse, np.inf)
        k = int(np.argmin(sse))
        if best is None or sse[k] < best[0]:
            best = (float(sse[k]), int(j), float((vs[k] + vs[k + 1]) / 2.0))
    return best


def reference_build_tree(
    X,
    y,
    max_depth,
    min_samples_split=2,
    min_samples_leaf=1,
    feature_subsample=1.0,
    rng=None,
    presorted=None,
):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n_features = X.shape[1]
    n_sub = max(1, int(round(feature_subsample * n_features)))
    nodes = []  # [feature, threshold, left, right, value]

    def grow(idx, depth):
        node = len(nodes)
        nodes.append([LEAF, 0.0, LEAF, LEAF, 0.0])
        y_node = y[idx]
        nodes[node][4] = float(y_node.mean())
        n = idx.size
        if depth >= max_depth or n < min_samples_split or n < 2 * min_samples_leaf:
            return node
        parent_sse = float(np.sum((y_node - y_node.mean()) ** 2))
        if parent_sse == 0.0:
            return node
        if feature_subsample < 1.0:
            candidates = np.sort(rng.choice(n_features, size=n_sub, replace=False))
        else:
            candidates = np.arange(n_features)
        best = reference_best_split(X, y, idx, candidates, min_samples_leaf)
        if best is None:
            return node
        sse, feat, thr = best
        if parent_sse - sse <= tree_module._MIN_REDUCTION * max(parent_sse, 1.0):
            return node
        mask = X[idx, feat] <= thr
        nodes[node][:2] = [feat, thr]
        nodes[node][2] = grow(idx[mask], depth + 1)
        nodes[node][3] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return Tree(*zip(*nodes))


def assert_same_tree(a: Tree, b: Tree):
    for name in TREE_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_matches_reference(X, y, seed=None, **kw):
    """Build with both builders; with ``seed``, from twin rngs that must end in step."""
    if seed is None:
        assert_same_tree(build_tree(X, y, **kw), reference_build_tree(X, y, **kw))
        return
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_tree(build_tree(X, y, rng=rng_a, **kw), reference_build_tree(X, y, rng=rng_b, **kw))
    assert rng_a.random() == rng_b.random()


def random_data(seed, n, m, tied=False):
    # Tied features take three values; y stays non-integer so that the order
    # of rows within a tie changes its prefix sums in the last bits.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, m)).astype(float) if tied else rng.normal(size=(n, m))
    y = X @ rng.normal(size=m) + rng.normal(scale=0.5, size=n)
    return X, y


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize(
    "kw",
    [
        {"max_depth": 3},
        {"max_depth": 12},
        {"max_depth": 8, "min_samples_leaf": 4},
        {"max_depth": 8, "min_samples_split": 9, "min_samples_leaf": 2},
    ],
)
def test_matches_reference(tied, kw):
    X, y = random_data(7, 300, 5, tied=tied)
    assert_matches_reference(X, y, **kw)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("frac", [0.2, 0.6, 0.95])
def test_feature_subsample_matches_reference(tied, frac):
    X, y = random_data(8, 250, 6, tied=tied)
    assert_matches_reference(X, y, seed=11, max_depth=9, feature_subsample=frac)


@pytest.mark.parametrize("min_leaf", [1, 3])
def test_best_split_is_bit_exact(min_leaf):
    X, y = random_data(13, 400, 6, tied=True)
    Xt = np.ascontiguousarray(X.T)
    rng = np.random.default_rng(4)
    for _ in range(20):
        idx = np.sort(rng.choice(400, size=int(rng.integers(2, 400)), replace=False))
        features = np.sort(rng.choice(6, size=int(rng.integers(1, 7)), replace=False))
        order = idx[np.argsort(X[idx].T, axis=1, kind="stable")].astype(np.int32)
        divisors = tree_module._divisors(idx.size)
        got = tree_module._best_split(Xt, y, order, features, min_leaf, *divisors)
        assert got == reference_best_split(X, y, idx, features, min_leaf)


def test_bootstrap_duplicated_rows():
    X, y = random_data(9, 200, 4)
    idx = np.sort(np.random.default_rng(3).integers(0, 200, size=200))
    assert len(np.unique(idx)) < 200
    assert_matches_reference(X[idx], y[idx], max_depth=10)
    assert_matches_reference(X[idx], y[idx], seed=5, max_depth=10, feature_subsample=0.5)


def test_constant_target_and_constant_features():
    X, _ = random_data(10, 50, 3, tied=True)
    assert_matches_reference(X, np.full(50, 2.5), max_depth=5)
    assert build_tree(X, np.full(50, 2.5), max_depth=5).n_nodes == 1
    X_const = np.ones((50, 3))
    _, y = random_data(10, 50, 3)
    assert_matches_reference(X_const, y, max_depth=5)


def test_single_row_and_single_row_nodes():
    assert_matches_reference(np.array([[1.0, 2.0]]), np.array([3.0]), max_depth=4)
    # Distinct values split all the way down to one row per leaf.
    X = np.arange(16.0)[:, None]
    y = np.arange(16.0) ** 2
    assert_matches_reference(X, y, max_depth=10)
    assert build_tree(X, y, max_depth=10).n_nodes == 31


def test_ensemble_fits_match_reference(monkeypatch):
    X, y = random_data(12, 240, 5, tied=True)
    specs = [
        models.ModelSpec(
            "random_forest", {"n_estimators": 4, "max_depth": 6, "feature_subsample": 0.6}, 3
        ),
        models.ModelSpec(
            "gradient_boosting", {"n_estimators": 5, "max_depth": 3, "subsample": 0.75}, 3
        ),
    ]
    fitted = [models.fit(s, X, y) for s in specs]
    monkeypatch.setattr(tree_module, "build_tree", reference_build_tree)
    for spec, predictor in zip(specs, fitted):
        expected = models.fit(spec, X, y)
        assert len(predictor.trees) == len(expected.trees)
        for a, b in zip(predictor.trees, expected.trees):
            assert_same_tree(a, b)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    m=st.integers(1, 5),
    depth=st.integers(1, 8),
    min_leaf=st.integers(1, 4),
    levels=st.integers(2, 6),
    subsample=st.sampled_from([1.0, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_property_matches_reference(n, m, depth, min_leaf, levels, subsample, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, m)).astype(float)
    y = rng.normal(size=n) + 0.5 * X[:, 0]
    assert_matches_reference(
        X, y, seed=seed, max_depth=depth, min_samples_leaf=min_leaf, feature_subsample=subsample
    )


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 50),
    m=st.integers(1, 4),
    levels=st.integers(1, 5),
    bootstrap=st.booleans(),
    fraction=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
def test_rows_block_equals_fresh_argsort(n, m, levels, bootstrap, fraction, seed):
    # Tied values, and duplicated rows, both from a few levels per feature.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, m)).astype(float)
    if bootstrap:
        idx = np.sort(rng.integers(0, n, size=n))
    else:
        idx = np.sort(rng.permutation(n)[: max(1, int(round(fraction * n)))])
    root = tree_module._presort(np.ascontiguousarray(X.T))
    block = tree_module._rows_block(root, idx)
    fresh = tree_module._presort(np.ascontiguousarray(X[idx].T))
    assert block.dtype == fresh.dtype
    assert np.array_equal(block, fresh)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_truncation_equals_direct_fit(kind, tied):
    X, y = random_data(14, 260, 4, tied=tied)
    for split in (2, 10):
        for leaf in (1, 5):
            hp = {"min_samples_split": split, "min_samples_leaf": leaf}
            if kind == "random_forest":
                hp.update(n_estimators=3, feature_subsample=1.0)
            deep = models.fit(models.ModelSpec(kind, dict(hp, max_depth=12), 2), X, y)
            for depth in range(1, 13):
                direct = models.fit(models.ModelSpec(kind, dict(hp, max_depth=depth), 2), X, y)
                if kind == "decision_tree":
                    pairs = [(deep.tree, direct.tree)]
                else:
                    pairs = zip(deep.trees, direct.trees)
                for a, b in pairs:
                    assert_same_tree(a.truncate(depth), b)
    stump = build_tree(X, y, max_depth=5).truncate(0)
    assert_same_tree(stump, Tree([LEAF], [0.0], [LEAF], [LEAF], [build_tree(X, y, max_depth=0).value[0]]))


@pytest.mark.parametrize(
    "spec",
    [
        models.ModelSpec("random_forest", {"n_estimators": 4, "max_depth": 4}, 1),
        models.ModelSpec(
            "random_forest", {"n_estimators": 3, "bootstrap": False, "feature_subsample": 0.5}, 1
        ),
        models.ModelSpec("gradient_boosting", {"n_estimators": 5, "subsample": 0.6}, 1),
        models.ModelSpec("gradient_boosting", {"n_estimators": 5}, 1),
    ],
    ids=["forest-bootstrap", "forest-no-bootstrap", "boosting-subsample", "boosting-all-rows"],
)
def test_one_presort_per_ensemble_fit(monkeypatch, spec):
    X, y = random_data(15, 120, 3, tied=True)
    calls = []
    real = tree_module._presort

    def counting(Xt):
        calls.append(Xt.shape)
        return real(Xt)

    monkeypatch.setattr(tree_module, "_presort", counting)
    models.fit(spec, X, y)
    assert calls == [(3, 120)]
