"""The presorted CART builder against a per-node argsort reference.

``reference_build_tree`` grows depth first and sorts every candidate
feature at every node, one feature at a time, and draws feature subsets
by the keyed rule in Python integers. Every tree array must match it bit
for bit, however the builder schedules its nodes. The ensembles grow
their trees in the fit's own row ids; the reference stands in for them
on the gathered rows.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floodpave import models
from floodpave.models import grow as grow_module
from floodpave.models.grow import build_tree
from floodpave.models.tree import LEAF, Tree

from conftest import reference_tree_predict

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def reference_centred(y_node):
    """The node's targets minus their mean, and minus the mean of what is left."""
    centred = y_node - y_node.mean()
    return centred - np.sum(centred) / centred.size


def reference_best_split(X, y, idx, features, min_leaf):
    """``_best_split``'s result, feature by feature: one prefix sum of centred targets each."""
    n = idx.size
    centred = reference_centred(y[idx])
    left_n = np.arange(1, n, dtype=float)
    weight = n / (left_n * (n - left_n))
    scores, splits = [], []
    for j in features:
        v = X[idx, j]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        score = np.cumsum(centred[order])[:-1] ** 2 * weight
        valid = vs[1:] > vs[:-1]
        if min_leaf > 1:
            valid &= (left_n >= min_leaf) & (n - left_n >= min_leaf)
        scores.append(np.where(valid, score, 0.0))
        splits += [(int(j), float((vs[k] + vs[k + 1]) / 2.0)) for k in range(n - 1)]
    if not scores:
        return None
    scores = np.concatenate(scores)
    best = scores.max()
    if not best > 0.0:
        return None
    at = int(np.argmax(scores >= best * (1.0 - grow_module._TIE)))
    return (float(scores[at]),) + splits[at]


MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_mix(z):
    """SplitMix64's output function in Python integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_stream(key, i):
    """Output i of the SplitMix64 stream that starts at ``key``."""
    return reference_mix((key + i * GOLDEN) & MASK64)


def reference_subset(key, n_features, n_sub):
    """The ``n_sub`` features whose outputs 3 + j of the node's stream are smallest, ascending."""
    ranked = sorted(range(n_features), key=lambda j: (reference_stream(key, 3 + j), j))
    return np.array(sorted(ranked[:n_sub]))


def reference_build_tree(
    X,
    y,
    max_depth,
    min_samples_split=2,
    min_samples_leaf=1,
    feature_subsample=1.0,
    rng=None,
):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n_features = X.shape[1]
    n_sub = max(1, int(round(feature_subsample * n_features)))
    nodes = []  # [feature, threshold, left, right, value]
    # the root's subset key: the one draw a subsampled tree makes
    root_key = int(rng.integers(MASK64, dtype=np.uint64, endpoint=True)) if feature_subsample < 1.0 else 0

    def grow(idx, depth, key):
        node = len(nodes)
        nodes.append([LEAF, 0.0, LEAF, LEAF, 0.0])
        y_node = y[idx]
        nodes[node][4] = float(y_node.mean())
        n = idx.size
        if depth >= max_depth or n < min_samples_split or n < 2 * min_samples_leaf:
            return node
        parent_sse = float(np.sum(reference_centred(y_node) ** 2))
        if parent_sse == 0.0:
            return node
        if feature_subsample < 1.0:
            candidates = reference_subset(key, n_features, n_sub)
        else:
            candidates = np.arange(n_features)
        best = reference_best_split(X, y, idx, candidates, min_samples_leaf)
        if best is None:
            return node
        reduction, feat, thr = best
        if reduction <= grow_module._MIN_REDUCTION * max(parent_sse, 1.0):
            return node
        mask = X[idx, feat] <= thr
        nodes[node][:2] = [feat, thr]
        nodes[node][2] = grow(idx[mask], depth + 1, reference_stream(key, 1))
        nodes[node][3] = grow(idx[~mask], depth + 1, reference_stream(key, 2))
        return node

    grow(np.arange(X.shape[0]), 0, root_key)
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


# The keys wrap mod 2⁶⁴ in uint64 arrays, which numpy does silently; a scalar
# would warn on overflow.
@pytest.mark.filterwarnings("error")
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
        divisors = grow_module._divisors(idx.size)
        centred = np.full(400, np.nan)
        centred[idx] = reference_centred(y[idx])
        got = grow_module._best_split(Xt, centred, order, features, min_leaf, *divisors)
        assert got == reference_best_split(X, y, idx, features, min_leaf)


def exact_candidates(X, y, features, min_leaf):
    """The node's exact SSE, and each valid split's exact SSE reduction with its
    feature and threshold, in (feature, position) order, in rational arithmetic."""
    n = len(y)
    ys = [Fraction(float(v)) for v in y]
    total, total2 = sum(ys), sum(v * v for v in ys)
    candidates = []
    for j in features:
        order = sorted(range(n), key=lambda i: (X[i, j], i))
        c = c2 = Fraction(0)
        for k in range(1, n):
            a, b = float(X[order[k - 1], j]), float(X[order[k], j])
            c += ys[order[k - 1]]
            c2 += ys[order[k - 1]] ** 2
            if a < b and min_leaf <= k <= n - min_leaf:
                sse = (c2 - c * c / k) + ((total2 - c2) - (total - c) ** 2 / (n - k))
                candidates.append((total2 - total * total / n - sse, int(j), (a + b) / 2.0))
    return total2 - total * total / n, candidates


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 40),
    m=st.integers(1, 4),
    tied=st.booleans(),
    min_leaf=st.integers(1, 3),
    data=st.data(),
)
def test_best_split_matches_exact_arithmetic(n, m, tied, min_leaf, data):
    value = st.integers(0, 3).map(float) if tied else st.floats(-100, 100)
    row = st.lists(value, min_size=m, max_size=m)
    X = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    features = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1))))
    parent, candidates = exact_candidates(X, y, features, min_leaf)
    best = max((c[0] for c in candidates), default=Fraction(0))
    # Where the best split removes a tiny share of the node's SSE, the
    # rounding of the centred targets exceeds the tie window; such a split
    # is noise.
    assume(best > parent * Fraction(1, 10**6))
    assert_best_split_is_exact(X, y, features, min_leaf, parent, candidates, best)


def assert_best_split_is_exact(X, y, features, min_leaf, parent, candidates, best):
    """``_best_split`` picks the first candidate within the tie window of the
    exact best. It may find none only where `grow` would refuse the exact
    best anyway: at or below ``_MIN_REDUCTION · max(parent SSE, 1)``, where
    squared subnormal sums can round to 0."""
    Xt = np.ascontiguousarray(X.T)
    order = grow_module._presort(Xt)
    divisors = grow_module._divisors(len(y))
    got = grow_module._best_split(Xt, reference_centred(y), order, features, min_leaf, *divisors)
    if got is None:
        assert best <= Fraction(grow_module._MIN_REDUCTION) * max(parent, Fraction(1))
        return got
    first = next(c for c in candidates if c[0] >= best * (1 - Fraction(grow_module._TIE)))
    assert got[1:] == first[1:]
    assert got[0] == pytest.approx(float(first[0]), rel=1e-9)
    return got


def test_subnormal_targets_find_no_split():
    # A case the property test above once drew: the exact best reduction is
    # positive and passes its assume, but the squared prefix sum of the
    # subnormal target underflows to 0, so no split is found.
    X = np.array([[0.0]] * 5 + [[1.0]])
    y = np.array([0.0] * 5 + [5e-324])
    features = np.array([0])
    parent, candidates = exact_candidates(X, y, features, 1)
    best = max(c[0] for c in candidates)
    assert 0 < parent * Fraction(1, 10**6) < best
    assert assert_best_split_is_exact(X, y, features, 1, parent, candidates, best) is None
    assert build_tree(X, y, max_depth=3).n_nodes == 1


def test_first_feature_wins_a_tie_of_mirrored_columns():
    # Column 1 = -column 0 puts the same rows on each side of every split,
    # with the sides swapped, so each split of column 0 has an equal twin.
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=n)
        tree = build_tree(np.column_stack([x, -x]), rng.normal(size=n), max_depth=1)
        assert tree.feature[0] == 0


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
            "random_forest",
            {"n_estimators": 3, "max_depth": 6, "bootstrap": False, "min_samples_leaf": 3},
            3,
        ),
        models.ModelSpec(
            "gradient_boosting", {"n_estimators": 5, "max_depth": 3, "subsample": 0.75}, 3
        ),
    ]
    fitted = [models.fit(s, X, y) for s in specs]

    def reference_grow_tree(Xt, y, rows, order, *args, **kwargs):
        X = Xt.T[rows]
        tree = reference_build_tree(X, y[rows], *args, **kwargs)
        fitted = np.full(y.size, np.nan)
        fitted[rows] = reference_tree_predict(tree, X)
        return tree, fitted

    monkeypatch.setattr(grow_module, "_grow_tree", reference_grow_tree)
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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    m=st.integers(1, 4),
    levels=st.integers(2, 6),
    fraction=st.floats(0.05, 1.0),
    depth=st.integers(1, 6),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_row_space_growth_equals_gathered_rows(n, m, levels, fraction, depth, bootstrap, seed):
    # An ensemble tree grows in the fit's own row ids, from the root order
    # with each row repeated by its count: 0 or 1 for a boosting stage's
    # subsample, 0, 1 or more for a forest tree's bootstrap.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, m)).astype(float)
    y = rng.normal(size=n) + X[:, 0]
    if bootstrap:
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
    else:
        counts = np.zeros(n, dtype=np.intp)
        counts[rng.permutation(n)[: max(1, int(round(fraction * n)))]] = 1
    rows = np.repeat(np.arange(n), counts)
    Xt = np.ascontiguousarray(X.T)
    order = grow_module._presort(Xt)
    block = np.repeat(order.ravel(), counts.take(order).ravel()).reshape(m, rows.size)
    tree, fitted = grow_module._grow_tree(Xt, y, rows, block, depth)
    assert_same_tree(tree, build_tree(X[rows], y[rows], max_depth=depth))
    assert np.array_equal(fitted[rows], reference_tree_predict(tree, X[rows]))


def mixed_data(seed, n):
    """Three tied columns and three continuous ones."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.integers(0, 4, size=(n, 3)).astype(float), rng.normal(size=(n, 3))])
    y = X @ rng.normal(size=6) + rng.normal(scale=0.5, size=n)
    return X, y


# A batch of 1000 lets up to 2^(max_depth - 2) >= 1000 subtrees wait at depth
# 12 or more, but a 700-row tree never holds that many, so they grow depth first.
@pytest.mark.parametrize(
    "small, batch",
    [(0, 1), (10**9, 1), (grow_module._SMALL_NODE, 1000)],
    ids=["all-depth-first", "all-level-wise", "waiting-depth-first"],
)
@pytest.mark.parametrize(
    "kind, hp",
    [
        ("decision_tree", {"max_depth": 13}),
        ("decision_tree", {"max_depth": 12, "min_samples_split": 5, "min_samples_leaf": 3}),
        ("gradient_boosting", {"n_estimators": 6, "max_depth": 5, "subsample": 0.75}),
        ("gradient_boosting", {"n_estimators": 4, "max_depth": 12, "subsample": 1.0}),
        ("random_forest", {"n_estimators": 3, "max_depth": 14, "feature_subsample": 1.0}),
        ("random_forest", {"n_estimators": 3, "max_depth": 12, "feature_subsample": 0.6, "min_samples_leaf": 2}),
        ("random_forest", {"n_estimators": 2, "max_depth": 13, "feature_subsample": 0.6, "bootstrap": False}),
    ],
)
def test_schedule_does_not_change_the_tree(monkeypatch, kind, hp, small, batch):
    # The default build grows large nodes depth first and small subtrees a
    # level at a time. Growing every node one way or the other, or the
    # waiting subtrees depth first after the rest, must give the same
    # arrays.
    X, y = mixed_data(16, 700)
    spec = models.ModelSpec(kind, hp, 4)
    default = models.fit(spec, X, y)
    monkeypatch.setattr(grow_module, "_SMALL_NODE", small)
    monkeypatch.setattr(grow_module, "_MIN_BATCH", batch)
    scheduled = models.fit(spec, X, y)
    if kind == "decision_tree":
        assert_same_tree(default.tree, scheduled.tree)
        assert default.tree.n_nodes > 200
        return
    for a, b in zip(default.trees, scheduled.trees, strict=True):
        assert_same_tree(a, b)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "subsampled_forest"])
def test_truncation_equals_direct_fit(kind, tied):
    X, y = random_data(14, 260, 4, tied=tied)
    for split in (2, 10):
        for leaf in (1, 5):
            hp = {"min_samples_split": split, "min_samples_leaf": leaf}
            if kind != "decision_tree":
                hp.update(n_estimators=3, feature_subsample=1.0 if kind == "random_forest" else 0.6)
            model = "random_forest" if kind == "subsampled_forest" else kind
            deep = models.fit(models.ModelSpec(model, dict(hp, max_depth=12), 2), X, y)
            for depth in range(1, 13):
                direct = models.fit(models.ModelSpec(model, dict(hp, max_depth=depth), 2), X, y)
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
    real = grow_module._presort

    def counting(Xt):
        calls.append(Xt.shape)
        return real(Xt)

    monkeypatch.setattr(grow_module, "_presort", counting)
    models.fit(spec, X, y)
    assert calls == [(3, 120)]
