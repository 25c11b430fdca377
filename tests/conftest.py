import numpy as np
import pytest

from floodpave import models, synth
from floodpave.dataset import FEATURE_COLUMNS, TARGET_COLUMN, filter_complete, train_test_split

FEATS = list(FEATURE_COLUMNS)
FLOOD_IDX = FEATS.index("Flood")
IRI_IDX = FEATS.index("TX_IRI_AVERAGE_SCORE")


def make_flood_bump_data(n_sections=400, seed=21, noise_std=0.0, flood_fraction=0.3):
    """Zero-noise panel whose only effects are the +5 flood bump and +2/yr drift."""
    gt = synth.GroundTruth(weights={}, flood_bump=5.0, drift=2.0, noise_std=noise_std)
    spec = synth.SynthSpec(
        n_sections=n_sections, flood_fraction=flood_fraction, ground_truth=gt, seed=seed
    )
    return synth.generate(spec)


@pytest.fixture(scope="session")
def flood_bump_split():
    table, events, gt = make_flood_bump_data()
    complete = filter_complete(table, FEATS + [TARGET_COLUMN])
    train, test = train_test_split(complete, 0.2, 21)
    return {"table": table, "events": events, "gt": gt, "train": train, "test": test}


@pytest.fixture(scope="session")
def flood_bump_linear(flood_bump_split):
    train = flood_bump_split["train"]
    X = train.matrix(FEATS)
    y = train.col(TARGET_COLUMN)
    return models.fit(models.ModelSpec("linear", {}, 21), X, y, feature_names=FEATS)


@pytest.fixture(scope="session")
def flood_bump_boosting(flood_bump_split):
    train = flood_bump_split["train"]
    X = train.matrix(FEATS)
    y = train.col(TARGET_COLUMN)
    spec = models.ModelSpec(
        "gradient_boosting", {"n_estimators": 100, "max_depth": 3}, 21
    )
    return models.fit(spec, X, y, feature_names=FEATS)


class CountingPredictor:
    """Wraps a predictor and counts how many rows flow through predict."""

    def __init__(self, inner):
        self.inner = inner
        self.feature_names = inner.feature_names
        self.rows_predicted = 0

    def predict(self, X):
        self.rows_predicted += np.asarray(X).shape[0]
        return self.inner.predict(X)


def reference_tree_predict(tree, X):
    """Each row's leaf value, walked down one tree level by level."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        rows = np.nonzero(tree.feature[node] != -1)[0]
        if rows.size == 0:
            return tree.value[node]
        cur = node[rows]
        go_left = X[rows, tree.feature[cur]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])


def manual_linear(coefs, intercept=0.0, names=None):
    """A LinearPredictor with raw-space coefficients set by hand."""
    coefs = np.asarray(coefs, dtype=float)
    m = len(coefs)
    names = tuple(names) if names is not None else tuple(f"x{j}" for j in range(m))
    return models.LinearPredictor(
        spec=models.ModelSpec("linear", {}, 0),
        feature_names=names,
        mu=np.zeros(m),
        sigma=np.ones(m),
        coef=coefs,
        intercept=float(intercept),
    )
