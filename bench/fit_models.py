"""Fit and save the models that a workload explains, without grid search.

Usage:
    python bench/fit_models.py JOB_JSON

JOB_JSON is an inline JSON object with ``records``, ``out_dir``,
``seed``, ``test_fraction`` and ``models`` (file name -> ModelSpec dict).
Each model is fitted on the training part of the split that
``floodpave explain`` rebuilds from the same seed and test fraction,
restricted to rows that have a target. The test MSE of each model goes
to ``fit_summary.json`` in ``out_dir``, keyed by model kind.
"""

import json
import os
import sys

from floodpave import models
from floodpave.dataset import FEATURE_COLUMNS, TARGET_COLUMN, filter_complete, load_csv, train_test_split


def main(argv) -> int:
    job = json.loads(argv[0])
    table = load_csv(job["records"], schema=FEATURE_COLUMNS)
    features = [c for c in FEATURE_COLUMNS if c in table.column_names]
    train, test = train_test_split(filter_complete(table, features), job["test_fraction"], job["seed"])
    train = filter_complete(train, [TARGET_COLUMN])
    test = filter_complete(test, [TARGET_COLUMN])
    test_mse = {}
    for name, doc in sorted(job["models"].items()):
        spec = models.ModelSpec.from_dict(doc)
        predictor = models.fit(spec, train.matrix(features), train.col(TARGET_COLUMN), feature_names=features)
        models.save_model(predictor, os.path.join(job["out_dir"], name))
        test_mse[spec.kind] = models.evaluate(predictor, test.matrix(features), test.col(TARGET_COLUMN)).mse
    with open(os.path.join(job["out_dir"], "fit_summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"test_mse": test_mse}, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
