"""Versioned JSON persistence for fitted predictors.

Floats are serialized through Python's shortest round-trip repr, so a
saved model reproduces its predictions bit-for-bit after loading.
"""

from __future__ import annotations

import json

from .._util import write_text_atomic
from ..errors import SchemaError
from .linear import LinearPredictor
from .tree import BoostingPredictor, ForestPredictor, TreePredictor

FORMAT_VERSION = 1

_CLASSES = {
    "linear": LinearPredictor,
    "ridge": LinearPredictor,
    "lasso": LinearPredictor,
    "decision_tree": TreePredictor,
    "random_forest": ForestPredictor,
    "gradient_boosting": BoostingPredictor,
}


def model_to_dict(predictor) -> dict:
    doc = {"format_version": FORMAT_VERSION}
    doc.update(predictor.to_dict())
    return doc


def model_from_dict(doc: dict):
    """The predictor ``model_to_dict`` wrote; a missing or refused entry is a SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError("a model file must hold a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    try:
        kind = doc["spec"]["kind"]
        if kind not in _CLASSES:
            raise SchemaError(f"unknown model kind {kind!r}")
        return _CLASSES[kind].from_dict(doc)
    except (KeyError, TypeError) as exc:
        # TypeError: an entry of the wrong JSON type, such as a number where an object belongs
        raise SchemaError(f"malformed model file: {type(exc).__name__} {exc}") from None


def save_model(predictor, path) -> None:
    write_text_atomic(path, json.dumps(model_to_dict(predictor), indent=2) + "\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
