"""Versioned JSON persistence for fitted predictors.

Floats are serialized through Python's shortest round-trip repr, so a
saved model reproduces its predictions bit-for-bit after loading.

A model file is the bytes of ``json.dumps(model_to_dict(predictor),
indent=2)`` plus a newline: keys in ``to_dict`` order, two spaces of
indent per level, one array element per line, ASCII only. ``save_model``
writes them through ``_util.json_chunks`` into a temp file that is
renamed into place, so a reader never sees a partial file. It builds
each ensemble tree's dict only while writing that tree, so it holds one
tree's numbers at a time and never the whole file's text.
"""

from __future__ import annotations

import json

from .._util import atomic_file, json_chunks, json_default
from ..errors import SchemaError
from .linear import LinearPredictor
from .tree import BoostingPredictor, ForestPredictor, Tree, TreePredictor

FORMAT_VERSION = 1

_CLASSES = {
    "linear": LinearPredictor,
    "ridge": LinearPredictor,
    "lasso": LinearPredictor,
    "decision_tree": TreePredictor,
    "random_forest": ForestPredictor,
    "gradient_boosting": BoostingPredictor,
}


def model_to_dict(predictor, **to_dict_args) -> dict:
    doc = {"format_version": FORMAT_VERSION}
    doc.update(predictor.to_dict(**to_dict_args))
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


def _same(tree):
    return tree


def _tree_default(obj):
    return obj.to_dict() if isinstance(obj, Tree) else json_default(obj)


def save_model(predictor, path) -> None:
    # an ensemble's trees stay Trees, each expanded when the writer reaches it
    lazy = {"tree": _same} if isinstance(predictor, (ForestPredictor, BoostingPredictor)) else {}
    doc = model_to_dict(predictor, **lazy)
    with atomic_file(path) as fh:
        fh.writelines(json_chunks(doc, default=_tree_default))
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
