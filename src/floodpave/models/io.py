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

from .. import models
from .._util import atomic_file, json_chunks, json_default, read_json
from ..errors import SchemaError
from .spec import KINDS
from .tree import BoostingPredictor, ForestPredictor, Tree

FORMAT_VERSION = 1


def model_to_dict(predictor, **to_dict_args) -> dict:
    doc = {"format_version": FORMAT_VERSION}
    doc.update(predictor.to_dict(**to_dict_args))
    return doc


def model_from_dict(doc: dict):
    """The predictor ``model_to_dict`` wrote; a missing or refused entry is a SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError("a model file must hold a JSON object")
    if "format_version" not in doc:
        raise SchemaError("model file has no format_version")
    if doc["format_version"] != FORMAT_VERSION:
        raise SchemaError(f"unsupported model format_version {doc['format_version']!r}; expected {FORMAT_VERSION}")
    try:
        kind = doc["spec"]["kind"]
        if kind not in KINDS:
            raise SchemaError(f"unknown model kind {kind!r}")
        return getattr(models, KINDS[kind].predictor).from_dict(doc)
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
    """The predictor saved at ``path``.

    The file is read by `_util.read_json`; one that ``model_from_dict``
    refuses is a SchemaError that names the path.
    """
    doc = read_json(path)
    try:
        return model_from_dict(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
