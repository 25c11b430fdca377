"""Flood-impact pavement roughness analytics.

Batch toolkit covering the full workflow: ingest PMIS-style section-year
records and flood events, compute pre/post-flood deterioration
statistics, train six next-year-IRI regression models, and attribute
predictions with Shapley-value and local-surrogate explainers.

Importing the package loads no submodule: ``floodpave.lime`` and the
like are imported on first use (PEP 562), so each command loads only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("config", "dataset", "deterioration", "errors", "floods", "lime", "models", "shapley", "synth")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
