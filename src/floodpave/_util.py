"""Small shared helpers: atomic file writes, stage-scoped seeding and typed config values."""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import tempfile
import types
import typing
import zlib

import numpy as np

from .errors import SchemaError


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file plus rename so readers never see partial output."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def stage_seed(root_seed: int, label: str, index: int | None = None) -> np.random.SeedSequence:
    """Derive a per-stage seed stream from one root seed.

    The label keys the pipeline stage and the optional index keys a unit
    of work inside it (a fold, an explained instance), so partial
    re-runs consume exactly the same streams as a full run.
    """
    entropy = [root_seed & 0xFFFFFFFF, zlib.crc32(label.encode("utf-8"))]
    if index is not None:
        entropy.append(index)
    return np.random.SeedSequence(entropy)


def stage_rng(root_seed: int, label: str, index: int | None = None) -> np.random.Generator:
    return np.random.default_rng(stage_seed(root_seed, label, index))


@functools.cache
def _type_hints(cls) -> dict:
    """``typing.get_type_hints`` of a dataclass, resolved once per class."""
    return typing.get_type_hints(cls)


def _typed(kind, name: str, value):
    """Parse JSON value `value` as type annotation `kind`; a SchemaError names key `name`.

    A bool takes a JSON boolean; an int an integer or an integral float,
    not a bool; a float a finite number; a str a string. ``list[T]`` takes
    a non-empty array and ``dict[str, T]`` an object, checking each item as
    T; a bare ``dict`` takes any object. ``T | None`` also takes null. A
    dataclass takes an object whose keys are its fields; below the root
    (`name` not empty) ``seed`` is left out, as it comes from the root. A
    ValueError, TypeError or SchemaError from its ``__post_init__`` becomes
    a SchemaError prefixed with `name`. Any other annotation takes the
    value as it is, for a ``__post_init__`` to check.
    """
    origin, args = typing.get_origin(kind), typing.get_args(kind)

    def wrong(expected: str) -> SchemaError:
        return SchemaError(f"{name} must be {expected}, got {value!r}")

    if dataclasses.is_dataclass(kind) or kind is dict or origin is dict:
        if not isinstance(value, dict):
            raise SchemaError(f"config key {name!r} must be a JSON object")
    if dataclasses.is_dataclass(kind):
        hints = _type_hints(kind)
        allowed = [f.name for f in dataclasses.fields(kind) if not (name and f.name == "seed")]
        unknown = sorted(set(value) - set(allowed))
        if unknown:
            where = f"{name} " if name else ""
            raise SchemaError(f"unknown {where}config key(s) {unknown}; allowed: {sorted(allowed)}")
        prefix = f"{name}." if name else ""
        parsed = {key: _typed(hints[key], prefix + key, item) for key, item in value.items()}
        try:
            return kind(**parsed)
        except (TypeError, ValueError, SchemaError) as exc:
            raise SchemaError(f"{name}: {exc}" if name else str(exc)) from None
    if origin is dict:
        return {key: _typed(args[1], f"{name}.{key}", item) for key, item in value.items()}
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _typed(inner, name, value)
    if origin is list:
        try:
            if isinstance(value, list) and value:
                return [_typed(args[0], name, item) for item in value]
        except SchemaError:
            pass
        raise wrong(f"a non-empty list of {args[0].__name__} values")
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise wrong("a boolean")
    if kind in (int, float):
        try:
            ok = not isinstance(value, bool) and math.isfinite(value)
            ok = ok and (kind is float or value == int(value))
        except (TypeError, OverflowError):
            ok = False
        if ok:
            return kind(value)
        raise wrong("an integer" if kind is int else "a finite number" if isinstance(value, float) else "a number")
    if kind is str:
        if isinstance(value, str):
            return value
        raise wrong("a string")
    return value
