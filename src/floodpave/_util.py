"""Small shared helpers: the readers of every input file, atomic file writes, indented JSON,
stage-scoped seeding and typed config values."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import tempfile
import types
import typing
import zlib

import numpy as np

from .errors import SchemaError


def not_utf8(path, exc: UnicodeDecodeError) -> SchemaError:
    """The SchemaError for an input file that does not decode as UTF-8."""
    byte = exc.object[exc.start]
    return SchemaError(f"{path}: not UTF-8 text (byte 0x{byte:02x} cannot be decoded)")


@contextlib.contextmanager
def read_csv(path, required):
    """The stripped header and a ``csv.reader`` over the rows of UTF-8 CSV file ``path``.

    A leading byte-order mark is ignored. An empty file, a header lacking
    columns of ``required`` (all named), and, when the rows are read in
    the ``with`` block, a file that is not UTF-8 or that the csv module
    cannot parse (such as a cell over ``csv.field_size_limit()``) are a
    SchemaError naming the file; one that cannot be read is an OSError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, no header row")
            header = [h.strip() for h in header]
            missing = [c for c in required if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {missing}")
            yield header, reader
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from None
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def read_json(path):
    """The JSON document in UTF-8 file ``path``, a leading byte-order mark ignored; a file
    that is not UTF-8 or not JSON is a SchemaError naming it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


@contextlib.contextmanager
def atomic_file(path):
    """A text file to write ``path`` through: a temp file renamed into place
    when the block ends, and removed if it raises, so readers never see
    partial output. The file gets ``open``'s mode, not ``mkstemp``'s 0600."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through ``atomic_file``."""
    with atomic_file(path) as fh:
        fh.write(text)


def json_default(obj):
    """The JSON form of a numpy array or scalar, for ``json_chunks``' ``default``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def json_chunks(obj, sort_keys: bool = False, default=json_default):
    """Yield the text of ``json.dumps(obj, indent=2, sort_keys=sort_keys, default=default)``.

    The chunks join to the stdlib's bytes, but the stdlib drops to its
    pure-Python encoder under ``indent`` and makes a chunk per number.
    Here an array of numbers (ints, floats and bools) is one call of the
    C encoder, whose ``", "`` separators become a newline and the
    indent: no JSON number, ``true`` or ``false`` contains ``", "``.
    Containers, strings and other scalars are written as the stdlib
    writes them. ``default`` is called, as there, on any other value,
    when the writer reaches it, so a caller can pass objects that
    become large lists one at a time. Keys must be strings; any other
    key raises TypeError. Circular references are not detected.
    """
    return _chunks(obj, "\n", sort_keys, default)


def _chunks(obj, newline: str, sort_keys: bool, default):
    """``json_chunks`` of ``obj``, whose own line starts after ``newline``."""
    if obj is None or isinstance(obj, (str, int, float)):
        yield json.dumps(obj)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = newline + "  "
        if all(issubclass(kind, (int, float)) for kind in set(map(type, obj))):
            yield "[" + inner
            yield json.dumps(obj)[1:-1].replace(", ", "," + inner)
        else:
            separator = "[" + inner
            for item in obj:
                yield separator
                yield from _chunks(item, inner, sort_keys, default)
                separator = "," + inner
        yield newline + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in sorted(obj.items()) if sort_keys else obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield separator + json.dumps(key) + ": "
            yield from _chunks(value, inner, sort_keys, default)
            separator = "," + inner
        yield newline + "}"
    else:
        yield from _chunks(default(obj), newline, sort_keys, default)


def stage_seed(root_seed: int, label: str, index: int | None = None) -> np.random.SeedSequence:
    """Derive a per-stage seed stream from one root seed.

    The label keys the pipeline stage and the optional index keys a unit
    of work inside it (a model kind in `train`), so partial re-runs
    consume exactly the same streams as a full run.
    """
    entropy = [root_seed & 0xFFFFFFFF, zlib.crc32(label.encode("utf-8"))]
    if index is not None:
        entropy.append(index)
    return np.random.SeedSequence(entropy)


def stage_rng(root_seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(stage_seed(root_seed, label))


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
