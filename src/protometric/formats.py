"""File formats: one JSON codec for records, the CSV row source and one CSV writer.

`open_table` and `_rows` walk a CSV table with `csv.reader`; the one reader
of numeric tables, `data.read_numeric`, reads its rows through them.

A record is a dataclass that mixes in `Record`. Its JSON keys are its field
names (field metadata "key" renames one), and an absent key takes the field
default. `from_dict` rejects an unknown key, a section that is not an object
and a value of the wrong JSON type with a ValueError naming the key path; a
float field also takes a JSON integer. A float field or number array must be
finite, which rejects a literal beyond the float range such as 1e309 (read
as inf). Value checks stay with each class.
Imports no numpy: the CLI's run config is built before `--threads` pins BLAS.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import re
import sys
import types
import typing


class DataError(ValueError):
    """Malformed dataset file or inconsistent dataset contents."""


def json_text(payload) -> str:
    """The text of every JSON file written: indent 2, sorted keys, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reject_constant(name: str):
    raise ValueError(f"JSON constant {name} is not allowed: numbers must be finite")


def parse_json(text: str):
    """The value of a JSON document; NaN, Infinity and -Infinity are rejected,
    and so is nesting deeper than the interpreter's recursion limit allows."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number",
               float: "a number", str: "a string", list: "an array", dict: "an object"}
_SCALARS = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), str: ((str,), "a string")}


def _wrong_type(path: str, want: str, value) -> ValueError:
    where = repr(path) if path else "the top level"
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    return ValueError(f"{where} must be {want}, got {got}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@functools.cache
def _fields(cls) -> dict:
    """JSON key -> (field name, type, required) per field of a record class."""
    # hints resolve in the class's own module, so a record loads no module it
    # does not name; one its module binds only for type checking (the CLI's
    # TrainConfig) resolves among the package's exports
    try:
        hints = typing.get_type_hints(cls)
    except NameError as exc:
        package = sys.modules[__package__]
        hints = typing.get_type_hints(cls, localns={exc.name: getattr(package, exc.name)})
    return {f.metadata.get("key", f.name): (f.name, hints[f.name],
                                            f.default is dataclasses.MISSING
                                            and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def _encode(value):
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value.tolist() if hasattr(value, "tolist") else value  # numpy arrays


@functools.cache
def _unwrap(hint):
    """("optional", X) for X | None, ("tuple", X) for tuple[X, ...], else (None, hint)."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return "optional", inner
    if origin is tuple:
        return "tuple", typing.get_args(hint)[0]
    return None, hint


def _decode(hint, value, path: str):
    if hint in _SCALARS:
        takes, want = _SCALARS[hint]
        if type(value) not in takes:
            raise _wrong_type(path, want, value)
        try:
            value = hint(value)
        except OverflowError:  # a JSON integer beyond the float range
            raise ValueError(f"{path!r} is too large for a float") from None
        if hint is float and not math.isfinite(value):
            raise ValueError(f"{path!r} must be finite, got {value}")
        return value
    kind, inner = _unwrap(hint)
    if kind == "optional":
        return None if value is None else _decode(inner, value, path)
    if kind == "tuple":
        if not isinstance(value, list):
            raise _wrong_type(path, "an array", value)
        return tuple(_decode(inner, v, f"{path}[{i}]") for i, v in enumerate(value))
    if issubclass(hint, Record):
        return hint.from_dict(value, path)
    import numpy as np  # the remaining type, ndarray: float64 from nested number lists

    try:
        array = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise _wrong_type(path, "an array of numbers", value)
    cells = value  # numpy reads true/false in a number array as 1/0
    for _ in range(array.ndim - 1):
        cells = itertools.chain.from_iterable(cells)
    if bool in map(type, cells):
        raise ValueError(f"{path!r} must be an array of numbers, got a boolean in it")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{path!r} must be an array of finite numbers")
    return array.astype(np.float64, copy=False)


class Record:
    """Mixin giving a dataclass its JSON object form (see the module docstring)."""

    def to_dict(self) -> dict:
        return {key: _encode(getattr(self, name))
                for key, (name, _, _) in _fields(type(self)).items()}

    @classmethod
    def from_dict(cls, d, path: str = ""):
        if not isinstance(d, dict):
            raise _wrong_type(path, "an object", d)
        fields = _fields(cls)
        for key in d:
            if key not in fields:
                raise ValueError(f"unknown key {_join(path, key)!r}")
        kwargs = {}
        for key, (name, hint, required) in fields.items():
            if key in d:
                kwargs[name] = _decode(hint, d[key], _join(path, key))
            elif required:
                raise ValueError(f"missing key {_join(path, key)!r}")
        return cls(**kwargs)


def _rows(fh):
    """The non-blank rows of a CSV file; a row csv cannot read raises DataError."""
    r = 0
    try:
        for row in csv.reader(fh):
            if row:
                r += 1
                yield row
    except csv.Error as exc:
        raise DataError(f"row {r + 1}: {exc}") from None


def open_table(source):
    """A context manager giving the text stream of a table: `source` is a
    path, CSV text when it is a string holding a newline, or a text stream,
    which comes back as it is and stays open."""
    if isinstance(source, io.TextIOBase):
        return contextlib.nullcontext(source)
    if isinstance(source, str) and "\n" in source:
        return io.StringIO(source)
    return open(source, "r", encoding="utf-8-sig")


_QUOTED = re.compile(r'[",\r\n]')


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, str) and _QUOTED.search(value):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def csv_text(header, rows) -> str:
    """CSV text of a table: floats in `repr` form, None empty, "\\n" line ends.

    A text cell holding a comma, a quote or a line break is quoted, its
    quotes doubled (the minimal quoting `csv.reader` reads back); no other
    cell is. Rows hold Python scalars (`ndarray.tolist()`), not numpy scalars.
    """
    lines = [",".join(map(_cell, header))]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"
