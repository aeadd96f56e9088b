"""Atomic file writes, the JSON and CSV readers whose decoding faults name the
file, and ``JsonConfig``, the one codec between a JSON document and a
dataclass: the experiment config, the ensemble spec and the dataset manifest
are all read and written through it.
"""

import csv
import functools
import json
import os
import tempfile
import types
from contextlib import contextmanager
from dataclasses import MISSING, fields
from typing import get_args, get_origin, get_type_hints

from .errors import DataFormatError


def atomic_write_bytes(path, data: bytes) -> None:
    """Write bytes to path via a temp file + rename, so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, obj) -> None:
    """Serialize with sorted keys so identical inputs give identical bytes."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The JSON document in ``path``; a file that is not UTF-8 JSON raises
    ``DataFormatError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


@contextmanager
def csv_rows(path):
    """A ``csv.reader`` over the UTF-8 file ``path``; a byte that is not UTF-8 or a
    field the csv module refuses, met anywhere in the block, raises
    ``DataFormatError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# field type -> (accepted JSON value types, their name in messages)
_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"), str: ((str,), "a string"),
               float: ((int, float), "a number"), list: ((list,), "an array"),
               tuple: ((list,), "an array"), dict: ((dict,), "an object")}


def _read(value, hint, key: str):
    """``value`` as a field of type ``hint``; a wrong JSON type names ``key``."""
    if isinstance(hint, type) and issubclass(hint, JsonConfig):
        return hint.from_json(value, key)
    if isinstance(hint, types.UnionType):  # ``int | None``: the JSON holds the int
        hint = get_args(hint)[0]
    origin = get_origin(hint) or hint
    accepted, name = _JSON_TYPES[origin]
    if not isinstance(value, accepted) or (isinstance(value, bool) and origin is not bool):
        raise DataFormatError(f"{key or 'config'}: expected {name}, got {json.dumps(value)}")
    args = get_args(hint)
    if origin in (list, tuple):
        return origin(_read(v, args[0], f"{key}[{i}]") for i, v in enumerate(value))
    if origin is dict and args:  # ``dict[str, T]``: each value a T
        return {k: _read(v, args[1], f"{key}.{k}") for k, v in value.items()}
    return float(value) if origin is float else value


def _write(value):
    """The JSON form of a field value."""
    if isinstance(value, JsonConfig):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_write(v) for v in value]
    return json.loads(json.dumps(value))


@functools.cache
def _hints(cls) -> dict:
    return get_type_hints(cls)


class JsonConfig:
    """Dataclass base whose JSON form follows its fields.

    A field is stored under its own name unless its ``json`` metadata gives a
    dotted key path. Absent keys take the field default, and a field without
    one must be present; a present value must have the JSON type of its field.
    Either fault raises ``DataFormatError`` naming the key.
    """

    def validate(self):
        return self

    def to_json(self) -> dict:
        doc = {}
        for f in fields(self):
            *sections, name = f.metadata.get("json", f.name).split(".")
            node = doc
            for section in sections:
                node = node.setdefault(section, {})
            node[name] = _write(getattr(self, f.name))
        return doc

    @classmethod
    def from_json(cls, doc, key: str = ""):
        return cls(**{f.name: cls.read_field(doc, f.name, key) for f in fields(cls)}).validate()

    @classmethod
    def read_field(cls, doc, name: str, key: str = ""):
        """Field ``name`` of the document ``doc`` (stored under ``key``): its
        default when absent, else its value with the JSON type checked."""
        f = cls.__dataclass_fields__[name]
        path = f.metadata.get("json", name)
        node, where = doc, key
        for part in path.split("."):
            node = _read(node, dict, where).get(part, MISSING)
            where = f"{where}.{part}" if where else part
            if node is MISSING:
                if f.default is not MISSING:
                    return f.default
                if f.default_factory is not MISSING:
                    return f.default_factory()
                raise DataFormatError(f"{key or 'config'}: missing field {path!r}")
        return _read(node, _hints(cls)[name], where)
