"""Atomic file writes, streamed or whole; ``SizedReader``, the one bounded
reader of both binary formats; the JSON reader and ``CsvTable``, whose faults
name the file, ``CsvTable`` checking a CSV format's ordered rule
table over whole columns; ``resolve_beside`` for a path written in a file;
and ``JsonConfig``, the one codec between a JSON document and a dataclass,
through which the experiment config, the ensemble spec and the dataset
manifest are all read.
"""

import contextlib
import csv
import functools
import io
import json
import os
import struct
import tempfile
import types
import warnings
from dataclasses import MISSING, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import DataFormatError


@contextlib.contextmanager
def atomic_writer(path):
    """A binary file whose bytes replace ``path`` in one rename when the block
    ends, so readers never see a partial file; on an exception the temp file
    goes and ``path`` stays as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    """Write bytes to path through ``atomic_writer``."""
    with atomic_writer(path) as fh:
        fh.write(data)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, obj) -> None:
    """Serialize with sorted keys so identical inputs give identical bytes."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


class SizedReader:
    """The binary file ``fh`` the caller opened from ``path``, read front to back
    after its ``magic`` (a file too short for it has a bad one). Each read is
    checked against the bytes left, counted from the file's size, before
    anything is allocated; a short read (the file was cut after its size was
    taken) and, at ``end``, trailing bytes are refused too. Each fault is a
    ``DataFormatError`` naming the file and, for a truncation, ``kind``."""

    def __init__(self, fh, path, kind: str, magic: bytes):
        self.fh, self.path, self.kind = fh, path, kind
        self.left = os.fstat(fh.fileno()).st_size
        got = self.read(min(len(magic), self.left), "magic").tobytes()
        if got != magic:
            raise DataFormatError(f"{path}: bad magic {got!r}, expected {magic!r}")

    def read(self, n: int, what: str) -> np.ndarray:
        """The next ``n`` bytes, as a fresh uint8 array."""
        if n > self.left or self.fh.readinto(buf := np.empty(n, np.uint8)) != n:
            raise DataFormatError(f"{self.path}: truncated {self.kind}: {what} needs {n} bytes, "
                                  f"{self.left} left")
        self.left -= n
        return buf

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return self.read(n, what).tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{self.path}: {what} is not UTF-8 ({exc})") from exc

    def end(self) -> None:
        if self.left:
            raise DataFormatError(f"{self.path}: {self.left} trailing bytes")


def read_json(path):
    """The JSON document in ``path``; a file that is not UTF-8 JSON raises
    ``DataFormatError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def resolve_beside(base_file, path: str) -> str:
    """``path`` as written in the file ``base_file``: a relative path resolves
    against that file's directory, an absolute one stays as it is."""
    return os.path.join(os.path.dirname(os.path.abspath(base_file)), path)


class CsvTable:
    """The records of the UTF-8 CSV file ``path``.

    ``header`` is the first record. A plain file, as the package's writers
    write, has an ASCII header line without ``"``, CR or NUL, no line blank or
    past the csv field size limit, and only the bytes ``0-9.eE+-,`` and LF
    after its header, where NumPy's parsers read a token as ``int`` and
    ``float`` do. ``columns`` parses its body in one ``np.loadtxt`` call.
    Any other file, or a plain one that call refuses or a rule faults, is read
    in one ``csv.reader`` pass, which defines the format and words each fault:
    ``rows`` are the non-blank records after the header and ``lines[i]`` is the
    record number of ``rows[i]``, the header's being 1. A file without records
    raises ``DataFormatError`` naming it as an empty ``what`` file. A byte that
    is not UTF-8 or a field the csv module refuses ends the read. The records
    before it are kept, so that a fault in them is reported first, as a
    row-by-row reader would; ``columns`` raises the read fault only once they
    pass.
    """

    def __init__(self, path, what: str):
        self.path, self.what = path, what
        with open(path, "rb") as fh:
            self.data = fh.read()
        lines = self.data.split(b"\n")
        self.n_rows = len(lines) - 1 - (lines[-1] == b"")  # the lines after the header
        self.plain = (len(lines) > 1 and b"" not in lines[:-1] and lines[0].isascii()
                      and not any(c in lines[0] for c in b'"\r\0')
                      and not self.data[len(lines[0]):].translate(None, b"0123456789.eE+-,\n")
                      and max(map(len, lines)) <= csv.field_size_limit())
        if self.plain:
            self.header = lines[0].decode().split(",")
        else:
            self._read()

    def _read(self) -> None:
        self.read_error = None
        records = []
        try:  # extend keeps the records read before a fault
            records.extend(csv.reader(io.TextIOWrapper(io.BytesIO(self.data), "utf-8", newline="")))
        except (UnicodeDecodeError, csv.Error) as exc:
            self.read_error = DataFormatError(f"{self.path}: {exc}")
        if not records:
            raise self.read_error or DataFormatError(f"{self.path}: empty {self.what} file")
        self.header, *body = records
        self.rows = list(filter(None, body))
        self.lines = (np.arange(2, len(body) + 2) if len(self.rows) == len(body)
                      else np.array([line for line, row in enumerate(body, 2) if row], int))

    def columns(self, types, rules, malformed: str) -> list:
        """The rows' columns as arrays, column ``c`` converted by ``types[c]``,
        ``int`` or ``float`` (object arrays of ints if one is past int64).

        ``rules`` is the format's ordered table of ``(mask, template)`` pairs:
        ``mask(records, *columns)`` marks the rows breaking the rule, ``records``
        being their line numbers less 1, and ``template.format(record, *row)``
        names the fault from the row's values. The first faulty line raises
        ``DataFormatError``: the first row a rule marks (the earlier rule on a
        tie) before the first with a field count other than ``len(types)`` or
        a field its type refuses (``malformed``); else that row; else the read
        fault.
        """
        if self.plain:
            dtype = [(str(c), np.int64 if t is int else np.float64) for c, t in enumerate(types)]
            try:  # NumPy < 2 warns as it reads 1.0 into an int column: a refusal here
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    table = np.loadtxt(io.StringIO(self.data.partition(b"\n")[2].decode()), dtype,
                                       comments=None, delimiter=",", ndmin=1)
            except (ValueError, OverflowError, Warning):
                table = None
            if table is not None and len(table) == self.n_rows:
                arrays = [table[name].copy() for name, _ in dtype]  # copies free the row records
                records = np.arange(1, len(table) + 1)
                if not any(mask(records, *arrays).any() for mask, _ in rules):
                    return arrays
            self._read()
        width, rows = len(types), self.rows
        lengths = list(map(len, rows))
        end = min(map(lengths.index, set(lengths) - {width}), default=len(rows))
        values = []
        for t, column in zip(types, list(zip(*rows[:end])) or [()] * width):
            values.append([])
            try:  # extend keeps the fields before a refused one: their count is its row
                values[-1].extend(map(t, column[:end]))
            except ValueError:
                end = len(values[-1])
        for column in values:
            del column[end:]
        try:
            arrays = [np.array(v, t) for v, t in zip(values, types)]
        except OverflowError:  # an int past int64: compare the Python ints exactly
            arrays = [np.array(v, float if t is float else object) for v, t in zip(values, types)]
        records = self.lines[:end] - 1
        first = [np.flatnonzero(mask(records, *arrays))[:1] for mask, _ in rules]
        marked = [(hits[0], order) for order, hits in enumerate(first) if hits.size]
        if marked:
            row, order = min(marked)
            fault = rules[order][1].format(records[row], *(column[row] for column in values))
        elif end < len(rows):
            row, fault = end, (f"expected {width} fields, got {lengths[end]}"
                               if lengths[end] != width else malformed)
        elif self.read_error:
            raise self.read_error
        else:
            return arrays
        raise DataFormatError(f"{self.path}: line {self.lines[row]}: {fault}")


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
