"""Atomic file writes, and the JSON and CSV readers whose decoding faults name the file."""

import csv
import json
import os
import tempfile
from contextlib import contextmanager

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
