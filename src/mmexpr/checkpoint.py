"""Binary checkpoint files for named parameter sets.

Layout (little-endian): magic ``TFCK``, format version u32, parameter count
u32, then per parameter: name length u32, UTF-8 name, rank u32, one u32 per
dimension, and the data as raw 32-bit floats in row-major order.
"""

import io
import math
import struct

import numpy as np

from .errors import DataFormatError
from .fileio import atomic_writer
from .tensor import Tensor

MAGIC = b"TFCK"
FORMAT_VERSION = 1


def _write_checkpoint(params: dict, fh) -> None:
    """Serialize name -> Tensor/ndarray into the binary file ``fh`` in the
    dict's iteration order, each array's buffer written as it is."""
    fh.write(MAGIC)
    fh.write(struct.pack("<II", FORMAT_VERSION, len(params)))
    for name, value in params.items():
        arr = np.ascontiguousarray(
            value.data if isinstance(value, Tensor) else value, dtype="<f4")
        encoded = name.encode("utf-8")
        fh.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded,
                             arr.ndim, *arr.shape))
        fh.write(arr.reshape(-1).view(np.uint8))


def checkpoint_bytes(params: dict) -> bytes:
    """The checkpoint file of ``params``, as bytes."""
    buf = io.BytesIO()
    _write_checkpoint(params, buf)
    return buf.getvalue()


def save_checkpoint(params: dict, path: str) -> None:
    """Stream the checkpoint into a temp file that replaces ``path`` whole."""
    with atomic_writer(path) as fh:
        _write_checkpoint(params, fh)


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint into an ordered name -> float32 ndarray dict."""
    with open(path, "rb") as fh:
        raw = fh.read()
    view = memoryview(raw)
    if raw[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    try:
        version, count = struct.unpack_from("<II", view, 4)
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        offset = 12
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", view, offset)
            offset += 4
            try:
                name = bytes(view[offset:offset + name_len]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path}: parameter name is not UTF-8 ({exc})") from exc
            offset += name_len
            (rank,) = struct.unpack_from("<I", view, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", view, offset)
            offset += 4 * rank
            if name in params:
                raise DataFormatError(f"{path}: parameter {name!r} appears twice")
            n = math.prod(dims)
            if offset + 4 * n > len(raw):
                raise DataFormatError(
                    f"{path}: truncated checkpoint: parameter {name!r} of shape {dims} "
                    f"needs {4 * n} bytes, {len(raw) - offset} left")
            data = np.frombuffer(view, dtype="<f4", count=n, offset=offset)
            offset += 4 * n
            try:
                params[name] = data.reshape(dims).copy()
            except ValueError as exc:  # numpy refuses the shape: too many dims or too big
                raise DataFormatError(f"{path}: parameter {name!r} has an invalid shape "
                                      f"{dims} ({exc})") from exc
    except struct.error as exc:
        raise DataFormatError(f"{path}: truncated checkpoint ({exc})") from exc
    if offset != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return params
