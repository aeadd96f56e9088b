"""Binary checkpoint files for named parameter sets.

Layout (little-endian): magic ``TFCK``, format version u32, parameter count
u32, then per parameter: name length u32, UTF-8 name, rank u32, one u32 per
dimension, and the data as raw 32-bit floats in row-major order.
"""

import io
import math
import mmap
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
    """Read a checkpoint into an ordered name -> float32 ndarray dict.

    Each parameter's bytes are read straight into its own array, once its
    declared size has been checked against the bytes left in the file. The
    headers are parsed from a read-only map of the file; only the pages they
    sit on are touched, so the load holds one copy of the parameters.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            return _read_params(path, fh, mapped)


def _read_params(path: str, fh, view) -> dict:
    """The parameters of the open checkpoint ``fh``, whose bytes ``view`` maps."""
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
                name = view[offset:offset + name_len].decode("utf-8")
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
            left = len(view) - offset
            if 4 * n <= left:  # no allocation beyond what the file holds
                data = np.empty(n, dtype="<f4")
                fh.seek(offset)
                left = fh.readinto(data)
            if 4 * n > left:
                raise DataFormatError(
                    f"{path}: truncated checkpoint: parameter {name!r} of shape {dims} "
                    f"needs {4 * n} bytes, {left} left")
            offset += 4 * n
            try:
                params[name] = data.reshape(dims)
            except ValueError as exc:  # numpy refuses the shape: too many dims or too big
                raise DataFormatError(f"{path}: parameter {name!r} has an invalid shape "
                                      f"{dims} ({exc})") from exc
    except struct.error as exc:
        raise DataFormatError(f"{path}: truncated checkpoint ({exc})") from exc
    if offset != len(view):
        raise DataFormatError(f"{path}: {len(view) - offset} trailing bytes")
    return params
