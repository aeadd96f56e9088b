"""Binary checkpoint files for named parameter sets.

Layout (little-endian): magic ``TFCK``, format version u32, parameter count
u32, then per parameter: name length u32, UTF-8 name, rank u32, one u32 per
dimension, and the data as raw 32-bit floats in row-major order.
"""

import math
import os
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


def save_checkpoint(params: dict, path: str) -> None:
    """Stream the checkpoint into a temp file that replaces ``path`` whole."""
    with atomic_writer(path) as fh:
        _write_checkpoint(params, fh)


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint into an ordered name -> float32 ndarray dict.

    The file is read front to back through one handle. Each declared size is
    checked against the bytes left before it is read or allocated, and each
    parameter's bytes are read straight into its own array, so the load holds
    one copy of the parameters.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> np.ndarray:
            """The next ``n`` bytes, allocated only once the file is known to hold them."""
            nonlocal left
            if n > left or fh.readinto(buf := np.empty(n, np.uint8)) != n:
                raise DataFormatError(
                    f"{path}: truncated checkpoint: {what} needs {n} bytes, {left} left")
            left -= n
            return buf

        magic = read(4, "magic").tobytes()
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read(4, "name length"))
            try:
                name = read(name_len, "name").tobytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path}: parameter name is not UTF-8 ({exc})") from exc
            (rank,) = struct.unpack("<I", read(4, f"parameter {name!r} rank"))
            dims = struct.unpack(f"<{rank}I", read(4 * rank, f"parameter {name!r} dims"))
            if name in params:
                raise DataFormatError(f"{path}: parameter {name!r} appears twice")
            data = read(4 * math.prod(dims), f"parameter {name!r} of shape {dims}")
            try:
                params[name] = data.view("<f4").reshape(dims)
            except ValueError as exc:  # numpy refuses the shape: too many dims or too big
                raise DataFormatError(f"{path}: parameter {name!r} has an invalid shape "
                                      f"{dims} ({exc})") from exc
    if left:
        raise DataFormatError(f"{path}: {left} trailing bytes")
    return params
