"""Binary checkpoint files for named parameter sets.

Layout (little-endian): magic ``TFCK``, format version u32, parameter count
u32, then per parameter: name length u32, UTF-8 name, rank u32, one u32 per
dimension, and the data as raw 32-bit floats in row-major order.
"""

import math
import struct

import numpy as np

from .errors import DataFormatError
from .fileio import SizedReader, atomic_writer
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
    """Read a checkpoint into an ordered name -> float32 ndarray dict through
    ``SizedReader``, each parameter's bytes straight into its own array, so
    the load holds one copy of the parameters."""
    with open(path, "rb") as fh:
        file = SizedReader(fh, path, "checkpoint", MAGIC)
        version, count = file.unpack("<II", "header")
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        params = {}
        for _ in range(count):
            (name_len,) = file.unpack("<I", "name length")
            name = file.text(name_len, "parameter name")
            (rank,) = file.unpack("<I", f"parameter {name!r} rank")
            dims = file.unpack(f"<{rank}I", f"parameter {name!r} dims")
            if name in params:
                raise DataFormatError(f"{path}: parameter {name!r} appears twice")
            data = file.read(4 * math.prod(dims), f"parameter {name!r} of shape {dims}")
            try:
                params[name] = data.view("<f4").reshape(dims)
            except ValueError as exc:  # numpy refuses the shape: too many dims or too big
                raise DataFormatError(f"{path}: parameter {name!r} has an invalid shape "
                                      f"{dims} ({exc})") from exc
        file.end()
    return params
