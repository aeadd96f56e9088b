"""Multimodal temporal expression classification at desk scale.

Pipeline pieces: frame-aligned feature loading and repair, concat+affine
fusion, LSTM/Transformer temporal encoders over video segments, RDrop
training with Adam, macro-F1 evaluation, and vote-based ensembling of
prediction files.
"""

from .errors import DataFormatError, NonFiniteError, NumericError, ShapeError
from .tensor import DTYPE, Graph, Tensor, backward
from .optim import AdamState, adam_step

__version__ = "0.1.0"

__all__ = [
    "DTYPE", "Graph", "Tensor", "backward",
    "AdamState", "adam_step",
    "DataFormatError", "NonFiniteError", "NumericError", "ShapeError",
]
