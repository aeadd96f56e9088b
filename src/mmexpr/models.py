"""Model components: fusion affine, temporal encoders, classification head.

The fusion layer concatenates the per-frame visual and audio vectors and maps
them to d_model with one affine (no activation). Temporal encoding is either
an LSTM whose final (hidden, cell) state seeds the next segment of a video, or
a per-segment transformer encoder that treats segments independently. Both
answer ``encode_segment(g, x, state) -> (out, state)``: the state is a value
the caller passes from one segment to the next, starting each video at None;
the models hold none of it. A two-hidden-layer ReLU head produces 8-way
logits; its dropout is what differentiates the two RDrop passes on the LSTM
path.
"""

from __future__ import annotations

import json
import math
import types
from dataclasses import MISSING, dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import NUM_CLASSES
from .errors import DataFormatError, NonFiniteError, ShapeError
from .tensor import DTYPE, Graph, Tensor, all_finite

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
    if origin in (list, tuple):
        return origin(_read(v, get_args(hint)[0], f"{key}[{i}]") for i, v in enumerate(value))
    return float(value) if origin is float else value


class JsonConfig:
    """Dataclass base whose JSON form follows its fields.

    A field is stored under its own name unless its ``json`` metadata gives a
    dotted key path. Absent keys take the field default; a present value must
    have the JSON type of its field, else ``DataFormatError`` names its key.
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
            value = getattr(self, f.name)
            node[name] = (value.to_json() if isinstance(value, JsonConfig)
                          else json.loads(json.dumps(value)))
        return doc

    @classmethod
    def from_json(cls, doc, key: str = ""):
        return cls(**{f.name: cls.read_field(doc, f.name, key) for f in fields(cls)}).validate()

    @classmethod
    def read_field(cls, doc, name: str, key: str = ""):
        """Field ``name`` of the document ``doc`` (stored under ``key``): its
        default when absent, else its value with the JSON type checked."""
        f = cls.__dataclass_fields__[name]
        node, where = doc, key
        for part in f.metadata.get("json", name).split("."):
            node = _read(node, dict, where).get(part, MISSING)
            where = f"{where}.{part}" if where else part
            if node is MISSING:
                return f.default_factory() if f.default is MISSING else f.default
        return _read(node, get_type_hints(cls)[name], where)


@dataclass
class LstmSettings(JsonConfig):
    hidden: int = 256
    layers: int = 1


@dataclass
class TransformerSettings(JsonConfig):
    layers: int = 4
    heads: int = 4
    dropout: float = 0.3
    ffn_dim: int = 2048
    positional_encoding: bool = True


@dataclass
class ModelConfig(JsonConfig):
    """Resolved model architecture; defaults follow the reference training setup."""

    encoder: str = "lstm"
    d_model: int = 1024
    lstm: LstmSettings = field(default_factory=LstmSettings)
    transformer: TransformerSettings = field(default_factory=TransformerSettings)
    head: tuple[int, ...] = (512, 256)
    classes: int = NUM_CLASSES
    seg_len: int = field(default=128, metadata={"json": "segment.l"})
    stride: int | None = field(default=None, metadata={"json": "segment.p"})
    head_dropout: float = 0.3

    def __post_init__(self):
        if self.stride is None:  # p defaults to l: adjacent, non-overlapping windows
            self.stride = self.seg_len

    def validate(self):
        if self.encoder not in ("lstm", "transformer"):
            raise DataFormatError(f"model.encoder must be lstm or transformer, got {self.encoder!r}")
        trm = self.transformer
        sizes = {"d_model": self.d_model, "lstm.hidden": self.lstm.hidden,
                 "lstm.layers": self.lstm.layers, "transformer.layers": trm.layers,
                 "transformer.heads": trm.heads, "transformer.ffn_dim": trm.ffn_dim,
                 "segment.l": self.seg_len,
                 **{f"head[{i}]": size for i, size in enumerate(self.head)}}
        for key, size in sizes.items():
            if size < 1:
                raise DataFormatError(f"model.{key} must be >= 1, got {size}")
        for key, rate in (("transformer.dropout", trm.dropout),
                          ("head_dropout", self.head_dropout)):
            if not 0.0 <= rate < 1.0:
                raise DataFormatError(f"model.{key} must be in [0, 1), got {rate}")
        if self.classes != NUM_CLASSES:
            raise DataFormatError(f"model.classes must be {NUM_CLASSES}, got {self.classes}")
        if not 1 <= self.stride <= self.seg_len:
            raise DataFormatError(
                f"stride {self.stride} must be in [1, segment length {self.seg_len}]")
        if self.encoder == "lstm" and self.stride != self.seg_len:
            raise DataFormatError("the LSTM encoder requires stride == segment length "
                                  "(adjacent segments must not overlap)")
        if self.encoder == "transformer" and self.d_model % trm.heads:
            raise DataFormatError(f"d_model {self.d_model} not divisible by "
                                  f"{trm.heads} attention heads")
        return self


def xavier(rng, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape or (fan_in, fan_out)).astype(DTYPE)


class FusionLayer:
    """Concat-then-affine map from modality vectors to d_model (no activation)."""

    def __init__(self, input_dim: int, d_model: int, rng, params: dict, prefix="fusion"):
        self.input_dim = input_dim
        self.d_model = d_model
        self.weight = Tensor(xavier(rng, input_dim, d_model), requires_grad=True,
                             name=f"{prefix}.weight")
        self.bias = Tensor(np.zeros(d_model, DTYPE), requires_grad=True,
                           name=f"{prefix}.bias")
        params[self.weight.name] = self.weight
        params[self.bias.name] = self.bias

    def apply(self, g: Graph, fused_inputs: Tensor) -> Tensor:
        if fused_inputs.shape[-1] != self.input_dim:
            raise ShapeError(f"fuse: input dim {fused_inputs.shape[-1]} != layer dim {self.input_dim}")
        return g.affine(fused_inputs, self.weight, self.bias)


class LstmEncoder:
    """Unidirectional LSTM over segment frames.

    ``state`` is the per-layer (hidden, cell) pair a segment ends with, detached
    from the gradient graph (truncated backpropagation); passing it to the next
    segment of the video continues the recurrence, and None starts from zeros.
    """

    has_dropout = False  # the two RDrop passes share one encoding

    def __init__(self, input_dim: int, settings: LstmSettings, rng, params: dict):
        self.input_dim = input_dim
        self.hidden = settings.hidden
        self.num_layers = settings.layers
        self.weights = []
        in_dim = input_dim
        for li in range(self.num_layers):
            w_in = Tensor(xavier(rng, in_dim, 4 * self.hidden), requires_grad=True,
                          name=f"lstm{li}.input_weight")
            w_state = Tensor(xavier(rng, self.hidden, 4 * self.hidden), requires_grad=True,
                             name=f"lstm{li}.state_weight")
            bias_init = np.zeros(4 * self.hidden, DTYPE)
            bias_init[self.hidden:2 * self.hidden] = 1.0  # open forget gates at start
            bias = Tensor(bias_init, requires_grad=True, name=f"lstm{li}.bias")
            for t in (w_in, w_state, bias):
                params[t.name] = t
            self.weights.append((w_in, w_state, bias))
            in_dim = self.hidden

    def forward(self, g: Graph, x: Tensor, state=None, rng=None, train: bool = False):
        """Run one segment from ``state`` (a per-layer list of (h, c) Tensors, or
        None for zeros); ``rng`` and ``train`` go unused.

        Returns (per-frame hidden outputs of the top layer, the new state).
        """
        frames = x
        new_state = []
        for li, (w_in, w_state, bias) in enumerate(self.weights):
            if state is None:
                h = Tensor(np.zeros((1, self.hidden), DTYPE))
                c = Tensor(np.zeros((1, self.hidden), DTYPE))
            else:
                h, c = state[li]
            pre = g.affine(frames, w_in, bias)  # input projection for all frames at once
            frames, c = g.lstm_seq(pre, w_state, h, c)
            new_state.append((Tensor(frames.data[-1:]), c))
        return frames, new_state

    encode_segment = forward

    @property
    def output_dim(self) -> int:
        return self.hidden


def sinusoidal_table(max_len: int, d_model: int) -> np.ndarray:
    """Fixed sine/cosine position features for positions 1..max_len."""
    positions = np.arange(1, max_len + 1, dtype=np.float64)[:, None]
    dims = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, dims / d_model)
    table = np.zeros((max_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return table.astype(DTYPE)


class TransformerEncoder:
    """Post-norm transformer encoder applied to one segment at a time."""

    has_dropout = True

    def __init__(self, d_model: int, seg_len: int, settings: TransformerSettings,
                 rng, params: dict):
        self.d_model = d_model
        self.seg_len = seg_len
        self.heads = settings.heads
        self.dropout = settings.dropout
        self.head_dim = d_model // self.heads
        self.pe = sinusoidal_table(seg_len, d_model) if settings.positional_encoding else None
        # residual branches start small (1/sqrt(2 * layers)) so stacked post-norm
        # layers keep usable gradients without a warmup schedule
        shrink = DTYPE(1.0 / math.sqrt(2.0 * settings.layers))
        self.layers = []
        for li in range(settings.layers):
            layer = {}
            for role in ("query", "key", "value", "out"):
                scale = shrink if role == "out" else DTYPE(1)
                layer[role + "_w"] = Tensor(xavier(rng, d_model, d_model) * scale,
                                            requires_grad=True,
                                            name=f"trm{li}.attn.{role}_weight")
                layer[role + "_b"] = Tensor(np.zeros(d_model, DTYPE), requires_grad=True,
                                            name=f"trm{li}.attn.{role}_bias")
            layer["ffn_in_w"] = Tensor(xavier(rng, d_model, settings.ffn_dim), requires_grad=True,
                                       name=f"trm{li}.ffn.in_weight")
            layer["ffn_in_b"] = Tensor(np.zeros(settings.ffn_dim, DTYPE), requires_grad=True,
                                       name=f"trm{li}.ffn.in_bias")
            layer["ffn_out_w"] = Tensor(xavier(rng, settings.ffn_dim, d_model) * shrink,
                                        requires_grad=True,
                                        name=f"trm{li}.ffn.out_weight")
            layer["ffn_out_b"] = Tensor(np.zeros(d_model, DTYPE), requires_grad=True,
                                        name=f"trm{li}.ffn.out_bias")
            for norm in ("norm1", "norm2"):
                layer[norm + "_gain"] = Tensor(np.ones(d_model, DTYPE), requires_grad=True,
                                               name=f"trm{li}.{norm}.gain")
                layer[norm + "_shift"] = Tensor(np.zeros(d_model, DTYPE), requires_grad=True,
                                                name=f"trm{li}.{norm}.shift")
            for t in layer.values():
                params[t.name] = t
            self.layers.append(layer)

    def _drop(self, g, x, rng, train):
        if train and self.dropout > 0.0:
            return g.dropout(x, self.dropout, rng=rng)
        return x

    def _split_heads(self, g, x, layer, role, axes):
        """The ``role`` projection of ``x`` as a (heads, ...) stack laid out by ``axes``."""
        projected = g.affine(x, layer[role + "_w"], layer[role + "_b"])
        return g.transpose(g.reshape(projected, (x.shape[0], self.heads, self.head_dim)), axes)

    def forward(self, g: Graph, x: Tensor, rng=None, train: bool = False):
        window = x.shape[0]
        if window > self.seg_len:
            raise ShapeError(f"segment window {window} exceeds segment length "
                             f"{self.seg_len}")
        if self.pe is not None:
            x = g.add(x, Tensor(self.pe[:window]))
        inv_sqrt = 1.0 / math.sqrt(self.head_dim)
        for layer in self.layers:
            q = self._split_heads(g, x, layer, "query", (1, 0, 2))  # (H, L, d_h)
            k = self._split_heads(g, x, layer, "key", (1, 2, 0))    # (H, d_h, L)
            v = self._split_heads(g, x, layer, "value", (1, 0, 2))  # (H, L, d_h)
            attention = g.softmax(g.scale(g.matmul(q, k), inv_sqrt))
            context = g.matmul(self._drop(g, attention, rng, train), v)
            merged = g.reshape(g.transpose(context, (1, 0, 2)), (window, self.d_model))
            projected = self._drop(g, g.affine(merged, layer["out_w"], layer["out_b"]),
                                   rng, train)
            x = g.layer_norm(g.add(x, projected), layer["norm1_gain"], layer["norm1_shift"])
            mid = self._drop(g, g.relu(g.affine(x, layer["ffn_in_w"], layer["ffn_in_b"])),
                             rng, train)
            ffn = self._drop(g, g.affine(mid, layer["ffn_out_w"], layer["ffn_out_b"]),
                             rng, train)
            x = g.layer_norm(g.add(x, ffn), layer["norm2_gain"], layer["norm2_shift"])
        return x

    def encode_segment(self, g: Graph, x: Tensor, state=None, rng=None, train: bool = False):
        """Segments are independent: ``state`` goes unused and comes back None."""
        return self.forward(g, x, rng, train), None

    @property
    def output_dim(self) -> int:
        return self.d_model


class ClassificationHead:
    """Two ReLU hidden stages then an 8-way output affine.

    Dropout precedes each hidden affine at train time, which is the source of
    stochasticity between the two RDrop passes when the encoder itself has none.
    """

    def __init__(self, input_dim: int, hidden_sizes, classes: int, dropout: float,
                 rng, params: dict):
        self.dropout = dropout
        self.stages = []
        in_dim = input_dim
        for i, size in enumerate(hidden_sizes):
            w = Tensor(xavier(rng, in_dim, size), requires_grad=True, name=f"head.hidden{i}.weight")
            b = Tensor(np.zeros(size, DTYPE), requires_grad=True, name=f"head.hidden{i}.bias")
            params[w.name] = w
            params[b.name] = b
            self.stages.append((w, b))
            in_dim = size
        self.out_w = Tensor(xavier(rng, in_dim, classes), requires_grad=True, name="head.out.weight")
        self.out_b = Tensor(np.zeros(classes, DTYPE), requires_grad=True, name="head.out.bias")
        params[self.out_w.name] = self.out_w
        params[self.out_b.name] = self.out_b

    def forward(self, g: Graph, x: Tensor, rng=None, train: bool = False) -> Tensor:
        for w, b in self.stages:
            if train and self.dropout > 0.0:
                x = g.dropout(x, self.dropout, rng=rng)
            x = g.relu(g.affine(x, w, b))
        return g.affine(x, self.out_w, self.out_b)


class ExpressionModel:
    """Fusion + temporal encoder + head, with named parameters for checkpoints."""

    def __init__(self, config: ModelConfig, input_dim: int, rng):
        config.validate()
        self.config = config
        self.input_dim = input_dim
        self.params: dict = {}
        self.fusion = FusionLayer(input_dim, config.d_model, rng, self.params)
        if config.encoder == "lstm":
            self.encoder = LstmEncoder(config.d_model, config.lstm, rng, self.params)
        else:
            self.encoder = TransformerEncoder(config.d_model, config.seg_len,
                                              config.transformer, rng, self.params)
        self.head = ClassificationHead(self.encoder.output_dim, config.head,
                                       config.classes, config.head_dropout, rng, self.params)

    # -- parameter management --

    def parameters(self) -> dict:
        return self.params

    def load_state(self, arrays: dict):
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise ShapeError(f"checkpoint mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for name, p in self.params.items():
            arr = np.asarray(arrays[name], dtype=DTYPE)
            if arr.shape != p.data.shape:
                raise ShapeError(f"parameter {name!r}: checkpoint shape {arr.shape} "
                                 f"!= model shape {p.data.shape}")
            with np.errstate(over="ignore"):
                finite = all_finite(arr)
            if not finite:
                raise NonFiniteError(f"parameter {name!r}: NaN or infinity in checkpoint")
            p.data = p.checked = np.ascontiguousarray(arr)
        return self

    @classmethod
    def from_state(cls, config: ModelConfig, arrays: dict) -> "ExpressionModel":
        """A model with the checkpoint ``arrays``, its input dim read from ``fusion.weight``."""
        weight = arrays.get("fusion.weight")
        if weight is None or weight.ndim != 2:
            raise ShapeError("checkpoint has no 2-D 'fusion.weight' to take the input dim from")
        return cls(config, weight.shape[0], np.random.default_rng(0)).load_state(arrays)

    # -- forward passes --

    def two_pass_logits(self, g: Graph, features: np.ndarray, state, rng) -> tuple:
        """Two stochastic forward passes over one segment (train mode), from the
        encoder ``state``; returns both passes' logits and the next state.

        The deterministic parts (fusion; an encoder without dropout, such as
        the LSTM) run once and are shared; the stochastic parts run twice.
        """
        fused = self.fusion.apply(g, Tensor(features))
        encoded, next_state = self.encoder.encode_segment(g, fused, state, rng=rng, train=True)
        first = self.head.forward(g, encoded, rng=rng, train=True)
        if self.encoder.has_dropout:
            encoded, _ = self.encoder.encode_segment(g, fused, state, rng=rng, train=True)
        return first, self.head.forward(g, encoded, rng=rng, train=True), next_state

    def eval_logits(self, g: Graph, features: np.ndarray, state=None) -> tuple:
        """Deterministic single pass (no dropout anywhere) from the encoder
        ``state``; returns the logits and the next state."""
        encoded, next_state = self.encoder.encode_segment(
            g, self.fusion.apply(g, Tensor(features)), state)
        return self.head.forward(g, encoded), next_state


def build_model(config: ModelConfig, input_dim: int, seed) -> ExpressionModel:
    rng = np.random.default_rng(seed)
    return ExpressionModel(config, input_dim, rng)
