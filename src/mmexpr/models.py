"""Model components: fusion affine, temporal encoders, classification head.

The fusion layer concatenates the per-frame visual and audio vectors and maps
them to d_model with one affine (no activation). Temporal encoding is either
an LSTM whose final (hidden, cell) state seeds the next segment of a video, or
a per-segment transformer encoder that treats segments independently. Both
answer ``encode_segment(g, x, state, masks, passes, windows) -> (out, state)``:
the state is a value the caller passes from one segment (or stack of
segments) to the next, starting each video at None; the models hold none of
it. A two-hidden-layer ReLU head produces 8-way logits. ``parameter`` makes
every trainable tensor and ``drop`` applies every dropout site.

The two RDrop passes of a segment run as one stack of rows: ``out`` holds
``passes`` copies of the segment's frames, one after the other, and every
dropout site takes one mask for the whole stack. The transformer runs its
layers once over the stack; the LSTM encodes once and repeats its output, so
on that path only the head's dropout tells the passes apart. Eval is the same
code with no masks and one pass over a stack of a video's consecutive
windows: ``windows`` gives their lengths, each window attends only within
itself, and the LSTM runs on from one window into the next.

The architecture settings (``ModelConfig``, ``LstmSettings``,
``TransformerSettings``) are ``fileio.JsonConfig`` dataclasses: the config
file's ``model`` section is read and written from their fields, and
``ModelConfig.validate`` checks the ranges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import NUM_CLASSES
from .errors import DataFormatError, NonFiniteError, ShapeError
from .fileio import JsonConfig
from .tensor import DTYPE, Graph, Tensor, all_finite, dropout_mask


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


def xavier(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out)).astype(DTYPE)


def parameter(params: dict, name: str, shape: tuple, rng, make=None) -> Tensor:
    """A trainable tensor of ``shape``, added to ``params`` (whose order the
    checkpoint keeps): ``make(rng, *shape)``, a draw from the init stream, or
    zeros without ``make``. With ``rng`` None nothing is drawn or allocated,
    and the tensor holds a read-only stand-in until ``load_state`` fills it."""
    if rng is None:
        tensor = Tensor(DTYPE(0), requires_grad=True, name=name)
        tensor.data = np.broadcast_to(tensor.data, shape)
    else:
        tensor = Tensor(np.zeros(shape, DTYPE) if make is None else make(rng, *shape),
                        requires_grad=True, name=name)
    params[name] = tensor
    return tensor


def drop(g: Graph, x: Tensor, rate: float, masks) -> Tensor:
    """Dropout with the next of ``masks``; identity in eval (``masks`` None) or at rate 0."""
    if masks is not None and rate > 0.0:
        return g.dropout(x, rate, mask=next(masks))
    return x


class FusionLayer:
    """Concat-then-affine map from modality vectors to d_model (no activation)."""

    def __init__(self, input_dim: int, d_model: int, rng, params: dict):
        self.input_dim = input_dim
        self.weight = parameter(params, "fusion.weight", (input_dim, d_model), rng, xavier)
        self.bias = parameter(params, "fusion.bias", (d_model,), rng)

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

    def __init__(self, input_dim: int, settings: LstmSettings, rng, params: dict):
        self.hidden = settings.hidden
        self.weights = []
        in_dim = input_dim
        gates = 4 * self.hidden
        for li in range(settings.layers):
            self.weights.append((
                parameter(params, f"lstm{li}.input_weight", (in_dim, gates), rng, xavier),
                parameter(params, f"lstm{li}.state_weight", (self.hidden, gates), rng, xavier),
                parameter(params, f"lstm{li}.bias", (gates,), rng,  # forget gates start open
                          lambda rng, n: (np.arange(n) // self.hidden == 1).astype(DTYPE))))
            in_dim = self.hidden

    def forward(self, g: Graph, x: Tensor, state=None, masks=None, passes: int = 1,
                windows=None):
        """Run one segment, or a stack of consecutive ones, from ``state`` (a
        per-layer list of (h, c) Tensors, or None for zeros). Adjacent windows
        are consecutive frames, so one recurrence covers the stack and
        ``windows`` goes unused; the encoder has no dropout, so ``masks`` does
        too.

        Returns (the top layer's per-frame hidden outputs, repeated ``passes``
        times along the rows, and the new state).
        """
        frames = x
        new_state = []
        for li, (w_in, w_state, bias) in enumerate(self.weights):
            h, c = state[li] if state is not None else (Tensor(np.zeros((1, self.hidden), DTYPE)),) * 2
            pre = g.affine(frames, w_in, bias)  # input projection for all frames at once
            frames, c = g.lstm_seq(pre, w_state, h, c)
            new_state.append((Tensor(frames.data[-1:]), c))
        if passes > 1:
            frames = g.concat([frames] * passes, axis=0)
        return frames, new_state

    encode_segment = forward

    def dropout_sites(self, window: int) -> list:
        return []

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

    def __init__(self, d_model: int, seg_len: int, settings: TransformerSettings,
                 rng, params: dict):
        self.d_model = d_model
        self.seg_len = seg_len
        self.heads = settings.heads
        self.dropout = settings.dropout
        self.ffn_dim = settings.ffn_dim
        self.head_dim = d_model // self.heads
        self.pe = sinusoidal_table(seg_len, d_model) if settings.positional_encoding else None
        # residual branches start small (1/sqrt(2 * layers)) so stacked post-norm
        # layers keep usable gradients without a warmup schedule
        shrink = DTYPE(1.0 / math.sqrt(2.0 * settings.layers))

        def shrunk(rng, *shape):
            return xavier(rng, *shape) * shrink

        d, ffn = d_model, settings.ffn_dim
        self.layers = []
        for li in range(settings.layers):
            layer = {}
            for role in ("query", "key", "value", "out"):
                layer[role + "_w"] = parameter(params, f"trm{li}.attn.{role}_weight", (d, d), rng,
                                               shrunk if role == "out" else xavier)
                layer[role + "_b"] = parameter(params, f"trm{li}.attn.{role}_bias", (d,), rng)
            layer["ffn_in_w"] = parameter(params, f"trm{li}.ffn.in_weight", (d, ffn), rng, xavier)
            layer["ffn_in_b"] = parameter(params, f"trm{li}.ffn.in_bias", (ffn,), rng)
            layer["ffn_out_w"] = parameter(params, f"trm{li}.ffn.out_weight", (ffn, d), rng,
                                           shrunk)
            layer["ffn_out_b"] = parameter(params, f"trm{li}.ffn.out_bias", (d,), rng)
            for norm in ("norm1", "norm2"):
                layer[norm + "_gain"] = parameter(params, f"trm{li}.{norm}.gain", (d,), rng,
                                                  lambda rng, n: np.ones(n, DTYPE))
                layer[norm + "_shift"] = parameter(params, f"trm{li}.{norm}.shift", (d,), rng)
            self.layers.append(layer)

    def dropout_sites(self, window: int) -> list:
        """(shape, rate) of each dropout mask one pass over ``window`` frames
        takes, in the order ``forward`` applies them; a mask for ``passes``
        stacked passes joins that many along the first axis."""
        if self.dropout == 0.0:
            return []
        per_layer = [(1, self.heads, window, window), (window, self.d_model),
                     (window, self.ffn_dim), (window, self.d_model)]
        return [(shape, self.dropout) for _ in self.layers for shape in per_layer]

    def _split_heads(self, g, x, layer, role, passes, runs, axes):
        """The ``role`` projection of ``x`` as one (blocks, heads, ...) stack per
        run of equal windows, laid out by ``axes``."""
        projected = g.affine(x, layer[role + "_w"], layer[role + "_b"], passes)
        stacks = []
        for start, blocks, window in runs:
            part = (projected if len(runs) == 1
                    else g.slice(projected, start, start + blocks * window))
            stacks.append(g.transpose(
                g.reshape(part, (blocks, window, self.heads, self.head_dim)), axes))
        return stacks

    def forward(self, g: Graph, x: Tensor, masks=None, passes: int = 1, windows=None):
        """Encode a stack of windows ``passes`` times as one stack of rows.

        ``windows`` lists the lengths of the consecutive windows whose rows
        ``x`` holds (None: one window of all of them). Each window takes its
        own slice of the positional table and attends only within itself;
        every other op runs once over all rows, and attention once per run of
        equal-length windows. ``masks`` yields the stacked dropout masks of one
        window in ``dropout_sites`` order; None runs without dropout (eval).
        """
        windows = [x.shape[0]] if windows is None else list(windows)
        if sum(windows) != x.shape[0] or max(windows) > self.seg_len:
            raise ShapeError(f"segment windows {windows} do not split {x.shape[0]} rows "
                             f"into windows of at most {self.seg_len}")
        if self.pe is not None:
            # one window adds a view of the table; a stack joins one slice per window
            pe = (self.pe[:windows[0]] if len(windows) == 1
                  else np.concatenate([self.pe[:w] for w in windows]))
            x = g.add(x, Tensor(pe))
        if passes > 1:
            x = g.concat([x] * passes, axis=0)
        runs, start = [], 0  # (first row, windows, window length) per run of equal windows
        for window, run in itertools.groupby(windows * passes):
            blocks = len(list(run))
            runs.append((start, blocks, window))
            start += blocks * window
        inv_sqrt = 1.0 / math.sqrt(self.head_dim)
        for layer in self.layers:
            # per run: q and v (blocks, H, L, d_h), k (blocks, H, d_h, L)
            qs = self._split_heads(g, x, layer, "query", passes, runs, (0, 2, 1, 3))
            ks = self._split_heads(g, x, layer, "key", passes, runs, (0, 2, 3, 1))
            vs = self._split_heads(g, x, layer, "value", passes, runs, (0, 2, 1, 3))
            contexts = []
            for q, k, v in zip(qs, ks, vs):
                attention = g.softmax(g.scale(g.matmul(q, k), inv_sqrt))
                context = g.matmul(drop(g, attention, self.dropout, masks), v)
                contexts.append(g.reshape(g.transpose(context, (0, 2, 1, 3)),
                                          (context.shape[0] * context.shape[2], self.d_model)))
            merged = contexts[0] if len(contexts) == 1 else g.concat(contexts)
            projected = drop(
                g, g.affine(merged, layer["out_w"], layer["out_b"], passes), self.dropout, masks)
            x = g.layer_norm(g.add(x, projected), layer["norm1_gain"], layer["norm1_shift"],
                             passes=passes)
            mid = drop(g, g.relu(g.affine(x, layer["ffn_in_w"], layer["ffn_in_b"], passes)),
                       self.dropout, masks)
            ffn = drop(g, g.affine(mid, layer["ffn_out_w"], layer["ffn_out_b"], passes),
                       self.dropout, masks)
            x = g.layer_norm(g.add(x, ffn), layer["norm2_gain"], layer["norm2_shift"],
                             passes=passes)
        return x

    def encode_segment(self, g: Graph, x: Tensor, state=None, masks=None, passes: int = 1,
                       windows=None):
        """Segments are independent: ``state`` goes unused and comes back None."""
        return self.forward(g, x, masks, passes, windows), None

    @property
    def output_dim(self) -> int:
        return self.d_model


class ClassificationHead:
    """Two ReLU hidden stages then an 8-way output affine.

    Dropout precedes each hidden affine at train time. Its rows may stack
    several passes; on the LSTM path, whose encoder has no dropout, these
    masks are all that tells the two RDrop passes apart.
    """

    def __init__(self, input_dim: int, hidden_sizes, classes: int, dropout: float,
                 rng, params: dict):
        self.dropout = dropout
        self.stages = []
        in_dim = input_dim
        for i, size in enumerate(hidden_sizes):
            self.stages.append((
                parameter(params, f"head.hidden{i}.weight", (in_dim, size), rng, xavier),
                parameter(params, f"head.hidden{i}.bias", (size,), rng)))
            in_dim = size
        self.out_w = parameter(params, "head.out.weight", (in_dim, classes), rng, xavier)
        self.out_b = parameter(params, "head.out.bias", (classes,), rng)

    def dropout_sites(self, rows: int) -> list:
        """(shape, rate) of each dropout mask one pass over ``rows`` frames takes."""
        if self.dropout == 0.0:
            return []
        return [((rows, w.shape[0]), self.dropout) for w, _ in self.stages]

    def forward(self, g: Graph, x: Tensor, masks=None, passes: int = 1) -> Tensor:
        """Logits for the rows of ``x``, ``passes`` stacked passes; ``masks``
        yields one dropout mask per hidden stage, and None runs without
        dropout (eval)."""
        for w, b in self.stages:
            x = g.relu(g.affine(drop(g, x, self.dropout, masks), w, b, passes))
        return g.affine(x, self.out_w, self.out_b, passes)


class ExpressionModel:
    """Fusion + temporal encoder + head, with named parameters for checkpoints."""

    def __init__(self, config: ModelConfig, input_dim: int, rng):
        config.validate()
        self.config = config
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
        """A model holding the checkpoint ``arrays`` themselves, its input dim read
        from ``fusion.weight``: nothing is drawn, and no array is copied."""
        weight = arrays.get("fusion.weight")
        if weight is None or weight.ndim != 2:
            raise ShapeError("checkpoint has no 2-D 'fusion.weight' to take the input dim from")
        return cls(config, weight.shape[0], None).load_state(arrays)

    # -- forward passes --

    def two_pass_logits(self, g: Graph, features: np.ndarray, state, rng) -> tuple:
        """Two stochastic forward passes over one segment (train mode), from the
        encoder ``state``; returns both passes' logits and the next state.

        Fusion runs once; the encoder and head run once over the two passes
        stacked by rows, and two ``slice`` nodes split the logits. ``rng``
        draws every mask up front in the order two passes run one after the
        other would: pass 1's encoder and head sites, then pass 2's. Each
        site then takes its two masks joined.
        """
        rows = features.shape[0]
        sites = self.encoder.dropout_sites(rows) + self.head.dropout_sites(rows)
        draws = [[dropout_mask(rng, shape, rate) for shape, rate in sites] for _ in range(2)]
        masks = iter([np.concatenate(pair) for pair in zip(*draws)])
        fused = self.fusion.apply(g, Tensor(features))
        encoded, next_state = self.encoder.encode_segment(g, fused, state, masks, passes=2)
        logits = self.head.forward(g, encoded, masks, passes=2)
        return g.slice(logits, 0, rows), g.slice(logits, rows, 2 * rows), next_state

    def eval_logits(self, g: Graph, features: np.ndarray, state=None, windows=None) -> tuple:
        """Deterministic single pass (no dropout anywhere) over a stack of
        consecutive windows of ``windows`` frames (None: one window), from the
        encoder ``state``; returns the logits and the next state."""
        encoded, next_state = self.encoder.encode_segment(
            g, self.fusion.apply(g, Tensor(features)), state, windows=windows)
        return self.head.forward(g, encoded), next_state

