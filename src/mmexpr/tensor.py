"""Dense float32 tensors with tape-based reverse-mode automatic differentiation.

All model math in this package runs through the ops defined here. A Graph
records every executed operation in order; ``backward`` replays the tape in
reverse, accumulating gradients into the participating leaf tensors. Separate
graphs are independent and may be used concurrently; a single graph has one
writer during forward/backward.

Broadcasting is deliberately restricted: every op requires exact shapes. A
bias enters through the fused ``affine`` op (``x @ W + b``), and constant
scalar multiplication is its own op (``scale``), so no tensor broadcasting is
needed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteError, ShapeError

DTYPE = np.float32


def all_finite(a: np.ndarray) -> bool:
    """True when no element of ``a`` is NaN or infinite.

    The one finiteness check: ``Graph.apply`` runs it on each op output and
    on each input not yet checked, ``adam_step`` on each updated block and
    ``load_state`` on each installed array. One BLAS pass: x.x is NaN or inf
    if any element is, and otherwise finite unless it overflows, which the
    exact np.isfinite scan settles. For C-order data the flat view is not a
    copy. Callers run it under ``np.errstate(over="ignore")``, entered once
    around their loop, since an errstate block per call costs more than the
    dot product.
    """
    flat = a.reshape(-1)
    return math.isfinite(np.dot(flat, flat)) or bool(np.isfinite(flat).all())


class Tensor:
    """Dense float32 array, optionally tracked for gradients.

    ``grad`` is populated (same shape as ``data``) by ``backward`` for leaf
    tensors created with ``requires_grad=True``. ``checked`` holds the array
    last found finite by the code that made or changed it (the op that
    produced it, ``adam_step``, ``load_state``); graphs skip the scan while it
    is still ``data``. Other tensors are scanned at each use.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "checked")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        # note: ascontiguousarray would promote 0-d to 1-d; asarray keeps ()
        self.data = np.asarray(data, dtype=DTYPE, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name
        self.checked = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


class Node:
    """One executed operation: inputs, output, backward rule, and its attrs.

    ``attrs`` keeps the op's parameters (axis, rate, the dropout mask,
    ...) so a recorded graph can be audited or replayed.
    """

    __slots__ = ("kind", "inputs", "output", "backward_fn", "attrs")

    def __init__(self, kind, inputs, output, backward_fn, attrs):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.attrs = attrs


class Graph:
    """Ordered tape of operation records; every node's inputs precede it.

    With ``record=False`` the graph validates and computes but keeps no tape
    and marks outputs grad-free (inference mode).
    """

    def __init__(self, record: bool = True):
        self.nodes: list[Node] = []
        self.record = record

    # -- generic entry point -------------------------------------------------

    def apply(self, kind: str, inputs, **attrs) -> Tensor:
        """Execute one op on already-validated Tensor inputs and record it.

        An input is scanned for NaN and infinity unless its ``checked`` is
        still its ``data``; the output is scanned once here and marked.
        """
        if kind not in _OP_TABLE:
            raise ValueError(f"unknown op kind {kind!r}")
        inputs = tuple(inputs)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in inputs:
                if not isinstance(t, Tensor):
                    raise TypeError(f"{kind}: inputs must be Tensors, got {type(t).__name__}")
                if t.checked is not t.data and not all_finite(t.data):
                    raise NonFiniteError(f"{kind}: NaN or infinity in input tensor"
                                         + (f" {t.name!r}" if t.name else ""))
            out_data, backward_fn = _OP_TABLE[kind](inputs, attrs)
            requires = self.record and any(t.requires_grad for t in inputs)
            out = Tensor(out_data, requires_grad=requires)
            if not all_finite(out.data):
                raise NonFiniteError(f"{kind}: NaN or infinity in its output")
        out.checked = out.data
        if requires:
            self.nodes.append(Node(kind, inputs, out, backward_fn, attrs))
        return out

    # -- op shorthands --------------------------------------------------------

    def matmul(self, a, b):
        return self.apply("matmul", (a, b))

    def add(self, a, b):
        return self.apply("add", (a, b))

    def affine(self, x, weight, bias, passes: int = 1):
        return self.apply("affine", (x, weight, bias), passes=passes)

    def mul(self, a, b):
        return self.apply("mul", (a, b))

    def scale(self, x, factor: float):
        return self.apply("scale", (x,), factor=factor)

    def concat(self, tensors, axis: int = 0):
        return self.apply("concat", tuple(tensors), axis=axis)

    def slice(self, x, start: int, stop: int):
        return self.apply("slice", (x,), start=start, stop=stop)

    def relu(self, x):
        return self.apply("relu", (x,))

    def softmax(self, x):
        return self.apply("softmax", (x,))

    def log_softmax(self, x):
        return self.apply("log_softmax", (x,))

    def dropout(self, x, rate: float, mask):
        return self.apply("dropout", (x,), rate=rate, mask=mask)

    def layer_norm(self, x, gain, shift, eps: float = 1e-5, passes: int = 1):
        return self.apply("layer_norm", (x, gain, shift), eps=eps, passes=passes)

    def reshape(self, x, shape):
        return self.apply("reshape", (x,), shape=shape)

    def transpose(self, x, axes=None):
        return self.apply("transpose", (x,), axes=axes)

    def sum(self, x):
        return self.apply("sum", (x,))

    def lstm_seq(self, pre, state_weight, h0, c0):
        """LSTM recurrence over the frames of ``pre`` (the input projection plus
        bias, gate order i, f, g, o).

        Returns the (T, H) hidden sequence and the final cell state, a
        grad-free (1, H) Tensor.
        """
        cell = np.empty(c0.shape, DTYPE)
        hidden = self.apply("lstm_seq", (pre, state_weight, h0, c0), cell_out=cell)
        return hidden, Tensor(cell)

    def backward(self, loss: Tensor, update=None):
        backward(loss, self, update)


def backward(loss: Tensor, graph: Graph, update=None) -> None:
    """Walk the tape in reverse and hand on d(loss)/d(leaf) for every
    requires_grad leaf.

    ``loss`` must be scalar. Without ``update``, each leaf's gradient goes to
    its ``.grad`` once the walk ends. Repeated calls on the same graph
    overwrite leaf gradients with identical values (the walk has no side
    effects of its own).

    With ``update``, ``update(stream)`` is called once, and the walk advances
    as it consumes ``stream``. Before the walk, each leaf is matched with the
    node the walk reaches it at last (its first consumer on the tape); right
    after that node has run its backward rule, the leaf's gradient is complete
    and ``stream`` yields the (leaf, gradient) pair, keeping no reference to
    the gradient; ``.grad`` is left alone. No backward rule still to run reads
    a leaf once it is yielded, so ``update`` may change the leaf's data in
    place on receipt (``adam_step`` does), and a step holds only the gradients
    in flight.
    """
    if loss.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss does not depend on any tracked tensor")

    nodes = graph.nodes
    produced = {id(n.output) for n in nodes}
    done_at: dict[int, list[Tensor]] = {}  # node index -> leaves first read there
    seen: set[int] = set()
    for i, node in enumerate(nodes):
        for t in node.inputs:
            if t.requires_grad and id(t) not in produced and id(t) not in seen:
                seen.add(id(t))
                done_at.setdefault(i, []).append(t)

    if update is not None:
        update(_leaf_gradients(loss, nodes, done_at))
        return
    leaves = [t for ts in done_at.values() for t in ts]
    for t, g in _leaf_gradients(loss, nodes, {0: leaves}):  # all at the walk's end
        t.grad = np.asarray(g, dtype=DTYPE, order="C")


def _leaf_gradients(loss: Tensor, nodes: list, done_at: dict):
    """The reverse walk of ``backward``: yields (leaf, gradient) pairs, each
    right after the leaf's ``done_at`` node has run its backward rule."""
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=DTYPE)}
    owned: set[int] = set()  # buffers safe for in-place accumulation

    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        g = grads.pop(id(node.output), None)
        if g is not None:
            _accumulate(grads, owned, node.inputs, node.backward_fn(g))
            del g
        for t in done_at.get(i, ()):
            if id(t) in grads:
                yield t, grads.pop(id(t))


def _accumulate(grads: dict, owned: set, inputs, input_grads) -> None:
    """Add one node's input gradients into ``grads``, keyed by tensor id."""
    for t, gt in zip(inputs, input_grads):
        if gt is None or not t.requires_grad:
            continue
        tid = id(t)
        acc = grads.get(tid)
        if acc is None:
            grads[tid] = gt  # may alias another buffer; not owned yet
        elif tid in owned:
            np.add(acc, gt, out=acc)
        else:
            grads[tid] = acc + gt
            owned.add(tid)


# -- op implementations -------------------------------------------------------
#
# Each returns (out_data, backward_fn) where backward_fn maps the output
# gradient to a tuple of per-input gradients (None where not needed).


def _op_matmul(inputs, attrs):
    """(m, k) @ (k, n), or a stack of them over equal batch dims:
    (B.., m, k) @ (B.., k, n)."""
    a, b = _arity(inputs, 2, "matmul")
    if a.data.ndim < 2 or b.data.ndim != a.data.ndim:
        raise ShapeError(
            f"matmul: expects two operands of equal rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch sizes differ: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad

    def bw(g):
        ga = g @ bd.swapaxes(-1, -2) if na else None
        gb = ad.swapaxes(-1, -2) @ g if nb else None
        return ga, gb

    return ad @ bd, bw


def _passes(attrs, x, kind) -> int:
    """The ``passes`` attr: how many equal row blocks (stacked passes) ``x`` holds."""
    passes = int(attrs.get("passes", 1))
    if passes < 1 or x.shape[0] % passes:
        raise ShapeError(f"{kind}: {x.shape[0]} rows do not split into {passes} passes")
    return passes


def _sum_over_passes(fn, passes, *arrays):
    """``fn`` of each pass's row block of ``arrays``, summed in place into the
    first result: the sum order of separate passes, one gradient each."""
    rows = arrays[0].shape[0] // passes
    total = fn(*(a[:rows] for a in arrays))
    for p in range(1, passes):
        total += fn(*(a[p * rows:(p + 1) * rows] for a in arrays))
    return total


def _op_affine(inputs, attrs):
    """(m, k) @ (k, n) plus a (n,) bias on every row, as one node.

    The rows may stack ``passes`` equal blocks; the weight and bias gradients
    sum one product and one row sum per block.
    """
    x, weight, bias = _arity(inputs, 3, "affine")
    if (x.data.ndim != 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[0]
            or bias.shape != weight.shape[1:]):
        raise ShapeError(f"affine: expects x (m, k), weight (k, n) and bias (n,); "
                         f"got {x.shape}, {weight.shape}, {bias.shape}")
    passes = _passes(attrs, x, "affine")
    xd, wd = x.data, weight.data
    nx, nw, nb = x.requires_grad, weight.requires_grad, bias.requires_grad

    def bw(g):
        return (g @ wd.T if nx else None,
                _sum_over_passes(lambda xb, gb: xb.T @ gb, passes, xd, g) if nw else None,
                _sum_over_passes(lambda gb: gb.sum(axis=0), passes, g) if nb else None)

    out = xd @ wd
    out += bias.data
    return out, bw


def _op_add(inputs, attrs):
    a, b = _arity(inputs, 2, "add")
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def bw(g):
        return g, g

    return a.data + b.data, bw


def _op_mul(inputs, attrs):
    a, b = _arity(inputs, 2, "mul")
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad

    def bw(g):
        return (g * bd if na else None, g * ad if nb else None)

    return ad * bd, bw


def _op_scale(inputs, attrs):
    (x,) = _arity(inputs, 1, "scale")
    factor = float(attrs["factor"])
    if not math.isfinite(factor):
        raise ValueError(f"scale: factor must be finite, got {factor}")
    f32 = DTYPE(factor)

    def bw(g):
        return (g * f32,)

    return x.data * f32, bw


def _op_concat(inputs, attrs):
    if not inputs:
        raise ShapeError("concat: needs at least one input")
    axis = int(attrs.get("axis", 0))
    ndim = inputs[0].data.ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"concat: axis {axis} out of range for rank {ndim}")
    axis %= ndim
    base = list(inputs[0].shape)
    for t in inputs[1:]:
        other = list(t.shape)
        if len(other) != ndim or other[:axis] + other[axis + 1:] != base[:axis] + base[axis + 1:]:
            raise ShapeError(f"concat: incompatible shapes {inputs[0].shape} and {t.shape} on axis {axis}")
    sizes = [t.shape[axis] for t in inputs]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))

    return np.concatenate([t.data for t in inputs], axis=axis), bw


def _op_slice(inputs, attrs):
    """Rows ``start:stop`` of ``x`` along its first axis."""
    (x,) = _arity(inputs, 1, "slice")
    start, stop = int(attrs["start"]), int(attrs["stop"])
    if not 0 <= start < stop <= x.shape[0]:
        raise ShapeError(f"slice: rows {start}:{stop} out of range for shape {x.shape}")
    shape = x.shape

    def bw(g):
        gx = np.zeros(shape, DTYPE)
        gx[start:stop] = g
        return (gx,)

    return x.data[start:stop], bw


def _sigmoid(x, out=None):
    """Logistic function as tanh(x / 2) / 2 + 1/2: one transcendental and no
    overflow for any finite or infinite input."""
    out = np.multiply(x, DTYPE(0.5), out=out)
    np.tanh(out, out=out)
    out *= DTYPE(0.5)
    out += DTYPE(0.5)
    return out


def _op_relu(inputs, attrs):
    (x,) = _arity(inputs, 1, "relu")
    xd = x.data

    def bw(g):
        return (g * (xd > 0),)

    return np.maximum(xd, 0), bw


def _softmax_data(xd):
    shifted = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _op_softmax(inputs, attrs):
    (x,) = _arity(inputs, 1, "softmax")
    out = _softmax_data(x.data)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return out, bw


def _op_log_softmax(inputs, attrs):
    (x,) = _arity(inputs, 1, "log_softmax")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return out, bw


def dropout_mask(rng, shape, rate: float) -> np.ndarray:
    """A keep-mask of ``shape``: each element kept with probability 1 - ``rate``."""
    return rng.random(shape, dtype=np.float32) >= rate


def _op_dropout(inputs, attrs):
    (x,) = _arity(inputs, 1, "dropout")
    rate = float(attrs["rate"])
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    mask = np.asarray(attrs["mask"], dtype=bool)
    if mask.shape != x.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} != input shape {x.shape}")
    # inverted scaling: expectation matches eval mode, which applies no-op
    keep = mask.astype(DTYPE) / DTYPE(1.0 - rate)

    def bw(g):
        return (g * keep,)

    return x.data * keep, bw


def _op_layer_norm(inputs, attrs):
    x, gain, shift = _arity(inputs, 3, "layer_norm")
    eps = float(attrs.get("eps", 1e-5))
    d = x.shape[-1]
    if gain.shape != (d,) or shift.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/shift must have shape ({d},), got {gain.shape} and {shift.shape}")
    passes = _passes(attrs, x, "layer_norm")
    xd = x.data
    # the float32 op order of mean, centre, variance, 1/sqrt, scale, shift,
    # with two (.., d) buffers: centred -> normed, squares -> output
    mu = xd.mean(axis=-1, keepdims=True)
    normed = np.subtract(xd, mu)
    out = np.multiply(normed, normed)
    inv = out.mean(axis=-1, keepdims=True)
    inv += DTYPE(eps)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    normed *= inv
    np.multiply(normed, gain.data, out=out)
    out += shift.data
    lead = tuple(range(xd.ndim - 1))
    nx, ng, ns = x.requires_grad, gain.requires_grad, shift.requires_grad

    def bw(g):
        # gx = inv * ((dn - mean(dn)) - normed * mean(dn * normed)), dn = g * gain,
        # in fresh buffers: a second backward over the graph reads normed and inv again
        gx = scratch = None
        if nx:
            gx = np.multiply(g, gain.data)
            scratch = np.multiply(gx, normed)
            dot = scratch.mean(axis=-1, keepdims=True)
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= np.multiply(normed, dot, out=scratch)
            gx *= inv
        # like affine's, the gain and shift gradients sum per pass, then over passes
        ggain = (_sum_over_passes(lambda b: b.sum(axis=lead), passes,
                                  np.multiply(g, normed, out=scratch)) if ng else None)
        gshift = _sum_over_passes(lambda b: b.sum(axis=lead), passes, g) if ns else None
        return gx, ggain, gshift

    return out, bw


def _op_reshape(inputs, attrs):
    # the output may be a view of the input; no op writes into its inputs
    (x,) = _arity(inputs, 1, "reshape")
    shape = tuple(int(n) for n in attrs["shape"])
    if min(shape, default=0) < 0 or math.prod(shape) != x.size:
        raise ShapeError(f"reshape: cannot reshape {x.shape} to {shape}")
    xshape = x.shape

    def bw(g):
        return (g.reshape(xshape),)

    return x.data.reshape(shape), bw


def _op_transpose(inputs, attrs):
    (x,) = _arity(inputs, 1, "transpose")
    axes = attrs.get("axes")
    if axes is not None:
        axes = tuple(int(a) for a in axes)
        if sorted(axes) != list(range(x.data.ndim)):
            raise ShapeError(f"transpose: axes {axes} is not a permutation for shape {x.shape}")
        inverse = tuple(np.argsort(axes))
    else:
        inverse = None

    def bw(g):
        return (np.ascontiguousarray(np.transpose(g, inverse)),)

    return np.ascontiguousarray(np.transpose(x.data, axes)), bw


def _op_sum(inputs, attrs):
    (x,) = _arity(inputs, 1, "sum")
    shape = x.shape

    def bw(g):
        return (np.full(shape, g, dtype=DTYPE),)

    return np.asarray(x.data.sum(dtype=DTYPE)), bw


def _op_lstm_seq(inputs, attrs):
    """LSTM over T frames: z_t = pre_t + h_{t-1} W, gates i, f, o = sigmoid and
    g = tanh of z_t's quarters, c_t = f c_{t-1} + i g, h_t = o tanh(c_t).

    The final cell state is written to ``attrs["cell_out"]`` when given. The
    backward pass runs BPTT once over the kept gates and forms the recurrent
    weight's gradient as one (H, T) @ (T, 4H) product.
    """
    pre, weight, h0, c0 = _arity(inputs, 4, "lstm_seq")
    h_dim = weight.shape[0] if weight.data.ndim == 2 else 0
    if (pre.data.ndim != 2 or pre.shape[0] == 0 or h_dim == 0
            or weight.shape != (h_dim, 4 * h_dim) or pre.shape[1] != 4 * h_dim
            or h0.shape != (1, h_dim) or c0.shape != (1, h_dim)):
        raise ShapeError(
            f"lstm_seq: expects pre (T>0, 4H), state weight (H, 4H), h0 and c0 (1, H); "
            f"got {pre.shape}, {weight.shape}, {h0.shape}, {c0.shape}")
    steps = pre.shape[0]
    pre_d, wd = pre.data, weight.data
    gates = np.empty((steps, 4, h_dim), DTYPE)   # activated i, f, g, o per frame
    hidden = np.empty((steps + 1, h_dim), DTYPE)  # row t holds h_{t-1}
    cells = np.empty((steps + 1, h_dim), DTYPE)   # row t holds c_{t-1}
    tanh_c = np.empty((steps, h_dim), DTYPE)
    hidden[0] = h0.data[0]
    cells[0] = c0.data[0]
    z = np.empty((4, h_dim), DTYPE)
    z_flat = z.reshape(-1)
    for t in range(steps):
        np.matmul(hidden[t], wd, out=z_flat)
        z_flat += pre_d[t]
        a = gates[t]
        _sigmoid(z, out=a)  # one call for all four rows; g's row is redone as tanh
        np.tanh(z[2], out=a[2])
        c = cells[t + 1]
        np.multiply(a[1], cells[t], out=c)
        c += a[0] * a[2]
        np.tanh(c, out=tanh_c[t])
        np.multiply(a[3], tanh_c[t], out=hidden[t + 1])
    cell_out = attrs.get("cell_out")
    if cell_out is not None:
        cell_out[...] = cells[-1:]
    needs = tuple(t.requires_grad for t in inputs)

    def bw(g):
        i, f, cand, o = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]
        deriv = gates * (1.0 - gates)  # sigmoid'; the candidate row is replaced by tanh'
        deriv[:, 2] = 1.0 - cand * cand
        # dz for (i, f, g) is dc times these; dz for o is dh times o_factor
        c_factor = np.stack([cand, cells[:-1], i], axis=1) * deriv[:, :3]
        o_factor = tanh_c * deriv[:, 3]
        h_to_c = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty((steps, 4, h_dim), DTYPE)
        dh = np.zeros(h_dim, DTYPE)
        dc = np.zeros(h_dim, DTYPE)
        w_t = wd.T
        for t in range(steps - 1, -1, -1):
            dh += g[t]
            dc += dh * h_to_c[t]
            np.multiply(c_factor[t], dc, out=dz[t, :3])
            np.multiply(o_factor[t], dh, out=dz[t, 3])
            dc *= f[t]
            dh = dz[t].reshape(-1) @ w_t
        dz = dz.reshape(steps, 4 * h_dim)
        return (dz if needs[0] else None,
                hidden[:-1].T @ dz if needs[1] else None,
                dh.reshape(1, h_dim) if needs[2] else None,
                dc.reshape(1, h_dim) if needs[3] else None)

    return hidden[1:], bw


def _arity(inputs, n, kind):
    if len(inputs) != n:
        raise ShapeError(f"{kind}: expects {n} input(s), got {len(inputs)}")
    return inputs


_OP_TABLE = {
    "matmul": _op_matmul,
    "add": _op_add,
    "affine": _op_affine,
    "mul": _op_mul,
    "scale": _op_scale,
    "concat": _op_concat,
    "slice": _op_slice,
    "relu": _op_relu,
    "softmax": _op_softmax,
    "log_softmax": _op_log_softmax,
    "dropout": _op_dropout,
    "layer_norm": _op_layer_norm,
    "reshape": _op_reshape,
    "transpose": _op_transpose,
    "sum": _op_sum,
    "lstm_seq": _op_lstm_seq,
}
