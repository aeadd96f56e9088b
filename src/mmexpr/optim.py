"""Adam optimizer with bias correction, operating on named parameter dicts."""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeError
from .tensor import DTYPE, all_finite

# Elements per block: 256 KB of float32 per array, so the five arrays a block
# touches (param, grad, m, v, scratch) stay in L2 across the update's passes.
BLOCK = 1 << 16

# Adam's fixed hyperparameters; only the learning rate is configurable
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """The learning rate and the per-parameter first/second moment buffers.

    ``step`` increases by exactly one per ``adam_step`` call.
    """

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads, state: AdamState) -> AdamState:
    """Apply one bias-corrected Adam update in place, parameter by parameter.

    ``params`` maps name -> Tensor. ``grads`` is a stream of (parameter
    Tensor, gradient ndarray) pairs, as ``backward(loss, graph, update)``
    hands it to ``update``: each parameter is updated as its pair arrives and
    its gradient is then dropped, so the step never holds more than the
    gradients in flight. Pairs for tensors not in ``params`` are skipped. A
    dict name -> gradient is the stream that arrives all at once; its
    gradients are checked (present, shape, contiguity) before any update.

    Every parameter's ``data`` must be C-contiguous, since it is updated on
    the calling thread through a flat view in blocks of ``BLOCK`` elements.
    Every step of the update is a correctly rounded float32 elementwise op,
    so the result is bitwise equal to applying the formula to whole arrays,
    whatever the order the parameters arrive in. Each block is checked for
    NaN and infinity right after its update. Once the stream ends, a
    parameter it never reached raises ``KeyError``, and then a parameter that
    is no longer finite raises ``NonFiniteError`` naming the first such one in
    ``params`` order; the others are marked checked (``Tensor.checked``) so
    that graphs need not scan them again.
    """
    names = {id(p): name for name, p in params.items()}
    if isinstance(grads, dict):
        for name, p in params.items():
            _check(name, p, grads.get(name))
        grads = [(p, grads[name]) for name, p in params.items()]

    state.step += 1
    t = state.step
    b1 = DTYPE(BETA1)
    b2 = DTYPE(BETA2)
    one = DTYPE(1)
    corr1 = DTYPE(1.0 - BETA1 ** t)
    corr2 = DTYPE(1.0 - BETA2 ** t)
    coeffs = (b1, one - b1, b2, one - b2, corr2, DTYPE(EPS), DTYPE(state.lr) / corr1)
    updated, nonfinite = set(), set()
    for p, g in grads:
        name = names.get(id(p))
        if name is None:
            continue
        _check(name, p, g)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        if _update(p.data, g, state.m[name], state.v[name], coeffs):
            p.checked = p.data
        else:
            p.checked = None
            nonfinite.add(name)
        updated.add(name)
        del g  # the walk resumes now; hold no gradient past its update
    for name in params:
        if name not in updated:
            raise KeyError(f"adam_step: missing gradient for parameter {name!r}")
    for name in params:
        if name in nonfinite:
            raise NonFiniteError(f"adam_step: NaN or infinity in parameter {name!r} "
                                 f"after the update")
    return state


def _check(name: str, p, g) -> None:
    if g is None:
        raise KeyError(f"adam_step: missing gradient for parameter {name!r}")
    if g.shape != p.data.shape:
        raise ShapeError(
            f"adam_step: grad shape {g.shape} != param shape {p.data.shape} for {name!r}")
    if not p.data.flags.c_contiguous:
        raise ShapeError(f"adam_step: parameter {name!r} is not C-contiguous")


def _update(p, g, m, v, coeffs: tuple) -> bool:
    """The whole-array formula's float32 ops, in its order, one block at a time.

    Returns whether ``p`` is still finite.
    """
    b1, one_b1, b2, one_b2, corr2, eps, lr_corr1 = coeffs
    flat = (p.reshape(-1), np.ascontiguousarray(g, dtype=DTYPE).reshape(-1),
            m.reshape(-1), v.reshape(-1))
    scratch = np.empty(min(p.size, BLOCK), dtype=DTYPE)
    finite = True
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, p.size, BLOCK):
            p, g, m, v = (a[i:i + BLOCK] for a in flat)
            s = scratch[:p.size]
            m *= b1
            np.multiply(one_b1, g, out=s)
            m += s
            v *= b2
            np.square(g, out=s)
            s *= one_b2
            v += s
            np.divide(v, corr2, out=s)
            np.sqrt(s, out=s)
            s += eps
            np.divide(m, s, out=s)
            s *= lr_corr1
            p -= s
            finite = all_finite(p) and finite  # while the block is still in cache
    return finite


def collect_grads(params: dict) -> dict:
    """Pull ``.grad`` off each parameter, requiring every one to be present."""
    grads = {}
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"parameter {name!r} received no gradient")
        grads[name] = p.grad
    return grads


def zero_grads(params: dict) -> None:
    for p in params.values():
        p.grad = None


__all__ = ["AdamState", "adam_step", "collect_grads", "zero_grads"]
