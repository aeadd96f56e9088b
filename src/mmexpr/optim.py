"""Adam optimizer with bias correction, operating on named parameter dicts."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeError
from .tensor import DTYPE, all_finite

# Elements per block: 256 KB of float32 per array, so the five arrays a block
# touches (param, grad, m, v, scratch) stay in L2 across the update's passes.
BLOCK = 1 << 16

_WORKERS = len(os.sched_getaffinity(0))
_pool = None  # helper threads, created on the first multi-worker update


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus hyperparameters.

    ``step`` increases by exactly one per ``adam_step`` call.
    """

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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

    Every parameter's ``data`` must be C-contiguous, since it is updated
    through a flat view in blocks of ``BLOCK`` elements; a parameter of more
    than one block is shared over the available cores. Every step of the
    update is a correctly rounded float32 elementwise op, so the result is
    bitwise equal to applying the formula to whole arrays, whatever the split
    or the order the parameters arrive in. Each block is checked for NaN and
    infinity right after its update. Once the stream ends, a parameter it
    never reached raises ``KeyError``, and then a parameter that is no longer
    finite raises ``NonFiniteError`` naming the first such one in ``params``
    order; the others are marked checked (``Tensor.checked``) so that graphs
    need not scan them again.
    """
    names = {id(p): name for name, p in params.items()}
    if isinstance(grads, dict):
        for name, p in params.items():
            _check(name, p, grads.get(name))
        grads = [(p, grads[name]) for name, p in params.items()]

    state.step += 1
    t = state.step
    b1 = DTYPE(state.beta1)
    b2 = DTYPE(state.beta2)
    one = DTYPE(1)
    corr1 = DTYPE(1.0 - state.beta1 ** t)
    corr2 = DTYPE(1.0 - state.beta2 ** t)
    coeffs = (b1, one - b1, b2, one - b2, corr2, DTYPE(state.eps), DTYPE(state.lr) / corr1)
    updated, nonfinite = set(), set()
    for p, g in grads:
        name = names.get(id(p))
        if name is None:
            continue
        _check(name, p, g)
        blocks = _blocks({name: p}, {name: g}, state)
        # a one-block parameter (a bias, a norm) is not worth the helper threads
        bad = _run_blocks(blocks, coeffs, _WORKERS if len(blocks) > 1 else 1)
        nonfinite |= bad
        p.checked = None if bad else p.data
        updated.add(name)
        del g, blocks  # the walk resumes now; hold no gradient past its update
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


def _blocks(params: dict, grads: dict, state: AdamState) -> list:
    """(name, param, grad, m, v): flat views of at most ``BLOCK`` elements each.

    Creates a parameter's moments on first use.
    """
    blocks = []
    for name, p in params.items():
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        flat = (p.data.reshape(-1),
                np.ascontiguousarray(grads[name], dtype=DTYPE).reshape(-1),
                m.reshape(-1), state.v[name].reshape(-1))
        blocks.extend((name, *(a[i:i + BLOCK] for a in flat))
                      for i in range(0, p.data.size, BLOCK))
    return blocks


def _run_blocks(blocks: list, coeffs: tuple, workers: int) -> set:
    """Update each block once, on the calling thread and ``workers - 1`` helpers.

    All of them take blocks from one shared iterator (``next`` on a list
    iterator is atomic under the GIL), so a core that is busy elsewhere, e.g.
    with BLAS threads still spinning after backward, simply takes fewer.
    Returns the names of the parameters left with a non-finite element.
    """
    global _pool
    shared = iter(blocks)
    helpers = []
    if workers > 1:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="adam")
        helpers = [_pool.submit(_update, shared, coeffs) for _ in range(workers - 1)]
    nonfinite = set()
    try:
        nonfinite |= _update(shared, coeffs)
    finally:
        for helper in helpers:
            nonfinite |= helper.result()
    return nonfinite


def _update(blocks, coeffs: tuple) -> set:
    """The whole-array formula's float32 ops, in its order, one block at a time.

    Returns the names whose updated blocks hold NaN or infinity.
    """
    b1, one_b1, b2, one_b2, corr2, eps, lr_corr1 = coeffs
    scratch = np.empty(0, dtype=DTYPE)  # grown to the largest block seen, at most BLOCK
    nonfinite = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p, g, m, v in blocks:
            if scratch.size < p.size:
                scratch = np.empty(p.size, dtype=DTYPE)
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
            if not all_finite(p):  # while the block is still in cache
                nonfinite.add(name)
    return nonfinite


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
