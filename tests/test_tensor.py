"""Tensor core: forward semantics, autodiff vs finite differences, Adam, checkpoints."""

import gc
import io
import itertools
import os
import struct
import threading
import tracemalloc
import types
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from mmexpr import (AdamState, DataFormatError, Graph, NonFiniteError, ShapeError, Tensor,
                    adam_step, backward)
from mmexpr import checkpoint, tensor
from mmexpr.checkpoint import load_checkpoint, save_checkpoint
from mmexpr.models import ExpressionModel, LstmSettings, ModelConfig, TransformerSettings
from mmexpr.optim import BLOCK
from mmexpr.training import rdrop_loss

from tests import _reference as ref


def leaf(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


class TestForward:
    def test_matmul_identity(self):
        g = Graph()
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = g.matmul(x, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_softmax_uniform_logits(self):
        g = Graph()
        out = g.softmax(Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data, np.full(8, 0.125), rtol=0, atol=1e-7)

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(3)
        g = Graph()
        out = g.softmax(Tensor(rng.normal(0, 5, (40, 8))))
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_dropout_same_seed_same_mask(self):
        x = Tensor(np.ones((16, 16)))
        outs = []
        for _ in range(2):
            g = Graph()
            rng = np.random.default_rng(1234)
            outs.append(g.dropout(x, 0.3, tensor.dropout_mask(rng, x.shape, 0.3)).data)
        np.testing.assert_array_equal(outs[0], outs[1])
        assert set(np.unique(outs[0])) == {0.0, np.float32(1.0 / 0.7)}

    def test_dropout_needs_mask(self):
        g = Graph()
        with pytest.raises(TypeError, match="mask"):
            g.dropout(Tensor(np.ones(4)), 0.5)
        with pytest.raises(KeyError, match="mask"):
            g.apply("dropout", (Tensor(np.ones(4)),), rate=0.5)

    def test_shape_mismatch_names_shapes(self):
        g = Graph()
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            g.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError, match=r"\(4,\)"):
            g.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))

    def test_nan_input_rejected(self):
        g = Graph()
        bad = Tensor(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="NaN") as caught:
            g.relu(bad)
        assert isinstance(caught.value, NonFiniteError)

    @pytest.mark.parametrize("op", ["softmax", "relu"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_input_rejected(self, op, bad):
        # softmax would turn [1, inf] into [nan, nan]; relu would pass inf on
        g = Graph()
        with pytest.raises(NonFiniteError, match="NaN"):
            getattr(g, op)(Tensor(np.array([1.0, bad])))

    def test_large_finite_input_accepted(self):
        # the sum of squares overflows float32; the exact scan must let it pass
        big = np.array([[3e38, -3e38], [1.0, 0.0]], np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = Graph().relu(Tensor(big))
        np.testing.assert_array_equal(out.data, np.maximum(big, 0))

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_nan_rejected_in_every_fresh_tensor(self, requires_grad):
        # each clean tensor is checked, then dropped; its id is free for the
        # NaN tensor made next, so an id-keyed memo must hold what it checked
        g = Graph(record=False)
        raised = 0
        for _ in range(200):
            g.relu(Tensor(np.array([1.0, 2.0]), requires_grad=requires_grad))
            try:
                g.relu(Tensor(np.array([1.0, np.nan]), requires_grad=requires_grad))
            except ValueError:
                raised += 1
        assert raised == 200

    @pytest.mark.parametrize("kind, run", [
        ("scale", lambda g: g.scale(Tensor(np.full(3, 3e38)), 10.0)),
        ("matmul", lambda g: g.matmul(Tensor(np.full((2, 2), 3e38)), Tensor(np.ones((2, 2))))),
    ])
    def test_op_that_overflows_finite_inputs_is_named(self, kind, run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{kind}: NaN or infinity in its output"):
                run(Graph())

    def test_op_output_scanned_once_however_often_read(self, monkeypatch):
        seen = []
        real = tensor.all_finite
        monkeypatch.setattr(tensor, "all_finite", lambda a: seen.append(a) or real(a))
        g = Graph(record=False)
        y = g.relu(Tensor(np.ones((2, 3))))
        g.add(y, y)
        g.mul(y, y)
        g.scale(y, 2.0)
        assert sum(a is y.data for a in seen) == 1

    def test_every_op_output_is_marked_checked(self):
        rng = np.random.default_rng(4)
        g = Graph()
        x = leaf(rng, 2, 3)
        ops = {
            "matmul": lambda: g.matmul(x, leaf(rng, 3, 2)),
            "add": lambda: g.add(x, x),
            "affine": lambda: g.affine(x, leaf(rng, 3, 2), leaf(rng, 2)),
            "mul": lambda: g.mul(x, x),
            "scale": lambda: g.scale(x, 2.0),
            "concat": lambda: g.concat([x, x], axis=1),
            "slice": lambda: g.slice(x, 1, 2),
            "relu": lambda: g.relu(x),
            "softmax": lambda: g.softmax(x),
            "log_softmax": lambda: g.log_softmax(x),
            "dropout": lambda: g.dropout(x, 0.5, mask=tensor.dropout_mask(rng, x.shape, 0.5)),
            "layer_norm": lambda: g.layer_norm(x, leaf(rng, 3), leaf(rng, 3)),
            "reshape": lambda: g.reshape(x, (3, 2)),
            "transpose": lambda: g.transpose(x),
            "sum": lambda: g.sum(x),
            "lstm_seq": lambda: g.lstm_seq(leaf(rng, 2, 8), leaf(rng, 2, 8), leaf(rng, 1, 2),
                                           leaf(rng, 1, 2))[0],
        }
        assert set(ops) == set(tensor._OP_TABLE)
        for kind, run in ops.items():
            out = run()
            assert out.checked is out.data, kind
        assert [n.kind for n in g.nodes] == list(ops)

    def test_lstm_seq_saturated_gates_stay_finite(self):
        rng = np.random.default_rng(9)
        steps, hidden = 6, 4
        signs = rng.choice([-1.0, 1.0], (steps, 4 * hidden))
        pre = Tensor(signs * rng.uniform(31.0, 80.0, (steps, 4 * hidden)), requires_grad=True)
        # |h W| <= 0.4 keeps every pre-activation |z| above 30
        weight = Tensor(rng.uniform(-0.1, 0.1, (hidden, 4 * hidden)), requires_grad=True)
        h0 = Tensor(rng.uniform(-1, 1, (1, hidden)), requires_grad=True)
        c0 = Tensor(rng.normal(size=(1, hidden)), requires_grad=True)
        g = Graph()
        out, cell = g.lstm_seq(pre, weight, h0, c0)
        assert np.isfinite(out.data).all() and np.isfinite(cell.data).all()
        expected, states = ref.lstm_forward(
            pre.data, [(np.eye(4 * hidden), weight.data, np.zeros(4 * hidden))],
            h0=[h0.data], c0=[c0.data])
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-6)
        np.testing.assert_allclose(cell.data[0], states[0][1], rtol=0, atol=1e-5)
        backward(g.sum(out), g)
        for t in (pre, weight, h0, c0):
            assert np.isfinite(t.grad).all()

    def test_lstm_seq_shape_checks(self):
        g = Graph()
        ok = (Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 8))),
              Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))
        g.lstm_seq(*ok)
        for i, bad in enumerate((np.zeros((3, 6)), np.zeros((2, 6)), np.zeros((1, 3)),
                                 np.zeros(2))):
            args = list(ok)
            args[i] = Tensor(bad)
            with pytest.raises(ShapeError, match="lstm_seq"):
                g.lstm_seq(*args)
        with pytest.raises(ShapeError, match="T>0"):
            g.lstm_seq(Tensor(np.zeros((0, 8))), *ok[1:])

    def test_reshape_size_mismatch_rejected(self):
        g = Graph()
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(g.reshape(x, (3, 1, 2)).data, x.data.reshape(3, 1, 2))
        for shape in ((4, 2), (7,), (-2, -3)):
            with pytest.raises(ShapeError, match="reshape"):
                g.reshape(x, shape)

    def test_matmul_rank_and_batch_checks(self):
        g = Graph()
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 5, 6))
        np.testing.assert_array_equal(g.matmul(Tensor(a), Tensor(b)).data,
                                      np.float32(a) @ np.float32(b))
        with pytest.raises(ShapeError, match="equal rank >= 2"):
            g.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3, 4))))
        for rank_one in ((np.zeros(3), np.zeros(3)), (np.zeros(3), np.zeros((3, 4)))):
            with pytest.raises(ShapeError, match="equal rank >= 2"):
                g.matmul(*(Tensor(t) for t in rank_one))
        with pytest.raises(ShapeError, match=r"batch sizes differ: \(2, 2, 3\) @ \(3, 3, 4\)"):
            g.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 4))))
        with pytest.raises(ShapeError,
                           match=r"batch sizes differ: \(2, 3, 2, 3\) @ \(2, 1, 3, 4\)"):
            g.matmul(Tensor(np.zeros((2, 3, 2, 3))), Tensor(np.zeros((2, 1, 3, 4))))
        with pytest.raises(ShapeError, match="inner dimensions"):
            g.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 4, 4))))

    def test_slice_takes_rows_and_checks_its_range(self):
        g = Graph()
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        np.testing.assert_array_equal(g.slice(x, 1, 3).data, x.data[1:3])
        for start, stop in ((0, 5), (-1, 2), (2, 2), (3, 1)):
            with pytest.raises(ShapeError, match="slice"):
                g.slice(x, start, stop)

    def test_unknown_kind_rejected(self):
        g = Graph()
        with pytest.raises(ValueError, match="unknown op"):
            g.apply("conv", (Tensor(np.zeros(2)),))

    def test_affine_adds_bias_to_every_row(self):
        g = Graph()
        out = g.affine(Tensor(np.zeros((3, 2))), Tensor(np.ones((2, 4))), Tensor(np.arange(4.0)))
        np.testing.assert_array_equal(out.data, np.tile(np.arange(4.0), (3, 1)))

    def test_affine_shape_checks(self):
        g = Graph()
        x, w, b = np.zeros((3, 2)), np.zeros((2, 4)), np.zeros(4)
        for bad in ((np.zeros((3, 5)), w, b), (x, w, np.zeros(5)), (x, w, np.zeros((1, 4))),
                    (np.zeros((1, 3, 2)), w, b), (x, np.zeros((1, 2, 4)), b)):
            with pytest.raises(ShapeError, match="affine"):
                g.affine(*(Tensor(a) for a in bad))
        for passes in (0, 2):  # 3 rows do not split into 2 passes
            with pytest.raises(ShapeError, match="affine: 3 rows"):
                g.affine(Tensor(x), Tensor(w), Tensor(b), passes=passes)
            with pytest.raises(ShapeError, match="layer_norm: 3 rows"):
                g.layer_norm(Tensor(np.ones((3, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                             passes=passes)

    def test_concat_and_slice_roundtrip(self):
        # concat's backward slices the output gradient back into its inputs
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 5))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        g = Graph()
        cat = g.concat([ta, tb], axis=1)
        np.testing.assert_allclose(cat.data[:, 2:7], b.astype(np.float32))
        c = rng.normal(size=(3, 7)).astype(np.float32)
        backward(g.sum(g.mul(cat, Tensor(c))), g)
        np.testing.assert_array_equal(ta.grad, c[:, :2])
        np.testing.assert_array_equal(tb.grad, c[:, 2:7])


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        g = Graph()
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)), requires_grad=True)
        backward(g.sum(x), g)
        np.testing.assert_array_equal(x.grad, np.ones((3, 5), np.float32))

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        x = Tensor(np.ones(3), requires_grad=True)
        y = g.relu(x)
        with pytest.raises(ShapeError, match="scalar"):
            backward(y, g)

    def test_backward_twice_identical(self):
        rng = np.random.default_rng(7)
        g = Graph()
        x = leaf(rng, 4, 3)
        w = leaf(rng, 3, 2)
        c = Tensor(rng.normal(size=(4, 2)))
        loss = g.sum(g.mul(g.softmax(g.matmul(x, w)), c))
        backward(loss, g)
        first = (x.grad.copy(), w.grad.copy())
        backward(loss, g)
        np.testing.assert_array_equal(x.grad, first[0])
        np.testing.assert_array_equal(w.grad, first[1])

    def test_no_grad_graph_records_nothing(self):
        g = Graph(record=False)
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = g.relu(x)
        assert g.nodes == [] and not out.requires_grad

    def test_tape_is_topologically_ordered(self):
        rng = np.random.default_rng(5)
        g = Graph()
        x, w = leaf(rng, 3, 3), leaf(rng, 3, 3)
        h = g.relu(g.matmul(x, w))
        g.sum(g.add(h, g.softmax(h)))
        for i, node in enumerate(g.nodes):
            for src in node.inputs:
                assert src is x or src is w or src is None or 0 <= src < i


def fd_check(build, make_params, trials, seed, tol=1e-4, step=1e-3):
    """Autodiff gradients vs float64 central differences for random instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        params = make_params(rng)
        g = Graph()
        tensors = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
        loss_t, ref_fn = build(g, tensors, rng)
        backward(loss_t, g)
        fd, _ = ref.finite_difference(ref_fn, params, step=step)
        for k in params:
            worst = max(worst, ref.gradient_error(tensors[k].grad, fd[k]))
    assert worst < tol, f"worst relative gradient error {worst}"
    return worst


class TestGradientsVsFiniteDifferences:
    def test_matmul(self):
        def build(g, t, rng):
            c = np.asarray(np.random.default_rng(0).normal(size=(4, 5)))
            out = g.matmul(t["a"], t["b"])
            loss = g.sum(g.mul(out, Tensor(c)))
            return loss, lambda p: float((p["a"] @ p["b"] * c).sum())
        fd_check(build, lambda rng: {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(3, 5))},
                 trials=5, seed=11)

    def test_affine(self):
        def build(g, t, rng):
            c = np.random.default_rng(1).normal(size=(4, 3))
            loss = g.sum(g.mul(g.affine(t["x"], t["w"], t["b"]), Tensor(c)))
            return loss, lambda p: float(((p["x"] @ p["w"] + p["b"]) * c).sum())
        fd_check(build, lambda rng: {"x": rng.normal(size=(4, 5)), "w": rng.normal(size=(5, 3)),
                                     "b": rng.normal(size=3)},
                 trials=5, seed=12)

    def test_mul_scale(self):
        def build(g, t, rng):
            loss = g.sum(g.scale(g.mul(t["a"], t["b"]), 0.7))
            return loss, lambda p: float((p["a"] * p["b"] * 0.7).sum())
        fd_check(build, lambda rng: {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))},
                 trials=5, seed=13)

    @pytest.mark.parametrize("kind,np_fn", [
        ("softmax", ref.softmax),
        ("log_softmax", ref.log_softmax),
    ])
    def test_elementwise_and_rowwise(self, kind, np_fn):
        def build(g, t, rng):
            c = rng.normal(size=t["x"].shape)
            out = g.apply(kind, (t["x"],))
            loss = g.sum(g.mul(out, Tensor(c)))
            return loss, lambda p: float((np_fn(p["x"]) * c).sum())
        fd_check(build, lambda rng: {"x": rng.normal(size=(5, 7))}, trials=5, seed=hash(kind) % 1000)

    def test_relu_away_from_kink(self):
        def build(g, t, rng):
            c = rng.normal(size=t["x"].shape)
            loss = g.sum(g.mul(g.relu(t["x"]), Tensor(c)))
            return loss, lambda p: float((np.maximum(p["x"], 0) * c).sum())

        def make(rng):
            x = rng.uniform(0.1, 2.0, (6, 4)) * rng.choice([-1.0, 1.0], (6, 4))
            return {"x": x}
        fd_check(build, make, trials=5, seed=15)

    def test_dropout_fixed_mask(self):
        def build(g, t, rng):
            mask = rng.random(t["x"].shape) >= 0.4
            c = rng.normal(size=t["x"].shape)
            loss = g.sum(g.mul(g.dropout(t["x"], 0.4, mask=mask), Tensor(c)))
            return loss, lambda p: float((ref.dropout(p["x"], 0.4, mask) * c).sum())
        fd_check(build, lambda rng: {"x": rng.normal(size=(5, 6))}, trials=5, seed=16)

    def test_layer_norm(self):
        def build(g, t, rng):
            c = rng.normal(size=t["x"].shape)
            out = g.layer_norm(t["x"], t["gain"], t["shift"])
            loss = g.sum(g.mul(out, Tensor(c)))
            return loss, lambda p: float((ref.layer_norm(p["x"], p["gain"], p["shift"]) * c).sum())
        fd_check(build, lambda rng: {"x": rng.normal(size=(4, 6)),
                                     "gain": rng.uniform(0.5, 1.5, 6),
                                     "shift": rng.normal(size=6)},
                 trials=5, seed=17)

    def test_slice_transpose_concat(self):
        def build(g, t, rng):
            c = rng.normal(size=(7, 3))
            cat = g.concat([g.transpose(t["a"]), t["b"]], axis=0)
            # the loss weighs rows 1..7 of the concat: a zero-padded weight slices
            loss = g.sum(g.mul(cat, Tensor(np.pad(c, ((1, 1), (0, 0))))))

            def f(p):
                cat = np.concatenate([p["a"].T, p["b"]], axis=0)
                return float((cat[1:8] * c).sum())
            return loss, f
        fd_check(build, lambda rng: {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(5, 3))},
                 trials=5, seed=18)

    def test_affine_softmax_cross_entropy_graph(self):
        # five leaf parameters feeding affine -> softmax -> CE, vs 64-bit FD
        def build(g, t, rng):
            labels = np.array([0, 2, 1, 4])
            onehot = np.zeros((4, 5), np.float64)
            onehot[np.arange(4), labels] = 1.0

            h = g.affine(t["x"], t["w1"], t["b1"])
            logits = g.affine(g.softmax(h), t["w2"], t["b2"])
            picked = g.mul(g.log_softmax(logits), Tensor(onehot))
            loss = g.scale(g.sum(picked), -0.25)

            def f(p):
                h = ref.softmax(p["x"] @ p["w1"] + p["b1"])
                lp = ref.log_softmax(h @ p["w2"] + p["b2"])
                return float(-(lp * onehot).sum() / 4)
            return loss, f

        fd_check(build, lambda rng: {
            "x": rng.normal(size=(4, 3)), "w1": rng.normal(size=(3, 6)),
            "b1": rng.normal(size=6), "w2": rng.normal(size=(6, 5)),
            "b2": rng.normal(size=5)}, trials=5, seed=20)


def bits(a):
    """The float32 bit patterns of ``a``, so that +0.0 and -0.0 differ."""
    return np.asarray(a, np.float32).view(np.uint32)


def run_op(kind, arrays, grad_out, requires=None):
    """One recorded ``kind`` node: its output and, from its backward rule,
    the gradients for ``grad_out`` (None for inputs that need none)."""
    requires = requires or (True,) * len(arrays)
    inputs = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]
    g = Graph()
    out = g.apply(kind, inputs)
    (node,) = g.nodes
    return out.data, node.backward_fn(grad_out)


class TestBitwiseAgainstFormulas:
    """Tape ops against the whole-array float32 formulas in ``tests/_reference``."""

    @pytest.mark.parametrize("n", [10, 37, 2048 * 3 + 5])
    def test_relu(self, n):
        rng = np.random.default_rng(n)
        tiny = np.finfo(np.float32).smallest_subnormal
        special = np.array([0.0, -0.0, tiny, -tiny, 1e-39, -1e-39, 1.1e-38, -1.1e-38,
                            3e38, -3e38], np.float32)
        x = rng.standard_normal(n).astype(np.float32)
        x[:special.size] = special
        x[-special.size:] = special[::-1]  # the vector loops' tails see them too
        grad_out = rng.standard_normal(n).astype(np.float32)
        out, (gx,) = run_op("relu", [x], grad_out)
        expected, expected_gx = ref.relu_where(x, grad_out)
        assert np.array_equal(bits(out), bits(expected))
        assert np.array_equal(bits(gx), bits(expected_gx))
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("m, k, n", [(4, 3, 5), (1, 7, 1), (96, 160, 72)])
    def test_affine(self, m, k, n):
        rng = np.random.default_rng(m * k * n)
        x, w, b, grad_out = (rng.standard_normal(s).astype(np.float32)
                             for s in ((m, k), (k, n), (n,), (m, n)))
        out, grads = run_op("affine", [x, w, b], grad_out)
        expected, expected_grads = ref.affine_matmul_add(x, w, b, grad_out)
        assert np.array_equal(bits(out), bits(expected))
        assert out.shape == (m, n)
        for got, want, shape in zip(grads, expected_grads, ((m, k), (k, n), (n,))):
            assert got.shape == shape
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("shape", [(6, 33), (2, 5, 16), (128, 1024)])
    @pytest.mark.parametrize("requires", [(True, True, True), (False, True, False),
                                          (True, False, False)], ids=["all", "gain", "x"])
    def test_layer_norm(self, shape, requires):
        rng = np.random.default_rng(shape[-1])
        x = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
        gain = rng.uniform(0.5, 1.5, shape[-1]).astype(np.float32)
        shift = rng.standard_normal(shape[-1]).astype(np.float32)
        grad_out = rng.standard_normal(shape).astype(np.float32)
        inputs = [Tensor(a, requires_grad=r) for a, r in zip((x, gain, shift), requires)]
        g = Graph()
        out = g.layer_norm(*inputs)
        (node,) = g.nodes
        expected, expected_grads = ref.layer_norm_float32(x, gain, shift, grad_out)
        assert np.array_equal(bits(out.data), bits(expected))
        for _ in range(2):  # a second backward reads the same forward arrays
            grads = node.backward_fn(grad_out)
            for got, want, needed in zip(grads, expected_grads, requires):
                if needed:
                    assert got.shape == want.shape
                    assert np.array_equal(bits(got), bits(want))
                else:
                    assert got is None


# a (rows, width) activation and a (blocks, heads, L, L) attention stack; the
# first axis is one pass's and stacks ``passes`` times
TAPE_SHAPES = [(6, 40), (2, 3, 5, 5)]


def stacked(rng, shape, passes):
    return rng.standard_normal((shape[0] * passes, *shape[1:])).astype(np.float32)


class TestRulesKeepNoCopies:
    """``dropout`` and ``layer_norm`` rebuild what they once kept, with the same bits."""

    @pytest.mark.parametrize("shape", TAPE_SHAPES, ids=["2d", "bhll"])
    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_dropout_bitwise_equals_the_kept_scale_rule(self, shape, passes, rate):
        rng = np.random.default_rng(len(shape) * 10 + passes)
        x = stacked(rng, shape, passes)
        mask = np.concatenate([tensor.dropout_mask(rng, shape, rate) for _ in range(passes)])
        grad_out = stacked(rng, shape, passes)
        g = Graph()
        out = g.dropout(Tensor(x, requires_grad=True), rate, mask)
        (node,) = g.nodes
        assert node.attrs["mask"] is mask
        expected, expected_bw = ref.dropout_kept_scale(x, rate, mask)
        assert np.array_equal(bits(out.data), bits(expected))
        (want,) = expected_bw(grad_out)
        for _ in range(2):
            (got,) = node.backward_fn(grad_out)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("shape", TAPE_SHAPES, ids=["2d", "bhll"])
    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("requires", [(True, True, True), (False, True, False),
                                          (True, False, False)], ids=["all", "gain", "x"])
    def test_layer_norm_bitwise_equals_the_kept_normed_rule(self, shape, passes, requires):
        rng = np.random.default_rng(len(shape) * 10 + passes)
        x = stacked(rng, shape, passes) * 3 + 1
        gain = rng.uniform(0.5, 1.5, shape[-1]).astype(np.float32)
        shift = rng.standard_normal(shape[-1]).astype(np.float32)
        grad_out = stacked(rng, shape, passes)
        g = Graph()
        inputs = [Tensor(a, requires_grad=r) for a, r in zip((x, gain, shift), requires)]
        out = g.layer_norm(*inputs, passes=passes)
        (node,) = g.nodes
        expected, expected_bw = ref.layer_norm_kept_normed(x, gain, shift, passes,
                                                           needs=requires)
        assert np.array_equal(bits(out.data), bits(expected))
        wants = expected_bw(grad_out)
        for _ in range(2):  # a second backward rebuilds the same normalized input
            for got, want in zip(node.backward_fn(grad_out), wants):
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(bits(got), bits(want))


def small_transformer():
    cfg = ModelConfig(encoder="transformer", d_model=32, head=(24, 16), seg_len=8, stride=8)
    cfg.transformer = TransformerSettings(layers=2, heads=4, ffn_dim=48)
    return ExpressionModel(cfg.validate(), 7, np.random.default_rng(0))


def buffer(a):
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def rule_arrays(node):
    """(the arrays ``node``'s backward rule captures, through nested functions
    and tensors; the arrays in its attrs)."""
    captured, todo = [], [node.backward_fn]
    while todo:
        for cell in todo.pop().__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, types.FunctionType):
                todo.append(value)
            elif isinstance(value, Tensor):
                captured.append(value.data)
            elif isinstance(value, np.ndarray):
                captured.append(value)
    return captured, [a for a in node.attrs.values() if isinstance(a, np.ndarray)]


class TestTapeHoldsOnlyWhatBackwardReads:
    """A node keeps no output and no intermediate input; an array lives only
    as long as the caller or some backward rule holds it."""

    def test_an_output_no_rule_reads_dies_with_its_tensor(self):
        # affine -> relu -> dropout -> affine: ReLU's rule reads the first
        # affine's output and the second affine's rule the dropout output, but
        # no rule reads ReLU's output
        rng = np.random.default_rng(11)
        g = Graph()
        hidden = g.affine(Tensor(rng.normal(size=(4, 5))), leaf(rng, 5, 6), leaf(rng, 6))
        relu = g.relu(hidden)
        dropped = g.dropout(relu, 0.5, tensor.dropout_mask(rng, relu.shape, 0.5))
        g.affine(dropped, leaf(rng, 6, 3), leaf(rng, 3))
        refs = {name: weakref.ref(t.data)
                for name, t in (("affine", hidden), ("relu", relu), ("dropout", dropped))}
        del hidden, relu, dropped
        assert refs["relu"]() is None
        assert refs["affine"]() is not None and refs["dropout"]() is not None
        del g
        assert refs["affine"]() is None and refs["dropout"]() is None

    @pytest.mark.parametrize("keep", ["loss", "logits"])
    def test_dropping_the_graph_frees_every_array_its_rules_held(self, keep):
        model = small_transformer()
        rng = np.random.default_rng(4)
        features = rng.normal(size=(8, 7)).astype(np.float32)
        labels, valid = rng.integers(0, 8, 8), np.ones(8, bool)
        older = {id(p.data) for p in model.parameters().values()}
        older |= {id(model.encoder.pe), id(features)}
        enabled = gc.isenabled()
        gc.disable()  # only reference counts free anything: no cycle may hold the tape
        try:
            g = Graph()
            l1, l2, _ = model.two_pass_logits(g, features, None, np.random.default_rng(1))
            loss = rdrop_loss(g, l1, l2, labels, valid, 5.0)
            backward(loss, g)
            kept = loss if keep == "loss" else l1
            refs = [weakref.ref(b) for node in g.nodes
                    for b in map(buffer, itertools.chain(*rule_arrays(node)))
                    if id(b) not in older]
            assert refs
            del g, l1, l2, loss
            alive = [r().shape for r in refs if r() is not None]
            assert not alive, alive
            assert kept.requires_grad and kept.data.size
        finally:
            if enabled:
                gc.enable()

    def test_tensor_of_another_graph_is_a_leaf(self):
        rng = np.random.default_rng(12)
        first = Graph()
        x = leaf(rng, 3, 4)
        h = first.relu(first.matmul(x, leaf(rng, 4, 5)))
        c = rng.normal(size=(3, 5)).astype(np.float32)
        second = Graph()
        loss = second.sum(second.mul(h, Tensor(c)))
        assert second.nodes[0].inputs == (h, None)
        backward(loss, second)
        np.testing.assert_array_equal(h.grad, c)
        assert x.grad is None  # the walk stays on the second graph's tape
        streamed = []
        backward(loss, second, streamed.extend)
        ((t, grad),) = streamed
        assert t is h
        np.testing.assert_array_equal(grad, c)

    def test_loss_of_another_graph_is_rejected(self):
        first, second = Graph(), Graph()
        loss = first.sum(leaf(np.random.default_rng(13), 2, 3))
        with pytest.raises(ValueError, match="not recorded by this graph"):
            backward(loss, second)

    def test_transformer_step_holds_only_what_backward_reads(self):
        # every array buffer alive once a step's forward and loss have run is
        # held by the caller (l1, l2, the loss) or captured by some node's
        # backward rule or attrs; a captured buffer that was no op's input or
        # output (layer_norm's per-row mu and inv) holds one float32 per row
        model = small_transformer()
        rng = np.random.default_rng(3)
        features = rng.normal(size=(8, 7)).astype(np.float32)
        labels, valid = rng.integers(0, 8, 8), np.ones(8, bool)
        rows = 2 * len(features)  # two stacked passes
        older = {id(p.data) for p in model.parameters().values()}
        older |= {id(model.encoder.pe), id(features)}
        g = Graph()
        io = []  # weakrefs to the buffer of every op input and output

        def apply(kind, inputs, **attrs):
            out = Graph.apply(g, kind, inputs, **attrs)
            io.extend(weakref.ref(buffer(t.data)) for t in (*inputs, out))
            return out

        g.apply = apply
        tracemalloc.start()
        try:
            l1, l2, _ = model.two_pass_logits(g, features, None, np.random.default_rng(1))
            loss = rdrop_loss(g, l1, l2, labels, valid, 5.0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        traced = Counter(t.size for t in snapshot.filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]).traces)

        def made(arrays):  # the buffers of ``arrays`` made in the step, by id
            return {id(b): b for b in map(buffer, arrays) if id(b) not in older}

        held, rules, attrs = made(t.data for t in (l1, l2, loss)), {}, {}
        for node in g.nodes:
            captured, kept = rule_arrays(node)
            rules.update(made(captured))
            attrs.update(made(kept))
        held.update(rules)
        held.update(attrs)
        assert Counter(b.nbytes for b in held.values()) == traced
        was_io = {id(r()) for r in io if r() is not None}
        private = sorted(b.nbytes for i, b in rules.items() if i not in was_io | set(attrs))
        assert private and max(private) <= 4 * rows, private


class TestAdam:
    def test_zero_grad_leaves_params_unchanged(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        before = p.data.copy()
        adam_step({"p": p}, {"p": np.zeros((2, 3), np.float32)}, AdamState(lr=0.1))
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        adam_step({"p": p}, {"p": np.asarray(1.0, np.float32)}, AdamState(lr=1e-4))
        assert p.data == pytest.approx(1.0 - 1e-4, abs=1e-8)

    def test_quadratic_descent_monotone_and_matches_reference(self):
        state = AdamState(lr=0.05)
        p = Tensor(np.array(1.0), requires_grad=True)
        seen = [float(p.data)]
        for _ in range(10):
            adam_step({"w": p}, {"w": np.asarray(2.0 * p.data, np.float32)}, state)
            seen.append(float(p.data))
        assert all(abs(b) < abs(a) for a, b in zip(seen, seen[1:]))
        expected = ref.adam_scalar(1.0, lambda w: 2.0 * w, lr=0.05, steps=10)
        np.testing.assert_allclose(seen, expected, rtol=1e-5)

    def test_step_counter_and_shape_check(self):
        state = AdamState(lr=1e-4)
        p = Tensor(np.zeros(3), requires_grad=True)
        adam_step({"p": p}, {"p": np.ones(3, np.float32)}, state)
        assert state.step == 1
        with pytest.raises(ShapeError, match="shape"):
            adam_step({"p": p}, {"p": np.ones(4, np.float32)}, state)

    @pytest.mark.parametrize("shapes", [
        [()], [(1,)], [(BLOCK - 1,)], [(BLOCK,)], [(BLOCK + 1,)], [(3, BLOCK + 5)],
        [(7,), (BLOCK + 3,), (), (2, BLOCK)]], ids=str)
    def test_blocked_update_bitwise_equals_whole_array(self, shapes):
        rng = np.random.default_rng(41)
        init = {f"w{i}": np.asarray(rng.standard_normal(s), np.float32)
                for i, s in enumerate(shapes)}
        params = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        expected = {k: a.copy() for k, a in init.items()}
        state, ref_state = AdamState(lr=1e-3), AdamState(lr=1e-3)
        for _ in range(3):
            # gradients over eight decades, so m/v and the step cover many exponents
            grads = {k: np.asarray(rng.standard_normal(a.shape)
                                   * 10.0 ** rng.uniform(-6, 2, a.shape), np.float32)
                     for k, a in init.items()}
            adam_step(params, grads, state)
            ref.adam_step_whole_array(expected, grads, ref_state)
        assert state.step == ref_state.step == 3
        for k, a in init.items():
            assert params[k].data.shape == a.shape
            assert not np.array_equal(params[k].data, a)
            assert np.array_equal(params[k].data, expected[k])
            assert np.array_equal(state.m[k], ref_state.m[k])
            assert np.array_equal(state.v[k], ref_state.v[k])

    @pytest.mark.parametrize("bad", [None, np.ones(4, np.float32)], ids=["missing", "shape"])
    def test_bad_grad_raises_before_any_update(self, bad):
        first = Tensor(np.arange(3.0), requires_grad=True)
        second = Tensor(np.arange(3.0), requires_grad=True)
        grads = {"first": np.ones(3, np.float32)}
        if bad is not None:
            grads["second"] = bad
        state = AdamState(lr=0.1)
        with pytest.raises((KeyError, ShapeError)):
            adam_step({"first": first, "second": second}, grads, state)
        np.testing.assert_array_equal(first.data, np.arange(3.0))
        assert state.step == 0 and not state.m and not state.v

    def test_overflowing_update_raises_naming_the_parameter(self):
        fine = Tensor(np.ones(3), requires_grad=True)
        edge = Tensor(np.full(3, -3.4e38), requires_grad=True)
        grads = {"fine": np.ones(3, np.float32), "edge": np.ones(3, np.float32)}
        # the first step moves each parameter down by lr: -3.4e38 - 1e37 overflows
        with pytest.raises(NonFiniteError, match="'edge'"):
            adam_step({"fine": fine, "edge": edge}, grads, AdamState(lr=1e37))
        assert np.isneginf(edge.data).all() and np.isfinite(fine.data).all()
        assert fine.checked is fine.data and edge.checked is not edge.data

    @pytest.mark.parametrize("block", [1, 2])
    def test_run_blocks_returns_the_nonfinite_names(self, block):
        params = {"a": Tensor(np.ones(BLOCK + 3), requires_grad=True),
                  "b": Tensor(np.ones(3 * BLOCK), requires_grad=True)}
        grads = {"a": np.ones(BLOCK + 3, np.float32), "b": np.ones(3 * BLOCK, np.float32)}
        bad = block * BLOCK + 1
        grads["b"][bad] = np.nan  # only one later block of b goes bad
        with pytest.raises(NonFiniteError, match="'b'"):
            adam_step(params, grads, AdamState(lr=1e-2))
        assert np.isnan(params["b"].data[bad])
        assert np.isfinite(np.delete(params["b"].data, bad)).all()
        assert params["a"].checked is params["a"].data and params["b"].checked is None

    def test_multi_block_update_starts_no_thread(self):
        p = Tensor(np.ones(3 * BLOCK + 1), requires_grad=True)
        adam_step({"p": p}, {"p": np.ones(3 * BLOCK + 1, np.float32)}, AdamState(lr=1e-4))
        assert not [t.name for t in threading.enumerate() if t.name.startswith("adam")]

    def test_update_marks_parameters_checked_and_skips_their_scan(self, monkeypatch):
        p = Tensor(np.ones((2, 2)), requires_grad=True, name="w")
        adam_step({"w": p}, {"w": np.ones((2, 2), np.float32)}, AdamState(lr=1e-4))
        assert p.checked is p.data
        scanned = []
        real = tensor.all_finite
        monkeypatch.setattr(tensor, "all_finite", lambda a: scanned.append(a.shape) or real(a))
        x = Tensor(np.ones((3, 2)))
        Graph().matmul(x, p)
        assert scanned == [(3, 2), (3, 2)]  # x, then the output; p is skipped
        p.data = p.data.copy()  # a new array is scanned again, although equal
        Graph().matmul(x, p)
        assert scanned == [(3, 2), (3, 2), (3, 2), (2, 2), (3, 2)]

    def test_nan_assigned_after_update_rejected_at_next_apply(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True, name="w")
        adam_step({"w": p}, {"w": np.ones((2, 2), np.float32)}, AdamState(lr=1e-4))
        x = Tensor(np.ones((3, 2)))
        Graph().matmul(x, p)
        p.data = np.full((2, 2), np.nan, np.float32)
        with pytest.raises(NonFiniteError, match="'w'"):
            Graph().matmul(x, p)

    def test_non_contiguous_param_rejected(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        p.data = p.data.T
        before = p.data.copy()
        state = AdamState(lr=0.1)
        with pytest.raises(ShapeError, match="contiguous"):
            adam_step({"p": p}, {"p": np.ones((3, 2), np.float32)}, state)
        np.testing.assert_array_equal(p.data, before)
        assert state.step == 0

    def test_stream_updates_each_parameter_as_it_arrives(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        other = Tensor(np.ones(4), requires_grad=True)  # a leaf that is no parameter
        seen = []

        def stream():
            yield b, np.ones(2, np.float32)
            seen.append(b.data.copy())  # b is already updated when the stream resumes
            yield other, np.ones(4, np.float32)
            yield a, np.ones(3, np.float32)

        state = AdamState(lr=0.1)
        adam_step({"a": a, "b": b}, stream(), state)
        np.testing.assert_allclose(seen[0], 0.9, rtol=1e-5)
        np.testing.assert_allclose(a.data, 0.9, rtol=1e-5)
        np.testing.assert_array_equal(other.data, 1.0)
        assert state.step == 1 and set(state.m) == {"a", "b"}
        assert a.checked is a.data and b.checked is b.data

    def test_stream_missing_a_parameter_raises_once_it_ends(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        state = AdamState(lr=0.1)
        with pytest.raises(KeyError, match="missing gradient for parameter 'b'"):
            adam_step({"a": a, "b": b}, iter([(a, np.ones(3, np.float32))]), state)
        assert state.step == 1

    def test_stream_names_the_first_nonfinite_parameter_in_params_order(self):
        params = {name: Tensor(np.full(3, -3.4e38), requires_grad=True)
                  for name in ("first", "second")}
        grads = [(params[name], np.ones(3, np.float32)) for name in ("second", "first")]
        with pytest.raises(NonFiniteError, match="'first'"):
            adam_step(params, iter(grads), AdamState(lr=1e37))
        assert all(p.checked is None for p in params.values())


class TestCheckpoint:
    def test_load_state_rejects_nan_naming_the_parameter(self, tmp_path):
        config = ModelConfig(encoder="lstm", d_model=4, head=(3, 3), seg_len=4)
        config.lstm = LstmSettings(hidden=3)
        model = ExpressionModel(config, 2, np.random.default_rng(0))
        arrays = {k: p.data.copy() for k, p in model.parameters().items()}
        arrays["head.out.bias"][1] = np.nan
        save_checkpoint(arrays, str(tmp_path / "nan.ckpt"))
        with pytest.raises(NonFiniteError, match="'head.out.bias'"):
            model.load_state(load_checkpoint(str(tmp_path / "nan.ckpt")))
        arrays["head.out.bias"][1] = 0.0
        model.load_state(arrays)
        assert all(p.checked is p.data for p in model.parameters().values())

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        params = {
            "fusion.weight": rng.normal(size=(6, 4)).astype(np.float32),
            "fusion.bias": rng.normal(size=4).astype(np.float32),
            "scalar": np.float32(3.25).reshape(()),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, str(path))
        loaded = load_checkpoint(str(path))
        assert list(loaded) == list(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_same_params_same_bytes(self):
        params = {"a": np.ones((2, 2), np.float32)}
        assert ref.checkpoint_bytes(params) == ref.checkpoint_bytes(params)

    def test_streamed_file_holds_the_checkpoint_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        params = {"strided": rng.normal(size=(4, 6)).astype(np.float32)[:, ::2],
                  "f64": rng.normal(size=(2, 3)), "t": Tensor(rng.normal(size=5)),
                  "empty": np.zeros((0, 3), np.float32), "scalar": np.float32(1.5)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, str(path))
        assert path.read_bytes() == ref.checkpoint_bytes(params)

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.ones(2, np.float32)}, str(path))
        before = path.read_bytes()
        # the first parameter is written before the second fails to convert
        with pytest.raises(ValueError):
            save_checkpoint({"w": np.zeros(2, np.float32), "bad": np.array(["x"])}, str(path))
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]

    def test_load_holds_one_copy_of_the_parameters(self, tmp_path):
        params = {f"w{i}": np.full((256, 256), i, np.float32) for i in range(8)}
        path = tmp_path / "big.ckpt"
        save_checkpoint(params, str(path))
        tracemalloc.start()
        try:
            loaded = load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(a.nbytes for a in params.values())
        assert peak < 1.1 * nbytes, (peak, nbytes)
        for k, a in params.items():
            np.testing.assert_array_equal(loaded[k], a)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))

    def test_payload_shorter_than_dims_rejected(self, tmp_path):
        raw = ref.checkpoint_bytes({"w": np.ones((8, 8), np.float32)})
        # rewrite the first dim from 8 to 9: the header now asks for 72 floats
        dims_at = 4 + 8 + 4 + 1 + 4
        path = tmp_path / "dims.ckpt"
        path.write_bytes(raw[:dims_at] + (9).to_bytes(4, "little") + raw[dims_at + 4:])
        with pytest.raises(DataFormatError, match="dims.ckpt"):
            load_checkpoint(str(path))

    def test_non_utf8_name_rejected(self, tmp_path):
        raw = ref.checkpoint_bytes({"w": np.ones(2, np.float32)})
        name_at = 4 + 8 + 4
        path = tmp_path / "name.ckpt"
        path.write_bytes(raw[:name_at] + b"\xff" + raw[name_at + 1:])
        with pytest.raises(DataFormatError, match="name.ckpt"):
            load_checkpoint(str(path))

    def test_repeated_name_rejected(self, tmp_path):
        raw = ref.checkpoint_bytes({"w": np.ones(2, np.float32)})
        path = tmp_path / "twice.ckpt"
        # the header counts two parameters and the one entry follows twice
        path.write_bytes(raw[:8] + (2).to_bytes(4, "little") + raw[12:] + raw[12:])
        with pytest.raises(DataFormatError, match=r"twice\.ckpt: parameter 'w' appears twice"):
            load_checkpoint(str(path))

    def test_shape_numpy_refuses_rejected(self, tmp_path):
        # (0, 2**32-1, 2**32-1) holds no floats, so it passes the size check,
        # but numpy cannot make an array of that shape
        dims = (0, 2**32 - 1, 2**32 - 1)
        raw = (b"TFCK" + struct.pack("<III", 1, 1, 1) + b"w"
               + struct.pack(f"<{1 + len(dims)}I", len(dims), *dims))
        path = tmp_path / "huge.ckpt"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match=r"huge\.ckpt: parameter 'w' has an invalid shape"):
            load_checkpoint(str(path))

    def test_file_shrinking_while_read_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "shrinks.ckpt"
        save_checkpoint({"w": np.ones((8, 8), np.float32)}, str(path))

        class Shrinking(io.FileIO):
            """Reads come up short at the parameter data, as if the file were
            cut after its size was taken."""

            def readinto(self, buf):
                return super().readinto(buf) if len(buf) < 256 else 10

        monkeypatch.setattr(checkpoint, "open", lambda p, mode: Shrinking(p), raising=False)
        with pytest.raises(DataFormatError, match=r"shrinks\.ckpt: truncated checkpoint"):
            load_checkpoint(str(path))

    def test_truncation_rejected(self, tmp_path):
        params = {"w": np.ones((8, 8), np.float32)}
        path = tmp_path / "short.ckpt"
        path.write_bytes(ref.checkpoint_bytes(params)[:-10])
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
