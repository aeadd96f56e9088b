"""Tensor core: forward semantics, autodiff vs finite differences, Adam, checkpoints."""

import numpy as np
import pytest

from mmexpr import (AdamState, DataFormatError, Graph, NonFiniteError, ShapeError, Tensor,
                    adam_step, backward)
from mmexpr.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint

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
            outs.append(g.dropout(x, 0.3, rng=rng).data)
        np.testing.assert_array_equal(outs[0], outs[1])
        assert set(np.unique(outs[0])) == {0.0, np.float32(1.0 / 0.7)}

    def test_dropout_needs_rng_or_mask(self):
        g = Graph()
        with pytest.raises(ValueError, match="rng"):
            g.dropout(Tensor(np.ones(4)), 0.5)

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
        with pytest.raises(ShapeError, match="2-D or two 3-D"):
            g.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3, 4))))
        with pytest.raises(ShapeError, match="2-D or two 3-D"):
            g.matmul(Tensor(np.zeros((1, 1, 2, 3))), Tensor(np.zeros((1, 1, 3, 4))))
        with pytest.raises(ShapeError, match=r"batch sizes differ: \(2, 2, 3\) @ \(3, 3, 4\)"):
            g.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 4))))
        with pytest.raises(ShapeError, match="inner dimensions"):
            g.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 4, 4))))

    def test_unknown_kind_rejected(self):
        g = Graph()
        with pytest.raises(ValueError, match="unknown op"):
            g.apply("conv", (Tensor(np.zeros(2)),))

    def test_bias_add_broadcast(self):
        g = Graph()
        out = g.add(Tensor(np.zeros((3, 4))), Tensor(np.arange(4.0)))
        np.testing.assert_array_equal(out.data, np.tile(np.arange(4.0), (3, 1)))

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
        seen = {id(x), id(w)}
        for node in g.nodes:
            for t in node.inputs:
                assert id(t) in seen or not t.requires_grad
            seen.add(id(node.output))


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

    def test_add_bias(self):
        def build(g, t, rng):
            c = np.random.default_rng(1).normal(size=(4, 3))
            loss = g.sum(g.mul(g.add(t["x"], t["b"]), Tensor(c)))
            return loss, lambda p: float(((p["x"] + p["b"]) * c).sum())
        fd_check(build, lambda rng: {"x": rng.normal(size=(4, 3)), "b": rng.normal(size=3)},
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

            h = g.add(g.matmul(t["x"], t["w1"]), t["b1"])
            logits = g.add(g.matmul(g.softmax(h), t["w2"]), t["b2"])
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
        state = AdamState()
        p = Tensor(np.zeros(3), requires_grad=True)
        adam_step({"p": p}, {"p": np.ones(3, np.float32)}, state)
        assert state.step == 1
        with pytest.raises(ShapeError, match="shape"):
            adam_step({"p": p}, {"p": np.ones(4, np.float32)}, state)


class TestCheckpoint:
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
        assert checkpoint_bytes(params) == checkpoint_bytes(params)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))

    def test_payload_shorter_than_dims_rejected(self, tmp_path):
        raw = checkpoint_bytes({"w": np.ones((8, 8), np.float32)})
        # rewrite the first dim from 8 to 9: the header now asks for 72 floats
        dims_at = 4 + 8 + 4 + 1 + 4
        path = tmp_path / "dims.ckpt"
        path.write_bytes(raw[:dims_at] + (9).to_bytes(4, "little") + raw[dims_at + 4:])
        with pytest.raises(DataFormatError, match="dims.ckpt"):
            load_checkpoint(str(path))

    def test_non_utf8_name_rejected(self, tmp_path):
        raw = checkpoint_bytes({"w": np.ones(2, np.float32)})
        name_at = 4 + 8 + 4
        path = tmp_path / "name.ckpt"
        path.write_bytes(raw[:name_at] + b"\xff" + raw[name_at + 1:])
        with pytest.raises(DataFormatError, match="name.ckpt"):
            load_checkpoint(str(path))

    def test_truncation_rejected(self, tmp_path):
        params = {"w": np.ones((8, 8), np.float32)}
        path = tmp_path / "short.ckpt"
        path.write_bytes(checkpoint_bytes(params)[:-10])
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
