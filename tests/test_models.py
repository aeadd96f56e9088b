"""Models: fusion semantics, LSTM carryover, transformer independence, head."""

import os
import tracemalloc

import numpy as np
import pytest

from mmexpr import Graph, Tensor, backward, models
from mmexpr.checkpoint import load_checkpoint, save_checkpoint
from mmexpr.data import segment_video
from mmexpr.models import (
    ClassificationHead,
    ExpressionModel,
    FusionLayer,
    LstmEncoder,
    LstmSettings,
    ModelConfig,
    TransformerEncoder,
    TransformerSettings,
    sinusoidal_table,
)

from tests import _reference as ref


def tiny_config(encoder, **kw):
    cfg = ModelConfig(encoder=encoder, d_model=16, head=(12, 8), seg_len=6, stride=6)
    cfg.lstm = LstmSettings(hidden=10, layers=kw.pop("lstm_layers", 1))
    cfg.transformer = TransformerSettings(
        layers=kw.pop("trm_layers", 2), heads=kw.pop("heads", 2),
        dropout=kw.pop("dropout", 0.3), ffn_dim=kw.pop("ffn_dim", 24),
        positional_encoding=kw.pop("positional_encoding", True))
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


class TestFusionLayer:
    def test_identity_weight_passes_concat_through(self):
        params = {}
        layer = FusionLayer(6, 6, np.random.default_rng(0), params)
        layer.weight.data = np.eye(6, dtype=np.float32)
        layer.bias.data = np.zeros(6, np.float32)
        g = Graph()
        vis = Tensor(np.arange(8.0).reshape(2, 4))
        aud = Tensor(np.arange(4.0).reshape(2, 2) + 100)
        out = layer.apply(g, g.concat([vis, aud], axis=1))
        np.testing.assert_array_equal(out.data, np.hstack([vis.data, aud.data]))

    def test_zero_weight_maps_every_frame_to_bias(self):
        params = {}
        layer = FusionLayer(5, 3, np.random.default_rng(0), params)
        layer.weight.data = np.zeros((5, 3), np.float32)
        layer.bias.data = np.array([1.0, -2.0, 0.5], np.float32)
        g = Graph()
        out = layer.apply(g, Tensor(np.random.default_rng(1).normal(size=(4, 5))))
        np.testing.assert_array_equal(out.data, np.tile(layer.bias.data, (4, 1)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        params = {}
        layer = FusionLayer(4, 3, rng, params)
        x = rng.normal(size=(5, 4))
        g = Graph()
        out = layer.apply(g, Tensor(x))
        backward(g.sum(out), g)
        arrays = {"w": layer.weight.data.copy(), "b": layer.bias.data.copy()}
        fd, _ = ref.finite_difference(
            lambda p: float((x @ p["w"] + p["b"]).sum()), arrays)
        assert ref.gradient_error(layer.weight.grad, fd["w"]) < 1e-4
        assert ref.gradient_error(layer.bias.grad, fd["b"]) < 1e-4

    def test_dim_mismatch_rejected(self):
        layer = FusionLayer(4, 3, np.random.default_rng(0), {})
        with pytest.raises(ValueError, match="dim"):
            layer.apply(Graph(), Tensor(np.zeros((2, 5))))


class TestLstmEncoder:
    def test_zero_weights_give_zero_outputs(self):
        params = {}
        enc = LstmEncoder(4, LstmSettings(hidden=3, layers=1), np.random.default_rng(0), params)
        for t in params.values():
            t.data = np.zeros_like(t.data)
        g = Graph()
        out, states = enc.forward(g, Tensor(np.random.default_rng(1).normal(size=(5, 4))))
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(states[0][0].data, 0.0)
        np.testing.assert_array_equal(states[0][1].data, 0.0)

    def test_matches_float64_reference(self):
        rng = np.random.default_rng(3)
        params = {}
        enc = LstmEncoder(4, LstmSettings(hidden=5, layers=2), rng, params)
        x = rng.normal(size=(7, 4)).astype(np.float32)
        g = Graph()
        out, _ = enc.forward(g, Tensor(x))
        weights = [(params[f"lstm{li}.input_weight"].data,
                    params[f"lstm{li}.state_weight"].data,
                    params[f"lstm{li}.bias"].data) for li in range(2)]
        expected, _ = ref.lstm_forward(x, weights)
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    @pytest.mark.parametrize("seg_len", [2, 4, 5])
    def test_segmented_run_equals_full_run(self, seg_len):
        rng = np.random.default_rng(4)
        enc = LstmEncoder(3, LstmSettings(hidden=6, layers=1), rng, {})
        n = 11
        x = rng.normal(size=(n, 3)).astype(np.float32)
        g = Graph(record=False)
        full, _ = enc.forward(g, Tensor(x))
        pieces, state = [], None
        for start, end in segment_video(n, seg_len, seg_len):
            piece, state = enc.encode_segment(g, Tensor(x[start - 1:end]), state)
            pieces.append(piece.data)
        np.testing.assert_allclose(np.vstack(pieces), full.data, atol=1e-5)

    def test_frame_order_matters(self):
        rng = np.random.default_rng(5)
        enc = LstmEncoder(3, LstmSettings(hidden=4, layers=1), rng, {})
        x = rng.normal(size=(6, 3)).astype(np.float32)
        g = Graph(record=False)
        out1, _ = enc.forward(g, Tensor(x))
        out2, _ = enc.forward(g, Tensor(x[::-1].copy()))
        assert np.abs(out1.data - out2.data).max() > 1e-4

    def test_none_state_starts_from_zeros(self):
        rng = np.random.default_rng(7)
        enc = LstmEncoder(2, LstmSettings(hidden=3, layers=1), rng, {})
        g = Graph(record=False)
        x = rng.normal(size=(3, 2)).astype(np.float32)
        first, state = enc.encode_segment(g, Tensor(x))
        enc.encode_segment(g, Tensor(x), state)
        again, _ = enc.encode_segment(g, Tensor(x), None)
        zeros = [(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))]
        from_zeros, _ = enc.encode_segment(g, Tensor(x), zeros)
        np.testing.assert_array_equal(first.data, again.data)
        np.testing.assert_array_equal(from_zeros.data, again.data)

    def test_segment_tape_holds_one_fused_op_per_layer(self):
        rng = np.random.default_rng(8)
        enc = LstmEncoder(4, LstmSettings(hidden=5, layers=2), rng, {})
        x = Tensor(rng.normal(size=(7, 4)))
        state = None
        for _ in range(2):  # from zeros, then from the first segment's state
            g = Graph()
            _, state = enc.encode_segment(g, x, state)
            assert [n.kind for n in g.nodes] == ["affine", "lstm_seq"] * 2

    def test_per_frame_checkpoint_predicts_the_same(self):
        """``fixtures/lstm_per_frame.*`` were written by the per-frame LSTM
        graph (slice, sigmoid, tanh, mul and add nodes per frame) that the
        fused ``lstm_seq`` op replaced: a two-layer checkpoint, ten frames of
        features, and that code's encoder outputs and logits over three
        carried segments of four frames."""
        base = os.path.join(os.path.dirname(__file__), "fixtures", "lstm_per_frame")
        stored = np.load(base + ".npz")
        cfg = ModelConfig(encoder="lstm", d_model=8, head=(6, 4), seg_len=4, stride=4)
        cfg.lstm = LstmSettings(hidden=6, layers=2)
        model = ExpressionModel(cfg, 5, np.random.default_rng(0))
        model.load_state(load_checkpoint(base + ".ckpt"))
        features = stored["features"]
        logits, encoded = [], []
        model_state = encoder_state = None
        for start, end in segment_video(len(features), 4, 4):
            g = Graph(record=False)
            x = features[start - 1:end]
            out, model_state = model.eval_logits(g, x, model_state)
            logits.append(out.data)
            fused = model.fusion.apply(g, Tensor(x))
            out, encoder_state = model.encoder.encode_segment(g, fused, encoder_state)
            encoded.append(out.data)
        np.testing.assert_allclose(np.vstack(encoded), stored["encoded"], rtol=0, atol=1e-5)
        np.testing.assert_allclose(np.vstack(logits), stored["logits"], rtol=0, atol=1e-5)
        expected = ref.model_logits({k: p.data for k, p in model.parameters().items()},
                                    "lstm", features, lstm_layers=2)
        np.testing.assert_allclose(np.vstack(logits), expected, rtol=0, atol=1e-5)


class TestTransformerEncoder:
    def make(self, rng, d_model=8, heads=2, layers=2, seg_len=10, pe=True, dropout=0.0):
        params = {}
        enc = TransformerEncoder(
            d_model, seg_len,
            TransformerSettings(layers=layers, heads=heads, dropout=dropout,
                                ffn_dim=12, positional_encoding=pe),
            rng, params)
        return enc, params

    def test_segments_are_independent(self):
        rng = np.random.default_rng(8)
        enc, _ = self.make(rng)
        a = rng.normal(size=(6, 8)).astype(np.float32)
        b = rng.normal(size=(6, 8)).astype(np.float32)
        g = Graph(record=False)
        alone = enc.forward(g, Tensor(a)).data
        enc.forward(g, Tensor(b))
        after_other = enc.forward(g, Tensor(a)).data
        assert alone.tobytes() == after_other.tobytes()

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        enc, _ = self.make(rng)
        g = Graph()
        maps = []
        g.softmax = lambda x: maps.append(Graph.softmax(g, x)) or maps[-1]
        enc.forward(g, Tensor(rng.normal(size=(7, 8))))
        assert len(maps) == 2  # one (passes, heads, L, L) stack per layer
        for att in maps:
            assert att.shape == (1, 2, 7, 7)
            np.testing.assert_allclose(att.data.sum(axis=-1), 1.0, atol=1e-5)
            assert (att.data >= 0).all()

    def test_layer_tape_runs_all_heads_as_one_stack(self):
        rng = np.random.default_rng(14)
        enc, _ = self.make(rng, layers=2, heads=2, dropout=0.3)
        x = Tensor(rng.normal(size=(6, 8)))
        g = Graph()
        # two training passes, as RDrop runs them: one stack of 12 rows
        masks = [np.concatenate([rng.random(shape) >= rate for _ in range(2)])
                 for shape, rate in enc.dropout_sites(6)]
        out = enc.forward(g, x, masks=iter(masks), passes=2)
        assert out.shape == (12, 8)
        split = ["affine", "reshape", "transpose"]
        layer = (split * 3
                 + ["matmul", "scale", "softmax", "dropout", "matmul", "transpose", "reshape"]
                 + ["affine", "dropout", "add", "layer_norm"]
                 + ["affine", "relu", "dropout", "affine", "dropout", "add", "layer_norm"])
        assert [n.kind for n in g.nodes] == layer * 2
        softmax_out = {i for i, n in enumerate(g.nodes) if n.kind == "softmax"}
        attention_drops = [n for n in g.nodes
                           if n.kind == "dropout" and n.inputs[0] in softmax_out]
        assert len(softmax_out) == len(attention_drops) == 2
        assert all(n.attrs["mask"].shape == (2, 2, 6, 6) for n in attention_drops)
        used = [n.attrs["mask"] for n in g.nodes if n.kind == "dropout"]
        assert len(used) == len(masks) and all(a is b for a, b in zip(used, masks))

    def test_per_head_checkpoint_predicts_the_same(self):
        """``fixtures/trm_per_head.*`` were written by the per-head attention
        code (slice, transpose, matmul, softmax and dropout nodes per head,
        then a concat) that the (heads, L, d_h) stack replaced: a two-layer,
        two-head checkpoint, eight frames of features, that code's eval logits
        for a full five-frame window and a short three-frame one, and its two
        training-pass logits on the full window under dropout seed 11."""
        base = os.path.join(os.path.dirname(__file__), "fixtures", "trm_per_head")
        stored = np.load(base + ".npz")
        cfg = tiny_config("transformer", seg_len=5, stride=5, d_model=8, ffn_dim=12,
                          head=(6, 4))
        model = ExpressionModel(cfg, 5, np.random.default_rng(0))
        model.load_state(load_checkpoint(base + ".ckpt"))
        full, short = stored["features"][:5], stored["features"][5:]
        for features, key in ((full, "eval_full"), (short, "eval_short")):
            logits, _ = model.eval_logits(Graph(record=False), features)
            np.testing.assert_allclose(logits.data, stored[key], rtol=0, atol=1e-6)
        first, second, _ = model.two_pass_logits(Graph(), full, None, np.random.default_rng(11))
        np.testing.assert_allclose(first.data, stored["two_pass_first"], rtol=0, atol=1e-6)
        np.testing.assert_allclose(second.data, stored["two_pass_second"], rtol=0, atol=1e-6)

    def test_permutation_equivariance_without_positions(self):
        rng = np.random.default_rng(10)
        enc, _ = self.make(rng, pe=False)
        x = rng.normal(size=(9, 8)).astype(np.float32)
        perm = rng.permutation(9)
        g = Graph(record=False)
        base = enc.forward(g, Tensor(x)).data
        permuted = enc.forward(g, Tensor(x[perm])).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-5)

    def test_positional_encoding_breaks_equivariance(self):
        rng = np.random.default_rng(11)
        enc, _ = self.make(rng, pe=True)
        x = rng.normal(size=(9, 8)).astype(np.float32)
        perm = rng.permutation(9)
        g = Graph(record=False)
        base = enc.forward(g, Tensor(x)).data
        permuted = enc.forward(g, Tensor(x[perm])).data
        assert np.abs(permuted - base[perm]).max() > 1e-3

    def test_eval_forward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(12)
        enc, _ = self.make(rng, dropout=0.3)
        x = Tensor(rng.normal(size=(5, 8)))
        g = Graph(record=False)
        one = enc.forward(g, x).data
        two = enc.forward(g, x).data
        assert one.tobytes() == two.tobytes()

    def test_matches_float64_reference(self):
        rng = np.random.default_rng(13)
        enc, params = self.make(rng, layers=2, heads=2)
        x = rng.normal(size=(6, 8)).astype(np.float32)
        g = Graph(record=False)
        out = enc.forward(g, Tensor(x))
        arrays = {k: v.data for k, v in params.items()}
        layers = []
        for li in range(2):
            layers.append({
                "wq": arrays[f"trm{li}.attn.query_weight"], "bq": arrays[f"trm{li}.attn.query_bias"],
                "wk": arrays[f"trm{li}.attn.key_weight"], "bk": arrays[f"trm{li}.attn.key_bias"],
                "wv": arrays[f"trm{li}.attn.value_weight"], "bv": arrays[f"trm{li}.attn.value_bias"],
                "wo": arrays[f"trm{li}.attn.out_weight"], "bo": arrays[f"trm{li}.attn.out_bias"],
                "w1": arrays[f"trm{li}.ffn.in_weight"], "b1": arrays[f"trm{li}.ffn.in_bias"],
                "w2": arrays[f"trm{li}.ffn.out_weight"], "b2": arrays[f"trm{li}.ffn.out_bias"],
                "g1": arrays[f"trm{li}.norm1.gain"], "s1": arrays[f"trm{li}.norm1.shift"],
                "g2": arrays[f"trm{li}.norm2.gain"], "s2": arrays[f"trm{li}.norm2.shift"],
            })
        expected = ref.transformer_forward(x, layers, heads=2, pe=enc.pe)
        np.testing.assert_allclose(out.data, expected, atol=2e-5)

    def test_sinusoidal_table_shape_and_range(self):
        table = sinusoidal_table(16, 10)
        assert table.shape == (16, 10)
        assert np.abs(table).max() <= 1.0
        assert not np.allclose(table[0], table[1])


class TestClassificationHead:
    def test_zero_weights_give_uniform_softmax(self):
        params = {}
        head = ClassificationHead(6, (4, 4), 8, 0.0, np.random.default_rng(0), params)
        for t in params.values():
            t.data = np.zeros_like(t.data)
        g = Graph()
        logits = head.forward(g, Tensor(np.random.default_rng(1).normal(size=(3, 6))))
        np.testing.assert_array_equal(logits.data, 0.0)
        np.testing.assert_allclose(g.softmax(logits).data, 0.125, atol=1e-7)

    def test_identical_frames_identical_logits_in_eval(self):
        rng = np.random.default_rng(2)
        head = ClassificationHead(5, (4, 3), 8, 0.3, rng, {})
        row = rng.normal(size=5).astype(np.float32)
        g = Graph(record=False)
        logits = head.forward(g, Tensor(np.stack([row, row])))
        np.testing.assert_array_equal(logits.data[0], logits.data[1])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        params = {}
        head = ClassificationHead(4, (5, 3), 8, 0.0, rng, params)
        x = rng.uniform(0.2, 1.0, (6, 4))
        g = Graph()
        logits = head.forward(g, Tensor(x))
        c = rng.normal(size=(6, 8))
        backward(g.sum(g.mul(logits, Tensor(c))), g)

        arrays = {k: np.asarray(v.data, np.float64) for k, v in params.items()}
        stages = [("head.hidden0.weight", "head.hidden0.bias"),
                  ("head.hidden1.weight", "head.hidden1.bias")]

        def f(p):
            h = np.asarray(x, np.float64)
            for wn, bn in stages:
                h = np.maximum(h @ p[wn] + p[bn], 0.0)
            out = h @ p["head.out.weight"] + p["head.out.bias"]
            return float((out * c).sum())

        fd, _ = ref.finite_difference(f, arrays)
        for name in params:
            assert ref.gradient_error(params[name].grad, fd[name]) < 1e-4, name


class TestExpressionModel:
    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_every_parameter_gets_gradient(self, encoder):
        model = ExpressionModel(tiny_config(encoder), 7, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(6, 7)).astype(np.float32)
        g = Graph()
        l1, l2, _ = model.two_pass_logits(g, feats, None, rng)
        c = Tensor(rng.normal(size=(6, 8)))
        loss = g.sum(g.add(g.mul(l1, c), g.mul(l2, c)))
        backward(loss, g)
        # attention key biases shift every score in a row equally, which the
        # row softmax cancels: their true gradient is zero
        dead = [n for n, p in model.parameters().items()
                if (p.grad is None or not np.any(p.grad)) and "key_bias" not in n]
        assert dead == []

    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_eval_passes_bitwise_identical(self, encoder):
        model = ExpressionModel(tiny_config(encoder), 5, np.random.default_rng(3))
        feats = np.random.default_rng(4).normal(size=(6, 5)).astype(np.float32)
        outs = []
        for _ in range(2):
            g = Graph(record=False)
            outs.append(model.eval_logits(g, feats)[0].data)
        assert outs[0].tobytes() == outs[1].tobytes()

    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_eval_from_one_state_twice_is_bitwise_equal(self, encoder):
        model = ExpressionModel(tiny_config(encoder, lstm_layers=2), 5,
                                np.random.default_rng(6))
        feats = np.random.default_rng(7).normal(size=(12, 5)).astype(np.float32)
        _, state = model.eval_logits(Graph(record=False), feats[:6])
        before = [(h.data.tobytes(), c.data.tobytes()) for h, c in state or []]
        (a, next_a), (b, next_b) = [model.eval_logits(Graph(record=False), feats[6:], state)
                                    for _ in range(2)]
        assert a.data.tobytes() == b.data.tobytes()
        assert [(h.data.tobytes(), c.data.tobytes()) for h, c in state or []] == before
        if encoder == "transformer":
            assert state is next_a is next_b is None
        else:
            assert len(next_a) == len(next_b) == 2
            for (ha, ca), (hb, cb) in zip(next_a, next_b):
                assert ha.data.tobytes() == hb.data.tobytes()
                assert ca.data.tobytes() == cb.data.tobytes()

    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_encoders_answer_one_interface(self, encoder):
        model = ExpressionModel(tiny_config(encoder), 5, np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(6, 16)))
        g = Graph(record=False)
        first, state = model.encoder.encode_segment(g, x)
        model.encoder.encode_segment(g, x, state)
        again, _ = model.encoder.encode_segment(g, x)
        assert first.shape == (6, model.encoder.output_dim)
        assert first.data.tobytes() == again.data.tobytes()
        assert (state is None) == (encoder == "transformer")
        stacked, _ = model.encoder.encode_segment(g, x, passes=2)
        assert stacked.data.tobytes() == np.concatenate([first.data] * 2).tobytes()

        calls = []
        encode = model.encoder.encode_segment
        model.encoder.encode_segment = lambda *a, **kw: calls.append(kw) or encode(*a, **kw)
        model.two_pass_logits(Graph(), x.data[:, :5], None, np.random.default_rng(5))
        assert len(calls) == 1  # both passes, one stack
        assert calls[0]["passes"] == 2

    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_tape_masks_equal_site_by_site_draws(self, encoder):
        """The stacked masks, split per pass, are the masks two passes run one
        after the other draw: pass 1's encoder then head sites, then pass 2's."""
        model = ExpressionModel(tiny_config(encoder), 5, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        clone = np.random.default_rng(10)
        feats = np.random.default_rng(13).normal(size=(6, 5)).astype(np.float32)
        g = Graph()
        model.two_pass_logits(g, feats, None, rng)
        trm = encoder == "transformer"
        per_pass = (([(2, 6, 6), (6, 16), (6, 24), (6, 16)] * 2 if trm else [])
                    + [(6, model.encoder.output_dim), (6, 12)])
        expected = [[clone.random(shape, dtype=np.float32) >= 0.3 for shape in per_pass]
                    for _ in range(2)]
        (enc1, head1), (enc2, head2) = ref.split_dropout_masks(
            [n.attrs["mask"] for n in g.nodes if n.kind == "dropout"],
            trm_layers=2 if trm else 0, heads=2, head_stages=2)

        def flat(enc, head):
            sites = [m for layer in enc or [] for m in
                     (np.stack([layer["att0"], layer["att1"]]), layer["proj"], layer["mid"],
                      layer["out"])]
            return sites + [head["head0"], head["head1"]]

        for drawn, (enc, head) in zip(expected, ((enc1, head1), (enc2, head2))):
            got = flat(enc, head)
            assert [m.shape for m in got] == [m.shape for m in drawn]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, drawn))
        assert rng.bit_generator.state == clone.bit_generator.state

    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_stacked_halves_match_single_passes(self, encoder):
        model = ExpressionModel(tiny_config(encoder), 5, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(6, 5)).astype(np.float32)
        g = Graph()
        halves = model.two_pass_logits(g, feats, None, rng)[:2]
        stacked = [n.attrs["mask"] for n in g.nodes if n.kind == "dropout"]
        for p, half in enumerate(halves):
            masks = iter([np.split(m, 2)[p] for m in stacked])
            single = Graph()
            encoded, _ = model.encoder.encode_segment(
                single, model.fusion.apply(single, Tensor(feats)), masks=masks)
            alone = model.head.forward(single, encoded, masks)
            assert half.shape == alone.shape == (6, 8)
            np.testing.assert_allclose(half.data, alone.data, rtol=0, atol=1e-6)

    def test_two_passes_differ_under_dropout(self):
        model = ExpressionModel(tiny_config("transformer"), 5, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(6, 5)).astype(np.float32)
        g = Graph()
        l1, l2, _ = model.two_pass_logits(g, feats, None, rng)
        assert np.abs(l1.data - l2.data).max() > 1e-6

    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_zero_dropout_draws_no_masks(self, encoder):
        model = ExpressionModel(tiny_config(encoder, dropout=0.0, head_dropout=0.0), 5,
                                np.random.default_rng(5))
        rng = np.random.default_rng(6)
        before = rng.bit_generator.state
        feats = np.random.default_rng(7).normal(size=(6, 5)).astype(np.float32)
        g = Graph()
        model.two_pass_logits(g, feats, None, rng)
        assert rng.bit_generator.state == before
        assert [n for n in g.nodes if n.kind == "dropout"] == []

    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_from_state_draws_nothing_and_holds_the_loaded_arrays(self, encoder, tmp_path,
                                                                   monkeypatch):
        cfg = tiny_config(encoder)
        model = ExpressionModel(cfg, 5, np.random.default_rng(7))
        save_checkpoint(model.parameters(), str(tmp_path / "m.ckpt"))
        arrays = load_checkpoint(str(tmp_path / "m.ckpt"))

        def no_draw(*args):
            raise AssertionError("from_state drew an init")

        monkeypatch.setattr(models, "xavier", no_draw)
        clone = ExpressionModel.from_state(cfg, arrays)
        assert list(clone.parameters()) == list(arrays)
        for name, p in clone.parameters().items():
            assert np.shares_memory(p.data, arrays[name]), name
            assert p.checked is p.data
        feats = np.random.default_rng(8).normal(size=(6, 5)).astype(np.float32)
        a = model.eval_logits(Graph(record=False), feats)[0].data
        b = clone.eval_logits(Graph(record=False), feats)[0].data
        assert a.tobytes() == b.tobytes()

    def test_from_state_allocates_no_second_parameter_set(self, tmp_path):
        cfg = tiny_config("transformer")
        cfg.d_model, cfg.transformer.ffn_dim = 256, 512
        save_checkpoint(ExpressionModel(cfg, 64, np.random.default_rng(1)).parameters(),
                        str(tmp_path / "m.ckpt"))
        arrays = load_checkpoint(str(tmp_path / "m.ckpt"))
        nbytes = sum(a.nbytes for a in arrays.values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ExpressionModel.from_state(cfg, arrays)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * nbytes, (peak, nbytes)

    def test_checkpoint_roundtrip_through_state(self):
        cfg = tiny_config("lstm")
        model = ExpressionModel(cfg, 5, np.random.default_rng(7))
        state = {k: v.data.copy() for k, v in model.parameters().items()}
        clone = ExpressionModel(cfg, 5, np.random.default_rng(99)).load_state(state)
        feats = np.random.default_rng(8).normal(size=(4, 5)).astype(np.float32)
        g = Graph(record=False)
        a = model.eval_logits(g, feats)[0].data
        b = clone.eval_logits(g, feats)[0].data
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fixture", ["lstm_per_frame", "trm_per_head"])
    def test_parameter_order_is_the_checkpoint_layout(self, fixture):
        """The parameters are made in the order the fixtures' checkpoints list
        them, and ``save_checkpoint`` writes them in ``parameters()`` order."""
        if fixture == "lstm_per_frame":
            cfg = ModelConfig(encoder="lstm", d_model=8, head=(6, 4), seg_len=4, stride=4)
            cfg.lstm = LstmSettings(hidden=6, layers=2)
        else:
            cfg = tiny_config("transformer", seg_len=5, stride=5, d_model=8, ffn_dim=12,
                              head=(6, 4))
        model = ExpressionModel(cfg, 5, np.random.default_rng(0))
        path = os.path.join(os.path.dirname(__file__), "fixtures", fixture + ".ckpt")
        assert list(model.parameters()) == list(load_checkpoint(path))

    def test_config_json_roundtrip(self):
        cfg = tiny_config("transformer", positional_encoding=False)
        doc = cfg.to_json()
        assert doc["segment"] == {"l": 6, "p": 6}
        back = ModelConfig.from_json(doc)
        assert back.to_json() == doc

    def test_lstm_requires_no_overlap(self):
        with pytest.raises(ValueError, match="stride == segment length"):
            ModelConfig(encoder="lstm", seg_len=8, stride=4).validate()

    def test_stride_defaults_to_segment_length(self):
        assert ModelConfig(seg_len=40).stride == 40
        assert ModelConfig.from_json({"segment": {"l": 40}}).stride == 40
        doc = tiny_config("transformer").to_json()
        del doc["segment"]["p"]
        assert ModelConfig.from_json(doc).stride == doc["segment"]["l"]

    def test_heads_must_divide_d_model(self):
        cfg = ModelConfig(encoder="transformer", d_model=10)
        cfg.transformer.heads = 4
        with pytest.raises(ValueError, match="divisible"):
            cfg.validate()
