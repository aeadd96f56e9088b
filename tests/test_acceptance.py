"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The synthetic end-to-end criterion trains full-size models and
dominates the runtime.
"""

import itertools
import json
import time

import numpy as np
import pytest

from mmexpr import Graph, Tensor, backward
from mmexpr.data import segment_video
from mmexpr.ensemble import PredictionTrack, vote
from mmexpr.evaluation import confusion, macro_f1
from mmexpr.models import (
    LstmEncoder,
    LstmSettings,
    ModelConfig,
    TransformerSettings,
    build_model,
)
from mmexpr.training import (
    ExperimentConfig,
    TrainingSettings,
    rdrop_loss,
    synth_dataset,
    train,
)

from tests import _reference as ref

TOL_GRAD = 1e-4
FD_STEP = 1e-3


def check_instance(build, params64, tensors, loss_t, g, rng, sample=None):
    """Backward vs 64-bit central differences; error relative to the largest
    finite-difference gradient in the instance (analytically-zero parameters
    would otherwise divide by noise)."""
    backward(loss_t, g)
    fd, probed = ref.finite_difference(build, params64, step=FD_STEP,
                                       sample=sample, rng=rng)
    scale = max(max(np.abs(v).max(initial=0.0) for v in fd.values()), 1e-8)
    worst = 0.0
    for name, t in tensors.items():
        diff = np.abs(np.asarray(t.grad, np.float64) - fd[name])
        worst = max(worst, float(diff[probed[name]].max(initial=0.0)) / scale)
    return worst


class TestCriterion1GradientSuite:
    def test_gradient_suite(self):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = {"ops": 0.0, "lstm": 0.0, "transformer": 0.0}

        # -- every differentiable op, 20 random instances each --
        op_cases = []

        def add_case(name, make, build, reference):
            op_cases.append((name, make, build, reference))

        add_case("matmul", lambda r: {"a": r.normal(size=(4, 3)), "b": r.normal(size=(3, 5))},
                 lambda g, t, r: g.matmul(t["a"], t["b"]),
                 lambda p: p["a"] @ p["b"])
        add_case("batched_matmul",
                 lambda r: {"a": r.normal(size=(3, 4, 2)), "b": r.normal(size=(3, 2, 5))},
                 lambda g, t, r: g.matmul(t["a"], t["b"]),
                 lambda p: p["a"] @ p["b"])
        add_case("add", lambda r: {"a": r.normal(size=(4, 5)), "b": r.normal(size=(4, 5))},
                 lambda g, t, r: g.add(t["a"], t["b"]),
                 lambda p: p["a"] + p["b"])
        add_case("affine", lambda r: {"x": r.normal(size=(4, 3)), "w": r.normal(size=(3, 5)),
                                      "b": r.normal(size=5)},
                 lambda g, t, r: g.affine(t["x"], t["w"], t["b"]),
                 lambda p: p["x"] @ p["w"] + p["b"])
        add_case("mul", lambda r: {"a": r.normal(size=(3, 4)), "b": r.normal(size=(3, 4))},
                 lambda g, t, r: g.mul(t["a"], t["b"]),
                 lambda p: p["a"] * p["b"])
        add_case("scale", lambda r: {"x": r.normal(size=(3, 4))},
                 lambda g, t, r: g.scale(t["x"], 0.37),
                 lambda p: p["x"] * 0.37)
        add_case("concat", lambda r: {"a": r.normal(size=(2, 3)), "b": r.normal(size=(4, 3))},
                 lambda g, t, r: g.concat([t["a"], t["b"]], axis=0),
                 lambda p: np.concatenate([p["a"], p["b"]], axis=0))
        add_case("relu",
                 lambda r: {"x": r.uniform(0.1, 2.0, (5, 4)) * r.choice([-1.0, 1.0], (5, 4))},
                 lambda g, t, r: g.relu(t["x"]), lambda p: np.maximum(p["x"], 0.0))
        add_case("softmax", lambda r: {"x": r.normal(size=(5, 8))},
                 lambda g, t, r: g.softmax(t["x"]), lambda p: ref.softmax(p["x"]))
        add_case("log_softmax", lambda r: {"x": r.normal(size=(5, 8))},
                 lambda g, t, r: g.log_softmax(t["x"]), lambda p: ref.log_softmax(p["x"]))
        add_case("layer_norm",
                 lambda r: {"x": r.normal(size=(4, 6)), "g": r.uniform(0.5, 1.5, 6),
                            "s": r.normal(size=6)},
                 lambda g, t, r: g.layer_norm(t["x"], t["g"], t["s"]),
                 lambda p: ref.layer_norm(p["x"], p["g"], p["s"]))
        add_case("reshape", lambda r: {"x": r.normal(size=(4, 6))},
                 lambda g, t, r: g.reshape(t["x"], (2, 4, 3)),
                 lambda p: p["x"].reshape(2, 4, 3))
        add_case("transpose", lambda r: {"x": r.normal(size=(4, 6))},
                 lambda g, t, r: g.transpose(t["x"]), lambda p: p["x"].T)
        add_case("transpose_3d", lambda r: {"x": r.normal(size=(2, 3, 4))},
                 lambda g, t, r: g.transpose(t["x"], (1, 2, 0)),
                 lambda p: p["x"].transpose(1, 2, 0))
        # the oracle's identity input weight and zero bias make its input
        # projection pass the op's pre-activations through unchanged
        add_case("lstm_seq",
                 lambda r: {"pre": r.normal(size=(5, 16)), "w": r.normal(size=(4, 16)),
                            "h0": r.uniform(-1, 1, (1, 4)), "c0": r.normal(size=(1, 4))},
                 lambda g, t, r: g.lstm_seq(t["pre"], t["w"], t["h0"], t["c0"])[0],
                 lambda p: ref.lstm_forward(p["pre"], [(np.eye(16), p["w"], np.zeros(16))],
                                            h0=[p["h0"]], c0=[p["c0"]])[0])

        for name, make_params, build_graph, reference in op_cases:
            for _ in range(20):
                instance_rng = np.random.default_rng(rng.integers(2**32))
                params = make_params(instance_rng)
                g = Graph()
                tensors = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
                out = build_graph(g, tensors, instance_rng)
                weights = instance_rng.normal(size=out.shape)
                loss = g.sum(g.mul(out, Tensor(weights)))
                f = lambda p: float((reference(p) * weights).sum())
                err = check_instance(f, params, tensors, loss, g, instance_rng)
                assert err < TOL_GRAD, f"{name}: relative error {err}"
                worst["ops"] = max(worst["ops"], err)

        # dropout (fixed mask) and sum get their own shapes
        for _ in range(20):
            instance_rng = np.random.default_rng(rng.integers(2**32))
            x = instance_rng.normal(size=(5, 6))
            mask = instance_rng.random((5, 6)) >= 0.4
            weights = instance_rng.normal(size=(5, 6))
            g = Graph()
            t = Tensor(x, requires_grad=True)
            loss = g.sum(g.mul(g.dropout(t, 0.4, mask=mask), Tensor(weights)))
            f = lambda p: float((ref.dropout(p["x"], 0.4, mask) * weights).sum())
            err = check_instance(f, {"x": x}, {"x": t}, loss, g, instance_rng)
            assert err < TOL_GRAD, f"dropout: {err}"
            worst["ops"] = max(worst["ops"], err)
        for _ in range(20):
            instance_rng = np.random.default_rng(rng.integers(2**32))
            x = instance_rng.normal(size=(4, 5))
            g = Graph()
            t = Tensor(x, requires_grad=True)
            out = g.sum(g.mul(t, t))
            fn = lambda p: float((p["x"] ** 2).sum())
            err = check_instance(fn, {"x": x}, {"x": t}, out, g, instance_rng)
            assert err < TOL_GRAD, f"sum: {err}"
            worst["ops"] = max(worst["ops"], err)

        # -- full fusion -> encoder -> head -> RDrop graphs, both encoders --
        for encoder in ("lstm", "transformer"):
            accepted = 0
            while accepted < 10:
                instance_rng = np.random.default_rng(rng.integers(2**32))
                cfg = ModelConfig(encoder=encoder, d_model=12, head=(10, 6),
                                  seg_len=5, stride=5, head_dropout=0.3)
                cfg.transformer = TransformerSettings(layers=2, heads=2, dropout=0.3,
                                                      ffn_dim=16)
                cfg.lstm = LstmSettings(hidden=9, layers=1)
                model = build_model(cfg, input_dim=7, seed=instance_rng.integers(2**32))
                x = instance_rng.normal(size=(5, 7)).astype(np.float32)
                labels = instance_rng.integers(0, 8, 5)
                mask = instance_rng.random(5) < 0.8
                if not mask.any():
                    mask[0] = True
                g = Graph()
                drop_rng = np.random.default_rng(instance_rng.integers(2**32))
                l1, l2 = model.two_pass_logits(g, x, "v", 1, drop_rng)
                loss = rdrop_loss(g, l1, l2, labels, mask, alpha=5.0)
                # central differences are invalid across a ReLU kink; redraw
                # instances whose pre-activations sit within the probe step
                relu_inputs = [n.inputs[0].data for n in g.nodes if n.kind == "relu"]
                if relu_inputs and min(np.abs(v).min() for v in relu_inputs) < 5 * FD_STEP:
                    continue
                accepted += 1
                flat = [n.attrs["mask_used"] for n in g.nodes if n.kind == "dropout"]
                trm_layers = 2 if encoder == "transformer" else 0
                (enc1, head1), (enc2, head2) = ref.split_dropout_masks(
                    flat, trm_layers=trm_layers, heads=2, head_stages=2)
                pe = model.encoder.pe if encoder == "transformer" else None
                params64 = {k: np.asarray(v.data, np.float64)
                            for k, v in model.parameters().items()}

                def f(p):
                    a = ref.model_logits(p, encoder, x, lstm_layers=1, trm_layers=trm_layers,
                                         heads=2, pe=pe, enc_masks=enc1, head_masks=head1,
                                         enc_rate=0.3, head_rate=0.3)
                    b = ref.model_logits(p, encoder, x, lstm_layers=1, trm_layers=trm_layers,
                                         heads=2, pe=pe, enc_masks=enc2, head_masks=head2,
                                         enc_rate=0.3, head_rate=0.3)
                    return ref.rdrop_loss(a, b, labels, mask, 5.0)

                assert abs(f(params64) - loss.item()) < 1e-4  # oracle mirrors the graph
                err = check_instance(f, params64, model.parameters(), loss, g,
                                     instance_rng, sample=4)
                assert err < TOL_GRAD, f"{encoder} full graph: {err}"
                worst[encoder] = max(worst[encoder], err)

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        print(f"\nACCEPTANCE 1 gradient suite: PASS "
              f"(worst rel err ops={worst['ops']:.2e}, lstm={worst['lstm']:.2e}, "
              f"transformer={worst['transformer']:.2e}; {elapsed:.1f}s)")


class TestCriterion2LstmCarryover:
    def test_segmented_equals_full(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        trials = 0
        for seg_len in (4, 16, 128):
            for _ in range(7):
                input_dim = int(rng.integers(2, 7))
                hidden = int(rng.integers(3, 10))
                layers = int(rng.integers(1, 3))
                n = int(rng.integers(seg_len + 1, 3 * seg_len + 8))
                enc = LstmEncoder(input_dim, LstmSettings(hidden=hidden, layers=layers),
                                  rng, {})
                x = rng.normal(size=(n, input_dim)).astype(np.float32)
                g = Graph(record=False)
                full, _ = enc.forward(g, Tensor(x))
                pieces = []
                for span in segment_video(n, seg_len, seg_len):
                    piece = enc.encode_segment(
                        g, "v", span.index, Tensor(x[span.start - 1:span.end]))
                    pieces.append(piece.data)
                diff = float(np.abs(np.vstack(pieces) - full.data).max())
                assert diff < 1e-5, f"l=p={seg_len}: diff {diff}"
                worst = max(worst, diff)
                trials += 1
        assert trials >= 20
        print(f"\nACCEPTANCE 2 LSTM carryover equivalence: PASS "
              f"({trials} trials, max abs diff {worst:.2e})")


class TestCriterion3RdropIdentities:
    def test_identities(self):
        rng = np.random.default_rng(11)

        def value(l1, l2, labels, mask, alpha):
            g = Graph()
            t1 = Tensor(l1, requires_grad=True)
            t2 = Tensor(l2, requires_grad=True)
            loss = rdrop_loss(g, t1, t2, labels, mask, alpha)
            return loss, g, t1, t2

        # alpha = 0 reduces to the mean CE (within 1e-6)
        for _ in range(10):
            n = int(rng.integers(1, 20))
            l1 = rng.normal(size=(n, 8))
            l2 = rng.normal(size=(n, 8))
            labels = rng.integers(0, 8, n)
            mask = rng.random(n) < 0.8
            if not mask.any():
                mask[0] = True
            loss, *_ = value(l1, l2, labels, mask, 0.0)
            want = 0.5 * (ref.cross_entropy(l1.astype(np.float32), labels, mask)
                          + ref.cross_entropy(l2.astype(np.float32), labels, mask))
            assert abs(loss.item() - want) < 1e-6

        # identical passes reduce to CE (within 1e-6)
        for _ in range(10):
            n = int(rng.integers(1, 20))
            logits = rng.normal(size=(n, 8))
            labels = rng.integers(0, 8, n)
            mask = np.ones(n, bool)
            loss, *_ = value(logits, logits.copy(), labels, mask, rng.uniform(0, 10))
            want = ref.cross_entropy(logits.astype(np.float32), labels, mask)
            assert abs(loss.item() - want) < 1e-6

        # symmetric in pass order, bitwise
        for _ in range(10):
            n = int(rng.integers(1, 20))
            l1 = rng.normal(size=(n, 8)).astype(np.float32)
            l2 = rng.normal(size=(n, 8)).astype(np.float32)
            labels = rng.integers(0, 8, n)
            mask = np.ones(n, bool)
            a, *_ = value(l1, l2, labels, mask, 5.0)
            b, *_ = value(l2, l1, labels, mask, 5.0)
            assert a.data.tobytes() == b.data.tobytes()

        # L >= 0 always
        for _ in range(50):
            n = int(rng.integers(1, 25))
            loss, *_ = value(rng.normal(0, 4, (n, 8)), rng.normal(0, 4, (n, 8)),
                             rng.integers(0, 8, n), np.ones(n, bool),
                             rng.uniform(0, 10))
            assert loss.item() >= 0.0

        # masked frames produce exactly zero gradient
        for _ in range(10):
            n = int(rng.integers(2, 15))
            l1 = rng.normal(size=(n, 8))
            l2 = rng.normal(size=(n, 8))
            labels = rng.integers(0, 8, n)
            mask = rng.random(n) < 0.6
            mask[int(rng.integers(n))] = True
            mask[int(rng.integers(n))] = False
            loss, g, t1, t2 = value(l1, l2, labels, mask, 5.0)
            backward(loss, g)
            assert np.all(t1.grad[~mask] == 0.0)
            assert np.all(t2.grad[~mask] == 0.0)

        print("\nACCEPTANCE 3 RDrop identities: PASS "
              "(alpha=0 reduction, identical-pass reduction, bitwise symmetry, "
              "L>=0, masked gradients exactly zero)")


class TestCriterion4MacroF1Oracle:
    def test_brute_force_agreement(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(1, 80))
            labels = rng.integers(0, int(rng.integers(1, 9)), n)
            preds = rng.integers(0, 8, n)
            mask = rng.random(n) < 0.85
            if not mask.any():
                mask[0] = True
            got = macro_f1(confusion(labels, preds, mask))
            want_scores, want_macro = ref.brute_force_macro_f1(labels, preds, mask)
            assert got.per_class_f1 == want_scores
            assert got.macro_f1 == want_macro

        # the hand-derived example, including the 0/0 -> 0 convention
        report = macro_f1(confusion([0, 0, 1, 1, 2], [0, 1, 1, 1, 2]))
        assert report.macro_f1 == pytest.approx(37 / 120, abs=1e-12)  # 0.30833...
        empty = macro_f1(confusion([], []))
        assert empty.macro_f1 == 0.0
        print("\nACCEPTANCE 4 macro-F1 oracle: PASS "
              "(1000 random tracks exact, example = 37/120, 0/0 -> 0)")


class TestCriterion5Segmentation:
    def test_all_lengths_to_1000(self):
        for n in range(1, 1001):
            spans = segment_video(n, 128, 128)
            counts = np.zeros(n, np.int64)
            for s in spans:
                counts[s.start - 1:s.end] += 1
            assert (counts == 1).all(), f"n={n}: coverage not exactly once"
            candidates = n // 128 + 1
            pruned = 1 if n % 128 == 0 else 0
            assert len(spans) == candidates - pruned, f"n={n}"
        assert len(segment_video(300, 128, 128)) == 3
        assert len(segment_video(256, 128, 128)) == 2
        assert len(segment_video(100, 128, 128)) == 1
        print("\nACCEPTANCE 5 segmentation: PASS "
              "(n=1..1000 covered exactly once; 300->3, 256->2, 100->1)")


class TestCriterion6SyntheticEndToEnd:
    def test_both_encoders_reach_090_and_sigma0_reaches_1(self, tmp_path):
        started = time.perf_counter()

        def experiment(data_dir, run_dir, sigma, encoder, epochs, seed=7):
            manifest = synth_dataset(str(data_dir), videos=20, frames=200,
                                     visual_dim=64, audio_dim=32, sigma=sigma,
                                     seed=seed)
            # reference hyperparameters (lr 1e-4, alpha 5, l=p=128, full model
            # sizes); batch sizes tuned for a 2-core box, epochs <= 25
            cfg = ExperimentConfig(
                manifest=manifest, output_dir=str(run_dir), seed=seed,
                visual_features=["synthvis"], audio_features=["synthaud"],
                registry_extra={"synthvis": {"dim": 64, "modality": "visual"},
                                "synthaud": {"dim": 32, "modality": "audio"}},
                model=ModelConfig(encoder=encoder, seg_len=128, stride=128),
                training=TrainingSettings(lr=1e-4, epochs=epochs, alpha=5.0,
                                          batch_segments=1, batch_videos=1))
            assert cfg.training.lr == 1e-4 and cfg.training.alpha == 5.0
            assert cfg.model.d_model == 1024 and cfg.model.seg_len == 128
            result = train(cfg)
            # the val split equals the train split, so val_macro_f1 is the
            # training macro-F1
            return result

        noisy = tmp_path / "noisy"
        result_trm = experiment(noisy / "data", noisy / "trm", sigma=0.5,
                                encoder="transformer", epochs=3)
        assert result_trm.best_val_f1 >= 0.90, result_trm.best_val_f1
        f1_trm = result_trm.best_val_f1
        del result_trm

        result_lstm = experiment(noisy / "data2", noisy / "lstm", sigma=0.5,
                                 encoder="lstm", epochs=2)
        assert result_lstm.best_val_f1 >= 0.90, result_lstm.best_val_f1
        f1_lstm = result_lstm.best_val_f1
        del result_lstm

        clean = tmp_path / "clean"
        result_zero = experiment(clean / "data", clean / "trm", sigma=0.0,
                                 encoder="transformer", epochs=3)
        assert result_zero.best_val_f1 == 1.0, result_zero.best_val_f1
        del result_zero

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"synthetic end-to-end took {elapsed:.0f}s"
        print(f"\nACCEPTANCE 6 synthetic end-to-end: PASS "
              f"(transformer {f1_trm:.4f}, lstm {f1_lstm:.4f}, sigma=0 -> 1.0; "
              f"{elapsed:.0f}s < 300s)")


class TestCriterion7Ensemble:
    def test_vote_oracle_and_fixture(self):
        rng = np.random.default_rng(17)
        cases = 0
        for members in (2, 3, 4):
            for classes in (2, 3):
                for labels in itertools.product(range(classes), repeat=members):
                    probs = rng.dirichlet(np.ones(8), size=members)
                    tracks = [PredictionTrack("v", np.array([lab]), probs[m:m + 1])
                              for m, lab in enumerate(labels)]
                    assert vote(tracks).labels[0] == ref.brute_force_vote(labels, probs)
                    cases += 1
        for _ in range(300):
            members = int(rng.integers(2, 5))
            labels = rng.integers(0, 8, members)
            probs = rng.dirichlet(np.ones(8), size=members)
            tracks = [PredictionTrack("v", labels[m:m + 1], probs[m:m + 1])
                      for m in range(members)]
            assert vote(tracks).labels[0] == ref.brute_force_vote(labels, probs)
            cases += 1

        # constructed fixture: members fail on pairwise-disjoint frames, so
        # the majority is right everywhere and the vote dominates each member
        n = 600
        truth = rng.integers(0, 8, n)
        member_tracks = []
        member_scores = []
        for m in range(3):
            noisy = truth.copy()
            wrong = np.arange(m, n, 3)
            noisy[wrong] = (truth[wrong] + 1 + rng.integers(0, 6, len(wrong))) % 8
            probs = np.full((n, 8), 0.3 / 7)
            probs[np.arange(n), noisy] = 0.7
            member_tracks.append(PredictionTrack("v", noisy, probs))
            _, score = ref.brute_force_macro_f1(truth, noisy, np.ones(n, bool))
            member_scores.append(score)
        fused = vote(member_tracks)
        _, fused_score = ref.brute_force_macro_f1(truth, fused.labels, np.ones(n, bool))
        assert all(fused_score >= s for s in member_scores)
        assert fused_score == 1.0
        print(f"\nACCEPTANCE 7 ensemble: PASS "
              f"({cases} vote cases match brute force; fused {fused_score:.3f} >= "
              f"members {[round(s, 3) for s in member_scores]})")


class TestCriterion8Determinism:
    def test_repeated_training_is_bitwise_identical(self, tmp_path):
        def one(run_dir):
            manifest = synth_dataset(str(run_dir / "data"), videos=4, frames=40,
                                     visual_dim=8, audio_dim=4, sigma=0.3, seed=21)
            model = ModelConfig(encoder="lstm", d_model=32, head=(16, 8),
                                seg_len=16, stride=16)
            model.lstm = LstmSettings(hidden=16, layers=1)
            cfg = ExperimentConfig(
                manifest=manifest, output_dir=str(run_dir / "run"), seed=21,
                visual_features=["synthvis"], audio_features=["synthaud"],
                registry_extra={"synthvis": {"dim": 8, "modality": "visual"},
                                "synthaud": {"dim": 4, "modality": "audio"}},
                model=model,
                training=TrainingSettings(lr=1e-3, epochs=3, alpha=5.0,
                                          batch_videos=2))
            return train(cfg)

        a = one(tmp_path / "a")
        b = one(tmp_path / "b")
        with open(a.best_checkpoint, "rb") as fa, open(b.best_checkpoint, "rb") as fb:
            assert fa.read() == fb.read()

        def stripped(path):
            out = []
            for line in open(path):
                record = json.loads(line)
                record.pop("wall_ms")  # the one timing field differs by nature
                out.append(json.dumps(record, sort_keys=True))
            return out

        assert stripped(a.log_path) == stripped(b.log_path)
        print("\nACCEPTANCE 8 determinism: PASS "
              "(identical seed -> bitwise-identical checkpoints and logs, "
              "wall_ms excluded)")
