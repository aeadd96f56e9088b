"""Training: RDrop identities, the loop's determinism, synthetic data."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest

from mmexpr import Graph, NumericError, Tensor, backward, training
from mmexpr.data import LabelTrack, VideoData, load_manifest, read_feature_file, save_labels
from mmexpr.errors import DataFormatError
from mmexpr.fileio import write_json
from mmexpr.models import ExpressionModel, LstmSettings, ModelConfig, TransformerSettings
from mmexpr.optim import BLOCK, AdamState, adam_step, collect_grads, zero_grads
from mmexpr.training import (
    ExperimentConfig,
    TrainingSettings,
    load_dataset,
    predict_video,
    rdrop_loss,
    synth_dataset,
    train,
)

from tests import _reference as ref


def loss_value(logits1, logits2, labels, mask, alpha):
    g = Graph()
    t1 = Tensor(logits1, requires_grad=True)
    t2 = Tensor(logits2, requires_grad=True)
    loss = rdrop_loss(g, t1, t2, labels, mask, alpha)
    return loss, g, t1, t2


class TestRdropLoss:
    def test_identical_passes_reduce_to_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(12, 8))
        labels = rng.integers(0, 8, 12)
        mask = np.ones(12, bool)
        loss, *_ = loss_value(logits, logits.copy(), labels, mask, alpha=7.0)
        expected = ref.cross_entropy(logits.astype(np.float32), labels, mask)
        assert abs(loss.item() - expected) < 1e-6

    def test_uniform_logits_give_ln8(self):
        loss, *_ = loss_value(np.zeros((5, 8)), np.zeros((5, 8)),
                              np.array([0, 3, 7, 1, 2]), np.ones(5, bool), alpha=5.0)
        assert abs(loss.item() - np.log(8.0)) < 1e-6

    def test_alpha_zero_is_mean_of_both_cross_entropies(self):
        rng = np.random.default_rng(1)
        l1 = rng.normal(size=(9, 8))
        l2 = rng.normal(size=(9, 8))
        labels = rng.integers(0, 8, 9)
        mask = rng.random(9) < 0.8
        mask[0] = True
        loss, *_ = loss_value(l1, l2, labels, mask, alpha=0.0)
        expected = 0.5 * (ref.cross_entropy(l1.astype(np.float32), labels, mask)
                          + ref.cross_entropy(l2.astype(np.float32), labels, mask))
        assert abs(loss.item() - expected) < 1e-6

    def test_hand_derived_value(self):
        # single frame, alpha 5: pass logits differ in one coordinate
        l1 = np.zeros((1, 8))
        l1[0, 0] = 1.0
        l2 = np.zeros((1, 8))
        l2[0, 1] = 1.0
        labels = np.array([0])
        mask = np.ones(1, bool)
        loss, *_ = loss_value(l1, l2, labels, mask, alpha=5.0)
        oracle = ref.rdrop_loss(l1, l2, labels, mask, alpha=5.0)
        assert abs(oracle - 2.65805493552249) < 1e-12  # frozen 64-bit value
        assert abs(loss.item() - oracle) < 1e-5

    def test_symmetric_in_pass_order_bitwise(self):
        rng = np.random.default_rng(2)
        l1 = rng.normal(size=(7, 8)).astype(np.float32)
        l2 = rng.normal(size=(7, 8)).astype(np.float32)
        labels = rng.integers(0, 8, 7)
        mask = np.ones(7, bool)
        a, *_ = loss_value(l1, l2, labels, mask, alpha=5.0)
        b, *_ = loss_value(l2, l1, labels, mask, alpha=5.0)
        assert a.data.tobytes() == b.data.tobytes()

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            l1 = rng.normal(0, 3, (n, 8))
            l2 = rng.normal(0, 3, (n, 8))
            labels = rng.integers(0, 8, n)
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[0] = True
            loss, *_ = loss_value(l1, l2, labels, mask, rng.uniform(0, 10))
            assert loss.item() >= 0.0

    def test_monotone_in_alpha_when_passes_differ(self):
        rng = np.random.default_rng(4)
        l1 = rng.normal(size=(6, 8))
        l2 = rng.normal(size=(6, 8))
        labels = rng.integers(0, 8, 6)
        mask = np.ones(6, bool)
        values = [loss_value(l1, l2, labels, mask, a)[0].item()
                  for a in (0.0, 1.0, 2.0, 5.0, 10.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        l1 = rng.normal(size=(5, 8))
        l2 = rng.normal(size=(5, 8))
        labels = rng.integers(0, 8, 5)
        mask = np.array([True, True, False, True, True])
        loss, g, t1, t2 = loss_value(l1, l2, labels, mask, alpha=5.0)
        backward(loss, g)
        fd, _ = ref.finite_difference(
            lambda p: ref.rdrop_loss(p["l1"], p["l2"], labels, mask, 5.0),
            {"l1": l1, "l2": l2})
        assert ref.gradient_error(t1.grad, fd["l1"]) < 1e-4
        assert ref.gradient_error(t2.grad, fd["l2"]) < 1e-4

    def test_masked_frames_contribute_exactly_zero(self):
        rng = np.random.default_rng(6)
        l1 = rng.normal(size=(6, 8)).astype(np.float32)
        l2 = rng.normal(size=(6, 8)).astype(np.float32)
        labels = rng.integers(0, 8, 6)
        mask = np.array([True, False, True, True, False, True])
        loss, g, t1, t2 = loss_value(l1, l2, labels, mask, alpha=5.0)
        backward(loss, g)
        np.testing.assert_array_equal(t1.grad[~mask], 0.0)
        np.testing.assert_array_equal(t2.grad[~mask], 0.0)
        # perturbing a masked frame's logits leaves the loss bit-identical
        l1_mod = l1.copy()
        l1_mod[1] += 17.0
        again, *_ = loss_value(l1_mod, l2, labels, mask, alpha=5.0)
        assert again.data.tobytes() == loss.data.tobytes()

    def test_all_masked_batch_is_skipped(self):
        g = Graph()
        out = rdrop_loss(g, Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 8))),
                         np.array([-1, -1, -1]), np.zeros(3, bool), alpha=5.0)
        assert out is None

    def test_shape_mismatch_rejected(self):
        g = Graph()
        with pytest.raises(ValueError, match="shapes differ"):
            rdrop_loss(g, Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 8))),
                       np.zeros(3, np.int64), np.ones(3, bool), 5.0)


class TestSynthDataset:
    def test_zero_noise_is_separable_by_nearest_mean(self, tmp_path):
        manifest_path = synth_dataset(str(tmp_path), videos=4, frames=60,
                                      visual_dim=8, audio_dim=4, sigma=0.0, seed=3)
        manifest = load_manifest(manifest_path)
        feats, labels = [], []
        for entry in manifest.videos:
            vis = read_feature_file(entry.features["synthvis"])
            aud = read_feature_file(entry.features["synthaud"])
            from mmexpr.data import load_labels
            lab = load_labels(entry.label_file, entry.n_frames)
            feats.append(np.hstack([vis.matrix, aud.matrix]))
            labels.append(lab.labels)
        x = np.vstack(feats)
        y = np.concatenate(labels)
        means = np.stack([x[y == c].mean(axis=0) for c in range(8) if (y == c).any()])
        classes = [c for c in range(8) if (y == c).any()]
        dists = ((x[:, None, :] - means[None]) ** 2).sum(axis=2)
        preds = np.array(classes)[dists.argmin(axis=1)]
        _, macro = ref.brute_force_macro_f1(y, preds, np.ones_like(y, bool),
                                            classes=8)
        present_share = len(classes) / 8
        assert macro == pytest.approx(present_share)  # perfect on present classes

    def test_identical_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_dataset(str(a), videos=3, frames=40, visual_dim=6, audio_dim=3, seed=9)
        synth_dataset(str(b), videos=3, frames=40, visual_dim=6, audio_dim=3, seed=9)
        rel_files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert rel_files
        for rel in rel_files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    @pytest.mark.parametrize("argument", [{"videos": 0}, {"classes": 9}, {"sigma": -1.0},
                                          {"seed": -1}])
    def test_argument_out_of_range_is_a_data_error(self, tmp_path, argument):
        with pytest.raises(DataFormatError, match="synth: "):
            synth_dataset(str(tmp_path / "s"), **argument)
        assert not (tmp_path / "s").exists()

    def test_huge_noise_is_chance_level(self, tmp_path):
        manifest_path = synth_dataset(str(tmp_path), videos=6, frames=100,
                                      visual_dim=8, audio_dim=4, sigma=200.0, seed=5)
        manifest = load_manifest(manifest_path)
        from mmexpr.data import load_labels
        y = np.concatenate([load_labels(e.label_file, e.n_frames).labels for e in manifest.videos])
        rng = np.random.default_rng(0)
        _, random_macro = ref.brute_force_macro_f1(
            y, rng.integers(0, 8, len(y)), np.ones_like(y, bool))
        assert random_macro == pytest.approx(0.125, abs=0.05)
        majority = np.bincount(y, minlength=8).argmax()
        _, majority_macro = ref.brute_force_macro_f1(
            y, np.full_like(y, majority), np.ones_like(y, bool))
        assert majority_macro < 0.08


def tiny_experiment(tmp_path, encoder, *, sigma=0.1, epochs=3, seed=11, lr=1e-3,
                    videos=4, frames=30, seg=8, d_model=16, hidden=12):
    data_dir = tmp_path / "data"
    manifest_path = synth_dataset(str(data_dir), videos=videos, frames=frames,
                                  visual_dim=8, audio_dim=4, sigma=sigma, seed=seed)
    model = ModelConfig(encoder=encoder, d_model=d_model, head=(12, 8),
                        seg_len=seg, stride=seg)
    model.lstm = LstmSettings(hidden=hidden, layers=1)
    model.transformer = TransformerSettings(layers=1, heads=2, dropout=0.2,
                                            ffn_dim=2 * d_model)
    cfg = ExperimentConfig(
        manifest=manifest_path,
        output_dir=str(tmp_path / "run"),
        seed=seed,
        visual_features=["synthvis"],
        audio_features=["synthaud"],
        registry_extra={"synthvis": {"dim": 8, "modality": "visual"},
                        "synthaud": {"dim": 4, "modality": "audio"}},
        model=model,
        training=TrainingSettings(lr=lr, epochs=epochs, alpha=5.0,
                                  batch_segments=4, batch_videos=1),
    )
    return cfg


class TestTrainLoop:
    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_same_seed_bitwise_identical_runs(self, tmp_path, encoder):
        results = []
        for tag in ("one", "two"):
            cfg = tiny_experiment(tmp_path / tag, encoder, epochs=2)
            results.append(train(cfg))
        a, b = results
        for ra, rb in zip(a.records, b.records):
            assert ra["train_loss"] == rb["train_loss"]
            assert ra["val_macro_f1"] == rb["val_macro_f1"]
            assert ra["per_class_f1"] == rb["per_class_f1"]
        with open(a.best_checkpoint, "rb") as fa, open(b.best_checkpoint, "rb") as fb:
            assert fa.read() == fb.read()

    def test_zero_learning_rate_changes_nothing(self, tmp_path, monkeypatch):
        # a config's lr must be > 0, so the zero rate is set on the optimizer state
        real_step = training.adam_step

        def zero_rate_step(params, grads, state):
            state.lr = 0.0
            return real_step(params, grads, state)
        monkeypatch.setattr(training, "adam_step", zero_rate_step)
        cfg = tiny_experiment(tmp_path, "lstm", epochs=2)
        result = train(cfg)
        streams = np.random.SeedSequence(cfg.seed).spawn(3)
        fresh = ExpressionModel(cfg.model, 12, np.random.default_rng(streams[0]))
        for name, p in result.model.parameters().items():
            np.testing.assert_array_equal(p.data, fresh.parameters()[name].data)

    def test_learns_the_separable_toy_problem(self, tmp_path):
        # desk-size smoke check; the >=0.90 target runs at full scale in
        # the acceptance suite
        cfg = tiny_experiment(tmp_path, "lstm", sigma=0.05, epochs=8, lr=1e-3,
                              videos=8, frames=60, seg=16, d_model=64, hidden=32)
        result = train(cfg)
        # the KL consistency term keeps a dropout-noise floor under the loss,
        # so assert on the cross-entropy-driven part: loss down, F1 well above
        # chance (0.125)
        assert result.records[-1]["train_loss"] < result.records[0]["train_loss"] - 0.1
        assert result.best_val_f1 > 0.35

    def test_log_and_config_files_written(self, tmp_path):
        cfg = tiny_experiment(tmp_path, "transformer", epochs=2)
        result = train(cfg)
        lines = open(result.log_path).read().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "train_loss", "val_macro_f1",
                               "per_class_f1", "wall_ms"}
        assert len(record["per_class_f1"]) == 8
        resolved = json.load(open(tmp_path / "run" / "resolved_config.json"))
        assert resolved["seed"] == cfg.seed
        assert resolved["features"]["visual"] == ["synthvis"]

    def test_all_masked_batch_is_skipped_by_the_loss_and_the_optimizer(self, tmp_path,
                                                                        monkeypatch):
        cfg = tiny_experiment(tmp_path, "lstm", epochs=1)  # one video per step
        manifest = load_manifest(cfg.manifest)
        masked = manifest.video("vid001")
        save_labels(LabelTrack("vid001", np.full(masked.n_frames, -1)), masked.label_file)
        steps, states = [], []
        real_step, real_adam = training._train_step, training.adam_step

        def recorded_step(model, batch, *args):
            steps.append((batch[0][0], real_step(model, batch, *args)))
            return steps[-1][1]

        def recorded_adam(params, grads, state):
            states.append(state)
            return real_adam(params, grads, state)

        monkeypatch.setattr(training, "_train_step", recorded_step)
        monkeypatch.setattr(training, "adam_step", recorded_adam)
        record = train(cfg).records[0]
        assert [vid for vid, out in steps if out is None] == ["vid001"]
        kept = [out for _, out in steps if out is not None]
        assert len(kept) == 3
        assert record["train_loss"] == (sum(value * n for value, n in kept)
                                        / sum(n for _, n in kept))
        assert states[-1].step == 3

    def test_best_checkpoint_tracks_best_epoch(self, tmp_path):
        cfg = tiny_experiment(tmp_path, "lstm", sigma=0.05, epochs=5, lr=2e-3)
        result = train(cfg)
        best = max(r["val_macro_f1"] for r in result.records)
        assert result.best_val_f1 == best

    def test_empty_train_split_rejected(self, tmp_path):
        cfg = tiny_experiment(tmp_path, "lstm", epochs=1)
        manifest = load_manifest(cfg.manifest)
        manifest.splits["train"] = []
        write_json(cfg.manifest, manifest.to_json())
        with pytest.raises(DataFormatError, match="train split"):
            train(cfg)

    def test_exploding_run_aborts_with_coordinates(self, tmp_path):
        cfg = tiny_experiment(tmp_path, "transformer", epochs=2, lr=1e25)
        cfg.training.batch_segments = 1
        with pytest.raises(NumericError, match=r"epoch \d+ batch \d+"):
            train(cfg)

    def test_non_finite_loss_names_the_op_epoch_and_batch(self, tmp_path, monkeypatch):
        # the loss is an op output like any other: scaling it past float32's
        # range fails in that op, with no separate check of the loss value
        real = training.rdrop_loss
        monkeypatch.setattr(training, "rdrop_loss",
                            lambda g, *args: g.scale(real(g, *args), 3e38))
        cfg = tiny_experiment(tmp_path, "lstm", epochs=1)
        with pytest.raises(NumericError,
                           match=r"^non-finite value at epoch 1 batch 0: scale: NaN or infinity"):
            train(cfg)

    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_nan_parameter_names_the_video_and_segment(self, tmp_path, monkeypatch, encoder):
        # the third forward of the first step finds a NaN in the fusion weight
        batches = []
        real_batches = training._training_batches

        def recorded(*args):
            for batch in real_batches(*args):
                batches.append(batch)
                yield batch

        calls = []
        real_forward = ExpressionModel.two_pass_logits

        def forward(model, *args):
            calls.append(None)
            if len(calls) == 3:
                weight = model.parameters()["fusion.weight"]
                weight.data = weight.data.copy()
                weight.data[0, 0] = np.nan
            return real_forward(model, *args)

        monkeypatch.setattr(training, "_training_batches", recorded)
        monkeypatch.setattr(ExpressionModel, "two_pass_logits", forward)
        cfg = tiny_experiment(tmp_path, encoder, epochs=1)
        with pytest.raises(NumericError) as caught:
            train(cfg)
        vid, seg = batches[0][2]
        assert str(caught.value) == (
            f"non-finite value at epoch 1 batch 0 video {vid} segment {seg.index}: "
            "affine: NaN or infinity in input tensor 'fusion.weight'")
        assert encoder == "transformer" or seg.index == 3  # one LSTM video per batch

    def test_step_graph_is_gone_before_validation(self, tmp_path, monkeypatch):
        graphs = []

        class RecordedGraph(Graph):
            def __init__(self, record=True):
                super().__init__(record)
                if record:
                    graphs.append(weakref.ref(self))

        real_evaluate = training.evaluate_split

        def evaluate(*args):
            assert graphs and all(graph() is None for graph in graphs)
            return real_evaluate(*args)

        monkeypatch.setattr(training, "Graph", RecordedGraph)
        monkeypatch.setattr(training, "evaluate_split", evaluate)
        train(tiny_experiment(tmp_path, "transformer", epochs=2))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_adam_update_aborts_with_coordinates(self, tmp_path):
        # lr / (1 - beta1) overflows float32 on the first step, so the update
        # itself takes the parameters to infinity
        cfg = tiny_experiment(tmp_path, "lstm", epochs=1, lr=1e38)
        with pytest.raises(NumericError,
                           match=r"epoch 1 batch 0: adam_step: .* parameter '[\w.]+'"):
            train(cfg)


class TestTrainingBatches:
    @pytest.mark.parametrize("size", [1, 3, 8])
    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_same_steps_as_the_two_branch_loop(self, tmp_path, encoder, size):
        # 7 videos of 7 segments (the last one short): batch sizes 3 and 8
        # leave a tail for both encoders; two epochs draw from one stream
        cfg = tiny_experiment(tmp_path, encoder, videos=7, frames=50, seg=8)
        cfg.training.batch_segments = cfg.training.batch_videos = size
        dataset = load_dataset(load_manifest(cfg.manifest), cfg)

        def steps(batches, seed):
            rng = np.random.default_rng(seed)
            return [[(vid, seg.index) for vid, seg in batch]
                    for _ in range(2) for batch in batches(dataset, cfg, rng)]
        for seed in (0, 1, 2):
            assert (steps(training._training_batches, seed)
                    == steps(ref.training_batches_two_branch, seed))


def step_graph(model, segments, seed):
    """One training step's tape over ``segments`` ((features, labels) pairs of
    one video, in order), as ``train`` builds it; returns (graph, loss)."""
    g = Graph()
    rng = np.random.default_rng(seed)
    firsts, seconds, state = [], [], None
    for features, _ in segments:
        l1, l2, state = model.two_pass_logits(g, features, state, rng)
        firsts.append(l1)
        seconds.append(l2)
    labels = np.concatenate([labels for _, labels in segments])
    join = (lambda ts: g.concat(ts, axis=0)) if len(segments) > 1 else (lambda ts: ts[0])
    loss = rdrop_loss(g, join(firsts), join(seconds), labels, np.ones(len(labels), bool), 5.0)
    return g, loss


def consumers(graph, tensor):
    return sum(any(t is tensor for t in node.inputs) for node in graph.nodes)


def stream_model(encoder, ffn_dim=1040, layers=1):
    """A small model and the number of segments its test step runs."""
    if encoder == "lstm":
        # two segments of one video: the LSTM weights, the fusion and the head
        # each feed two nodes, so their gradients sum over two consumers
        cfg = ModelConfig(encoder="lstm", d_model=24, head=(16, 8), seg_len=6, stride=6)
        cfg.lstm = LstmSettings(hidden=10, layers=1)
        n_segments = 2
    else:
        # one segment; at the default ffn_dim the FFN weights span two Adam
        # blocks (64 * 1040 > BLOCK)
        cfg = ModelConfig(encoder="transformer", d_model=64, head=(32, 16), seg_len=8,
                          stride=8)
        cfg.transformer = TransformerSettings(layers=layers, heads=4, ffn_dim=ffn_dim)
        n_segments = 1
    return ExpressionModel(cfg.validate(), 7, np.random.default_rng(0)), n_segments


class TestStreamedUpdate:
    @pytest.mark.parametrize("encoder", ["lstm", "transformer"])
    def test_streamed_update_bitwise_equals_backward_then_adam_step(self, encoder):
        streamed, n_segments = stream_model(encoder)
        plain, _ = stream_model(encoder)
        p_stream, p_plain = streamed.parameters(), plain.parameters()
        s_stream, s_plain = AdamState(lr=1e-2), AdamState(lr=1e-2)
        rows = streamed.config.seg_len
        rng = np.random.default_rng(8)
        for step in range(3):
            segments = [(rng.normal(size=(rows, 7)).astype(np.float32),
                         rng.integers(0, 8, rows)) for _ in range(n_segments)]
            g, loss = step_graph(streamed, segments, seed=step)
            if step == 0 and encoder == "lstm":
                for name in ("lstm0.state_weight", "lstm0.input_weight", "lstm0.bias"):
                    assert consumers(g, p_stream[name]) == 2, name
            if step == 0 and encoder == "transformer":
                assert max(p.size for p in p_stream.values()) > BLOCK
            backward(loss, g, lambda grads: adam_step(p_stream, grads, s_stream))
            assert all(p.grad is None for p in p_stream.values())

            g, loss = step_graph(plain, segments, seed=step)
            backward(loss, g)
            adam_step(p_plain, collect_grads(p_plain), s_plain)
            zero_grads(p_plain)
        assert s_stream.step == s_plain.step == 3
        for name, p in p_plain.items():
            assert p_stream[name].data.tobytes() == p.data.tobytes(), name
            assert s_stream.m[name].tobytes() == s_plain.m[name].tobytes(), name
            assert s_stream.v[name].tobytes() == s_plain.v[name].tobytes(), name

    def test_streamed_update_holds_only_the_gradients_in_flight(self):
        model, _ = stream_model("transformer", layers=3)
        params = model.parameters()
        state = AdamState(lr=1e-3)
        rng = np.random.default_rng(9)
        segment = [(rng.normal(size=(8, 7)).astype(np.float32), rng.integers(0, 8, 8))]

        def update(grads):
            adam_step(params, grads, state)

        def peak(step):
            g, loss = step_graph(model, segment, seed=1)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                step(g, loss)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        update({n: np.zeros_like(p.data) for n, p in params.items()})  # creates m and v
        streamed = peak(lambda g, loss: backward(loss, g, update))
        whole = peak(lambda g, loss: (backward(loss, g), update(collect_grads(params))))
        grad_bytes = sum(p.data.nbytes for p in params.values())
        assert whole - streamed >= grad_bytes / 2, (whole, streamed, grad_bytes)


def per_window_probs(model, video):
    """The eval path the window stacks replaced: one ``eval_logits`` call per
    window, the state carried from each to the next, logits averaged per frame."""
    cfg = model.config
    logit_sum = np.zeros((video.n_frames, cfg.classes))
    hits = np.zeros(video.n_frames)
    state = None
    for seg in video.segments(cfg.seg_len, cfg.stride):
        logits, state = model.eval_logits(Graph(record=False), seg.features, state)
        logit_sum[seg.start - 1:seg.end] += logits.data
        hits[seg.start - 1:seg.end] += 1
    return ref.softmax(logit_sum / hits[:, None])


def counted_predict(model, video, monkeypatch):
    """``predict_video``'s track and its number of ``eval_logits`` calls."""
    calls = []
    eval_logits = model.eval_logits
    monkeypatch.setattr(model, "eval_logits",
                        lambda *args: calls.append(args) or eval_logits(*args))
    return predict_video(model, video), len(calls)


class TestPrediction:
    def test_stacked_lstm_matches_per_window_eval_across_stacks(self, monkeypatch):
        cfg = ModelConfig(encoder="lstm", d_model=12, head=(10, 6), seg_len=7, stride=7)
        cfg.lstm = LstmSettings(hidden=9, layers=2)
        model = ExpressionModel(cfg.validate(), 5, np.random.default_rng(3))
        n = 2 * training.EVAL_ROWS + 40  # three stacks: the state crosses two boundaries
        rng = np.random.default_rng(4)
        video = VideoData("v", rng.integers(0, 8, n),
                          rng.normal(size=(n, 5)).astype(np.float32))
        track, calls = counted_predict(model, video, monkeypatch)
        windows = -(-n // 7)
        assert calls == -(-windows // (training.EVAL_ROWS // 7)) == 3
        expected = per_window_probs(model, video)
        np.testing.assert_allclose(track.probs, expected, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(track.labels, expected.argmax(axis=1))

    def test_stacked_transformer_matches_per_window_eval(self, monkeypatch):
        cfg = ModelConfig(encoder="transformer", d_model=12, head=(10, 6), seg_len=8, stride=3)
        cfg.transformer = TransformerSettings(layers=2, heads=3, ffn_dim=16)
        model = ExpressionModel(cfg.validate(), 5, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        video = VideoData("v", rng.integers(0, 8, 30),
                          rng.normal(size=(30, 5)).astype(np.float32))
        scores = []
        softmax = Graph.softmax
        monkeypatch.setattr(Graph, "softmax",
                            lambda g, x: scores.append(x.shape) or softmax(g, x))
        track, calls = counted_predict(model, video, monkeypatch)
        assert calls == 1
        # eight full windows share one attention run; the 6- and 3-frame tails
        # each run alone
        assert scores == [(8, 3, 8, 8), (1, 3, 6, 6), (1, 3, 3, 3)] * 2
        expected = per_window_probs(model, video)
        np.testing.assert_allclose(track.probs, expected, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(track.labels, expected.argmax(axis=1))

    def test_probabilities_match_eval_logits_without_overlap(self, tmp_path):
        cfg = tiny_experiment(tmp_path, "lstm", epochs=1)
        result = train(cfg)
        dataset = load_dataset(load_manifest(cfg.manifest), cfg)
        video = dataset.videos[dataset.val_ids[0]]
        track = predict_video(result.model, video)
        assert track.n_frames == video.n_frames
        from mmexpr.tensor import Graph
        seg = video.segments(cfg.model.seg_len, cfg.model.stride)[0]
        logits, _ = result.model.eval_logits(Graph(record=False), seg.features)
        expect = ref.softmax(logits.data.astype(np.float64))
        np.testing.assert_allclose(track.probs[:seg.end], expect, atol=1e-9)

    def test_overlapping_windows_cover_all_frames(self, tmp_path):
        cfg = tiny_experiment(tmp_path, "transformer", epochs=1)
        cfg.model.stride = 3  # seg_len stays 8: overlapping windows
        result = train(cfg)
        dataset = load_dataset(load_manifest(cfg.manifest), cfg)
        track = predict_video(result.model, dataset.videos[dataset.val_ids[0]])
        assert track.n_frames == 30
        np.testing.assert_allclose(track.probs.sum(axis=1), 1.0, atol=1e-9)


class TestExperimentConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_experiment(tmp_path, "transformer")
        doc = cfg.to_json()
        back = ExperimentConfig.from_json(doc)
        assert back.to_json() == doc

    def test_defaults_reproduce_reference_settings(self):
        cfg = ExperimentConfig(visual_features=["mae"], audio_features=["hubert"])
        assert cfg.training.lr == pytest.approx(1e-4)
        assert cfg.training.epochs == 25
        assert cfg.training.alpha == pytest.approx(5.0)
        assert cfg.model.d_model == 1024
        assert cfg.model.seg_len == 128
        assert cfg.model.transformer.layers == 4
        assert cfg.model.transformer.heads == 4
        assert cfg.model.transformer.dropout == pytest.approx(0.3)
        assert cfg.model.head == (512, 256)

    def test_unknown_feature_rejected(self):
        with pytest.raises(DataFormatError, match="unknown feature set"):
            ExperimentConfig(visual_features=["nope"], audio_features=["hubert"]).validate()

    @pytest.mark.parametrize("field, value", [
        ("lr", -0.001), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
        ("alpha", float("nan")), ("alpha", float("inf")), ("alpha", -1.0)])
    def test_training_rate_and_weight_checked(self, field, value):
        with pytest.raises(DataFormatError, match=f"training.{field}"):
            TrainingSettings(**{field: value}).validate()
        with pytest.raises(DataFormatError, match=f"training.{field}"):
            TrainingSettings.from_json(json.loads(json.dumps({field: value})), "training")

    @pytest.mark.parametrize("section", ["visual", "audio"])
    def test_set_listed_twice_rejected(self, tmp_path, section):
        doc = tiny_experiment(tmp_path, "lstm").to_json()
        doc["features"][section] *= 2
        name = doc["features"][section][0]
        with pytest.raises(DataFormatError, match=f"features.{section} lists '{name}' twice"):
            ExperimentConfig.from_json(doc)

    def test_negative_seed_rejected(self, tmp_path):
        doc = tiny_experiment(tmp_path, "lstm").to_json()
        doc["seed"] = -5
        with pytest.raises(DataFormatError, match="seed must be >= 0, got -5"):
            ExperimentConfig.from_json(doc)

    def test_empty_selection_rejected(self):
        with pytest.raises(DataFormatError, match="no visual"):
            ExperimentConfig(visual_features=[], audio_features=["hubert"]).validate()
