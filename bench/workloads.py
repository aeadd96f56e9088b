"""The benchmark's workloads: input set-up, the timed operations and their checks.

Each workload has two stages. A stage's ``run`` is the timed operation and
returns what ``check`` needs; ``check`` runs outside the timed region and
returns the problems it found, so an operation that returns wrong output
counts as failed. Inputs come only from the workload seed.

- ``train_lstm`` / ``train_transformer``: stage 1 is one ``train()`` call at
  the acceptance-6 sizes, stage 2 is ``predict_video`` over the val split with
  the best checkpoint.
- ``ensemble_eval``: stage 1 is ``mmexpr ensemble`` over three member
  prediction directories, stage 2 is ``mmexpr evaluate`` on the fused output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

NUM_CLASSES = 8


@dataclass(frozen=True)
class TrainSizes:
    videos: int = 20
    frames: int = 200
    visual_dim: int = 64
    audio_dim: int = 32
    sigma: float = 0.5
    d_model: int = 1024
    hidden: int = 256
    seg_len: int = 128
    trm_layers: int = 4
    trm_heads: int = 4
    ffn_dim: int = 2048
    head: tuple = (512, 256)
    epochs: int = 1


@dataclass(frozen=True)
class EnsembleSizes:
    videos: int = 50
    frames: int = 2000
    members: int = 3
    invalid_share: float = 0.05
    flip_share: float = 0.15  # a member's chance to miss the true label


SMOKE_TRAIN = TrainSizes(videos=2, frames=40, visual_dim=6, audio_dim=4, d_model=16,
                         hidden=8, seg_len=16, trm_layers=1, trm_heads=2, ffn_dim=16,
                         head=(8, 8))
SMOKE_ENSEMBLE = EnsembleSizes(videos=3, frames=120)

# Lowest best-val macro-F1 the seeds reach after one epoch at full size
# (LSTM 0.93-0.945 over 16 seeds). The transformer only starts to learn in one
# epoch (0.08-0.74 over 16 seeds), so it must merely beat every one-class
# predictor on the same labels, which a collapsed model cannot. The smoke
# model is too small to learn and has no floor.
F1_FLOOR = {"lstm": 0.90, "transformer": 0.0}


@dataclass
class Stage:
    name: str
    frames: int        # frames one operation processes
    run: object        # () -> output
    check: object      # output -> list of problems
    prepare: object = None  # untimed, before the stage's first operation


def macro_f1_recount(labels, preds) -> float:
    """Macro-F1 over 8 classes by plain counting; label -1 frames are skipped."""
    tp = [0] * NUM_CLASSES
    fp = [0] * NUM_CLASSES
    fn = [0] * NUM_CLASSES
    for y, p in zip(labels, preds):
        if y < 0:
            continue
        if y == p:
            tp[y] += 1
        else:
            fp[p] += 1
            fn[y] += 1
    total = 0.0
    for c in range(NUM_CLASSES):
        precision = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0
        recall = tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else 0.0
        if precision + recall:
            total += 2.0 * precision * recall / (precision + recall)
    return total / NUM_CLASSES


class TrainWorkload:
    def __init__(self, mm, encoder: str, sizes: TrainSizes, workdir: str, seed: int,
                 smoke: bool):
        self.mm = mm
        self.encoder = encoder
        self.sizes = sizes
        self.workdir = workdir
        self.seed = seed
        self.f1_floor = None if smoke else F1_FLOOR[encoder]
        self.manifest = None
        self.best = None
        self.model = None
        self.dataset = None

    def setup(self) -> None:
        s = self.sizes
        data_dir = os.path.join(self.workdir, "data")
        shutil.rmtree(data_dir, ignore_errors=True)
        self.manifest = self.mm.training.synth_dataset(
            data_dir, videos=s.videos, frames=s.frames,
            visual_dim=s.visual_dim, audio_dim=s.audio_dim, sigma=s.sigma, seed=self.seed)

    def _config(self):
        s = self.sizes
        mm = self.mm
        return mm.training.ExperimentConfig(
            manifest=self.manifest, output_dir=os.path.join(self.workdir, "run"),
            seed=self.seed, visual_features=["synthvis"], audio_features=["synthaud"],
            registry_extra={"synthvis": {"dim": s.visual_dim, "modality": "visual"},
                            "synthaud": {"dim": s.audio_dim, "modality": "audio"}},
            model=mm.models.ModelConfig(
                encoder=self.encoder, d_model=s.d_model,
                lstm=mm.models.LstmSettings(hidden=s.hidden),
                transformer=mm.models.TransformerSettings(
                    layers=s.trm_layers, heads=s.trm_heads, ffn_dim=s.ffn_dim),
                head=s.head, seg_len=s.seg_len, stride=s.seg_len),
            training=mm.training.TrainingSettings(
                lr=1e-4, epochs=s.epochs, alpha=5.0, batch_segments=1, batch_videos=1))

    def stages(self):
        frames = self.sizes.videos * self.sizes.frames
        return [Stage("train", frames * self.sizes.epochs, self._train, self._check_train,
                      self._prepare_train),
                Stage("predict", frames, self._predict, self._check_predict,
                      self._prepare_predict)]

    # -- stage 1: train() --------------------------------------------------------

    def _prepare_train(self) -> None:
        """Raise the F1 floor to the best one-class predictor's score on val."""
        if self.f1_floor is None:
            return
        base = os.path.dirname(self.manifest)
        with open(self.manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        files = {v["id"]: v["label_file"] for v in doc["videos"]}
        labels = []
        for vid in doc["splits"]["val"]:
            labels.extend(int(row[1]) for row in read_csv_rows(os.path.join(base, files[vid])))
        one_class = max(macro_f1_recount(labels, [c] * len(labels)) for c in range(NUM_CLASSES))
        self.f1_floor = max(self.f1_floor, one_class)

    def _train(self):
        config = self._config()
        shutil.rmtree(config.output_dir, ignore_errors=True)
        result = self.mm.training.train(config)
        # keep only what the checks and stage 2 need; the model itself is
        # rebuilt from the checkpoint, as `mmexpr predict` does
        self.best = {"best_f1": result.best_val_f1, "checkpoint": result.best_checkpoint,
                     "losses": [r["train_loss"] for r in result.records]}
        return self.best

    def _check_train(self, out) -> list:
        problems = []
        if not all(math.isfinite(v) for v in out["losses"]):
            problems.append(f"non-finite training loss {out['losses']}")
        if self.f1_floor is not None and not out["best_f1"] > self.f1_floor:
            problems.append(f"best val macro-F1 {out['best_f1']:.4f} <= floor {self.f1_floor}")
        if not os.path.isfile(out["checkpoint"]):
            problems.append("best checkpoint missing")
        return problems

    # -- stage 2: predict_video over val ------------------------------------------

    def _prepare_predict(self) -> None:
        """Load the val videos and the best checkpoint, untimed."""
        mm = self.mm
        config = self._config()
        self.dataset = mm.training.load_dataset(mm.data.load_manifest(self.manifest), config)
        self.model = mm.models.ExpressionModel(config.model, self.dataset.input_dim,
                                               np.random.default_rng(0))
        self.model.load_state(mm.checkpoint.load_checkpoint(self.best["checkpoint"]))

    def _predict(self):
        predict = self.mm.training.predict_video
        videos = self.dataset.videos
        return [predict(self.model, videos[vid]) for vid in self.dataset.val_ids]

    def _check_predict(self, tracks) -> list:
        problems = []
        labels, preds = [], []
        for vid, track in zip(self.dataset.val_ids, tracks):
            probs = track.probs
            video = self.dataset.videos[vid]
            if probs.shape != (video.n_frames, NUM_CLASSES):
                problems.append(f"{vid}: probabilities have shape {probs.shape}")
                continue
            if not (np.isfinite(probs).all() and probs.min() >= 0.0
                    and np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-6):
                problems.append(f"{vid}: prediction rows off the simplex")
            labels.extend(int(v) for v in video.labels)
            preds.extend(int(v) for v in track.labels)
        # the best checkpoint was chosen on exactly this split and path
        f1 = macro_f1_recount(labels, preds)
        if not problems and abs(f1 - self.best["best_f1"]) > 1e-12:
            problems.append(f"predicted val macro-F1 {f1!r} != training's best "
                            f"{self.best['best_f1']!r}")
        return problems


# -- ensemble_eval ------------------------------------------------------------------


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def tally_vote(member_rows):
    """Per-frame plurality; ties go to the highest member-mean probability
    (members summed in sorted order), then to the lowest class index."""
    m = len(member_rows)
    fused = []
    for frame in zip(*member_rows):
        counts = [0] * NUM_CLASSES
        for row in frame:
            counts[int(row[1])] += 1
        top = max(counts)
        tied = [c for c in range(NUM_CLASSES) if counts[c] == top]
        if len(tied) == 1:
            fused.append(tied[0])
            continue
        best, best_mean = None, None
        for c in tied:
            values = sorted(float(row[2 + c]) for row in frame)
            total = 0.0
            for v in values:
                total += v
            mean = total / m
            if best_mean is None or mean > best_mean:
                best, best_mean = c, mean
        fused.append(best)
    return fused


class EnsembleWorkload:
    def __init__(self, mm, sizes: EnsembleSizes, workdir: str, seed: int):
        self.mm = mm
        self.sizes = sizes
        self.workdir = workdir
        self.seed = seed
        self.root = None
        self.ids = [f"v{i:03d}" for i in range(sizes.videos)]
        self.labels = {}
        self.expected = {}

    def setup(self) -> None:
        """Labels and member prediction files, written with mmexpr's writers."""
        mm = self.mm
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        root = self.root = os.path.join(self.workdir, "data")
        shutil.rmtree(root, ignore_errors=True)
        members = [f"member{k}" for k in range(s.members)]
        entries = []
        rows = np.arange(s.frames)
        for vid in self.ids:
            truth = np.empty(s.frames, np.int64)
            t = 0
            while t < s.frames:
                run = int(rng.integers(15, 51))
                truth[t:t + run] = rng.integers(0, NUM_CLASSES)
                t += run
            labels = truth.copy()
            labels[rng.random(s.frames) < s.invalid_share] = -1
            self.labels[vid] = labels
            label_file = os.path.join("labels", f"{vid}.csv")
            mm.data.save_labels(mm.data.LabelTrack(vid, labels), os.path.join(root, label_file))
            for member in members:
                pred = truth.copy()
                flip = rng.random(s.frames) < s.flip_share
                pred[flip] = (pred[flip] + rng.integers(1, NUM_CLASSES, flip.sum())) % NUM_CLASSES
                logits = rng.normal(size=(s.frames, NUM_CLASSES))
                logits[rows, pred] = logits.max(axis=1) + rng.uniform(0.1, 2.0, s.frames)
                probs = np.exp(logits - logits.max(axis=1, keepdims=True))
                probs /= probs.sum(axis=1, keepdims=True)
                mm.ensemble.write_predictions(mm.ensemble.PredictionTrack(vid, pred, probs),
                                              os.path.join(root, member, f"{vid}.csv"))
            entries.append({"id": vid, "n_frames": s.frames, "label_file": label_file,
                            "features": {}})
        mm.fileio.write_json(os.path.join(root, "manifest.json"),
                             {"videos": entries, "splits": {"val": self.ids}})
        mm.fileio.write_json(os.path.join(root, "spec.json"),
                             {"members": members, "strategy": "majority_vote",
                              "tie_break": "mean_probability"})

    def _prepare_oracle(self) -> None:
        """Expected fused labels from the member files, by a per-frame tally."""
        members = [f"member{k}" for k in range(self.sizes.members)]
        for vid in self.ids:
            self.expected[vid] = tally_vote(
                [read_csv_rows(os.path.join(self.root, m, f"{vid}.csv")) for m in members])

    def stages(self):
        frames = self.sizes.videos * self.sizes.frames
        return [Stage("ensemble", frames, self._ensemble, self._check_ensemble,
                      self._prepare_oracle),
                Stage("evaluate", frames, self._evaluate, self._check_evaluate)]

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.mm.cli.main(argv)
        return code, err.getvalue()

    def _ensemble(self):
        return self._cli(["ensemble", "--spec", os.path.join(self.root, "spec.json"),
                          "--out", os.path.join(self.root, "fused")])

    def _check_ensemble(self, out) -> list:
        code, err = out
        if code != 0:
            return [f"ensemble exited {code}: {err.strip()}"]
        problems = []
        for vid in self.ids:
            rows = read_csv_rows(os.path.join(self.root, "fused", f"{vid}.csv"))
            if [int(r[1]) for r in rows] != self.expected[vid]:
                problems.append(f"{vid}: fused labels differ from the tally oracle")
        return problems

    def _evaluate(self):
        return self._cli(["evaluate", "--predictions", os.path.join(self.root, "fused"),
                          "--manifest", os.path.join(self.root, "manifest.json"),
                          "--split", "val", "--out", os.path.join(self.root, "report.json")])

    def _check_evaluate(self, out) -> list:
        code, err = out
        if code != 0:
            return [f"evaluate exited {code}: {err.strip()}"]
        report = self.mm.fileio.read_json(os.path.join(self.root, "report.json"))
        labels, preds = [], []
        for vid in self.ids:
            labels.extend(int(v) for v in self.labels[vid])
            preds.extend(self.expected[vid])
        f1 = macro_f1_recount(labels, preds)
        if abs(report["macro_f1"] - f1) > 1e-12:
            return [f"report macro-F1 {report['macro_f1']!r} != recount {f1!r}"]
        return []
