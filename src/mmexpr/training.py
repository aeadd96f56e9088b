"""RDrop training: two stochastic passes per batch, Adam updates, checkpointing.

The loss combines the mean cross-entropy of both passes with a symmetric,
alpha-weighted KL consistency term between their softmax distributions,
averaged over valid frames only (label -1 is masked out of loss and metrics
but stays in segments to preserve temporal continuity). Training is fully
deterministic given the seed: parameter init, batch order and dropout draws
all come from streams derived from it.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import save_checkpoint
from .data import (
    AUDIO,
    NUM_CLASSES,
    VISUAL,
    FeatureTrack,
    LabelTrack,
    Manifest,
    ManifestVideo,
    VideoData,
    feature_spec,
    feature_specs,
    load_manifest,
    load_video,
    save_labels,
    write_feature_file,
)
from .ensemble import PredictionTrack
from .errors import DataFormatError, NonFiniteError, NumericError
from .evaluation import evaluate_tracks
from .fileio import JsonConfig, atomic_write_text, write_json
from .models import ExpressionModel, ModelConfig
# collect_grads and zero_grads are not called here any more, but bench/tracing.py
# wraps them by their name in this module
from .optim import AdamState, adam_step, collect_grads, zero_grads  # noqa: F401
from .tensor import DTYPE, Graph, Tensor, backward, softmax_rows


@dataclass
class TrainingSettings(JsonConfig):
    lr: float = 1e-4
    epochs: int = 25
    alpha: float = 5.0
    batch_segments: int = 8  # transformer steps consume segments across videos
    batch_videos: int = 4    # LSTM steps consume whole videos, segments in order

    def validate(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DataFormatError(f"training.lr must be a finite number > 0, got {self.lr}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise DataFormatError(f"training.alpha must be a finite number >= 0, got {self.alpha}")
        if self.epochs < 1 or self.batch_segments < 1 or self.batch_videos < 1:
            raise DataFormatError("training epochs and batch sizes must be >= 1")
        return self


@dataclass
class ExperimentConfig(JsonConfig):
    """Everything one run needs; defaults reproduce the reference settings."""

    manifest: str = ""
    output_dir: str = "run"
    seed: int = 1
    visual_features: list[str] = field(default_factory=list, metadata={"json": "features.visual"})
    audio_features: list[str] = field(default_factory=list, metadata={"json": "features.audio"})
    registry_extra: dict = field(default_factory=dict, metadata={"json": "registry"})
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingSettings = field(default_factory=TrainingSettings)

    def feature_names(self) -> list[str]:
        """The selected sets in input column order: visual, then audio."""
        return self.visual_features + self.audio_features

    def validate(self):
        if self.seed < 0:
            raise DataFormatError(f"seed must be >= 0, got {self.seed}")
        selection = ((self.visual_features, VISUAL), (self.audio_features, AUDIO))
        for names, modality in selection:
            if not names:
                raise DataFormatError(f"config selects no {modality} feature sets")
        specs = feature_specs(self.registry_extra)
        for names, modality in selection:
            for i, name in enumerate(names):
                if feature_spec(specs, name).modality != modality:
                    raise DataFormatError(f"feature set {name!r} is not {modality}")
                if name in names[:i]:
                    raise DataFormatError(f"features.{modality} lists {name!r} twice")
        self.model.validate()
        self.training.validate()
        return self


# -- loss -----------------------------------------------------------------------

def rdrop_loss(g: Graph, logits1: Tensor, logits2: Tensor, labels, mask,
               alpha: float):
    """Build the two-pass loss on the graph; None when every frame is masked.

    L = (CE(p1, y) + CE(p2, y)) / 2 + alpha * (KL(p1||p2) + KL(p2||p1)) / 2,
    each term a mean over valid frames. Masked frames are multiplied by zero
    before any reduction, so they contribute exactly zero gradient.
    """
    if logits1.shape != logits2.shape:
        raise ValueError(f"rdrop_loss: pass shapes differ: {logits1.shape} vs {logits2.shape}")
    if alpha < 0:
        raise ValueError(f"rdrop_loss: alpha must be >= 0, got {alpha}")
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    n, classes = logits1.shape
    if labels.shape != (n,) or mask.shape != (n,):
        raise ValueError(f"rdrop_loss: labels/mask must have shape ({n},)")
    n_valid = int(mask.sum())
    if n_valid == 0:
        return None
    if labels[mask].min() < 0 or labels[mask].max() >= classes:
        raise ValueError("rdrop_loss: valid frame with label outside class range")

    onehot = np.zeros((n, classes), DTYPE)
    onehot[np.flatnonzero(mask), labels[mask]] = 1.0
    onehot_t = Tensor(onehot)
    mask_t = Tensor(np.repeat(mask[:, None], classes, axis=1).astype(DTYPE))
    inv = 1.0 / n_valid

    lp1 = g.log_softmax(logits1)
    lp2 = g.log_softmax(logits2)
    ce1 = g.scale(g.sum(g.mul(lp1, onehot_t)), -inv)
    ce2 = g.scale(g.sum(g.mul(lp2, onehot_t)), -inv)

    p1 = g.softmax(logits1)
    p2 = g.softmax(logits2)
    kl12 = g.scale(g.sum(g.mul(g.mul(p1, g.add(lp1, g.scale(lp2, -1.0))), mask_t)), inv)
    kl21 = g.scale(g.sum(g.mul(g.mul(p2, g.add(lp2, g.scale(lp1, -1.0))), mask_t)), inv)

    return g.add(g.scale(g.add(ce1, ce2), 0.5),
                 g.scale(g.add(kl12, kl21), 0.5 * alpha))


# -- dataset loading ----------------------------------------------------------------

@dataclass
class LoadedDataset:
    videos: dict          # id -> VideoData
    train_ids: list
    val_ids: list
    input_dim: int


def load_dataset(manifest: Manifest, config: ExperimentConfig) -> LoadedDataset:
    specs = feature_specs(config.registry_extra)
    train_ids = manifest.split_ids("train")
    val_ids = manifest.split_ids("val")
    if not train_ids:
        raise DataFormatError("train split is empty")
    videos = {}
    for vid in dict.fromkeys(train_ids + val_ids):
        videos[vid] = load_video(manifest.video(vid), specs, config.feature_names())
    # every video's matrix is allocated as the sum of the selected specs' dims
    return LoadedDataset(videos, train_ids, val_ids, videos[train_ids[0]].input_dim)


# -- prediction -----------------------------------------------------------------------

# Rows per eval stack: a video's consecutive windows run as one forward of at
# most this many rows (or one window, if longer), so that its products are big
# GEMMs; a 200-frame video at l = 128 is one stack.
EVAL_ROWS = 2048


def predict_video(model: ExpressionModel, video: VideoData):
    """Per-frame probabilities for one video in eval mode.

    The video's consecutive windows run in stacks of at most ``EVAL_ROWS``
    rows, one ``eval_logits`` call each; the encoder state starts at None and
    each stack's state seeds the next. Overlapping windows (transformer with
    stride < length) are merged by averaging logits per frame before the
    softmax. A non-finite value raises ``NumericError`` naming the video.
    """
    cfg = model.config
    n = video.n_frames
    logit_sum = np.zeros((n, cfg.classes), np.float64)
    hits = np.zeros(n, np.int64)
    stacks, rows = [], 0
    for seg in video.segments(cfg.seg_len, cfg.stride):
        if not stacks or rows + len(seg.features) > EVAL_ROWS:
            stacks.append([])
            rows = 0
        stacks[-1].append(seg)
        rows += len(seg.features)
    state = None
    for stack in stacks:
        windows = [len(seg.features) for seg in stack]
        try:
            logits, state = model.eval_logits(Graph(record=False), np.concatenate(
                [seg.features for seg in stack]), state, windows)
        except NonFiniteError as exc:
            raise NumericError(f"non-finite value at video {video.video_id}: {exc}") from exc
        for seg, part in zip(stack, np.split(logits.data, np.cumsum(windows)[:-1])):
            logit_sum[seg.start - 1:seg.end] += part
            hits[seg.start - 1:seg.end] += 1
    return PredictionTrack.from_probs(video.video_id, softmax_rows(logit_sum / hits[:, None]))


def evaluate_split(model: ExpressionModel, dataset: LoadedDataset, ids):
    labels = {vid: dataset.videos[vid].labels for vid in ids}
    preds = {vid: predict_video(model, dataset.videos[vid]).labels for vid in ids}
    return evaluate_tracks(labels, preds)


# -- training loop -----------------------------------------------------------------------

@dataclass
class TrainResult:
    best_val_f1: float
    best_checkpoint: str
    log_path: str
    records: list
    model: ExpressionModel


def _training_batches(dataset, config, order_rng):
    """Yield per-step lists of (video id, segment) pairs. Steps take the
    shuffled units in chunks: a unit is one segment for the transformer and
    one whole video, its segments in order, for the LSTM."""
    cfg = config.model
    units = [[(vid, seg) for seg in dataset.videos[vid].segments(cfg.seg_len, cfg.stride)]
             for vid in dataset.train_ids]
    if cfg.encoder == "transformer":
        units = [[pair] for video in units for pair in video]
        size = config.training.batch_segments
    else:
        size = config.training.batch_videos
    order = order_rng.permutation(len(units))
    for i in range(0, len(order), size):
        yield [pair for j in order[i:i + size] for pair in units[j]]


def _train_step(model, batch, adam, alpha, dropout_rng, where):
    """One step: both passes of each (video id, segment) of ``batch``, the RDrop
    loss and the streamed Adam update; (loss, valid frames), or None when every
    frame is masked. The graph dies on return, before the caller evaluates or
    saves. A non-finite value raises ``NumericError`` at ``where``, naming the
    video and segment if a segment's forward met it."""
    g = Graph()
    firsts, seconds, labels, masks = [], [], [], []
    state = None  # the transformer's is always None; an LSTM batch holds whole videos
    for vid, seg in batch:
        if seg.index == 1:
            state = None
        try:
            l1, l2, state = model.two_pass_logits(g, seg.features, state, dropout_rng)
        except NonFiniteError as exc:
            raise NumericError(f"non-finite value at {where} video {vid} segment {seg.index}: "
                               f"{exc}") from exc
        firsts.append(l1)
        seconds.append(l2)
        labels.append(seg.labels)
        masks.append(seg.valid)
    mask = np.concatenate(masks)
    try:
        loss = rdrop_loss(
            g,
            g.concat(firsts, axis=0) if len(firsts) > 1 else firsts[0],
            g.concat(seconds, axis=0) if len(seconds) > 1 else seconds[0],
            np.concatenate(labels), mask, alpha)
        if loss is None:
            return None  # every frame masked; the batch contributes nothing
        value = loss.item()
        # each parameter is updated as soon as the walk completes its gradient
        backward(loss, g, lambda grads: adam_step(model.parameters(), grads, adam))
    except NonFiniteError as exc:
        raise NumericError(f"non-finite value at {where}: {exc}") from exc
    return value, int(mask.sum())


def train(config: ExperimentConfig, log_fn=None) -> TrainResult:
    """Run the full training loop and retain the best-validation checkpoint.

    Writes resolved_config.json, train_log.jsonl (one record per epoch with
    epoch, train_loss, val_macro_f1, per_class_f1 and wall_ms) and best.ckpt
    into the config's output directory.
    """
    config.validate()
    dataset = load_dataset(load_manifest(config.manifest), config)
    if not dataset.val_ids:
        raise DataFormatError("val split is empty; point it at the train videos "
                              "if no holdout exists")

    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    resolved = config.to_json()
    resolved["fused_input_dim"] = dataset.input_dim
    write_json(os.path.join(out_dir, "resolved_config.json"), resolved)

    streams = np.random.SeedSequence(config.seed).spawn(3)
    init_rng = np.random.default_rng(streams[0])
    order_rng = np.random.default_rng(streams[1])
    dropout_rng = np.random.default_rng(streams[2])

    model = ExpressionModel(config.model, dataset.input_dim, init_rng)
    adam = AdamState(lr=config.training.lr)
    alpha = config.training.alpha

    log_path = os.path.join(out_dir, "train_log.jsonl")
    best_path = os.path.join(out_dir, "best.ckpt")
    records = []
    best_f1 = -1.0

    for epoch in range(1, config.training.epochs + 1):
        started = time.perf_counter()
        loss_sum = 0.0
        valid_sum = 0
        for batch_idx, batch in enumerate(_training_batches(dataset, config, order_rng)):
            step = _train_step(model, batch, adam, alpha, dropout_rng,
                               f"epoch {epoch} batch {batch_idx}")
            if step is not None:
                value, n_valid = step
                loss_sum += value * n_valid
                valid_sum += n_valid

        try:
            report = evaluate_split(model, dataset, dataset.val_ids)
        except NumericError as exc:  # predict_video's "non-finite value at video V: ..."
            raise NumericError(str(exc).replace("at ", f"at epoch {epoch} validation ", 1)) from exc
        train_loss = loss_sum / valid_sum if valid_sum else 0.0
        wall_ms = int((time.perf_counter() - started) * 1000)
        record = {
            "epoch": epoch,
            "train_loss": train_loss,
            "val_macro_f1": report.macro_f1,
            "per_class_f1": list(report.per_class_f1),
            "wall_ms": wall_ms,
        }
        records.append(record)
        atomic_write_text(log_path, "".join(json.dumps(r, sort_keys=True) + "\n"
                                            for r in records))
        if report.macro_f1 > best_f1:
            best_f1 = report.macro_f1
            save_checkpoint(model.parameters(), best_path)
        if log_fn is not None:
            log_fn(record)

    return TrainResult(best_f1, best_path, log_path, records, model)


# -- synthetic dataset ---------------------------------------------------------------

SYNTH_VISUAL = "synthvis"
SYNTH_AUDIO = "synthaud"


def synth_dataset(out_dir: str, videos: int = 20, frames: int = 200, classes: int = 8,
                  visual_dim: int = 64, audio_dim: int = 32, sigma: float = 0.5,
                  seed: int = 0) -> str:
    """Write a separable synthetic dataset in the production file formats.

    Labels are piecewise constant runs; features are Gaussian around a fixed
    per-class mean drawn once per modality. Identical arguments produce
    byte-identical files. Returns the manifest path; a ready-to-train
    config.json sits next to it. Arguments are checked before any file is
    written.
    """
    for name, size in (("videos", videos), ("frames", frames), ("visual_dim", visual_dim),
                       ("audio_dim", audio_dim)):
        if size < 1:
            raise ValueError(f"synth: {name} must be >= 1, got {size}")
    if not 1 <= classes <= NUM_CLASSES:
        raise ValueError(f"synth: classes must be in 1..{NUM_CLASSES}, got {classes}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"synth: sigma must be a finite number >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    visual_means = rng.normal(0.0, 1.0, (classes, visual_dim))
    audio_means = rng.normal(0.0, 1.0, (classes, audio_dim))

    entries = []
    for v in range(videos):
        vid = f"vid{v:03d}"
        labels = np.empty(frames, dtype=np.int64)
        t = 0
        while t < frames:
            run = int(rng.integers(15, 51))
            labels[t:t + run] = int(rng.integers(0, classes))
            t += run
        visual = (visual_means[labels]
                  + sigma * rng.normal(size=(frames, visual_dim))).astype(np.float32)
        audio = (audio_means[labels]
                 + sigma * rng.normal(size=(frames, audio_dim))).astype(np.float32)

        entry = ManifestVideo(vid, frames, os.path.join("labels", f"{vid}.csv"), {
            name: os.path.join("features", f"{vid}.{name}.mmft")
            for name in (SYNTH_VISUAL, SYNTH_AUDIO)})
        save_labels(LabelTrack(vid, labels), os.path.join(out_dir, entry.label_file))
        present = np.ones(frames, dtype=bool)
        for name, matrix in ((SYNTH_VISUAL, visual), (SYNTH_AUDIO, audio)):
            write_feature_file(FeatureTrack(vid, name, matrix, present),
                               os.path.join(out_dir, entry.features[name]))
        entries.append(entry)

    manifest_path = os.path.join(out_dir, "manifest.json")
    ids = [entry.video_id for entry in entries]
    write_json(manifest_path, Manifest(entries, {"train": ids, "val": ids}).to_json())

    config = ExperimentConfig(
        manifest="manifest.json",
        output_dir="run",
        seed=seed,
        visual_features=[SYNTH_VISUAL],
        audio_features=[SYNTH_AUDIO],
        registry_extra={
            SYNTH_VISUAL: {"dim": visual_dim, "modality": "visual"},
            SYNTH_AUDIO: {"dim": audio_dim, "modality": "audio"},
        },
    )
    write_json(os.path.join(out_dir, "config.json"), config.to_json())
    return manifest_path
