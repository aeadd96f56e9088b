"""Vote-based fusion of per-frame predictions from independently trained models.

Members are prediction files, not live models. Per frame, the plurality label
wins; ties go to the tied label with the highest mean probability across
members, and an exact tie after that resolves to the lowest class index.
Fused probabilities are the member mean.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import NUM_CLASSES, int_labels
from .errors import DataFormatError, ShapeError
from .fileio import CsvTable, atomic_write_bytes

PREDICTION_HEADER = ["frame", "pred"] + [f"prob_{c}" for c in range(NUM_CLASSES)]


@dataclass
class PredictionTrack:
    """Per-frame argmax labels and class probabilities for one video."""

    video_id: str
    labels: np.ndarray  # (n,) int64 in 0..7
    probs: np.ndarray   # (n, 8) float64, rows on the simplex

    def __post_init__(self):
        self.labels = int_labels(self.labels)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        n = len(self.labels)
        if self.probs.shape != (n, NUM_CLASSES):
            raise ShapeError(f"probs shape {self.probs.shape} != ({n}, {NUM_CLASSES})")
        if n:
            if self.labels.min() < 0 or self.labels.max() >= NUM_CLASSES:
                raise ValueError("prediction label outside 0..7")
            # both checks below read False for NaN, so non-finite values go first
            if not np.isfinite(self.probs).all():
                raise ValueError("non-finite probability")
            if self.probs.min() < 0:
                raise ValueError("negative probability")
            sums = self.probs.sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-5:
                raise ValueError("probability rows must sum to 1 within 1e-5")

    @property
    def n_frames(self) -> int:
        return len(self.labels)

    @classmethod
    def from_probs(cls, video_id, probs) -> "PredictionTrack":
        """Model-produced track: the label is the probability argmax (lowest index wins ties)."""
        probs = np.asarray(probs, dtype=np.float64)
        return cls(video_id, probs.argmax(axis=1), probs)


def vote(tracks: list) -> PredictionTrack:
    """Fuse aligned member tracks by plurality with documented tie-breaking."""
    if len(tracks) < 2:
        raise ValueError(f"vote needs at least 2 member tracks, got {len(tracks)}")
    first = tracks[0]
    for t in tracks[1:]:
        if t.video_id != first.video_id:
            raise ValueError(f"video ids differ: {first.video_id!r} vs {t.video_id!r}")
        if t.n_frames != first.n_frames:
            raise ShapeError(f"video {first.video_id!r}: member frame counts differ: "
                             f"{first.n_frames} vs {t.n_frames}")
    stacked = np.stack([t.probs for t in tracks])      # (members, n, 8)
    # summing each member column in sorted order makes the mean (and therefore
    # every tie-break) bitwise invariant to member ordering
    mean_probs = np.sort(stacked, axis=0).sum(axis=0) / len(tracks)  # (n, 8)
    n = first.n_frames
    tally = np.zeros((n, NUM_CLASSES), np.int64)
    rows = np.arange(n)
    for t in tracks:
        tally[rows, t.labels] += 1
    # tied top labels keep their mean probability (>= 0), the rest get -1;
    # argmax then picks the plurality label, or the tied label with the
    # highest mean probability, taking the lowest index on an exact tie
    tied = tally == tally.max(axis=1, keepdims=True)
    fused = np.where(tied, mean_probs, -1.0).argmax(axis=1)
    return PredictionTrack(first.video_id, fused, mean_probs)


# -- prediction CSV files -----------------------------------------------------------

_PREDICTION_ROW = "%d,%d," + ",".join(["%.9g"] * NUM_CLASSES) + "\n"
_PREDICTION_TYPES = (int, int) + (float,) * NUM_CLASSES
# a dense file holds frame k on the k-th record after its header
_PREDICTION_RULES = ((lambda record, frame, *_: frame != record, "frame index {1}, expected {0}"),)


def write_predictions(track: PredictionTrack, path: str) -> None:
    """CSV with 1-based frame index; probabilities keep 9 significant digits."""
    rows = zip(range(1, track.n_frames + 1), track.labels.tolist(), *track.probs.T.tolist())
    text = ",".join(PREDICTION_HEADER) + "\n" + "".join(map(_PREDICTION_ROW.__mod__, rows))
    atomic_write_bytes(path, text.encode("utf-8"))


def read_predictions(path: str, video_id: str | None = None) -> PredictionTrack:
    table = CsvTable(path, "prediction")
    if [h.strip() for h in table.header] != PREDICTION_HEADER:
        raise DataFormatError(
            f"{path}: bad header {','.join(table.header)!r}, expected "
            f"{','.join(PREDICTION_HEADER)!r}")
    _, labels, *probs = table.columns(_PREDICTION_TYPES, _PREDICTION_RULES, "malformed row")
    if video_id is None:
        video_id = os.path.splitext(os.path.basename(path))[0]
    try:
        return PredictionTrack(video_id, labels, np.column_stack(probs))
    except (ValueError, OverflowError) as exc:  # a label past int64 overflows
        raise DataFormatError(f"{path}: {exc}") from exc
