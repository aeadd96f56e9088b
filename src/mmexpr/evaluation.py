"""Per-class F1 scoring with the fixed-denominator macro average.

The headline metric averages F1 over all 8 expression classes no matter
which classes appear; a class with no true or predicted frames contributes 0
(every 0/0 resolves to 0). Frames labeled -1 are masked out of evaluation,
mirroring the loss mask.
"""

from dataclasses import dataclass

import numpy as np

from .data import NUM_CLASSES
from .errors import ShapeError


@dataclass
class MetricReport:
    per_class_f1: list
    macro_f1: float
    support: list
    confusion: np.ndarray  # the (8, 8) tally the scores come from

    def to_json(self) -> dict:
        return {
            "macro_f1": self.macro_f1,
            "per_class_f1": list(self.per_class_f1),
            "support": [int(s) for s in self.support],
            "confusion": self.confusion.tolist(),
        }


def confusion(labels, predictions, mask=None) -> np.ndarray:
    """The (8, 8) int64 tally of (true, predicted) pairs over masked-in frames."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ShapeError(f"confusion: {labels.shape} labels vs {predictions.shape} predictions")
    if mask is None:
        mask = labels >= 0
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != labels.shape:
            raise ShapeError(f"confusion: mask shape {mask.shape} != {labels.shape}")
    labels = labels[mask]
    predictions = predictions[mask]
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    if labels.size:
        if labels.min() < 0 or labels.max() >= NUM_CLASSES:
            raise ValueError("confusion: masked-in label outside 0..7")
        if predictions.min() < 0 or predictions.max() >= NUM_CLASSES:
            raise ValueError("confusion: prediction outside 0..7")
        np.add.at(counts, (labels.astype(np.int64), predictions.astype(np.int64)), 1)
    return counts


def macro_f1(counts: np.ndarray) -> MetricReport:
    """Per-class precision/recall/F1 from the tally; macro = sum of F1 over 8."""
    tp = np.diag(counts).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    actual = counts.sum(axis=1).astype(np.float64)
    scores = []
    for c in range(NUM_CLASSES):
        precision = tp[c] / predicted[c] if predicted[c] else 0.0
        recall = tp[c] / actual[c] if actual[c] else 0.0
        denom = precision + recall
        scores.append(2.0 * precision * recall / denom if denom else 0.0)
    return MetricReport(per_class_f1=scores,
                        macro_f1=sum(scores) / NUM_CLASSES,
                        support=[int(s) for s in actual],
                        confusion=counts)


def evaluate_tracks(labels_by_video: dict, predictions_by_video: dict) -> MetricReport:
    """Score predictions against labels across videos."""
    all_labels = []
    all_preds = []
    for vid, labels in labels_by_video.items():
        preds = predictions_by_video.get(vid)
        if preds is None:
            raise KeyError(f"no predictions for video {vid!r}")
        labels = np.asarray(labels)
        preds = np.asarray(preds)
        if labels.shape != preds.shape:
            raise ShapeError(
                f"video {vid!r}: {labels.shape} labels vs {preds.shape} predictions")
        all_labels.append(labels)
        all_preds.append(preds)
    labels = np.concatenate(all_labels) if all_labels else np.zeros(0, np.int64)
    preds = np.concatenate(all_preds) if all_preds else np.zeros(0, np.int64)
    return macro_f1(confusion(labels, preds))
