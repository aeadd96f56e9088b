"""Vote-based fusion of per-frame predictions from independently trained models.

Members are prediction files, not live models. Per frame, the plurality label
wins; ties go to the tied label with the highest mean probability across
members, and an exact tie after that resolves to the lowest class index.
Fused probabilities are the member mean.
"""

from __future__ import annotations

import functools
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
    # summing each member column in sorted order makes the mean (and therefore
    # every tie-break) bitwise invariant to member ordering; an odd-even
    # transposition network sorts the member slabs elementwise
    slabs = [t.probs for t in tracks]
    m = len(slabs)
    for r in range(m):
        for i in range(r % 2, m - 1, 2):
            low = np.minimum(slabs[i], slabs[i + 1])
            slabs[i + 1] = np.maximum(slabs[i], slabs[i + 1])
            slabs[i] = low
    # the sum starts from +0.0, as add.reduce does, so an all -0.0 column gives +0.0
    total = slabs[0] + 0.0
    for s in slabs[1:]:
        total += s
    mean_probs = total / m  # (n, 8)
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

_PREDICTION_TYPES = (int, int) + (float,) * NUM_CLASSES
# a dense file holds frame k on the k-th record after its header
_PREDICTION_RULES = ((lambda record, frame, *_: frame != record, "frame index {1}, expected {0}"),)

_P10_LOW = -300  # the powers of ten tabled: 1e-300 .. 1e308
_FORM_LOW = -330  # the decimal exponents tabled: -330 .. 330

# One value's "%.9g" text sits in 32 fixed slots, NUL where a slot is empty:
#   0 sign | 1-2 "0." | 3-5 leading zeros | 8-23 digits 1-8, each followed by a
#   point slot | 24 digit 9 | 25 "e" | 26 exponent sign | 27-29 exponent
# Slots 6-7 and 30-31 stay empty, so the digits fill whole 8-byte words. Every
# slot but a digit's or an exponent's is fixed by the value's class: its sign,
# its form (a fixed-point exponent -4..8, a scientific exponent's sign and
# width, or zero) and its count of significant digits once trailing zeros go.
_G9_WIDTH = 32
_ZERO_FORM = 17
_G9_FORMS = 18


def _decimal_digits(count: int, width: int) -> np.ndarray:
    """(count, width) decimal digits of 0 .. count - 1, most significant first."""
    return np.arange(count)[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10


@functools.cache
def _g9_tables() -> tuple:
    """The formatter's tables, built on its first call rather than at import:
    the correctly rounded powers of ten (``10.0 ** k`` is not for every k);
    the fixed bytes of each of the 2 x 18 x 9 classes as (classes, 4) int64
    words, and the digit slots each prints (0xFF) as (4, classes) words; the
    digit text words (entry k < 10,000 is k's four digits on the even bytes,
    entry 10,000 + d the digit d on the first byte) with the significant
    digits each brings, counted from the first of the nine and, for the
    second group, from the fifth; the form of each tabled decimal exponent;
    and each exponent's three digits, a two-digit one's first slot empty."""
    p10 = np.array([float(f"1e{k}") for k in range(_P10_LOW, 309)])
    template = np.zeros((2, _G9_FORMS, 9, _G9_WIDTH), np.uint8)
    keep = np.zeros_like(template)
    template[1, :, :, 0] = ord("-")
    digit_at = [8, 10, 12, 14, 16, 18, 20, 22, 24]
    for nsig in range(1, 10):
        t, k = template[:, :, nsig - 1], keep[:, :, nsig - 1]
        for form in range(_ZERO_FORM):
            exp = form - 4  # fixed point for exponents -4..8
            if exp < 0:
                t[:, form, 1:3] = ord("0"), ord(".")
                t[:, form, 3:3 - exp - 1] = ord("0")
                point, shown = -1, nsig
            elif form < 13:
                point, shown = exp, max(nsig, exp + 1)
            else:  # 13..16: scientific, exponent < 0 or > 0, 2 or 3 digits
                point, shown = 0, nsig
                t[:, form, 25:27] = ord("e"), ord("-" if form < 15 else "+")
            if 0 <= point < nsig - 1:
                t[:, form, digit_at[point] + 1] = ord(".")
            k[:, form, digit_at[:shown]] = 0xFF
        t[:, _ZERO_FORM, 1] = ord("0")
    four = _decimal_digits(10000, 4)
    text = np.zeros((10010, 8), np.uint8)
    text[:10000, 0::2] = four + ord("0")
    text[10000:, 0] = np.arange(ord("0"), ord("9") + 1)
    sig = np.zeros(10010, np.int64)
    sig[:10000] = ((four != 0) * np.arange(1, 5)).max(axis=1)
    sig[10001:] = 9
    exps = np.arange(_FORM_LOW, 331)
    forms = np.where((exps >= -4) & (exps < 9), exps + 4, 13 + 2 * (exps > 0) + (abs(exps) >= 100))
    exponent = (_decimal_digits(1000, 3) + ord("0")).astype(np.uint8)
    exponent[:100, 0] = 0
    return (p10, template.reshape(-1, _G9_WIDTH).view(np.int64),
            keep.reshape(-1, _G9_WIDTH).view(np.int64).T.copy(), text.view(np.int64).ravel(),
            sig, np.where(sig[:10000] > 0, sig[:10000] + 4, 0), forms, exponent)


def _format_g9(x: np.ndarray) -> np.ndarray:
    """``"%.9g" % v`` of each float64 in ``x``, as a (x.size, 32) uint8 matrix of
    ASCII with NUL in the empty slots.

    The 9 significant digits are ``rint`` of |v| scaled into [1e8, 1e9). That
    scaling is off by less than 2.3e-7, so a value whose scaled fraction lies
    within 1e-6 of one half, one whose digits round up to 10, and one outside
    [1e-290, 1e290) (subnormals included) or not finite, are formatted by
    Python instead.
    """
    p10, template, keep, digit_text, digit_sig, later_sig, forms, exponent = _g9_tables()
    v = np.asarray(x, np.float64).ravel()
    a = np.abs(v)
    zero = a == 0
    direct = (a >= 1e-290) & (a < 1e290)
    a = np.where(direct, a, 1.0)
    exp = np.floor(np.log10(a)).astype(np.int64)
    scaled = a * p10[8 - _P10_LOW - exp]
    sig = np.rint(scaled)
    direct &= np.abs(scaled - sig) < 0.5 - 1e-6
    # a log10 that rounds up to the next power of ten scales a value just below
    # it to just below 1e8, which rounds to the same text; a value whose digits
    # carry to 10 (0.9999999996 scales to 999999999.6) is left to the fallback
    direct &= (sig >= 1e8) & (sig < 1e9)
    sig = sig.astype(np.int64)
    # digits 1-4, 5-8 and 9, as indices into the digit-text words
    first = sig // 100000
    rest = sig - 100000 * first
    second = rest // 10
    last = rest - 10 * second + 10000
    nsig = np.maximum(np.maximum(digit_sig[first], later_sig[second]), digit_sig[last])
    form = np.where(zero, _ZERO_FORM, forms[exp - _FORM_LOW])
    cls = (form + _G9_FORMS * np.signbit(v)) * 9 + nsig - 1
    words = np.take(template, cls, axis=0)
    for w, group in enumerate((first, second, last), start=1):
        words[:, w] |= digit_text[group] & keep[w][cls]
    out = words.view(np.uint8)
    sci = np.flatnonzero((form >= 13) & (form < _ZERO_FORM))
    out[sci, 27:30] = exponent[np.abs(exp[sci])]
    slow = np.flatnonzero(~(direct | zero))
    if slow.size:
        text = ["%.9g" % f for f in v[slow].tolist()]
        out[slow] = np.array(text, f"S{_G9_WIDTH}").view(np.uint8).reshape(-1, _G9_WIDTH)
    return out


def write_predictions(track: PredictionTrack, path: str) -> None:
    """CSV with 1-based frame index; probabilities keep 9 significant digits.

    Each row is laid out in one uint8 matrix row, NUL in the empty slots, and
    the NULs are dropped when the matrix becomes the file's bytes.
    """
    n = track.n_frames
    width = len(str(n))
    rows = np.empty((n, width + 3 + NUM_CLASSES * _G9_WIDTH), np.uint8)
    frame = _decimal_digits(n + 1, width)[1:]
    rows[:, :width] = np.where(frame.cumsum(axis=1) > 0, frame + ord("0"), 0)  # no leading 0
    rows[:, width] = rows[:, width + 2] = ord(",")
    rows[:, width + 1] = track.labels + ord("0")
    values = rows[:, width + 3:].reshape(n, NUM_CLASSES, _G9_WIDTH)
    values[:] = _format_g9(track.probs).reshape(n, NUM_CLASSES, _G9_WIDTH)
    values[:, :, -1] = ord(",")  # each value's last slot is empty
    values[:, -1, -1] = ord("\n")
    header = (",".join(PREDICTION_HEADER) + "\n").encode("utf-8")
    atomic_write_bytes(path, header + rows.tobytes().translate(None, b"\0"))


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
