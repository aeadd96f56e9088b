"""Frame-aligned dataset handling: labels, feature files, repair, segmentation.

Frames are 1-based everywhere (frame 1 is the first frame of a video). Label
values are 0..7 for the eight expression classes, -1 for frames without a
usable annotation. Feature files carry a presence bitmap instead of sentinel
rows; absent frames are repaired by copying the temporally nearest present
frame, ties resolving to the earlier one.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, ShapeError
from .fileio import CsvTable, JsonConfig, SizedReader, atomic_write_bytes, read_json, resolve_beside
from .tensor import all_finite

NUM_CLASSES = 8
INVALID_LABEL = -1
LABEL_HEADER = ["frame", "label"]

VISUAL = "visual"
AUDIO = "audio"


@dataclass(frozen=True)
class FeatureSpec(JsonConfig):
    """A feature set's per-frame dimension and its modality, visual or audio."""

    dim: int
    modality: str


# the stock per-frame embedding families
DEFAULT_FEATURE_SETS = {
    "densenet": FeatureSpec(342, VISUAL),
    "mae": FeatureSpec(768, VISUAL),
    "ires100": FeatureSpec(512, VISUAL),
    "fau": FeatureSpec(512, VISUAL),
    "mobilenet": FeatureSpec(512, VISUAL),
    "egemaps": FeatureSpec(23, AUDIO),
    "compare": FeatureSpec(130, AUDIO),
    "fbank": FeatureSpec(80, AUDIO),
    "wav2vec": FeatureSpec(1024, AUDIO),
    "ecapatdnn": FeatureSpec(512, AUDIO),
    "vggish": FeatureSpec(128, AUDIO),
    "hubert": FeatureSpec(512, AUDIO),
}


def feature_specs(extra: dict) -> dict[str, FeatureSpec]:
    """The stock sets plus each entry of a config's ``registry`` object, which
    maps a set name to ``{"dim": int >= 1, "modality": "visual"|"audio"}``;
    a bad entry raises ``DataFormatError`` naming ``registry.<name>``."""
    specs = dict(DEFAULT_FEATURE_SETS)
    for name, doc in extra.items():
        key = f"registry.{name}"
        spec = specs[name] = FeatureSpec.from_json(doc, key)
        if spec.dim < 1:
            raise DataFormatError(f"{key}.dim must be >= 1, got {spec.dim}")
        if spec.modality not in (VISUAL, AUDIO):
            raise DataFormatError(f"{key}.modality must be 'visual' or 'audio', "
                                  f"got {spec.modality!r}")
    return specs


def feature_spec(specs: dict[str, FeatureSpec], name) -> FeatureSpec:
    """``specs[name]``; a name neither stock nor declared raises ``DataFormatError``."""
    try:
        return specs[name]
    except KeyError:
        raise DataFormatError(
            f"unknown feature set {name!r} (declare it in the config's 'registry')") from None


@dataclass
class LabelTrack:
    """Per-frame class labels for one video; index 0 holds frame 1."""

    video_id: str
    labels: np.ndarray  # (n,) int64, values in {-1, 0..7}

    def __post_init__(self):
        self.labels = int_labels(self.labels)
        if self.labels.ndim != 1 or _outside_labels(self.labels).any():
            raise ValueError("labels must be a 1-D array of values in {-1, 0..7}")

    @property
    def n_frames(self) -> int:
        return len(self.labels)


@dataclass
class FeatureTrack:
    """One feature set's frame-aligned matrix, with pre-repair presence flags."""

    video_id: str
    feature_set: str
    matrix: np.ndarray   # (n, dim) float32
    present: np.ndarray  # (n,) bool, as stored in the file

    @property
    def n_frames(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


# -- label CSV ------------------------------------------------------------------

def load_labels(path: str, n_frames: int, video_id: str | None = None) -> LabelTrack:
    """Read a ``frame,label`` CSV into a dense track over the manifest's
    ``n_frames`` frames.

    Frames missing from the file come back as -1. The first line holding a
    frame outside 1..``n_frames``, a label outside {-1, 0..7}, a frame seen on
    an earlier line or a non-integer field is rejected by its number, so
    nothing is sized from the file. The track must end at frame ``n_frames``.
    """
    if video_id is None:
        video_id = os.path.splitext(os.path.basename(path))[0]
    table = CsvTable(path, "label")
    if [h.strip() for h in table.header] != LABEL_HEADER:
        raise DataFormatError(f"{path}: expected header {','.join(LABEL_HEADER)!r}, got "
                              f"{','.join(table.header)!r}")
    frames, labels = table.columns((int, int), (
        (lambda _, frame, label: frame < 1, "frame index {1} < 1"),
        (lambda _, frame, label: frame > n_frames,
         f"frame index {{1}} past the manifest's {n_frames} frames"),
        (lambda _, frame, label: _outside_labels(label), "label {2} outside {{-1, 0..7}}"),
        (lambda _, frame, label: _repeats(frame), "duplicate frame index {1}"),
    ), "non-integer frame or label")
    if not frames.size:
        raise DataFormatError(f"{path}: no label rows")
    n = frames.max()
    if n != n_frames:
        raise DataFormatError(f"video {video_id!r}: label file {path} covers {n} frames, "
                              f"manifest says {n_frames}")
    dense = np.full(n_frames, INVALID_LABEL, dtype=np.int64)
    dense[frames - 1] = labels
    return LabelTrack(video_id=video_id, labels=dense)


def int_labels(values) -> np.ndarray:
    """``values`` as an int64 array; a value that is not a whole number raises
    ``ValueError`` instead of being truncated."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
        labels = values.astype(np.int64, copy=False)
    if not np.array_equal(labels, values):
        raise ValueError(f"labels must be whole numbers, got {values[labels != values][0]}")
    return labels


def _outside_labels(labels: np.ndarray) -> np.ndarray:
    """True where a label is not one of {-1, 0..7}."""
    return (labels < INVALID_LABEL) | (labels >= NUM_CLASSES)


def _repeats(values: np.ndarray) -> np.ndarray:
    """True where the value already stood at an earlier index: at no value's first index."""
    return np.bincount(np.unique(values, return_index=True)[1], minlength=len(values)) == 0


def save_labels(track: LabelTrack, path: str) -> None:
    rows = zip(range(1, track.n_frames + 1), track.labels.tolist())
    text = ",".join(LABEL_HEADER) + "\n" + "".join(map("%d,%d\n".__mod__, rows))
    atomic_write_bytes(path, text.encode("utf-8"))


# -- binary feature files ----------------------------------------------------------

FEATURE_MAGIC = b"MMFT"
FEATURE_VERSION = 1


def feature_file_bytes(track: FeatureTrack) -> bytes:
    """Serialize a track: magic, version, set name, n, dim, presence bitmap, floats.

    Absent rows are written as zeros and ignored on read; presence lives in
    the bitmap (LSB-first, frame 1 = bit 0 of byte 0).
    """
    n, dim = track.matrix.shape
    if track.present.shape != (n,):
        raise ShapeError(f"presence shape {track.present.shape} != ({n},)")
    name = track.feature_set.encode("utf-8")
    bitmap = np.packbits(track.present.astype(np.uint8), bitorder="little").tobytes()
    matrix = np.where(track.present[:, None], track.matrix, 0.0).astype("<f4")
    parts = [
        FEATURE_MAGIC,
        struct.pack("<II", FEATURE_VERSION, len(name)),
        name,
        struct.pack("<II", n, dim),
        bitmap,
        matrix.tobytes(),
    ]
    return b"".join(parts)


def write_feature_file(track: FeatureTrack, path: str) -> None:
    atomic_write_bytes(path, feature_file_bytes(track))


def read_feature_file(path: str, video_id: str | None = None) -> FeatureTrack:
    """Read a feature file through ``SizedReader``, so that nothing is sized
    from its header before the file is known to hold it; the floats are read
    straight into the matrix."""
    with open(path, "rb") as fh:
        file = SizedReader(fh, path, "feature file", FEATURE_MAGIC)
        version, name_len = file.unpack("<II", "version and name length")
        if version != FEATURE_VERSION:
            raise DataFormatError(f"{path}: unsupported feature file version {version}")
        name = file.text(name_len, "feature set name")
        n, dim = file.unpack("<II", "frame count and dim")
        bitmap = file.read((n + 7) // 8, f"the presence bitmap of {n} frames")
        matrix = file.read(4 * n * dim, f"{n} frames of dim {dim}").view("<f4").reshape(n, dim)
        file.end()
    present = np.unpackbits(bitmap, bitorder="little", count=n).astype(bool)
    matrix[~present] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all_finite(matrix)
    if not finite:
        frame = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0]) + 1
        raise DataFormatError(f"{path}: feature set {name!r} has a non-finite value "
                              f"in present frame {frame}")
    if video_id is None:
        video_id = os.path.splitext(os.path.basename(path))[0]
    return FeatureTrack(video_id=video_id, feature_set=name, matrix=matrix, present=present)


# -- repair -------------------------------------------------------------------------

def nearest_present_donors(present: np.ndarray) -> np.ndarray:
    """For each frame, the index of the nearest present frame (ties go earlier)."""
    present = np.asarray(present, dtype=bool)
    if not present.any():
        raise DataFormatError("cannot repair a track with zero present frames")
    idx = np.flatnonzero(present)
    pos = np.arange(len(present))
    right = np.searchsorted(idx, pos, side="left")
    left = right - 1
    left_idx = idx[np.clip(left, 0, len(idx) - 1)]
    right_idx = idx[np.clip(right, 0, len(idx) - 1)]
    left_dist = np.where(left >= 0, pos - left_idx, np.iinfo(np.int64).max)
    right_dist = np.where(right < len(idx), right_idx - pos, np.iinfo(np.int64).max)
    donors = np.where(left_dist <= right_dist, left_idx, right_idx)  # tie -> earlier
    donors[present] = pos[present]
    return donors


def impute_missing(track: FeatureTrack) -> FeatureTrack:
    """Fill absent rows from the temporally nearest present frame.

    Presence flags are kept as loaded so the repair remains auditable.
    Identity on already-complete tracks: ``track`` itself comes back, with no
    copy made.
    """
    if track.present.all():
        return track
    donors = nearest_present_donors(track.present)
    return FeatureTrack(track.video_id, track.feature_set, track.matrix[donors], track.present)


def imputation_plan(present: np.ndarray) -> list[tuple[int, int]]:
    """(frame, donor_frame) pairs, 1-based, for every absent frame."""
    donors = nearest_present_donors(present)
    absent = np.flatnonzero(~np.asarray(present, dtype=bool))
    return [(int(i) + 1, int(donors[i]) + 1) for i in absent]


# -- segmentation --------------------------------------------------------------------

def segment_video(n_frames: int, seg_len: int, stride: int) -> list[tuple[int, int]]:
    """The (start, end) frames, 1-based inclusive, of the windows of ``seg_len``
    frames starting at frames 1, 1 + stride, ... <= n; each is truncated at n,
    so the windows cover every frame and there is at least one."""
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    if seg_len < 1:
        raise ValueError(f"segment length must be >= 1, got {seg_len}")
    if not 1 <= stride <= seg_len:
        raise ValueError(
            f"stride must be in [1, segment length]; got stride={stride}, length={seg_len}")
    return [(start, min(start + seg_len - 1, n_frames))
            for start in range(1, n_frames + 1, stride)]


@dataclass
class Segment:
    """Window ``index`` (from 1) of a video: frames ``start``..``end``, with their data."""

    index: int
    start: int
    end: int
    features: np.ndarray  # (window, visual_dim + audio_dim) float32
    labels: np.ndarray    # (window,) int64
    valid: np.ndarray     # (window,) bool


@dataclass
class VideoData:
    """A fully assembled video: labels plus the visual-then-audio input matrix."""

    video_id: str
    labels: np.ndarray    # (n,) int64
    features: np.ndarray  # (n, Dv + Da) float32

    @property
    def n_frames(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def segments(self, seg_len: int, stride: int) -> list[Segment]:
        spans = enumerate(segment_video(self.n_frames, seg_len, stride), 1)
        return [Segment(i, start, end, self.features[start - 1:end], self.labels[start - 1:end],
                        self.labels[start - 1:end] != INVALID_LABEL) for i, (start, end) in spans]


# -- manifest ---------------------------------------------------------------------

def _plain_file_name(name: str) -> bool:
    return os.path.basename(name) == name and name not in ("", ".", "..")


@dataclass
class ManifestVideo(JsonConfig):
    video_id: str = field(metadata={"json": "id"})
    n_frames: int
    label_file: str
    features: dict[str, str]  # feature-set name -> path


@dataclass
class Manifest(JsonConfig):
    videos: list[ManifestVideo]
    splits: dict[str, list[str]] = field(default_factory=dict)  # split name -> video ids

    def __post_init__(self):
        self._by_id = {v.video_id: v for v in self.videos}

    def validate(self):
        seen = set()
        for i, video in enumerate(self.videos):
            vid = video.video_id
            if not _plain_file_name(vid):
                raise DataFormatError(f"manifest.videos[{i}].id must be a plain file name, "
                                      f"got {vid!r}")
            for name in video.features:  # prepare writes features/<id>.<name>.mmft
                if not _plain_file_name(name):
                    raise DataFormatError(f"manifest.videos[{i}].features: set name {name!r} "
                                          f"must be a plain file name")
            if video.n_frames < 1:
                raise DataFormatError(f"manifest.videos[{i}].n_frames must be >= 1, "
                                      f"got {video.n_frames}")
            if vid in seen:
                raise DataFormatError(f"duplicate video id {vid!r}")
            seen.add(vid)
        for name, ids in self.splits.items():
            listed = set()
            for vid in ids:
                if vid not in seen:
                    raise DataFormatError(f"split {name!r} references unknown video {vid!r}")
                if vid in listed:
                    raise DataFormatError(f"manifest.splits.{name} lists video {vid!r} twice")
                listed.add(vid)
        return self

    def video(self, video_id: str) -> ManifestVideo:
        try:
            return self._by_id[video_id]
        except KeyError:
            raise KeyError(f"video {video_id!r} not in manifest") from None

    def split_ids(self, split: str) -> list:
        if split not in self.splits:
            raise DataFormatError(f"manifest has no split {split!r}")
        return list(self.splits[split])


def load_manifest(path: str) -> Manifest:
    """Read the dataset manifest JSON, resolving file paths relative to it.

    A malformed manifest raises ``DataFormatError`` naming the file and the
    field.
    """
    doc = read_json(path)
    try:
        manifest = Manifest.from_json(doc, "manifest")
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    for video in manifest.videos:
        video.label_file = resolve_beside(path, video.label_file)
        video.features = {name: resolve_beside(path, p) for name, p in video.features.items()}
    return manifest


def load_feature_track(entry: ManifestVideo, name: str, spec: FeatureSpec) -> FeatureTrack:
    """Read one feature set of a manifest video, checked against the entry and
    the set's ``spec``.

    The set name inside the file, the dim and the frame count are checked
    here; the reader itself checks the format and that present rows are
    finite. The track comes back unrepaired.
    """
    if name not in entry.features:
        raise DataFormatError(f"video {entry.video_id!r}: no file for feature set {name!r}")
    path = entry.features[name]
    track = read_feature_file(path, video_id=entry.video_id)
    if track.feature_set != name:
        raise DataFormatError(
            f"video {entry.video_id!r}: file {path} holds feature set "
            f"{track.feature_set!r}, expected {name!r}")
    if track.dim != spec.dim:
        raise DataFormatError(
            f"video {entry.video_id!r}: feature set {name!r} has dim {track.dim}, "
            f"registry expects {spec.dim}")
    if track.n_frames != entry.n_frames:
        raise DataFormatError(
            f"video {entry.video_id!r}: feature set {name!r} covers "
            f"{track.n_frames} frames, manifest says {entry.n_frames}")
    return track


def load_video(entry: ManifestVideo, specs: dict[str, FeatureSpec], names) -> VideoData:
    """Load, validate and repair one video's tracks and join them into its
    input matrix, columns in the order of ``names`` (visual sets, then audio:
    ``ExperimentConfig.feature_names``). The matrix is allocated once and each
    repaired track copied into its column block as soon as it is read."""
    track = load_labels(entry.label_file, video_id=entry.video_id, n_frames=entry.n_frames)
    sets = [(name, feature_spec(specs, name)) for name in names]
    features = np.empty((entry.n_frames, sum(spec.dim for _, spec in sets)), np.float32)
    col = 0
    for name, spec in sets:
        features[:, col:col + spec.dim] = impute_missing(
            load_feature_track(entry, name, spec)).matrix
        col += spec.dim
    return VideoData(entry.video_id, track.labels, features)
