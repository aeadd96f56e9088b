"""Data pipeline: label parsing, feature files, repair, assembly, segmentation."""

import csv
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmexpr import data, fileio
from mmexpr.checkpoint import load_checkpoint, save_checkpoint
from mmexpr.data import (
    FeatureSpec,
    FeatureTrack,
    LabelTrack,
    ManifestVideo,
    VideoData,
    feature_file_bytes,
    feature_specs,
    impute_missing,
    imputation_plan,
    load_labels,
    load_manifest,
    load_video,
    read_feature_file,
    save_labels,
    segment_video,
    write_feature_file,
)
from mmexpr.ensemble import PREDICTION_HEADER, PredictionTrack, read_predictions, write_predictions
from mmexpr.errors import DataFormatError
from mmexpr.training import ExperimentConfig

from tests import _reference as ref


def write_label_csv(path, rows, header="frame,label"):
    lines = [header] + [f"{f},{l}" for f, l in rows]
    path.write_text("\n".join(lines) + "\n")


def make_track(present, dim=3, seed=0, name="mae", video_id="v"):
    rng = np.random.default_rng(seed)
    present = np.asarray(present, dtype=bool)
    matrix = rng.normal(size=(len(present), dim)).astype(np.float32)
    matrix[~present] = 0.0
    return FeatureTrack(video_id=video_id, feature_set=name, matrix=matrix, present=present)


class TestLoadLabels:
    def test_dense_track(self, tmp_path):
        p = tmp_path / "v.csv"
        write_label_csv(p, [(1, 0), (2, 3), (3, -1)])
        track = load_labels(str(p), 3)
        assert track.labels.tolist() == [0, 3, -1]
        assert track.n_frames == 3

    def test_bad_label_names_line(self, tmp_path):
        p = tmp_path / "v.csv"
        write_label_csv(p, [(1, 0), (2, 1), (3, 2), (4, 9)])
        with pytest.raises(DataFormatError, match="line 5.*label 9"):
            load_labels(str(p), 4)

    def test_all_eight_classes(self, tmp_path):
        p = tmp_path / "v.csv"
        write_label_csv(p, [(i + 1, i) for i in range(8)])
        track = load_labels(str(p), 8)
        hist = np.bincount(track.labels, minlength=8)
        assert hist.tolist() == [1] * 8

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_bytes(b"frame,label\n1,0\n2,\xff\n")
        with pytest.raises(DataFormatError, match="can't decode byte 0xff") as caught:
            load_labels(str(path), 2)
        assert str(caught.value).startswith(f"{path}: ")

    def test_duplicate_frame_rejected(self, tmp_path):
        p = tmp_path / "v.csv"
        write_label_csv(p, [(1, 0), (1, 2)])
        with pytest.raises(DataFormatError, match="line 3.*duplicate"):
            load_labels(str(p), 1)

    def test_non_integer_rejected(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("frame,label\n1,0\n2,happy\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_labels(str(p), 2)

    def test_header_checked(self, tmp_path):
        p = tmp_path / "v.csv"
        write_label_csv(p, [(1, 0)], header="idx,cls")
        with pytest.raises(DataFormatError, match="header"):
            load_labels(str(p), 1)

    def test_gaps_become_invalid(self, tmp_path):
        p = tmp_path / "v.csv"
        write_label_csv(p, [(1, 5), (4, 2)])
        assert load_labels(str(p), 4).labels.tolist() == [5, -1, -1, 2]

    def test_frame_past_the_manifest_rejected_before_sizing(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("frame,label\n1,0\n100000000000,0\n")
        with pytest.raises(DataFormatError, match="line 3.*100000000000 past") as caught:
            load_labels(str(p), 2)
        assert str(caught.value).startswith(f"{p}: ")

    def test_roundtrip(self, tmp_path):
        track = LabelTrack("v", np.array([0, -1, 7, 3]))
        p = tmp_path / "v.csv"
        save_labels(track, str(p))
        assert load_labels(str(p), 4).labels.tolist() == [0, -1, 7, 3]

    @pytest.mark.parametrize("labels", [[9, 0], [0, -2], [[0, 1]]])
    def test_track_outside_the_label_set_is_refused_before_anything_is_written(
            self, tmp_path, labels):
        p = tmp_path / "v.csv"
        with pytest.raises(ValueError, match=r"1-D array of values in \{-1, 0\.\.7\}"):
            save_labels(LabelTrack("v", np.array(labels)), str(p))
        assert not p.exists()

    def test_track_coerces_labels_to_int64(self):
        assert LabelTrack("v", np.array([])).labels.dtype == np.int64
        assert LabelTrack("v", [7, -1]).labels.tolist() == [7, -1]

    def test_track_refuses_a_label_that_is_not_a_whole_number(self):
        # casting alone would truncate these to [0, 6]
        with pytest.raises(ValueError, match="whole numbers, got 0.5"):
            LabelTrack("v", np.array([0.5, 6.9]))
        assert LabelTrack("v", np.array([3.0, -1.0])).labels.tolist() == [3, -1]

    @given(labels=st.lists(st.integers(-1, 7), max_size=40))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_written_bytes_equal_the_row_wise_writer(self, tmp_path, labels):
        track = LabelTrack("v", np.array(labels, np.int64))
        p = tmp_path / "v.csv"
        save_labels(track, str(p))
        assert p.read_bytes() == ref.label_csv_bytes(track)

    @pytest.mark.parametrize("data, n_frames, expected", [
        (b'frame,label\n"1","0"\n2,"-1"\n', 2, [0, -1]),
        (b"frame,label\r\n1,0\r\n2,5\r\n", 2, [0, 5]),
        (b"frame,label\n1,0\n2,5\n\n\n", 2, [0, 5]),
        (b"frame,label\n1,0\n\n3,5\n", 3, [0, -1, 5]),
        (b"frame,label\n1,0\n\n3,5\n2,9\n", 3, "line 5: label 9 outside"),
        (b"frame,label\n1,99999999999999999999\n", 1, "line 2: label 99999999999999999999 outside"),
        (b"frame,label\n1,0\n2,8\n", 2, "line 3: label 8 outside"),
        (b"frame,label\n1,0\n2,-2\n", 2, "line 3: label -2 outside"),
        (b"frame,label\n1,0\n0,1\n", 2, "line 3: frame index 0 < 1"),
        (b"frame,label\n1,0\n3,1\n", 2, "line 3: frame index 3 past"),
        (b"frame,label\n", 1, "no label rows"),
        (b"frame,label\n2,1\n1,0\n2,3\n", 2, "line 4: duplicate frame index 2"),
        (b"frame,label\n1,0\n2,x\n" + b"3,0\n" * 3000 + b"\xff", 3, "line 3: non-integer"),
        (b"frame,label\n" + b"".join(b"%d,0\n" % f for f in range(1, 3001)) + b"\xff", 3000,
         "can't decode byte 0xff"),
        (b"frame,label\n1,0\n3,9\n", 2, "line 3: frame index 3 past"),
        (b"frame,label\n1,0\n2,9\n3\n", 3, "line 3: label 9 outside"),
        (b"frame,label\n1,0\n2,x\n0,0,0\n", 3, "line 3: non-integer"),
        (b"frame,label\n1,0\n2,0,0\n2,x\n", 3, "line 3: expected 2 fields, got 3"),
        (b"frame,label\n1,0\n2,0\n2,0\n3,9\n", 3, "line 4: duplicate frame index 2"),
        (b"frame,label\n+1,0\n 2,1_0\n", 2, "line 3: label 10 outside"),
        (b"frame,label\n+1,1_0\n", 1, "line 2: label 10 outside"),
        (b"frame,label\n+1, 3\n2,-1\n", 2, [3, -1]),
        (b"frame,label\n1,0\n9223372036854775808,0\n-3,0\n", 2,
         "line 3: frame index 9223372036854775808 past"),
        (b"frame,label\n1,0\n-9223372036854775809,0\n", 2,
         "line 3: frame index -9223372036854775809 < 1"),
        (b"frame,label\n1,0\n2,-9223372036854775809\n", 2,
         "line 3: label -9223372036854775809 outside"),
    ], ids=["quoted-fields", "crlf", "trailing-blank-lines", "blank-line-mid-file",
            "blank-line-then-a-fault",
            "label-past-int64", "label-8", "label-minus-2", "frame-0", "frame-past-n-frames",
            "empty-track", "duplicate-after-a-reordered-frame",
            "fault-before-a-later-undecodable-byte", "undecodable-byte-after-valid-rows",
            "two-rules-on-a-line-name-the-first", "rule-fault-before-a-later-field-count",
            "conversion-fault-before-a-later-field-count",
            "field-count-before-a-later-conversion-fault",
            "duplicate-before-a-later-label-fault", "plus-sign-and-underscore",
            "underscore-label", "plus-sign-and-space-accepted",
            "frame-past-uint64-beside-a-negative-frame", "frame-below-int64",
            "label-below-int64"])
    def test_reader_matches_the_row_wise_reader(self, tmp_path, data, n_frames, expected):
        p = tmp_path / "v.csv"
        p.write_bytes(data)
        outcome = ref.read_outcome(load_labels, p, n_frames=n_frames)
        assert outcome == ref.read_outcome(ref.load_labels, p, n_frames=n_frames)
        if isinstance(expected, str):
            assert expected in outcome
        else:
            assert load_labels(str(p), n_frames).labels.tolist() == expected


def _count_csv_reads(monkeypatch):
    """Patch ``csv.reader`` to count its calls; returns the count list."""
    calls, reader = [], csv.reader
    monkeypatch.setattr(fileio.csv, "reader", lambda *args, **kw: calls.append(1) or reader(*args, **kw))
    return calls


class TestCsvReadPath:
    """Plain files, which the writers write, are parsed by NumPy; every other
    file reads as before through ``csv.reader``."""

    def test_written_files_read_without_csv_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        pred, label = tmp_path / "p.csv", tmp_path / "l.csv"
        write_predictions(PredictionTrack.from_probs("p", rng.dirichlet(np.ones(8), 300)), str(pred))
        save_labels(LabelTrack("l", rng.integers(-1, 8, 300)), str(label))
        expected = (ref.read_outcome(ref.read_predictions, pred),
                    ref.read_outcome(ref.load_labels, label, n_frames=300))

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called")
        monkeypatch.setattr(fileio.csv, "reader", refuse)
        assert (ref.read_outcome(read_predictions, pred),
                ref.read_outcome(load_labels, label, n_frames=300)) == expected

    @pytest.mark.parametrize("data, expected, through_csv", [
        (b'frame,label\n"1",0\n2,5\n', [0, 5], True),
        (b"frame,label\r\n1,0\r\n2,5\r\n", [0, 5], True),
        (b"frame,label\n 1,0\n2,5\n", [0, 5], True),
        (b"frame,label\n1,0\n2,1_0\n", "line 3: label 10 outside", True),
        (b"frame,label\n+1,0\n2,+5\n", [0, 5], False),
    ], ids=["quoted-field", "crlf", "space", "underscore", "plus-sign"])
    def test_label_file_path_and_outcome(self, tmp_path, monkeypatch, data, expected, through_csv):
        p = tmp_path / "v.csv"
        p.write_bytes(data)
        oracle = ref.read_outcome(ref.load_labels, p, n_frames=2)
        calls = _count_csv_reads(monkeypatch)
        outcome = ref.read_outcome(load_labels, p, n_frames=2)
        assert bool(calls) == through_csv
        assert outcome == oracle
        if isinstance(expected, str):
            assert expected in outcome
        else:
            assert load_labels(str(p), 2).labels.tolist() == expected

    def test_field_past_the_csv_field_limit_is_refused_as_before(self, tmp_path):
        p = tmp_path / "v.csv"
        long_zero = "0." + "0" * csv.field_size_limit()
        p.write_text(",".join(PREDICTION_HEADER) + f"\n1,0,1,0,0,0,0,0,0,{long_zero}\n")
        with pytest.raises(DataFormatError, match="field larger than field limit"):
            read_predictions(str(p))

    def test_blank_line_shifts_the_frame_index_through_csv_reader(self, tmp_path, monkeypatch):
        p = tmp_path / "v.csv"
        rows = "".join(f"{f},0,1,0,0,0,0,0,0,0\n" for f in (1, 2, 3))
        p.write_text(",".join(PREDICTION_HEADER) + "\n" + rows.replace("\n2,", "\n\n2,"))
        calls = _count_csv_reads(monkeypatch)
        with pytest.raises(DataFormatError, match="line 4: frame index 2, expected 3"):
            read_predictions(str(p))
        assert calls


class TestImputation:
    def test_tie_goes_to_earlier_frame(self):
        track = make_track([True, True, False, True, True])
        fixed = impute_missing(track)
        np.testing.assert_array_equal(fixed.matrix[2], track.matrix[1])
        assert imputation_plan(track.present) == [(3, 2)]

    def test_nearest_unique(self):
        track = make_track([True, True, True, True, False, False])
        fixed = impute_missing(track)
        np.testing.assert_array_equal(fixed.matrix[5], track.matrix[3])
        assert imputation_plan(track.present) == [(5, 4), (6, 4)]

    def test_single_donor(self):
        present = [False] * 9 + [True]
        track = make_track(present)
        fixed = impute_missing(track)
        for i in range(9):
            np.testing.assert_array_equal(fixed.matrix[i], track.matrix[9])

    def test_identity_on_complete_track(self):
        track = make_track([True] * 6)
        fixed = impute_missing(track)
        np.testing.assert_array_equal(fixed.matrix, track.matrix)
        fixed_again = impute_missing(fixed)
        np.testing.assert_array_equal(fixed_again.matrix, fixed.matrix)

    def test_complete_track_comes_back_uncopied(self):
        track = make_track([True] * 6)
        assert impute_missing(track) is track

    def test_zero_present_rejected(self):
        track = make_track([False, False])
        with pytest.raises(DataFormatError, match="zero present"):
            impute_missing(track)

    def test_presence_flags_kept_for_audit(self):
        track = make_track([True, False, True])
        fixed = impute_missing(track)
        assert fixed.present.tolist() == [True, False, True]
        assert np.isfinite(fixed.matrix).all()


def write_video(root, tracks) -> ManifestVideo:
    """Manifest entry of video "v": its label file covers the first track's
    frames and each track is written to its own feature file."""
    n = tracks[0].n_frames
    write_label_csv(root / "v.csv", [(f, 0) for f in range(1, n + 1)])
    paths = {t.feature_set: str(root / f"v.{t.feature_set}.mmft") for t in tracks}
    for t in tracks:
        write_feature_file(t, paths[t.feature_set])
    return ManifestVideo("v", n, str(root / "v.csv"), paths)


def selection_doc(visual, audio):
    return {"features": {"visual": visual, "audio": audio}}


class TestAssembly:
    def test_visual_concat_dim_matches_registry(self, tmp_path):
        tracks = [make_track([True] * 2, dim=768, name="mae"),
                  make_track([True] * 2, dim=512, name="ires100"),
                  make_track([True] * 2, dim=512, name="hubert")]
        video = load_video(write_video(tmp_path, tracks), feature_specs({}),
                           ["mae", "ires100", "hubert"])
        assert video.features.shape == (2, 1280 + 512)
        np.testing.assert_array_equal(video.features[:, 1280:], tracks[2].matrix)

    def test_audio_concat_dim(self, tmp_path):
        tracks = [make_track([True] * 3, dim=342, name="densenet"),
                  make_track([True] * 3, dim=512, name="ecapatdnn"),
                  make_track([True] * 3, dim=512, name="hubert")]
        video = load_video(write_video(tmp_path, tracks), feature_specs({}),
                           ["densenet", "ecapatdnn", "hubert"])
        assert video.features.shape == (3, 342 + 1024)

    def test_single_set_is_identity(self, tmp_path):
        t = make_track([True] * 4, dim=342, name="densenet")
        a = make_track([True] * 4, dim=23, name="egemaps")
        video = load_video(write_video(tmp_path, [t, a]), feature_specs({}),
                           ["densenet", "egemaps"])
        np.testing.assert_array_equal(video.features[:, :342], t.matrix)

    def test_projection_property(self, tmp_path):
        # the columns of each set, in the order given, are that set's repaired track
        a = make_track([True, False, True, True, False], dim=768, name="mae", seed=1)
        b = make_track([True] * 5, dim=512, name="ires100", seed=2)
        au = make_track([False, True, True, False, True], dim=512, name="hubert", seed=3)
        video = load_video(write_video(tmp_path, [a, b, au]), feature_specs({}),
                           ["ires100", "mae", "hubert"])
        np.testing.assert_array_equal(video.features[:, :512], b.matrix)
        np.testing.assert_array_equal(video.features[:, 512:1280], impute_missing(a).matrix)
        np.testing.assert_array_equal(video.features[:, 1280:], impute_missing(au).matrix)

    def test_load_holds_the_matrix_and_one_track(self, tmp_path):
        # the input matrix is allocated once and each set is copied into its
        # column block as soon as it is read; joining the tracks at the end
        # took twice the matrix
        tracks = [make_track([True] * 2000, dim=512, name=name, seed=i)
                  for i, name in enumerate(["ires100", "hubert"])]
        entry = write_video(tmp_path, tracks)
        specs = feature_specs({})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            video = load_video(entry, specs, ["ires100", "hubert"])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * video.features.nbytes, (peak, video.features.nbytes)
        np.testing.assert_array_equal(video.features, np.hstack([t.matrix for t in tracks]))

    def test_unknown_name_rejected(self):
        with pytest.raises(DataFormatError, match="unknown feature set 'mystery'"):
            ExperimentConfig.from_json(selection_doc(["mystery"], ["egemaps"]))

    def test_length_mismatch_rejected(self, tmp_path):
        a = make_track([True] * 2, dim=768, name="mae")
        b = make_track([True] * 3, dim=512, name="hubert")
        with pytest.raises(DataFormatError, match="covers 3 frames, manifest says 2"):
            load_video(write_video(tmp_path, [a, b]), feature_specs({}), ["mae", "hubert"])

    def test_modality_mixup_rejected(self):
        with pytest.raises(DataFormatError, match="feature set 'mae' is not audio"):
            ExperimentConfig.from_json(selection_doc(["densenet"], ["mae"]))

    def test_registry_extras(self):
        specs = feature_specs({"synthvis": {"dim": 64, "modality": "visual"},
                               "synthaud": {"dim": 32, "modality": "audio"}})
        assert specs["synthvis"] == FeatureSpec(64, "visual")
        assert specs["synthaud"].modality == "audio"
        assert specs["mae"].dim == 768  # defaults still present


class TestSegmentation:
    def test_300_frames_three_segments(self):
        spans = segment_video(300, 128, 128)
        assert spans == [(1, 128), (129, 256), (257, 300)]
        video = VideoData("v", np.zeros(300, np.int64), np.zeros((300, 1), np.float32))
        assert [s.index for s in video.segments(128, 128)] == [1, 2, 3]

    def test_short_video_single_segment(self):
        spans = segment_video(100, 128, 128)
        assert spans == [(1, 100)]

    def test_exact_multiple_prunes_empty_candidate(self):
        spans = segment_video(256, 128, 128)
        assert spans == [(1, 128), (129, 256)]

    @pytest.mark.parametrize("seg_len", [1, 2, 3, 7, 16, 128])
    def test_windows_equal_the_candidate_and_prune_reference(self, seg_len):
        for n in range(1, 400):
            for stride in range(1, seg_len + 1):
                expected = ref.segment_video(n, seg_len, stride)
                assert segment_video(n, seg_len, stride) == expected, f"n={n} l={seg_len} p={stride}"

    def test_stride_larger_than_length_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            segment_video(100, 16, 32)

    @given(n=st.integers(1, 500), seg_len=st.integers(1, 140))
    @settings(max_examples=200, deadline=None)
    def test_no_overlap_coverage_is_exact(self, n, seg_len):
        spans = segment_video(n, seg_len, seg_len)
        counts = np.zeros(n, dtype=int)
        for start, end in spans:
            assert 1 <= start <= end <= n
            counts[start - 1:end] += 1
        assert (counts == 1).all()
        assert len(spans) <= n // seg_len + 1

    @given(n=st.integers(1, 300), seg_len=st.integers(1, 64), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_overlapping_coverage_at_least_once(self, n, seg_len, data):
        stride = data.draw(st.integers(1, seg_len))
        spans = segment_video(n, seg_len, stride)
        counts = np.zeros(n, dtype=int)
        for start, end in spans:
            counts[start - 1:end] += 1
        assert (counts >= 1).all()

    def test_video_segments_carry_labels_and_mask(self):
        labels = np.array([0, 1, -1, 2, 3])
        video = VideoData("v", labels, np.hstack([np.ones((5, 2), np.float32),
                                                  np.zeros((5, 1), np.float32)]))
        segs = video.segments(seg_len=3, stride=3)
        assert [(s.start, s.end) for s in segs] == [(1, 3), (4, 5)]
        assert segs[0].labels.tolist() == [0, 1, -1]
        assert segs[0].valid.tolist() == [True, True, False]
        assert segs[0].features.shape == (3, 3)


class TestFeatureFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        track = make_track([True, False, True, True, False, True, True, True, False], dim=5)
        path = tmp_path / "v.mmft"
        write_feature_file(track, str(path))
        loaded = read_feature_file(str(path), video_id="v")
        assert loaded.feature_set == track.feature_set
        np.testing.assert_array_equal(loaded.present, track.present)
        np.testing.assert_array_equal(loaded.matrix, track.matrix)
        # writing the loaded track again reproduces the same bytes
        assert feature_file_bytes(loaded) == path.read_bytes()

    def test_absent_rows_stored_as_zeros(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(2, 3)).astype(np.float32)
        track = FeatureTrack("v", "mae", matrix, np.array([True, False]))
        raw = feature_file_bytes(track)
        floats = np.frombuffer(raw[-24:], dtype="<f4").reshape(2, 3)
        np.testing.assert_array_equal(floats[1], 0.0)

    def test_bitmap_is_lsb_first(self):
        track = make_track([True] + [False] * 7 + [True], dim=1)
        raw = feature_file_bytes(track)
        name_len = 3  # "mae"
        bitmap_off = 4 + 8 + name_len + 8
        assert raw[bitmap_off] == 0b00000001
        assert raw[bitmap_off + 1] == 0b00000001

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.mmft"
        p.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(DataFormatError, match="magic"):
            read_feature_file(str(p))

    def test_truncated(self, tmp_path):
        track = make_track([True] * 4, dim=4)
        p = tmp_path / "x.mmft"
        p.write_bytes(feature_file_bytes(track)[:-7])
        with pytest.raises(DataFormatError):
            read_feature_file(str(p))

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
         "unsupported feature file version 2$"),
        (lambda raw: raw[:12] + b"\xff" + raw[13:], "feature set name is not UTF-8"),
    ], ids=["version-2", "name-not-utf8"])
    def test_header_fault_reported_as_itself(self, tmp_path, edit, message):
        p = tmp_path / "x.mmft"
        p.write_bytes(edit(feature_file_bytes(make_track([True] * 4, dim=4))))
        with pytest.raises(DataFormatError, match=message) as caught:
            read_feature_file(str(p))
        assert str(caught.value).startswith(f"{p}: ")
        assert "truncated" not in str(caught.value)


    @pytest.mark.parametrize("raw", [b"", b"MM", b"MMF", b"XXXX"])
    @pytest.mark.parametrize("reader", [read_feature_file, load_checkpoint],
                             ids=["features", "checkpoint"])
    def test_file_shorter_than_its_header_with_a_wrong_magic_says_bad_magic(self, tmp_path,
                                                                            reader, raw):
        p = tmp_path / "short.bin"
        p.write_bytes(raw)
        with pytest.raises(DataFormatError, match=f"^{p}: bad magic {raw!r}, expected"):
            reader(str(p))

    def test_trailing_bytes_reported_before_a_non_finite_row(self, tmp_path):
        track = make_track([True] * 4, dim=4)
        track.matrix[2, 1] = np.nan
        p = tmp_path / "x.mmft"
        p.write_bytes(feature_file_bytes(track) + b"\0" * 3)
        with pytest.raises(DataFormatError, match=r"x\.mmft: 3 trailing bytes$"):
            read_feature_file(str(p))
        p.write_bytes(feature_file_bytes(track))
        with pytest.raises(DataFormatError, match="non-finite value in present frame 3"):
            read_feature_file(str(p))

    def test_file_shrinking_while_read_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "shrinks.mmft"
        write_feature_file(make_track([True] * 8, dim=16), str(path))

        class Shrinking(io.FileIO):
            """Reads come up short at the matrix, as if the file were cut after
            its size was taken."""

            def readinto(self, buf):
                return super().readinto(buf) if memoryview(buf).nbytes < 256 else 10

        monkeypatch.setattr(data, "open", lambda p, mode: Shrinking(p), raising=False)
        with pytest.raises(DataFormatError, match=r"shrinks\.mmft: truncated feature file"):
            read_feature_file(str(path))


def _checkpoint_file(path):
    save_checkpoint({"fusion.weight": np.ones((3, 2), np.float32),
                     "fusion.bias": np.ones(2, np.float32)}, path)


# (format, size field, byte offset, the value the valid file holds there)
SIZE_FIELDS = [
    ("features", "name length", 8, 3), ("features", "n_frames", 15, 6),
    ("features", "dim", 19, 3), ("checkpoint", "count", 8, 2),
    ("checkpoint", "name length", 12, len("fusion.weight")), ("checkpoint", "rank", 29, 2),
    ("checkpoint", "dim", 33, 3),
]


@pytest.mark.parametrize("fmt, field, at, value", SIZE_FIELDS,
                         ids=[f"{fmt}-{field}" for fmt, field, *_ in SIZE_FIELDS])
def test_no_allocation_is_sized_by_a_header_field_the_file_cannot_fill(tmp_path, fmt, field,
                                                                       at, value):
    """A size field of 0xFFFFFFFF is refused, naming the file, before anything
    near that size is allocated."""
    path = tmp_path / f"huge.{fmt}"
    if fmt == "features":
        write_feature_file(make_track([True] * 6, dim=3), str(path))
        reader = read_feature_file
    else:
        _checkpoint_file(str(path))
        reader = load_checkpoint
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, at) == (value,)
    path.write_bytes(raw[:at] + struct.pack("<I", 2**32 - 1) + raw[at + 4:])
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError) as caught:
            reader(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value).startswith(f"{path}: ")
    assert peak < len(raw) + 64 * 1024, peak


class TestManifest:
    def test_load_and_resolve_paths(self, tmp_path):
        (tmp_path / "labels").mkdir()
        (tmp_path / "feats").mkdir()
        write_label_csv(tmp_path / "labels" / "a.csv", [(1, 0), (2, 1)])
        track = make_track([True, True], dim=64, name="synthvis", video_id="a")
        write_feature_file(track, str(tmp_path / "feats" / "a.mmft"))
        manifest_doc = {
            "videos": [{"id": "a", "n_frames": 2, "label_file": "labels/a.csv",
                        "features": {"synthvis": "feats/a.mmft"}}],
            "splits": {"train": ["a"], "val": ["a"]},
        }
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest_doc))
        manifest = load_manifest(str(mpath))
        assert manifest.video("a").n_frames == 2
        assert manifest.split_ids("train") == ["a"]
        assert manifest.video("a").label_file.startswith(str(tmp_path))

    def test_unknown_split_video_rejected(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "videos": [{"id": "a", "n_frames": 1, "label_file": "a.csv", "features": {}}],
            "splits": {"train": ["ghost"]},
        }))
        with pytest.raises(DataFormatError, match="ghost"):
            load_manifest(str(mpath))

    def test_duplicate_video_rejected(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        entry = {"id": "a", "n_frames": 1, "label_file": "a.csv", "features": {}}
        mpath.write_text(json.dumps({"videos": [entry, entry], "splits": {}}))
        with pytest.raises(DataFormatError, match="duplicate"):
            load_manifest(str(mpath))

    def test_video_listed_twice_in_a_split_rejected(self, tmp_path):
        doc = _valid_manifest_doc()
        doc["splits"]["train"] = ["a", "b", "a"]
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as caught:
            load_manifest(str(mpath))
        assert str(caught.value) == f"{mpath}: manifest.splits.train lists video 'a' twice"

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: doc["videos"][0].update(n_frames="200"), "videos[0].n_frames"),
        (lambda doc: doc["videos"][0].update(n_frames=200.9), "videos[0].n_frames"),
        (lambda doc: doc["videos"][0].update(n_frames=True), "videos[0].n_frames"),
        (lambda doc: doc["videos"][0].update(n_frames=0), "videos[0].n_frames"),
        (lambda doc: doc["videos"][0].update(id=7), "videos[0].id"),
        (lambda doc: doc["videos"][0].update(label_file=None), "videos[0].label_file"),
        (lambda doc: doc["videos"].append("v"), "videos[2]"),
    ], ids=["n-frames-string", "n-frames-fraction", "n-frames-bool", "n-frames-zero", "id-number",
            "label-file-null", "video-string"])
    def test_wrong_json_type_names_file_and_field(self, tmp_path, edit, key):
        doc = _valid_manifest_doc()
        edit(doc)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as caught:
            load_manifest(str(mpath))
        assert str(caught.value).startswith(f"{mpath}: ") and key in str(caught.value)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["videos"][0]["features"].update(synthvis=5),
         "manifest.videos[0].features.synthvis: expected a string, got 5"),
        (lambda doc: doc["splits"].update(val=["b", 7]),
         "manifest.splits.val[1]: expected a string, got 7"),
        (lambda doc: doc["videos"][1].pop("n_frames"),
         "manifest.videos[1]: missing field 'n_frames'"),
        (lambda doc: doc["videos"][0].pop("id"), "manifest.videos[0]: missing field 'id'"),
        (lambda doc: doc.pop("videos"), "manifest: missing field 'videos'"),
    ], ids=["feature-path-number", "split-id-number", "no-n-frames", "no-id", "no-videos"])
    def test_codec_fault_names_the_key(self, tmp_path, edit, message):
        doc = _valid_manifest_doc()
        edit(doc)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as caught:
            load_manifest(str(mpath))
        assert str(caught.value) == f"{mpath}: {message}"

    def test_absent_splits_mean_no_splits(self, tmp_path):
        doc = _valid_manifest_doc()
        del doc["splits"]
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        assert load_manifest(str(mpath)).splits == {}

    def test_relative_paths_resolve_against_the_manifest_and_absolute_ones_stay(self, tmp_path):
        doc = _valid_manifest_doc()
        absolute = str(tmp_path / "elsewhere" / "a.aud")
        doc["videos"][0]["features"]["synthaud"] = absolute
        mpath = tmp_path / "sub" / "manifest.json"
        mpath.parent.mkdir()
        mpath.write_text(json.dumps(doc))
        video = load_manifest(str(mpath)).video("a")
        assert video.label_file == str(tmp_path / "sub" / "labels" / "a.csv")
        assert video.features == {"synthvis": str(tmp_path / "sub" / "feats" / "a.mmft"),
                                  "synthaud": absolute}

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_one_value_swapped_loads_or_raises_data_format_error(self, tmp_path, data):
        doc = swap_one_value(data, _valid_manifest_doc())
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        try:
            load_manifest(str(mpath))
        except DataFormatError:
            pass


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    _json_containers, max_leaves=8)


def swap_one_value(data, doc):
    """``doc`` with one value drawn from its values, the root included,
    replaced by an arbitrary JSON value."""
    where = data.draw(st.sampled_from(list(_value_paths(doc))))
    value = data.draw(_JSON_VALUES)
    if not where:
        return value
    node = doc
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = value
    return doc


def _valid_manifest_doc():
    return {
        "videos": [{"id": "a", "n_frames": 2, "label_file": "labels/a.csv",
                    "features": {"synthvis": "feats/a.mmft", "synthaud": "feats/a.aud"}},
                   {"id": "b", "n_frames": 3, "label_file": "labels/b.csv",
                    "features": {"synthvis": "feats/b.mmft"}}],
        "splits": {"train": ["a", "b"], "val": ["b"]},
    }


def _value_paths(node, prefix=()):
    """The key path of every value in a JSON document, the root's ``()`` included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _value_paths(child, prefix + (key,))
