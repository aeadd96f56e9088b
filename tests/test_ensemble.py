"""Ensembling: vote semantics, tie-breaking, and prediction file round-trips."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmexpr
from mmexpr.ensemble import (
    PREDICTION_HEADER,
    PredictionTrack,
    _format_g9,
    read_predictions,
    vote,
    write_predictions,
)
from mmexpr.errors import DataFormatError, ShapeError

from tests import _reference as ref

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mmexpr.__file__)))


def prob_row(label, weight=0.65):
    row = np.full(8, (1.0 - weight) / 7)
    row[label] = weight
    return row


def track_from_labels(labels, video_id="v", weight=0.65):
    labels = np.asarray(labels, dtype=np.int64)
    probs = np.stack([prob_row(l, weight) for l in labels])
    return PredictionTrack(video_id, labels, probs)


class TestVote:
    def test_strict_majority_wins(self):
        members = [track_from_labels([2]), track_from_labels([2]), track_from_labels([5])]
        assert vote(members).labels.tolist() == [2]

    def test_three_way_tie_mean_probability_decides(self):
        # all labels distinct; member probabilities make class 2 the strongest on average
        members = [track_from_labels([1], weight=0.5),
                   track_from_labels([2], weight=0.9),
                   track_from_labels([3], weight=0.5)]
        fused = vote(members)
        assert fused.labels.tolist() == [2]
        flat = ref.brute_force_vote([1, 2, 3], [m.probs[0] for m in members])
        assert fused.labels[0] == flat

    def test_two_way_tie_mean_probability_decides(self):
        members = [track_from_labels([0], weight=0.5), track_from_labels([0], weight=0.5),
                   track_from_labels([1], weight=0.9), track_from_labels([1], weight=0.9)]
        fused = vote(members)
        assert fused.labels.tolist() == [1]

    def test_exact_tie_resolves_to_lowest_index(self):
        members = [track_from_labels([3], weight=0.6), track_from_labels([5], weight=0.6)]
        assert vote(members).labels.tolist() == [3]

    def test_unanimous_duplicates_reproduce_member(self):
        base = track_from_labels([0, 3, 7, 1])
        fused = vote([base, base, base])
        assert fused.labels.tolist() == base.labels.tolist()
        np.testing.assert_allclose(fused.probs, base.probs)

    def test_member_order_is_irrelevant(self):
        rng = np.random.default_rng(0)
        members = [track_from_labels(rng.integers(0, 8, 20)) for _ in range(3)]
        fused = vote(members)
        for perm in itertools.permutations(members):
            again = vote(list(perm))
            assert again.labels.tolist() == fused.labels.tolist()
            assert again.probs.tobytes() == fused.probs.tobytes()

    @pytest.mark.parametrize("m", range(2, 8))
    def test_mean_has_the_sorted_sum_bits_in_any_member_order(self, m):
        rng = np.random.default_rng(m)
        n = 30
        probs = rng.dirichlet(np.ones(8), size=(m, n))
        repeat = rng.random((m, n)) < 0.3  # ties: these rows repeat member 0's
        probs[repeat] = np.broadcast_to(probs[0], probs.shape)[repeat]
        zero = rng.random((m, n, 8)) < 0.2
        zero[:, :, 0] = False
        zero[:, :, 5] = True
        probs[zero] = 0.0
        probs[:, :, 0] += 1.0 - probs.sum(axis=2)
        probs[zero & (rng.random((m, n, 8)) < 0.5)] = -0.0
        probs[:, :, 5] = -0.0  # a column that is -0.0 in every member
        members = [PredictionTrack("v", rng.integers(0, 8, n), p) for p in probs]
        fused = vote(members)
        want = ref.vote_mean(probs)
        np.testing.assert_array_equal(fused.probs.view(np.int64), want.view(np.int64))
        assert (fused.probs[:, 5].view(np.int64) == 0).all()  # +0.0
        for perm in itertools.permutations(members):
            again = vote(list(perm))
            assert again.probs.tobytes() == fused.probs.tobytes()
            assert again.labels.tolist() == fused.labels.tolist()

    def test_extra_copy_of_majority_never_flips(self):
        rng = np.random.default_rng(1)
        members = [track_from_labels(rng.integers(0, 8, 30)) for _ in range(3)]
        fused = vote(members)
        majority_member = track_from_labels(fused.labels)
        extended = vote(members + [majority_member])
        assert extended.labels.tolist() == fused.labels.tolist()

    def test_fused_probs_are_member_mean(self):
        members = [track_from_labels([1, 2]), track_from_labels([1, 3])]
        fused = vote(members)
        np.testing.assert_allclose(
            fused.probs, (members[0].probs + members[1].probs) / 2)

    def test_exhaustive_small_cases_match_brute_force(self):
        rng = np.random.default_rng(2)
        for k in (2, 3, 4):
            for classes in (2, 3):
                for labels in itertools.product(range(classes), repeat=k):
                    probs = rng.dirichlet(np.ones(8), size=k)
                    members = [PredictionTrack(f"v", np.array([l]), probs[m:m + 1])
                               for m, l in enumerate(labels)]
                    fused = vote(members)
                    want = ref.brute_force_vote(labels, probs)
                    assert fused.labels[0] == want, (labels, probs)

    def test_random_eight_class_cases_match_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            labels = rng.integers(0, 8, k)
            probs = rng.dirichlet(np.ones(8), size=k)
            members = [PredictionTrack("v", labels[m:m + 1], probs[m:m + 1])
                       for m in range(k)]
            assert vote(members).labels[0] == ref.brute_force_vote(labels, probs)

    def test_fewer_than_two_members_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            vote([track_from_labels([0])])

    def test_frame_count_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="frame counts differ"):
            vote([track_from_labels([0, 1]), track_from_labels([0])])

    def test_video_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="video ids differ"):
            vote([track_from_labels([0], video_id="a"), track_from_labels([0], video_id="b")])


class TestPredictionTrackInvariants:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PredictionTrack("v", np.array([0]), np.full((1, 8), 0.2))

    def test_negative_probability_rejected(self):
        row = prob_row(0)
        row[1] = -row[1]
        row[0] += 2 * row[1]
        with pytest.raises(ValueError, match="negative"):
            PredictionTrack("v", np.array([0]), row[None, :] / row.sum())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_rejected(self, bad):
        probs = np.full((2, 8), 1 / 8)
        probs[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PredictionTrack("v", np.array([0, 0]), probs)

    def test_label_that_is_not_a_whole_number_rejected(self):
        # casting alone would keep label 2
        with pytest.raises(ValueError, match="whole numbers, got 2.7"):
            PredictionTrack("v", np.array([2.7]), np.eye(8)[[2]])

    def test_from_probs_argmax_consistent(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(8), size=10)
        track = PredictionTrack.from_probs("v", probs)
        np.testing.assert_array_equal(track.labels, probs.argmax(axis=1))


class TestPredictionFiles:
    def test_roundtrip_within_serialization_precision(self, tmp_path):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(8), size=25)
        track = PredictionTrack.from_probs("clip", probs)
        path = tmp_path / "clip.csv"
        write_predictions(track, str(path))
        loaded = read_predictions(str(path))
        assert loaded.video_id == "clip"
        np.testing.assert_array_equal(loaded.labels, track.labels)
        np.testing.assert_allclose(loaded.probs, track.probs, rtol=1e-8)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("frame,label,p0\n1,0,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            read_predictions(str(path))

    def test_empty_track_roundtrip(self, tmp_path):
        track = PredictionTrack("empty", np.zeros(0, np.int64), np.zeros((0, 8)))
        path = tmp_path / "empty.csv"
        write_predictions(track, str(path))
        assert path.read_text().strip() == "frame,pred," + ",".join(f"prob_{c}" for c in range(8))
        assert read_predictions(str(path)).n_frames == 0

    def test_malformed_row_names_line(self, tmp_path):
        track = track_from_labels([0, 1, 2], video_id="v")
        path = tmp_path / "v.csv"
        write_predictions(track, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",", ";", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_predictions(str(path))

    def test_nan_probability_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(",".join(["frame", "pred"] + [f"prob_{c}" for c in range(8)])
                        + "\n1,0,nan,0,0,0,0,0,0,0\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            read_predictions(str(path))

    @pytest.mark.parametrize("row, message", [
        (b"1,\xff,0,0,0,0,0,0,0,1\n", "can't decode byte 0xff"),
        (b"1,99999999999999999999,0,0,0,0,0,0,0,1\n", "too large"),
    ], ids=["not-utf8", "label-past-int64"])
    def test_unreadable_row_names_the_file(self, tmp_path, row, message):
        path = tmp_path / "v.csv"
        path.write_bytes(",".join(["frame", "pred"] + [f"prob_{c}" for c in range(8)]).encode()
                         + b"\n" + row)
        with pytest.raises(DataFormatError, match=message) as caught:
            read_predictions(str(path))
        assert str(caught.value).startswith(f"{path}: ")

    def test_frame_indices_must_be_dense(self, tmp_path):
        track = track_from_labels([0, 1], video_id="v")
        path = tmp_path / "v.csv"
        write_predictions(track, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("2,", "9,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_predictions(str(path))


# probabilities of at most 1/8 (edge values included), so the eighth entry of a row,
# 1 minus the others, is never negative
_SMALL_PROBS = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-9, 0.125]) | \
    st.floats(0.0, 0.125)


@st.composite
def prediction_tracks(draw):
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = draw(st.lists(_SMALL_PROBS, min_size=7, max_size=7))
        row.insert(draw(st.integers(0, 7)), 1.0 - sum(row))
        rows.append(row)
    labels = draw(st.lists(st.integers(0, 7), min_size=len(rows), max_size=len(rows)))
    return PredictionTrack("v", np.array(labels, np.int64), np.array(rows).reshape(-1, 8))


@given(track=prediction_tracks())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_written_bytes_equal_the_row_wise_writer(tmp_path, track):
    path = tmp_path / "v.csv"
    write_predictions(track, str(path))
    assert path.read_bytes() == ref.prediction_csv_bytes(track)


def g9_text(values):
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in _format_g9(np.asarray(values, np.float64))]


def g9_sweep():
    """Zeros, the smallest subnormal and normal, every power of two, the doubles
    1 ulp either side of every power of ten, random 9-digit decimals, the
    doubles nearest their decimal midpoints and exact binary midpoints; each
    with both signs."""
    rng = np.random.default_rng(24)
    pow10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    sig = rng.integers(10 ** 8, 10 ** 9, 3000)
    exp = rng.integers(-300, 300, 3000)
    values = np.concatenate([
        [0.0, 5e-324, 2.2250738585072014e-308],
        np.ldexp(1.0, np.arange(-1074, 1024)),
        pow10, np.nextafter(pow10, np.inf), np.nextafter(pow10, 0.0),
        [float(f"{s}e{e}") for s, e in zip(sig.tolist(), exp.tolist())],
        [float(f"{s}5e{e}") for s, e in zip(sig.tolist(), exp.tolist())],
        sig + 0.5, (10 * sig + 5) * 10.0 ** rng.integers(0, 6, sig.size),  # exact ties
    ])
    return np.concatenate([values, -values])


def test_formatter_matches_percent_g_on_the_sweep():
    values = g9_sweep()
    assert g9_text(values) == ["%.9g" % v for v in values.tolist()]


@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=40))
@settings(max_examples=300, deadline=None)
def test_formatter_matches_percent_g_on_any_finite_float(values):
    assert g9_text(values) == ["%.9g" % v for v in values]


def test_long_track_bytes_equal_the_row_wise_writer(tmp_path):
    # 100,000 rows: frame indices up to 6 digits; one-hot rows mixed in
    rng = np.random.default_rng(25)
    probs = rng.dirichlet(np.full(8, 0.3), size=100_000)
    hot = rng.random(len(probs)) < 0.1
    probs[hot] = np.eye(8)[rng.integers(0, 8, hot.sum())]
    track = PredictionTrack.from_probs("long", probs)
    path = tmp_path / "long.csv"
    write_predictions(track, str(path))
    assert path.read_bytes() == ref.prediction_csv_bytes(track)


_HEADER = ",".join(PREDICTION_HEADER).encode()
_ROW1 = b"1,0,0.3,0.1,0.1,0.1,0.1,0.1,0.1,0.1"
_ROW2 = b"2,1,0.1,0.3,0.1,0.1,0.1,0.1,0.1,0.1"


@pytest.mark.parametrize("data, expected", [
    (_HEADER + b'\n"1","0","0.3",0.1,0.1,0.1,0.1,0.1,0.1,"0.1"\n', 1),
    (b"\r\n".join([_HEADER, _ROW1, _ROW2, b""]), 2),
    (b"\n".join([_HEADER, _ROW1, _ROW2, b"", b"", b""]), 2),
    (b"\n".join([_HEADER, _ROW1, b"", _ROW2, b""]), "line 4: frame index 2, expected 3"),
    (_HEADER + b"\n1,99999999999999999999,0,0,0,0,0,0,0,1\n", "too large"),
    (_HEADER + b"\n", 0),
    (_HEADER + b"\n\n", 0),
    (b"\n".join([_HEADER, _ROW1, b"2,x" + _ROW2[3:]] + [_ROW2] * 2000 + [b"\xff"]),
     "line 3: malformed row"),
    (b"\n".join([_HEADER, b"3" + _ROW1[1:], b"2,1", b""]), "line 2: frame index 3, expected 1"),
    (b"\n".join([_HEADER, _ROW1, b"2,1", b"9" + _ROW2[1:], b""]), "line 3: expected 10 fields"),
    (b"\n".join([_HEADER, _ROW1, b"3,x" + _ROW2[3:], b"2,1", b""]), "line 3: malformed row"),
    (b"\n".join([_HEADER, b"+1,1_0" + _ROW1[3:], b""]), "outside 0..7"),
    (b"\n".join([_HEADER, b"+1, 1" + _ROW1[3:], b" 2" + _ROW2[1:], b""]), 2),
    (b"\n".join([_HEADER, _ROW1, b"9223372036854775808" + _ROW2[1:], b""]),
     "line 3: frame index 9223372036854775808, expected 2"),
    (b"\n".join([_HEADER, b"-9223372036854775809" + _ROW1[1:], b""]),
     "line 2: frame index -9223372036854775809, expected 1"),
    (b"\n".join([_HEADER, _ROW1, b"2,9223372036854775808" + _ROW2[3:], b""]), "too large"),
    (b"\n".join([_HEADER, b"1,-1" + _ROW1[3:], b"2,-9223372036854775809" + _ROW2[3:], b""]),
     "too large"),
], ids=["quoted-fields", "crlf", "trailing-blank-lines", "blank-line-mid-file",
        "label-past-int64", "empty-track", "empty-track-blank-line",
        "fault-before-a-later-undecodable-byte", "rule-fault-before-a-later-field-count",
        "field-count-before-a-later-rule-fault", "conversion-fault-before-a-later-rule-fault",
        "plus-sign-and-underscore", "plus-sign-and-space-accepted", "frame-past-int64",
        "frame-below-int64", "label-past-int64-in-uint64", "label-below-int64-beside-minus-1"])
def test_reader_matches_the_row_wise_reader(tmp_path, data, expected):
    path = tmp_path / "v.csv"
    path.write_bytes(data)
    outcome = ref.read_outcome(read_predictions, path)
    assert outcome == ref.read_outcome(ref.read_predictions, path)
    if isinstance(expected, str):
        assert expected in outcome
    else:
        assert read_predictions(str(path)).n_frames == expected


def test_import_builds_no_formatter_table():
    """The ``%.9g`` tables are built on the first write, not at import, so a
    process that writes no prediction file does not hold them."""
    code = ("import numpy as np, mmexpr.ensemble as e\n"
            "print(sorted(k for k, v in vars(e).items() if isinstance(v, np.ndarray)),\n"
            "      e._g9_tables.cache_info().currsize)\n")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "0"]
