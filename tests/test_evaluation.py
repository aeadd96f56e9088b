"""Evaluation: confusion tallies and the fixed-denominator macro F1."""

import numpy as np
import pytest

from mmexpr.errors import ShapeError
from mmexpr.evaluation import confusion, evaluate_tracks, macro_f1

from tests import _reference as ref


class TestConfusion:
    def test_diagonal_tally(self):
        cm = confusion([0, 1], [0, 1])
        assert cm[0, 0] == 1 and cm[1, 1] == 1
        assert cm.sum() == 2

    def test_all_masked_gives_zero_matrix(self):
        cm = confusion([0, 1, 2], [0, 0, 0], mask=[False, False, False])
        assert cm.shape == (8, 8) and cm.dtype == np.int64
        assert cm.sum() == 0
        np.testing.assert_array_equal(cm, 0)

    def test_mixed_tally(self):
        cm = confusion([0, 0, 1, 1, 2], [0, 1, 1, 1, 2])
        assert cm[0, 0] == 1
        assert cm[0, 1] == 1
        assert cm[1, 1] == 2
        assert cm[2, 2] == 1
        assert cm.sum() == 5

    def test_invalid_labels_excluded_by_default(self):
        cm = confusion([0, -1, 1], [0, 3, 1])
        assert cm.sum() == 2

    def test_prediction_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="prediction outside"):
            confusion([0, 1], [0, 8])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion([0, 1], [0, 1, 2])


class TestMacroF1:
    def test_perfect_alleight_classes(self):
        labels = np.repeat(np.arange(8), 3)
        report = macro_f1(confusion(labels, labels))
        assert report.macro_f1 == pytest.approx(1.0)
        assert report.per_class_f1 == [1.0] * 8

    def test_hand_derived_example(self):
        report = macro_f1(confusion([0, 0, 1, 1, 2], [0, 1, 1, 1, 2]))
        np.testing.assert_allclose(report.per_class_f1[:3], [2 / 3, 4 / 5, 1.0])
        assert report.per_class_f1[3:] == [0.0] * 5
        assert report.macro_f1 == pytest.approx(37 / 120)  # ~0.30833
        assert report.support == [2, 2, 1, 0, 0, 0, 0, 0]

    def test_empty_matrix_scores_zero(self):
        report = macro_f1(np.zeros((8, 8), np.int64))
        assert report.macro_f1 == 0.0

    def test_absent_classes_still_divide_by_eight(self):
        # one class predicted perfectly, everything else absent
        report = macro_f1(confusion([4, 4, 4], [4, 4, 4]))
        assert report.macro_f1 == pytest.approx(1.0 / 8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 8, 200)
        preds = rng.integers(0, 8, 200)
        base = macro_f1(confusion(labels, preds))
        perm = rng.permutation(200)
        shuffled = macro_f1(confusion(labels[perm], preds[perm]))
        assert shuffled.per_class_f1 == base.per_class_f1

    def test_relabeling_symmetry(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 8, 300)
        preds = rng.integers(0, 8, 300)
        relabel = rng.permutation(8)
        base = macro_f1(confusion(labels, preds))
        mapped = macro_f1(confusion(relabel[labels], relabel[preds]))
        assert mapped.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)
        for c in range(8):
            assert mapped.per_class_f1[relabel[c]] == pytest.approx(base.per_class_f1[c])

    def test_agrees_with_brute_force_on_random_tracks(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            classes_present = int(rng.integers(1, 9))
            labels = rng.integers(0, classes_present, n)
            preds = rng.integers(0, 8, n)
            mask = rng.random(n) < 0.9
            if not mask.any():
                mask[0] = True
            got = macro_f1(confusion(labels, preds, mask))
            want_scores, want_macro = ref.brute_force_macro_f1(labels, preds, mask)
            assert got.per_class_f1 == want_scores
            assert got.macro_f1 == want_macro


class TestEvaluateTracks:
    def test_across_videos(self):
        labels = {"a": np.array([0, 1, -1]), "b": np.array([2, 2])}
        preds = {"a": np.array([0, 1, 5]), "b": np.array([2, 3])}
        report = evaluate_tracks(labels, preds)
        cm = report.confusion
        assert cm.sum() == 4  # the -1 frame is excluded
        assert report.support == [1, 1, 2, 0, 0, 0, 0, 0]

    def test_missing_video_rejected(self):
        with pytest.raises(KeyError, match="no predictions"):
            evaluate_tracks({"a": np.array([0])}, {})

    def test_report_json_shape(self):
        report = evaluate_tracks({"a": np.array([0, 1])}, {"a": np.array([0, 1])})
        doc = report.to_json()
        assert set(doc) == {"macro_f1", "per_class_f1", "support", "confusion"}
        assert len(doc["per_class_f1"]) == 8
        assert len(doc["confusion"]) == 8
