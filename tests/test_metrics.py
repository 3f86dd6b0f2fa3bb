import numpy as np
import pytest

from fiberwatch.errors import ConfigurationError
from fiberwatch.metrics import (ConfusionMatrix, accuracy, confusion,
                                format_report, precision_f1)

# Row-normalized reference matrix for the 7-class recognizer
# (row = reference class, column = prediction, percent).
REFERENCE_PCT = np.array([
    [91.80,  3.96,  0.64,  0.14,  2.34,  0.42,  0.70],
    [13.78, 79.24,  5.38,  0.02,  1.14,  0.28,  0.16],
    [ 4.24,  3.34, 91.30,  0.14,  0.66,  0.00,  0.32],
    [ 2.36,  0.10,  0.28, 97.08,  0.12,  0.00,  0.06],
    [ 8.68,  0.38,  0.22,  0.00, 89.80,  0.28,  0.64],
    [ 3.34,  0.14,  0.02,  0.00,  0.30, 94.40,  1.80],
    [ 3.42,  0.12,  0.14,  0.00,  0.70,  0.82, 94.80],
])
REFERENCE_PRECISION = [71.93, 90.79, 93.18, 99.69, 94.47, 98.13, 96.26]
REFERENCE_F1 = [80.66, 84.62, 92.23, 98.37, 92.07, 96.23, 95.53]


class TestAccuracy:
    def test_all_correct(self):
        preds = np.eye(7)[[0, 1, 2, 3]]
        assert accuracy(preds, preds.copy()) == 1.0

    def test_three_of_four(self):
        labels = np.eye(7)[[0, 1, 2, 3]]
        preds = np.eye(7)[[0, 1, 2, 5]]
        assert accuracy(preds, labels) == 0.75

    def test_all_wrong(self):
        labels = np.eye(7)[[0, 1, 2, 3]]
        preds = np.eye(7)[[1, 2, 3, 4]]
        assert accuracy(preds, labels) == 0.0

    def test_self_comparison_is_one(self, rng):
        scores = rng.dirichlet(np.ones(7), size=50)
        assert accuracy(scores, scores) == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            accuracy(np.zeros((0, 7)), np.zeros((0, 7)))

    def test_integer_label_form(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)


class TestConfusion:
    def test_perfect_predictions_identity_percent(self):
        refs = np.repeat(np.arange(7), 5)
        cm = confusion(refs, refs)
        assert np.allclose(cm.percent, 100.0 * np.eye(7))

    def test_single_sample_off_diagonal(self):
        cm = confusion([5], [3])
        assert cm.counts[3, 5] == 1
        assert cm.percent[3, 5] == 100.0
        assert np.isnan(cm.percent[[0, 1, 2, 4, 5, 6]]).all()

    def test_absent_class_flagged_counts_valid(self):
        cm = confusion([0, 1], [0, 1])
        assert np.isnan(cm.percent[2:]).all() and np.isfinite(cm.percent[:2]).all()
        assert cm.counts.sum() == 2

    def test_rows_sum_to_100(self, rng):
        refs = rng.integers(0, 7, 5000)
        preds = rng.integers(0, 7, 5000)
        cm = confusion(preds, refs)
        assert np.allclose(cm.percent.sum(axis=1), 100.0, atol=0.01)

    def test_uniform_random_concentrates_near_one_seventh(self):
        rng = np.random.default_rng(78)
        refs = np.repeat(np.arange(7), 100_000 // 7)
        preds = rng.integers(0, 7, refs.shape[0])
        cm = confusion(preds, refs)
        assert np.all(np.abs(cm.percent - 100.0 / 7.0) < 0.5)


# The reference matrix as counts of 5000 frames per class; its rows are
# whole multiples of 0.02 %, so the counts reproduce it exactly.
REFERENCE_COUNTS = np.rint(REFERENCE_PCT * 50).astype(np.int64)


class TestPrecisionF1:
    def test_reference_matrix_reproduces_published_rows(self):
        report = precision_f1(ConfusionMatrix.from_counts(REFERENCE_COUNTS))
        for c in range(7):
            assert report.precision[c] == pytest.approx(REFERENCE_PRECISION[c], abs=0.02)
            assert report.f1[c] == pytest.approx(REFERENCE_F1[c], abs=0.02)

    def test_class_zero_values(self):
        # column 0 sums to 127.62 % of a class -> precision 71.93, F1 80.66
        report = precision_f1(ConfusionMatrix.from_counts(REFERENCE_COUNTS))
        assert report.precision[0] == pytest.approx(71.93, abs=0.02)
        assert report.f1[0] == pytest.approx(80.66, abs=0.02)

    def test_identity_matrix_all_100(self):
        report = precision_f1(ConfusionMatrix.from_counts(np.diag([3, 1, 4, 1, 5, 9, 2])))
        assert np.allclose(report.precision, 100.0)
        assert np.allclose(report.recall, 100.0)
        assert np.allclose(report.f1, 100.0)

    def test_unbalanced_counts_use_prediction_totals(self):
        # 90 frames of class 0, 10 of class 1; 9 of class 0 and 5 of class 1
        # are called the other class.
        refs = np.repeat([0, 1], [90, 10])
        preds = np.concatenate([np.repeat([0, 1], [81, 9]), np.repeat([0, 1], [5, 5])])
        report = precision_f1(confusion(preds, refs))
        assert report.recall[:2] == pytest.approx([90.0, 50.0])
        assert report.precision[:2] == pytest.approx([100 * 81 / 86, 100 * 5 / 14])
        p, r = 100 * 5 / 14, 50.0
        assert report.f1[1] == pytest.approx(2 * p * r / (p + r))

    def test_zero_column_reported_absent(self):
        counts = 7 * np.eye(7, dtype=np.int64)
        counts[6, 6] = 0
        counts[6, 0] = 7
        report = precision_f1(ConfusionMatrix.from_counts(counts))
        assert not np.isfinite(report.precision[6])
        assert report.f1[6] == 0.0

    def test_class_absent_from_references(self):
        # class 2 is predicted once but never the reference
        report = precision_f1(confusion([0, 1, 2], [0, 1, 1]))
        assert not np.isfinite(report.recall[2]) and report.precision[2] == 0.0
        assert report.f1[2] == 0.0 and not np.isfinite(report.precision[3])

    def test_report_serializes(self):
        cm = ConfusionMatrix.from_counts(REFERENCE_COUNTS)
        report = precision_f1(cm)
        report.accuracy = 0.912
        text = format_report(cm, report)
        assert "accuracy 0.9120" in text
        assert report.to_dict()["accuracy"] == 0.912
