"""Metric tests against hand tallies and the pair-counting AUROC oracle."""

import numpy as np
import pytest

from eegfs.autodiff import ValidationError
from eegfs.metrics import UndefinedMetricError, auroc, confusion, rates, report
from _oracles import auroc_midrank_loop, auroc_pair_count


class TestConfusion:
    def test_perfect_separation(self):
        scores = [(0.9, 1), (0.8, 1), (0.1, 0), (0.2, 0)]
        assert confusion(*zip(*scores)) == (2, 0, 2, 0)

    def test_all_predicted_positive(self):
        scores = [(0.9, 1), (0.8, 0), (0.7, 1), (0.6, 0)]
        tp, fp, tn, fn = confusion(*zip(*scores))
        _, precision, recall, _ = rates(tp, fp, tn, fn)
        assert recall == 1.0 and precision == 0.5

    def test_hand_tally(self):
        rng = np.random.default_rng(0)
        scores = [(float(rng.uniform()), int(rng.integers(0, 2))) for _ in range(20)]
        tp = sum(1 for p, y in scores if p >= 0.5 and y == 1)
        fp = sum(1 for p, y in scores if p >= 0.5 and y == 0)
        tn = sum(1 for p, y in scores if p < 0.5 and y == 0)
        fn = sum(1 for p, y in scores if p < 0.5 and y == 1)
        assert confusion(*zip(*scores)) == (tp, fp, tn, fn)

    def test_threshold_is_inclusive(self):
        assert confusion([0.5], [1]) == (1, 0, 0, 0)

    @pytest.mark.parametrize("prob", [-0.1, 1.5, float("nan")])
    def test_first_probability_outside_unit_interval_named(self, prob):
        with pytest.raises(ValidationError, match=rf"^probability {prob} outside \[0, 1\]$"):
            confusion([0.3, prob, 2.0], [0, 1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="probabilities for"):
            confusion([0.2, 0.7], [1])


# the first label that is neither 0 nor 1, as the error names it
_NON_BINARY_LABELS = [([2, 0, 1], "2"), ([0.5, 1.0], "0.5"), ([1, float("nan")], "nan"),
                      ([0, -1], "-1")]


class TestNonBinaryLabels:
    @pytest.mark.parametrize("labels, first", _NON_BINARY_LABELS)
    @pytest.mark.parametrize("fn", [confusion, auroc, report])
    def test_rejected_and_named(self, fn, labels, first):
        probs = np.linspace(0.2, 0.9, len(labels))
        with pytest.raises(ValidationError, match=rf"^label {first} is not 0 or 1$"):
            fn(probs, np.array(labels))

    def test_boolean_mask_counts_as_labels(self):
        scores = np.array([0.9, 0.2, 0.7, 0.4])
        mask = np.array([True, False, False, True])
        assert confusion(scores, mask) == confusion(scores, mask.astype(int)) == (1, 1, 1, 1)
        assert auroc(scores, mask) == auroc(scores, mask.astype(int)) == 0.75

    def test_float_zero_one_labels_accepted(self):
        assert report([0.9, 0.2], np.array([1.0, 0.0])) == report([0.9, 0.2], [1, 0])


class TestRates:
    def test_all_correct(self):
        assert rates(5, 0, 5, 0) == (1.0, 1.0, 1.0, 1.0)

    def test_zero_denominator_conventions(self):
        accuracy, precision, recall, f1 = rates(0, 0, 5, 5)
        assert (accuracy, precision, recall, f1) == (0.5, 0.0, 0.0, 0.0)

    def test_mixed_counts(self):
        accuracy, precision, recall, f1 = rates(8, 2, 6, 4)
        assert precision == pytest.approx(0.8)
        assert recall == pytest.approx(2 / 3)
        assert f1 == pytest.approx(8 / 11)
        assert accuracy == pytest.approx(0.7)

    def test_outputs_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            tp, fp, tn, fn = rng.integers(0, 10, size=4)
            if tp + fp + tn + fn == 0:
                continue
            for v in rates(int(tp), int(fp), int(tn), int(fn)):
                assert 0.0 <= v <= 1.0


class TestAuroc:
    def test_perfect_ordering(self):
        scores = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
        assert auroc(*zip(*scores)) == 1.0

    def test_all_identical_scores(self):
        scores = [(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]
        assert auroc(*zip(*scores)) == 0.5

    def test_against_pair_count_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(5, 30))
            scores = [(float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])),
                       int(rng.integers(0, 2))) for _ in range(n)]
            labels = [y for _, y in scores]
            if len(set(labels)) < 2:
                continue
            got = auroc(*zip(*scores))
            want = auroc_pair_count([p for p, _ in scores], labels)
            assert abs(got - want) < 1e-12

    def test_bit_identical_to_midrank_loop(self):
        rng = np.random.default_rng(3)
        for trial in range(2000):
            n = int(rng.integers(2, 60))
            levels = int(rng.integers(1, 12))
            probs = (rng.integers(0, levels, n) / max(levels - 1, 1) if trial % 2
                     else rng.random(n))
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 0, 1
            assert auroc(probs, labels) == auroc_midrank_loop(probs, labels)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.3, 0.9], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 20))
            probs = rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            base = auroc(probs, labels)
            warped = auroc(1 / (1 + np.exp(-5 * probs)), labels)
            assert abs(base - warped) < 1e-12

    def test_label_flip_complements(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 20))
            probs = rng.uniform(size=n)  # continuous, ties improbable
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            a = auroc(probs, labels)
            b = auroc(probs, 1 - labels)
            assert abs(a + b - 1.0) < 1e-12


class TestReport:
    def test_fields_consistent(self):
        rng = np.random.default_rng(5)
        scores = [(float(rng.uniform()), int(rng.integers(0, 2))) for _ in range(30)]
        r = report(*zip(*scores))
        assert r.tp + r.fp + r.tn + r.fn == r.n == 30
        assert 0.0 <= r.accuracy <= 1.0

    def test_auroc_absent_on_single_class(self):
        r = report([0.8, 0.6], [1, 1])
        assert r.auroc is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            report([], [])
