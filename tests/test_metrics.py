from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from rstcoh.errors import ConfigError, DataError
from rstcoh.metrics import (CSV_HEADER, confidence_interval, csv_row, majority_baseline,
                            report)

# test-set class supports (incoherent, neutral, coherent) of the three
# email/answer benchmark subsets whose published majority-baseline rows the
# metrics must reproduce
SUPPORTS = {
    "clinton": (50, 38, 109),
    "enron": (59, 50, 87),
    "yahoo": (78, 41, 73),
}

# published (accuracy, weighted-F1) percentages for the always-class-3 baseline
MAJORITY_ROWS = {
    "clinton": (55.33, 39.42),
    "enron": (44.39, 27.29),
    "yahoo": (38.02, 20.95),
}


def labels_of(supports):
    """The test labels of a subset with these class supports."""
    return [klass for klass, n in zip((1, 2, 3), supports) for _ in range(n)]


def all_class3_report(supports):
    labels = labels_of(supports)
    return report(labels, [3] * len(labels))


PAIRS_ST = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=60)


class TestMajorityRowReproduction:
    @pytest.mark.parametrize("name", sorted(SUPPORTS))
    def test_accuracy_and_weighted_f1(self, name):
        rep = all_class3_report(SUPPORTS[name])
        want_acc, want_wf1 = MAJORITY_ROWS[name]
        assert rep.accuracy * 100 == pytest.approx(want_acc, abs=0.01)
        assert rep.weighted_f1 * 100 == pytest.approx(want_wf1, abs=0.01)

    def test_clinton_class3_f1_and_weighted_identity(self):
        rep = all_class3_report(SUPPORTS["clinton"])
        rate = 109 / 197
        assert rep.f1[3] == pytest.approx(2 * rate / (1 + rate), abs=1e-12)
        assert rep.f1[3] == pytest.approx(0.7124, abs=5e-5)
        assert rep.weighted_f1 == pytest.approx(rate * rep.f1[3], abs=1e-12)
        assert rep.weighted_f1 == pytest.approx(0.3942, abs=5e-5)


class TestReport:
    def test_perfect_diagonal(self):
        labels = labels_of((5, 7, 11))
        rep = report(labels, labels)
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0
        assert rep.weighted_f1 == 1.0

    def test_zero_division_defined_as_zero(self):
        rep = all_class3_report((3, 2, 5))
        assert rep.precision[1] == rep.recall[1] == rep.f1[1] == 0.0
        assert rep.precision[2] == rep.recall[2] == rep.f1[2] == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            report([], [])

    def test_labels_of_different_lengths_rejected(self):
        for true_labels, predicted in (([1, 2], [1]), ([1], [1, 2]), ([], [3])):
            with pytest.raises(DataError):
                report(true_labels, predicted)

    @given(PAIRS_ST)
    # class 2 has no support, class 1 is never predicted, one class only
    @example([(1, 3), (3, 3), (3, 2)])
    @example([(2, 2)] * 4)
    def test_figures_equal_the_per_class_formulas(self, pairs):
        true_labels = [t for t, _ in pairs]
        predicted = [p for _, p in pairs]
        counts = np.zeros((3, 3), dtype=np.int64)
        for t, p in pairs:
            counts[t - 1, p - 1] += 1
        rep = report(true_labels, predicted).to_dict()
        assert rep == oracles.reference_report(counts).to_dict()
        assert all(type(v) is float for key in ("precision", "recall", "f1")
                   for v in rep[key].values())

    @given(PAIRS_ST)
    def test_accuracy_equals_support_weighted_recall(self, pairs):
        true_labels = [t for t, _ in pairs]
        predicted = [p for _, p in pairs]
        rep = report(true_labels, predicted)
        weighted_recall = sum(rep.support[c] * rep.recall[c] for c in (1, 2, 3))
        assert rep.accuracy == pytest.approx(weighted_recall / len(pairs), abs=1e-12)

    @given(PAIRS_ST, st.randoms(use_true_random=False))
    def test_evaluation_order_is_irrelevant(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        a = report([t for t, _ in pairs], [p for _, p in pairs])
        b = report([t for t, _ in shuffled], [p for _, p in shuffled])
        assert a == b

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=60),
           st.integers(1, 3))
    def test_single_class_predictor_weighted_f1_identity(self, labels, klass):
        rep = report(labels, [klass] * len(labels))
        rate = labels.count(klass) / len(labels)
        assert rep.weighted_f1 == pytest.approx(rate * rep.f1[klass], abs=1e-12)

    def test_labels_outside_1_to_3_rejected(self):
        for true_labels, predicted in (([0, 1], [1, 0]), ([1], [4]), ([4], [1]),
                                       (["1"], [1]), ([1], [None])):
            with pytest.raises(DataError, match="label outside 1..3"):
                report(true_labels, predicted)

    def test_round_trips(self):
        rep = all_class3_report(SUPPORTS["enron"])
        assert len(csv_row(rep).split(",")) == len(CSV_HEADER.split(","))


class TestMajorityBaseline:
    def test_fixed3_on_yahoo(self):
        labels = [1] * 78 + [2] * 41 + [3] * 73
        rep = majority_baseline("fixed:3", [], labels)
        assert rep.accuracy == pytest.approx(73 / 192, abs=1e-12)
        assert rep.accuracy * 100 == pytest.approx(38.02, abs=0.01)
        # train-argmax would pick class 1 here and do better; the published
        # row matches fixed:3, not train-argmax
        argmax = majority_baseline("train-argmax", labels, labels)
        assert argmax.accuracy == pytest.approx(78 / 192, abs=1e-12)

    def test_train_argmax_tie_breaks_low(self):
        rep = majority_baseline("train-argmax", [1] * 10 + [2] * 10 + [3] * 10,
                                [1, 2, 3])
        assert rep.recall[1] == 1.0  # predicted class 1 everywhere

    def test_fixed3_on_all_threes(self):
        rep = majority_baseline("fixed:3", [], [3, 3, 3, 3])
        assert rep.accuracy == 1.0

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            majority_baseline("mode", [1], [1])
        with pytest.raises(ConfigError):
            majority_baseline("fixed:9", [1], [1])

    def test_empty_test_rejected(self):
        with pytest.raises(DataError):
            majority_baseline("fixed:3", [1], [])


class TestConfidenceInterval:
    def test_identical_values_zero_halfwidth(self):
        mean, hw = confidence_interval([0.7, 0.7, 0.7])
        assert mean == pytest.approx(0.7)
        assert hw == 0.0

    def test_single_value_zero_halfwidth(self):
        assert confidence_interval([0.42]) == (0.42, 0.0)

    def test_binary_case_hand_computed(self):
        mean, hw = confidence_interval([0.0, 1.0])
        assert mean == 0.5
        # sample std = sqrt(1/2); 1.96 * sqrt(1/2) / sqrt(2) = 0.98
        assert hw == pytest.approx(0.980, abs=1e-3)

    def test_thousand_run_band_magnitude(self):
        # inverting the formula: std 1.452 over n=1000 -> halfwidth 0.090
        rng = np.random.default_rng(0)
        values = rng.normal(50.0, 1.0, size=1000)
        values = 50.0 + (values - values.mean()) / values.std(ddof=1) * 1.452
        mean, hw = confidence_interval(values.tolist())
        assert hw == pytest.approx(1.96 * 1.452 / math.sqrt(1000), abs=1e-9)
        assert hw == pytest.approx(0.090, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            confidence_interval([])
