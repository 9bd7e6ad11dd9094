"""Confusion-matrix metrics, majority baselines, and confidence intervals.

``report(true_labels, predicted)`` is the one entry point for a model's or
a baseline's figures; it counts the confusion matrix itself. Both macro F1
(unweighted class mean) and weighted F1 (support-weighted class mean) are
always computed and emitted, so the choice of averaging is visible in every
report.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

CLASSES = (1, 2, 3)  # coherence classes: 1 = incoherent, 2 = neutral, 3 = coherent

Z_95 = 1.96  # two-sided normal 95% quantile


@dataclass
class EvaluationReport:
    accuracy: float
    precision: dict[int, float]
    recall: dict[int, float]
    f1: dict[int, float]
    macro_f1: float
    weighted_f1: float
    support: dict[int, int]
    confusion: list[list[int]]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": {str(c): self.precision[c] for c in CLASSES},
            "recall": {str(c): self.recall[c] for c in CLASSES},
            "f1": {str(c): self.f1[c] for c in CLASSES},
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "support": {str(c): self.support[c] for c in CLASSES},
            "confusion": self.confusion,
        }


CSV_HEADER = ("accuracy,precision_1,precision_2,precision_3,"
              "recall_1,recall_2,recall_3,f1_1,f1_2,f1_3,"
              "macro_f1,weighted_f1,support_1,support_2,support_3")


def csv_row(rep: EvaluationReport) -> str:
    vals = [rep.accuracy]
    vals += [rep.precision[c] for c in CLASSES]
    vals += [rep.recall[c] for c in CLASSES]
    vals += [rep.f1[c] for c in CLASSES]
    vals += [rep.macro_f1, rep.weighted_f1]
    cells = [f"{v:.6f}" for v in vals] + [str(rep.support[c]) for c in CLASSES]
    return ",".join(cells)


def report(true_labels: Sequence[int], predicted: Sequence[int]) -> EvaluationReport:
    """Accuracy, per-class P/R/F1 (0/0 := 0), macro and weighted F1 of
    ``predicted`` against ``true_labels``, from their 3x3 confusion matrix
    (rows true classes, columns predicted classes)."""
    true, pred = np.asarray(true_labels), np.asarray(predicted)
    if true.shape != pred.shape:
        raise DataError(f"{len(true_labels)} true labels against "
                        f"{len(predicted)} predicted labels")
    if not len(true):
        raise DataError("no labels to evaluate")
    outside = ~(np.isin(true, CLASSES) & np.isin(pred, CLASSES))
    if outside.any():
        k = int(np.argmax(outside))
        raise DataError(f"label outside 1..3: true {true_labels[k]!r}, "
                        f"predicted {predicted[k]!r}")
    counts = np.bincount(3 * true.astype(np.intp) + pred.astype(np.intp) - 4,
                         minlength=9).reshape(3, 3)
    tp = np.diag(counts).astype(float)
    support, n_predicted = counts.sum(axis=1), counts.sum(axis=0)
    precision = np.divide(tp, n_predicted, out=np.zeros(3), where=n_predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(3), where=support > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros(3), where=pr_sum > 0)
    total = len(true)
    accuracy = float(tp.sum()) / total
    # Python's sum adds the classes in order, the order the figures' bits are
    # pinned to (tests/oracles.reference_report)
    macro_f1 = sum(f1.tolist()) / len(CLASSES)
    weighted_f1 = sum((support * f1).tolist()) / total
    return EvaluationReport(accuracy, dict(zip(CLASSES, precision.tolist())),
                            dict(zip(CLASSES, recall.tolist())),
                            dict(zip(CLASSES, f1.tolist())), macro_f1, weighted_f1,
                            dict(zip(CLASSES, support.tolist())), counts.tolist())


def majority_baseline(policy: str, train_labels: Sequence[int],
                      test_labels: Sequence[int]) -> EvaluationReport:
    """Constant predictor evaluated on the test labels.

    ``fixed:K`` always predicts class K; ``train-argmax`` predicts the most
    frequent training class (ties break to the lowest class index).
    """
    if not test_labels:
        raise DataError("empty test set")
    if policy.startswith("fixed:"):
        try:
            klass = int(policy.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad majority policy {policy!r}") from None
        if klass not in CLASSES:
            raise ConfigError(f"bad majority policy {policy!r}")
    elif policy == "train-argmax":
        if not train_labels:
            raise ConfigError("train-argmax policy needs training labels")
        counts = {c: 0 for c in CLASSES}
        for lab in train_labels:
            counts[lab] += 1
        klass = max(CLASSES, key=lambda c: (counts[c], -c))
    else:
        raise ConfigError(f"unknown majority policy {policy!r}")
    return report(test_labels, [klass] * len(test_labels))


def confidence_interval(values: Sequence[float]) -> tuple[float, float]:
    """(mean, halfwidth) with halfwidth = 1.96 * sample std / sqrt(n);
    a single value has halfwidth 0 by convention."""
    if len(values) == 0:
        raise DataError("no values to aggregate")
    mean = statistics.fmean(values)
    if len(values) == 1:
        return mean, 0.0
    std = statistics.stdev(values)
    return mean, Z_95 * std / math.sqrt(len(values))
