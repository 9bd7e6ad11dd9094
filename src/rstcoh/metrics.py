"""Confusion-matrix metrics, majority baselines, and confidence intervals.

Both macro F1 (unweighted class mean) and weighted F1 (support-weighted
class mean) are always computed and emitted, so the choice of averaging is
visible in every report.
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
class ConfusionMatrix:
    """3x3 counts; rows are true classes, columns predicted classes."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.shape != (3, 3) or (arr < 0).any():
            raise DataError(f"bad confusion matrix shape/values")
        self.counts = arr

    @classmethod
    def from_pairs(cls, true_labels: Sequence[int], predicted: Sequence[int]) -> "ConfusionMatrix":
        arr = np.zeros((3, 3), dtype=np.int64)
        for t, p in zip(true_labels, predicted, strict=True):
            if t not in CLASSES or p not in CLASSES:
                raise DataError(
                    f"label outside 1..3: true {t!r}, predicted {p!r}")
            arr[t - 1, p - 1] += 1
        return cls(arr)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


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


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def report(cm: ConfusionMatrix) -> EvaluationReport:
    """Accuracy, per-class P/R/F1 (0/0 := 0), macro and weighted F1."""
    total = cm.total
    if total == 0:
        raise DataError("confusion matrix is empty")
    counts = cm.counts
    precision, recall, f1, support = {}, {}, {}, {}
    for c in CLASSES:
        i = c - 1
        tp = float(counts[i, i])
        precision[c] = _safe_div(tp, float(counts[:, i].sum()))
        recall[c] = _safe_div(tp, float(counts[i, :].sum()))
        f1[c] = _safe_div(2 * precision[c] * recall[c], precision[c] + recall[c])
        support[c] = int(counts[i, :].sum())
    accuracy = float(np.trace(counts)) / total
    macro_f1 = sum(f1[c] for c in CLASSES) / len(CLASSES)
    weighted_f1 = sum(support[c] * f1[c] for c in CLASSES) / total
    return EvaluationReport(accuracy, precision, recall, f1, macro_f1,
                            weighted_f1, support, counts.tolist())


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
    cm = ConfusionMatrix.from_pairs(test_labels, [klass] * len(test_labels))
    return report(cm)


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
