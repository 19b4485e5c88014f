"""Binary-classification metrics: confusion counts, threshold rates, and
rank-based AUROC with midrank tie handling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import ValidationError


class UndefinedMetricError(ValueError):
    """Metric has no value on this input (e.g. AUROC with one class)."""


@dataclass
class MetricsReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auroc: Optional[float]
    n: int


def confusion(scores: Sequence[tuple[float, int]], threshold: float = 0.5
              ) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) of predictions ``prob >= threshold``."""
    tp = fp = tn = fn = 0
    for prob, label in scores:
        if not 0.0 <= prob <= 1.0:
            raise ValidationError(f"probability {prob} outside [0, 1]")
        pred = prob >= threshold
        if pred and label == 1:
            tp += 1
        elif pred and label == 0:
            fp += 1
        elif not pred and label == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def rates(tp: int, fp: int, tn: int, fn: int) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1).

    Zero-denominator convention: precision is 0 when nothing is predicted
    positive, recall is 0 when nothing is positive, f1 is 0 when both
    vanish.
    """
    n = tp + fp + tn + fn
    if n < 1:
        raise ValidationError("rates need at least one sample")
    accuracy = (tp + tn) / n
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return accuracy, precision, recall, f1


def auroc(scores: Sequence[tuple[float, int]]) -> float:
    """Rank-statistic AUROC: probability a positive outranks a negative,
    ties counted one half (midranks)."""
    s = np.array([p for p, _ in scores], dtype=np.float64)
    y = np.array([l for _, l in scores], dtype=np.int64)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both a positive and a negative sample")

    # 1-based midrank: halfway between the first and last rank of each tie run
    ordered = np.sort(s)
    ranks = (np.searchsorted(ordered, s, "left") + np.searchsorted(ordered, s, "right") + 1) / 2.0
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def report(scores: Sequence[tuple[float, int]], threshold: float = 0.5) -> MetricsReport:
    """Full report; AUROC is absent (None) when undefined."""
    tp, fp, tn, fn = confusion(scores, threshold)
    accuracy, precision, recall, f1 = rates(tp, fp, tn, fn)
    try:
        auc = auroc(scores)
    except UndefinedMetricError:
        auc = None
    return MetricsReport(tp=tp, fp=fp, tn=tn, fn=fn, accuracy=accuracy,
                         precision=precision, recall=recall, f1=f1,
                         auroc=auc, n=tp + fp + tn + fn)
