"""Binary-classification metrics over arrays of positive-class
probabilities and 0/1 labels: confusion counts at ``prob >= 0.5``, the
rates they give, and rank-based AUROC with midrank tie handling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def _binary_labels(labels) -> np.ndarray:
    """``labels`` as an array; ValidationError unless each is 0 or 1 (booleans pass)."""
    y = np.asarray(labels)
    other = (y != 0) & (y != 1)  # NaN included
    if other.any():
        raise ValidationError(f"label {y[other].flat[0].item()!r} is not 0 or 1")
    return y


def confusion(probs: np.ndarray, labels: np.ndarray) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn), predicting positive where ``prob >= 0.5``."""
    p = np.asarray(probs, dtype=np.float64)
    y = _binary_labels(labels)
    if p.shape != y.shape:
        raise ValidationError(f"{p.shape} probabilities for {y.shape} labels")
    outside = ~((p >= 0.0) & (p <= 1.0))  # NaN included
    if outside.any():
        raise ValidationError(f"probability {float(p[outside][0])} outside [0, 1]")
    pred = p >= 0.5
    tp, fp, tn = (int(m.sum()) for m in (pred & (y == 1), pred & (y == 0), ~pred & (y == 0)))
    return tp, fp, tn, p.size - tp - fp - tn


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


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUROC: probability a positive outranks a negative,
    ties counted one half (midranks)."""
    s = np.asarray(scores, dtype=np.float64)
    y = _binary_labels(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both a positive and a negative sample")

    # 1-based midrank: halfway between the first and last rank of each tie run
    ordered = np.sort(s)
    ranks = (np.searchsorted(ordered, s, "left") + np.searchsorted(ordered, s, "right") + 1) / 2.0
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def report(probs: np.ndarray, labels: np.ndarray) -> MetricsReport:
    """Full report, counted at ``prob >= 0.5``; AUROC is None when undefined."""
    tp, fp, tn, fn = confusion(probs, labels)
    try:
        auc = auroc(probs, labels)
    except UndefinedMetricError:
        auc = None
    return MetricsReport(tp, fp, tn, fn, *rates(tp, fp, tn, fn), auroc=auc, n=tp + fp + tn + fn)
