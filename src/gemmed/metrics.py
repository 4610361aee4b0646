"""Evaluation metrics: error rates, anomaly precision-recall, detection accuracy.

Anomaly scores are the trained indicator means, so LOW scores flag
anomalies. At a cutoff rho the flagged set is {n : score_n <= rho};
precision is the anomalous fraction of that set (1 when it is empty)
and recall the flagged fraction of the true anomalies.
"""

from __future__ import annotations

import numpy as np


def misclassification_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValueError("predictions and truth must be nonempty and aligned")
    return float(np.mean(predicted != truth))


def precision_recall_curve(scores: np.ndarray, is_anomaly: np.ndarray) -> np.ndarray:
    """Sweep cutoffs over the scores; rows are (rho, precision, recall).

    Cutoffs are the distinct score values plus the endpoints 0 and 1.
    Requires scores in [0, 1] and at least one true anomaly.
    """
    scores = np.asarray(scores, dtype=float)
    is_anomaly = np.asarray(is_anomaly).astype(bool)
    if scores.shape != is_anomaly.shape or scores.size == 0:
        raise ValueError("scores and anomaly flags must be nonempty and aligned")
    if not np.all((scores >= 0) & (scores <= 1)):  # NaN fails too
        raise ValueError("scores must lie in [0, 1]")
    n_anom = int(is_anomaly.sum())
    if n_anom == 0:
        raise ValueError("ground truth contains no anomalies")
    cutoffs = np.unique(np.concatenate([scores, [0.0, 1.0]]))
    # counts of scores <= rho: all of them, and the anomalous ones
    flagged = np.searchsorted(np.sort(scores), cutoffs, side="right")
    hits = np.searchsorted(np.sort(scores[is_anomaly]), cutoffs, side="right")
    precision = np.where(flagged > 0, hits / np.maximum(flagged, 1), 1.0)
    return np.column_stack([cutoffs, precision, hits / n_anom])


def auc(curve: np.ndarray) -> float:
    """Trapezoidal area of precision over recall, clamped to [0, 1].

    When no cutoff achieves zero recall (some score sits exactly at the
    lowest cutoff) the curve is anchored at recall 0 with precision 1,
    so the left edge is never silently dropped.
    """
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 2 or curve.shape[1] != 3 or curve.shape[0] < 2:
        raise ValueError("curve must have at least two (rho, precision, recall) rows")
    order = np.argsort(curve[:, 2], kind="stable")
    precision = curve[order, 1]
    recall = curve[order, 2]
    if recall[0] > 0:
        precision = np.concatenate([[1.0], precision])
        recall = np.concatenate([[0.0], recall])
    area = float(np.trapezoid(precision, recall))
    return float(np.clip(area, 0.0, 1.0))


def detection_accuracy(called: np.ndarray, truth: np.ndarray) -> float:
    called = np.asarray(called).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if called.shape != truth.shape or called.size == 0:
        raise ValueError("calls and truth must be nonempty and aligned")
    return float(np.mean(called == truth))
