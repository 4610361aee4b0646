import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemmed.metrics import (auc, detection_accuracy, misclassification_error,
                            precision_recall_curve)


def test_misclassification_error_frozen():
    pred = np.array([1, -1, 1, 1, -1])
    truth = np.array([1, 1, 1, -1, -1])
    assert misclassification_error(pred, truth) == pytest.approx(0.4)
    assert misclassification_error(truth, truth) == 0.0


def test_misclassification_error_validation():
    with pytest.raises(ValueError):
        misclassification_error(np.array([1]), np.array([1, -1]))
    with pytest.raises(ValueError):
        misclassification_error(np.array([]), np.array([]))


def test_curve_hand_computed():
    scores = np.array([0.1, 0.2, 0.5, 0.9])
    flags = np.array([True, False, True, False])
    curve = precision_recall_curve(scores, flags)
    # cutoffs 0, .1, .2, .5, .9, 1 in order
    expected = [
        (0.0, 1.0, 0.0),        # nothing flagged; precision defined as 1
        (0.1, 1.0, 0.5),
        (0.2, 0.5, 0.5),
        (0.5, 2.0 / 3.0, 1.0),
        (0.9, 0.5, 1.0),
        (1.0, 0.5, 1.0),
    ]
    assert curve.shape == (6, 3)
    np.testing.assert_allclose(curve, expected)
    assert auc(curve) == pytest.approx(19.0 / 24.0)


def test_curve_validation():
    with pytest.raises(ValueError, match="0, 1"):
        precision_recall_curve(np.array([1.2]), np.array([True]))
    with pytest.raises(ValueError, match="0, 1"):
        precision_recall_curve(np.array([0.5, np.nan]), np.array([True, False]))
    with pytest.raises(ValueError, match="no anomalies"):
        precision_recall_curve(np.array([0.5]), np.array([False]))
    with pytest.raises(ValueError, match="aligned"):
        precision_recall_curve(np.array([0.5]), np.array([True, False]))


def test_perfect_ranking_has_unit_area():
    scores = np.array([0.0, 0.05, 0.9, 0.95])
    flags = np.array([True, True, False, False])
    assert auc(precision_recall_curve(scores, flags)) == pytest.approx(1.0)


def test_all_anomalies_at_exact_zero_still_score_one():
    # scores of exactly 0 leave no cutoff with empty flagged set; the
    # recall-0 anchor keeps the area honest
    scores = np.array([0.0, 0.0, 1.0, 1.0])
    flags = np.array([True, True, False, False])
    assert auc(precision_recall_curve(scores, flags)) == pytest.approx(1.0)


def test_auc_validation():
    with pytest.raises(ValueError):
        auc(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        auc(np.zeros((4, 2)))


def test_detection_accuracy_frozen():
    called = np.array([True, False, True])
    truth = np.array([True, True, False])
    assert detection_accuracy(called, truth) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        detection_accuracy(np.array([], dtype=bool), np.array([], dtype=bool))


def _loop_curve(scores, is_anomaly):
    """The curve cutoff by cutoff: the reference for the vectorized one."""
    rows = []
    for rho in np.unique(np.concatenate([scores, [0.0, 1.0]])):
        flagged = scores <= rho
        hits = int(np.sum(flagged & is_anomaly))
        precision = hits / flagged.sum() if flagged.any() else 1.0
        rows.append((rho, precision, hits / int(is_anomaly.sum())))
    return np.array(rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 30))
def test_curve_properties(seed, n):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    flags = rng.random(n) < 0.4
    if not flags.any():
        flags[int(rng.integers(n))] = True
    curve = precision_recall_curve(scores, flags)
    recall = curve[:, 2]
    # recall can only grow as the cutoff rises
    assert np.all(np.diff(recall) >= -1e-12)
    assert recall[0] == 0.0 and recall[-1] == 1.0
    assert np.all((curve[:, 1] >= 0) & (curve[:, 1] <= 1))
    a = auc(curve)
    assert 0.0 <= a <= 1.0
    # bit for bit the loop's curve, also with ties and scores at 0 and 1
    tied = np.round(scores * 4) / 4
    for s in (scores, tied):
        assert (precision_recall_curve(s, flags).tobytes()
                == _loop_curve(s, flags).tobytes())
