"""Bipartite k-NN anomaly statistics.

Each class is split into an evaluation part and a reference part. A
sample's anomaly statistic d_n is the sum of its k smallest Euclidean
distances into the same-class reference part (reference members score
against the reference part minus themselves). Low d_n means the sample
sits in a high-density region of its class.

Per-class coverage targets turn these statistics into constraint
levels: keeping the K_z lowest-d_n samples of class z (the GEM-ME
set), where K_z = max(1, round(coverage * |class z|)), gives the
minimal total statistic L_z; gamma_z = (L_z + eps) / n is the budget the trainer holds the
eta-weighted statistic sum to, and beta_z = coverage * |class z| / n
is the matching floor on the eta-weighted sample fraction. All
quantities fed to the trainer are expressed in 1/n units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import CLASSES, LabeledDataset, check_integers, check_real, check_reals, \
    class_index


@dataclass(frozen=True)
class GemConfig:
    """Knobs for the bipartite k-NN statistics and the detector.

    Attributes
    ----------
    k : int
        Neighbor count for distance sums (detector and statistics).
    partition_ratio : float
        Fraction of each class assigned to the reference part.
    target_coverage : float
        Expected nominal fraction per class; sets K_z, gamma_z, beta_z.
        Use 1 - (expected corruption rate).
    epsilon_gamma : float
        Slack added to the minimal statistic sum before normalization,
        so the all-nominal configuration is strictly feasible.
    alpha : float
        False-alarm level for the leave-one-out detection threshold.
    seed : int
        Seed for the per-class partition draws.
    """

    k: int = 5
    partition_ratio: float = 0.3
    target_coverage: float = 0.8
    epsilon_gamma: float = 1e-3
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_integers(self, k=1, seed=0)
        check_reals(self, partition_ratio="(0, 1)", target_coverage="(0, 1]",
                    epsilon_gamma="(0, inf)", alpha="(0, 1)")


def check_detector(theta: float, k: int, references: int, what: str, **levels) -> None:
    """Refuse a k-NN detector unless k and its levels (alpha, target_coverage)
    pass GemConfig's checks, theta lies in [0, inf), and its reference set,
    references points named what, holds at least k."""
    GemConfig(k=k, **levels)
    check_real("theta", theta, "[0, inf)")
    if references < k:
        raise ValueError(f"k={k} exceeds the {references} point(s) of the {what}")


@dataclass(frozen=True)
class GemStats:
    """Per-sample statistics plus per-class constraint levels.

    d_raw holds plain distance sums and d_tilde the same in 1/n units.
    gamma_hat and beta_hat are arrays indexed by class slot (0 for
    label -1, 1 for label +1). kept holds the sorted sample indices of
    the GEM-ME set: the K_z lowest-statistic samples of each class.
    """

    d_raw: np.ndarray
    d_tilde: np.ndarray
    gamma_hat: np.ndarray
    beta_hat: np.ndarray
    kept: np.ndarray


def bipartite_partition(dataset: LabeledDataset, label: int, ratio: float,
                        seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split one class into (evaluation part, reference part).

    The reference part gets floor(ratio * class size) members, at least
    one; the draw is uniform without replacement and deterministic in
    (seed, label). Classes with fewer than two samples cannot be split.
    """
    idx = dataset.class_indices(label)
    size = idx.size
    if size < 2:
        raise ValueError(f"class {label} has {size} sample(s); need at least 2")
    m = max(1, int(math.floor(ratio * size)))
    if m >= size:
        m = size - 1
    rng = np.random.default_rng([seed, class_index(label)])
    perm = rng.permutation(size)
    ref = np.sort(idx[perm[:m]])
    ev = np.sort(idx[perm[m:]])
    return ev, ref


def _nearest(refs: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Ascending distances from each query row to its k nearest rows of refs."""
    for points, name in ((refs, "reference points"), (queries, "queries")):
        if not np.isfinite(points).all():
            raise ValueError(f"{name} must be finite (no NaN or inf)")
    dist, _ = cKDTree(refs).query(queries, k=k)
    return dist.reshape(queries.shape[0], k)


def knn_distance_sum(x, refs: np.ndarray, k: int) -> np.ndarray:
    """Sum of the k smallest Euclidean distances from queries to the rows of refs.

    A 2-D x holds one query per row and a 1-D x is one query; the result
    holds one sum per query row. One KD-tree query (Friedman, Bentley &
    Finkel 1977) finds each query's k nearest rows of refs in ascending
    order, in O(m + q·k) memory for m rows and q queries. Up to width 7
    the tree adds the squared coordinate differences in order, so each
    sum is ``np.sort(np.linalg.norm(refs - q, axis=1))[:k].sum()`` bit for
    bit; from width 8 on it adds them four ways and NumPy pairwise, a few
    ulps apart. NaN or inf in queries or refs raises ValueError.
    """
    refs = np.atleast_2d(np.asarray(refs, dtype=float))
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"queries must be 1-D or 2-D, got {x.ndim}-D")
    queries = np.atleast_2d(x)
    if queries.shape[1] != refs.shape[1]:
        raise ValueError(
            f"queries have {queries.shape[1]} feature column(s) but the "
            f"reference points have {refs.shape[1]}")
    if k < 1:
        raise ValueError("k must be at least 1")
    if refs.shape[0] < k:
        raise ValueError(f"need at least k={k} reference points, got {refs.shape[0]}")
    return _nearest(refs, queries, k).sum(axis=1)


def gem_me_set(d_values: np.ndarray, k_keep: int) -> np.ndarray:
    """Indices of the k_keep smallest values; ties go to the lower index."""
    d_values = np.asarray(d_values, dtype=float)
    if not 0 < k_keep <= d_values.size:
        raise ValueError(f"k_keep must lie in [1, {d_values.size}]")
    order = np.argsort(d_values, kind="stable")
    return order[:k_keep]


def loo_threshold(points: np.ndarray, k: int, alpha: float) -> float:
    """(1 - alpha) quantile of leave-one-out k-NN distance sums.

    Each point is scored against the remaining points (see loo_scores);
    the quantile is linearly interpolated. Needs at least k + 1 points.
    """
    check_real("alpha", alpha, "(0, 1)")
    return float(np.quantile(loo_scores(points, k), 1.0 - alpha, method="linear"))


def loo_scores(points: np.ndarray, k: int) -> np.ndarray:
    """Leave-one-out k-NN distance sums for each point, added in sorted order.

    Of each point's k + 1 nearest points, as in knn_distance_sum, the
    first is dropped: itself, or a duplicate also at distance 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = points.shape[0]
    if m < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points, got {m}")
    return _nearest(points, points, k + 1)[:, 1:].sum(axis=1)


def compute_gem_stats(dataset: LabeledDataset, config: GemConfig) -> GemStats:
    """Partition each class, score every sample, derive constraint levels.

    Evaluation-part members score against the full reference part;
    reference members score against the reference part minus
    themselves, so every training sample carries a statistic. Raises
    ValueError when a distance sum overflows.
    """
    n = dataset.n
    d_raw = np.zeros(n)
    gamma = np.zeros(2)
    beta = np.zeros(2)
    kept: list[np.ndarray] = []

    for label in CLASSES:
        slot = class_index(label)
        ev, ref = bipartite_partition(dataset, label, config.partition_ratio,
                                      config.seed)
        if ref.size <= config.k:
            raise ValueError(
                f"class {label}: reference part has {ref.size} points but k="
                f"{config.k}; raise partition_ratio or lower k"
            )
        refs = dataset.x[ref]
        d_raw[ev] = knn_distance_sum(dataset.x[ev], refs, config.k)
        d_raw[ref] = loo_scores(refs, config.k)

        cls_idx = dataset.class_indices(label)
        size = cls_idx.size
        kz = max(1, int(round(config.target_coverage * size)))  # <= size
        keep = cls_idx[gem_me_set(d_raw[cls_idx], kz)]
        kept.append(keep)
        # summed in ascending-statistic order, before the indices are sorted
        gamma[slot] = (d_raw[keep].sum() + config.epsilon_gamma) / n
        beta[slot] = config.target_coverage * size / n

    if not np.isfinite(d_raw).all():
        raise ValueError("k-NN statistics are not finite; rescale the features")
    return GemStats(d_raw=d_raw, d_tilde=d_raw / n, gamma_hat=gamma,
                    beta_hat=beta, kept=np.sort(np.concatenate(kept)))
