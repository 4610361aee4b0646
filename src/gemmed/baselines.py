"""Reference classifiers: soft-margin kernel SVM and a screen-then-fit pipeline.

The SVM dual here has box constraints only (no intercept, hence no
equality constraint), which exact coordinate ascent handles cleanly:

    maximize  sum_i a_i - (1/2) (a*y)' K (a*y)   s.t.  0 <= a_i <= C.

The two-stage baseline drops the highest-statistic fraction of each
class using the bipartite k-NN statistics, then fits the SVM on the
survivors and calibrates a leave-one-out detection threshold on them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import CLASSES, LabeledDataset, class_index
from .gem import GemConfig, compute_gem_stats, gem_me_set, knn_distance_sum, loo_threshold
from .kernels import KernelSpec, kernel_cross, kernel_matrix


@dataclass
class SvmModel:
    kernel: KernelSpec
    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    C: float
    converged: bool

    def decision_function(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        coef = self.alpha * self.y
        return kernel_cross(self.kernel, xs, self.x) @ coef

    def predict(self, xs: np.ndarray) -> np.ndarray:
        d = self.decision_function(xs)
        return np.where(d < 0, -1, 1)


def _is_symmetric(K: np.ndarray) -> bool:
    """K == K.T exactly, compared one row block at a time.

    Each block holds about 65k entries, so no n x n temporary is made.
    """
    n = K.shape[0]
    rows = max(1, 65536 // max(n, 1))
    return all(np.array_equal(K[s:s + rows], K[:, s:s + rows].T)
               for s in range(0, n, rows))


def _report_overflow(num: float, di: float) -> None:
    """Redo num / di on NumPy scalars, which report the overflow per np.errstate."""
    np.float64(num) / di


def solve_svm_dual(K: np.ndarray, y: np.ndarray, C: float,
                   max_passes: int = 200, tol: float = 1e-3):
    """Coordinate ascent on the box-constrained SVM dual.

    Returns (alpha, converged, objective_trace). Each pass visits the
    coordinates in index order (cyclic dual coordinate ascent, Hsieh et
    al. 2008) and skips those with K[i, i] <= 0. Each coordinate update
    is an exact 1-D maximization, so the objective never decreases.
    Convergence is declared when every sample satisfies its
    Karush-Kuhn-Tucker condition within tol.

    K must be square and exactly symmetric, and y must hold one label
    per row, each -1 or +1; anything else raises ValueError. K and y
    are not modified.

    The loop carries f = K (alpha * y) and adds (delta * y_i) * K[i] to
    it after each step, reading the contiguous row K[i] in place of the
    column K[:, i]. The margin y_i * f_i differs from carrying y * f
    directly only by sign flips, which are exact for labels of +-1
    under symmetric round-to-nearest, and the row of an exactly
    symmetric K holds the column's values. So alpha, converged and the
    trace are bit-identical to updating y * f column by column. A step
    that overflows to +-inf is clipped like any other, and the overflow
    is reported as NumPy reports it for the column-by-column update.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    if C <= 0:
        raise ValueError("C must be positive")
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be a square matrix, got shape {K.shape}")
    n = K.shape[0]
    if y.shape != (n,):
        raise ValueError(f"y must hold {n} labels, one per row of K, "
                         f"got shape {y.shape}")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("labels must be -1 or +1")
    if not _is_symmetric(K):
        raise ValueError("K must be exactly symmetric")
    alpha = np.zeros(n)
    f = np.zeros(n)  # f = K (alpha * y)
    step = np.empty(n)
    a = alpha.tolist()
    cap = float(C)
    item, multiply, add, inf = f.item, np.multiply, np.add, np.inf
    # (i, y_i, K[i, i], K[i]) for every coordinate the pass updates
    coords = [(i, yi, di, K[i])
              for i, (yi, di) in enumerate(zip(y.tolist(), np.diag(K).tolist()))
              if not di <= 0]
    trace = []

    def objective():
        ay = alpha * y
        return float(alpha.sum() - 0.5 * ay @ K @ ay)

    converged = False
    for _ in range(max_passes):
        for i, yi, di, row in coords:
            ai = a[i]
            new = ai + (1.0 - yi * item(i)) / di
            if new < 0.0:
                if new == -inf:
                    _report_overflow(1.0 - yi * item(i), di)
                new = 0.0
            elif new > cap:
                if new == inf:
                    _report_overflow(1.0 - yi * item(i), di)
                new = cap
            delta = new - ai
            if delta != 0.0:
                multiply(row, delta * yi, out=step)
                add(f, step, out=f)
                a[i] = new
        alpha[:] = a
        trace.append(objective())
        grad = 1.0 - y * f
        ok_zero = (alpha <= 0) & (grad <= tol)
        ok_cap = (alpha >= C) & (grad >= -tol)
        ok_mid = (alpha > 0) & (alpha < C) & (np.abs(grad) <= tol)
        if np.all(ok_zero | ok_cap | ok_mid):
            converged = True
            break
    if not converged:
        warnings.warn(
            f"SVM dual did not reach tol={tol:g} within {max_passes} passes; "
            "returning the best iterate", stacklevel=2)
    return alpha, converged, trace


def train_svm(dataset: LabeledDataset, kernel: KernelSpec, C: float = 1.0,
              max_passes: int = 200, tol: float = 1e-3) -> SvmModel:
    """Fit the soft-margin kernel SVM on the full dataset."""
    if len(np.unique(dataset.y)) < 2:
        raise ValueError("training data must contain both classes")
    K = kernel_matrix(kernel, dataset.x)
    alpha, converged, _ = solve_svm_dual(K, dataset.y.astype(float), C,
                                         max_passes=max_passes, tol=tol)
    return SvmModel(kernel=kernel, x=dataset.x.copy(), y=dataset.y.copy(),
                    alpha=alpha, C=C, converged=converged)


@dataclass
class TwoStageModel:
    """Screen-then-fit baseline: SVM over survivors plus a k-NN detector."""

    svm: SvmModel
    kept_idx: np.ndarray
    removed_idx: np.ndarray
    theta: float
    k: int
    alpha_level: float

    def decision_function(self, xs: np.ndarray) -> np.ndarray:
        return self.svm.decision_function(xs)

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return self.svm.predict(xs)

    def anomaly_scores(self, xs: np.ndarray) -> np.ndarray:
        """k-NN distance sum of each query row into the survivors.

        A 1-D xs is one query. All rows are scored in one batched call.
        """
        return knn_distance_sum(np.atleast_2d(xs), self.svm.x, self.k)

    def detect(self, xs: np.ndarray) -> np.ndarray:
        return self.anomaly_scores(xs) > self.theta


def train_two_stage(dataset: LabeledDataset, kernel: KernelSpec,
                    gem_config: GemConfig, C: float = 1.0,
                    max_passes: int = 200, tol: float = 1e-3) -> TwoStageModel:
    """Drop the highest-statistic fraction per class, then fit the SVM.

    Per class z the k-NN statistics are computed on the full data and
    the round(coverage * |class z|) lowest-statistic samples are kept.
    """
    stats = compute_gem_stats(dataset, gem_config)
    kept: list[np.ndarray] = []
    for label in CLASSES:
        cls_idx = dataset.class_indices(label)
        kz = int(stats.k_set[class_index(label)])
        keep_local = gem_me_set(stats.d_raw[cls_idx], kz)
        kept.append(cls_idx[keep_local])
        if kz == 0:
            raise ValueError(f"class {label}: screening left no survivors")
    kept_idx = np.sort(np.concatenate(kept))
    removed_idx = np.setdiff1d(np.arange(dataset.n), kept_idx)
    survivors = dataset.subset(kept_idx)
    if len(np.unique(survivors.y)) < 2:
        raise ValueError("screening left a class empty; lower the removal fraction")
    svm = train_svm(survivors, kernel, C=C, max_passes=max_passes, tol=tol)
    theta = loo_threshold(survivors.x, gem_config.k, gem_config.alpha)
    return TwoStageModel(svm=svm, kept_idx=kept_idx, removed_idx=removed_idx,
                         theta=theta, k=gem_config.k, alpha_level=gem_config.alpha)
