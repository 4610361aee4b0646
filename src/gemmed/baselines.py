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
from dataclasses import dataclass, field

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
    objective_trace: list = field(default_factory=list)

    def decision_function(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        coef = self.alpha * self.y
        return kernel_cross(self.kernel, xs, self.x) @ coef

    def predict(self, xs: np.ndarray) -> np.ndarray:
        d = self.decision_function(xs)
        return np.where(d < 0, -1, 1)


def solve_svm_dual(K: np.ndarray, y: np.ndarray, C: float,
                   max_passes: int = 200, tol: float = 1e-3):
    """Coordinate ascent on the box-constrained SVM dual.

    Returns (alpha, converged, objective_trace). Each coordinate update
    is an exact 1-D maximization, so the objective never decreases.
    Convergence is declared when every sample satisfies its
    Karush-Kuhn-Tucker condition within tol.
    """
    n = K.shape[0]
    if C <= 0:
        raise ValueError("C must be positive")
    alpha = np.zeros(n)
    yf = np.zeros(n)  # y_i * f(x_i) with f = K (alpha * y)
    diag = np.diag(K).copy()
    trace = []

    def objective():
        a = alpha * y
        return float(alpha.sum() - 0.5 * a @ K @ a)

    converged = False
    for _ in range(max_passes):
        for i in range(n):
            if diag[i] <= 0:
                continue
            new = alpha[i] + (1.0 - yf[i]) / diag[i]
            new = min(max(new, 0.0), C)
            delta = new - alpha[i]
            if delta != 0.0:
                yf += delta * y[i] * y * K[:, i]
                alpha[i] = new
        trace.append(objective())
        grad = 1.0 - yf
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
    alpha, converged, trace = solve_svm_dual(K, dataset.y.astype(float), C,
                                             max_passes=max_passes, tol=tol)
    return SvmModel(kernel=kernel, x=dataset.x.copy(), y=dataset.y.copy(),
                    alpha=alpha, C=C, converged=converged, objective_trace=trace)


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

    def survival_scores(self, n_total: int) -> np.ndarray:
        """1 for kept training rows, 0 for removed; usable as a ranking."""
        scores = np.zeros(n_total)
        scores[self.kept_idx] = 1.0
        return scores


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
