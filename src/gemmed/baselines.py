"""Reference classifiers: soft-margin kernel SVM and a screen-then-fit pipeline.

The SVM dual here has box constraints only (no intercept, hence no
equality constraint):

    maximize  sum_i a_i - (1/2) (a*y)' K (a*y)   s.t.  0 <= a_i <= C.

It is solved in the primal: Newton's method on a Huber-smoothed hinge
loss (Chapelle, Neural Computation 2007), run in the space of a pivoted
Cholesky factor of K (Fine & Scheinberg, JMLR 2001), so a low-rank K
gives cheap steps. Convergence is decided by the dual's KKT conditions
on the true K.

The two-stage baseline drops the highest-statistic fraction of each
class using the bipartite k-NN statistics, then fits the SVM on the
survivors and calibrates a leave-one-out detection threshold on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import (LabeledDataset, check_array, check_real, check_reals, check_rows,
                      check_type)
from .gem import (GemConfig, check_detector, compute_gem_stats, knn_distance_sum,
                  loo_threshold)
from .kernels import (KernelSpec, compact_expansion, finite_decisions,
                      kernel_cross, kernel_matrix, query_blocks)


@dataclass
class SvmModel:
    """A fitted SVM.

    kkt_violation is the largest KKT violation of alpha on the training
    kernel matrix (see kkt_violation), or None if not recorded.

    Construction refuses values ``train_svm`` cannot produce, such as alpha
    outside [0, C] or a negative kkt_violation, as ``persist.load_model``
    does; y is kept as ints, converged as a bool, other numbers as floats.
    """

    kernel: KernelSpec
    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    C: float
    converged: bool
    kkt_violation: float | None = None

    def __post_init__(self):
        check_type("kernel", self.kernel, KernelSpec, "a KernelSpec")
        data = LabeledDataset(self.x, self.y)
        self.x, self.y = data.x, data.y
        check_rows(self, "alpha")
        check_reals(self, C="(0, inf)")
        if not ((self.alpha >= 0) & (self.alpha <= self.C)).all():
            raise ValueError(f"alpha must lie in [0, C], C = {self.C!r}")
        self.converged = bool(check_type("converged", self.converged, (bool, np.bool_),
                                         "true or false"))
        if self.kkt_violation is not None:
            check_reals(self, kkt_violation="[0, inf)")

    def decision_function(self, xs: np.ndarray) -> np.ndarray:
        """sum_j alpha_j y_j k(x, x_j) for each query row.

        A 1-D xs is one query. A linear model scores through its weight
        vector in O(d) per query. Rows are scored in the blocks of
        kernels.query_blocks, so an rbf model holds about SCORE_BLOCK
        kernel values at a time however many rows there are, and every
        value equals that of one single-threaded product over all rows,
        bit for bit. Raises ValueError when any value is not finite.
        """
        centers, coef = compact_expansion(self.kernel, self.x,
                                          self.alpha * self.y)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            values = np.concatenate([
                kernel_cross(self.kernel, block, centers) @ coef
                for block in query_blocks(xs, len(centers))])
        return finite_decisions(values)

    def predict(self, xs: np.ndarray) -> np.ndarray:
        """Label each query row by the sign of its decision value.

        Ties go to +1. A 1-D xs is one query.
        """
        return np.where(self.decision_function(xs) < 0, -1, 1)


# Rounds of exact free-set solves that may follow the Newton steps.
FINISH_ROUNDS = 5
# Rows of K that _check_gram reads at a time.
GRAM_CHECK_BLOCK = 64


def _check_gram(K: np.ndarray) -> None:
    """Raise unless K is finite and K == K.T exactly; finite is checked first.

    One pass over K in blocks of GRAM_CHECK_BLOCK rows: each block must
    be finite, and its part from the diagonal block rightward, transposed,
    must equal the column block below it, so no n x n temporary is built.
    """
    symmetric = True
    for s in range(0, K.shape[0], GRAM_CHECK_BLOCK):
        rows = K[s:s + GRAM_CHECK_BLOCK]
        if not np.isfinite(rows).all():
            raise ValueError("K must be finite")
        symmetric = symmetric and np.array_equal(
            rows[:, s:].T, K[s:, s:s + GRAM_CHECK_BLOCK])
    if not symmetric:
        raise ValueError("K must be exactly symmetric")


def _violation(alpha: np.ndarray, grad: np.ndarray, C: float) -> float:
    """Largest KKT violation given grad = 1 - y * f, f = K (alpha * y).

    At alpha_i = 0 the condition is grad_i <= 0, at alpha_i = C it is
    grad_i >= 0, in between grad_i = 0. NaN propagates.
    """
    v = np.where(alpha <= 0, grad, np.where(alpha >= C, -grad, np.abs(grad)))
    return float(np.max(v, initial=0.0))


def kkt_violation(K: np.ndarray, y: np.ndarray, alpha: np.ndarray,
                  C: float) -> float:
    """Largest violation of the box dual's KKT conditions at alpha.

    0 at an exact optimum; solve_svm_dual converges when it is <= tol.
    """
    return _violation(alpha, 1.0 - y * (K @ (alpha * y)), C)


def _pivoted_cholesky(K: np.ndarray) -> np.ndarray:
    """G of shape (rank, n) with K ~= G.T @ G, one row per pivot.

    Each pivot is the largest residual diagonal entry (Fine & Scheinberg
    2001); the factorization stops once none exceeds 1e-12 * max diag(K).
    Rows go into a buffer that doubles when full, so a low-rank K never
    costs n x n memory.
    """
    n = K.shape[0]
    resid = np.diag(K).copy()
    stop = 1e-12 * max(float(resid.max(initial=0.0)), 0.0)
    G = np.empty((min(n, 16), n))
    r = 0
    while r < n:
        p = int(np.argmax(resid))
        if not resid[p] > stop:
            break
        row = K[p] - G[:r, p] @ G[:r]
        row /= math.sqrt(resid[p])
        if r == len(G):
            G = np.concatenate([G, np.empty((min(r, n - r), n))])
        G[r] = row
        resid -= row * row
        resid[p] = 0.0
        r += 1
    return G[:r]


@np.errstate(over="ignore")
def _line_search(u: np.ndarray, s: np.ndarray, slope: float, curv: float,
                 C: float, h: float) -> float:
    """Exact minimizer t > 0 of F(w + t d) along a descent direction d.

    u = 1 - y * (G.T w) and s = y * (G.T d) per sample, slope = w . d and
    curv = d . d. The derivative in t,

        slope + curv t - C sum_i s_i clip((u_i - t s_i) / h, 0, 1),

    is nondecreasing and linear between the breakpoints where some
    u_i - t s_i crosses 0 or h; one that overflows is never reached.
    Bisection over the sorted breakpoints finds the piece holding its
    root, which is then exact.
    """
    def deriv(t):
        return slope + curv * t - C * (s @ np.clip((u - t * s) / h, 0.0, 1.0))

    if not deriv(0.0) < 0:  # not a descent direction, up to rounding
        return 0.0
    moving = s != 0
    sm = s[moving]
    breaks = np.concatenate([u[moving] / sm, (u[moving] - h) / sm])
    breaks = np.sort(breaks[(breaks > 0) & (breaks < np.inf)])
    lo, hi = 0, len(breaks)
    while lo < hi:  # first breakpoint where the derivative is >= 0
        mid = (lo + hi) // 2
        if deriv(breaks[mid]) >= 0:
            hi = mid
        else:
            lo = mid + 1
    t0 = breaks[lo - 1] if lo else 0.0
    d0 = deriv(t0)
    if lo == len(breaks):  # past the last breakpoint the slope is curv
        return t0 - d0 / curv
    t1 = breaks[lo]
    return t0 - d0 * (t1 - t0) / (deriv(t1) - d0)


def _piece(u: np.ndarray, h: float) -> np.ndarray:
    """Piece of H_h each u_i lies on: -1 below 0, 0 on [0, h], 1 above h."""
    return (u > h).astype(np.int8) - (u < 0)


def _free_set_solve(K: np.ndarray, y: np.ndarray, alpha: np.ndarray,
                    C: float, tol: float) -> np.ndarray:
    """alpha with its free entries and KKT violators re-solved exactly.

    The set F holds the samples with 0 < alpha < C and those at a bound
    whose KKT condition fails by more than tol. Solves Q_FF a_F =
    1 - Q_FB a_B, Q = (y y') * K, by least squares, which also covers a
    singular Q_FF, and clips a_F into [0, C].
    """
    grad = 1.0 - y * (K @ (alpha * y))
    free = (((alpha > 0) & (alpha < C)) | ((alpha <= 0) & (grad > tol))
            | ((alpha >= C) & (grad < -tol)))
    out = np.where(free, 0.0, alpha)
    yf = y[free]
    rhs = 1.0 - yf * (K[free] @ (out * y))
    Q = K[np.ix_(free, free)] * np.outer(yf, yf)
    out[free] = np.clip(np.linalg.lstsq(Q, rhs)[0], 0.0, C)
    return out


def solve_svm_dual(K: np.ndarray, y: np.ndarray, C: float,
                   max_passes: int | None = None, tol: float = 1e-3):
    """Solve the box-constrained SVM dual by Newton steps in the primal.

    Returns (alpha, converged, trace) with one trace entry per Newton
    step, at most max_passes of them, by default max(200, n) for n
    samples: an rbf problem with a large gamma and C can need more than
    200 steps, and the count grows with n. converged means every sample
    satisfies its KKT condition within tol, tested on the true K (see
    kkt_violation); otherwise the last iterate is returned with converged
    False.

    K ~= G.T G is factored by pivoted Cholesky (_pivoted_cholesky), and
    Newton's method with an exact line search minimizes

        F(w) = (1/2) |w|^2 + C sum_i H_h(u_i),   u = 1 - y * (G.T w),

    where H_h is the hinge smoothed quadratically over (0, h), h = tol / 2.
    The trace holds F after each step, which never increases. The duals
    are alpha_i = C clip(u_i / h, 0, 1): at a stationary point of F, free
    samples have |1 - y_i f_i| < h, so the KKT test holds there up to
    rounding. A step costs O(rank n + n log n) plus one linear solve of size
    min(rank, samples on the quadratic piece); the O(n^2) test on K runs
    only once the same test on G.T G holds. The steps stop as soon as
    the KKT test holds, or once a step leaves every sample on the piece
    of H_h it started on; the point is then stationary. If the test
    still fails, the free samples and the violators are re-solved
    exactly (_free_set_solve), for at most FINISH_ROUNDS rounds that
    each lower the violation. This matters at tight tol: alpha = C u / h
    magnifies rounding in u by 1 / h, and a sample whose margin is
    within that rounding of 1 may change sides in the first round. The
    Newton system's condition number grows like C max diag(K) / tol: on
    random linear, low-rank and RBF problems every solve converged up to
    about 1e10 and nearly all up to 1e14; beyond that many end
    unconverged, flagged so.

    K must be square, finite and exactly symmetric, y must hold one
    label per row, each -1 or +1, and C and tol must be positive and
    finite; anything else raises ValueError. K and y are not modified.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    check_real("C", C, "(0, inf)")
    check_real("tol", tol, "(0, inf)")
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be a square matrix, got shape {K.shape}")
    n = K.shape[0]
    if y.shape != (n,):
        raise ValueError(f"y must hold {n} labels, one per row of K, "
                         f"got shape {y.shape}")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("labels must be -1 or +1")
    _check_gram(K)
    if max_passes is None:
        max_passes = max(200, n)
    h = tol / 2.0
    G = _pivoted_cholesky(K)
    w = np.zeros(G.shape[0])
    u = np.ones(n)
    beta = np.clip(u / h, 0.0, 1.0)
    alpha = C * beta
    piece = _piece(u, h)
    violation = None
    stationary = False
    trace = []
    for step in range(max_passes + 1):
        v = G @ (alpha * y)  # the gradient of F is w - v
        # the O(rank n) test in factor space gates the O(n^2) one on K
        if _violation(alpha, 1.0 - y * (v @ G), C) <= tol:
            violation = kkt_violation(K, y, alpha, C)
            if violation <= tol:
                break
        grad = w - v
        if stationary or step == max_passes or not grad.any():
            break
        # Newton direction: the Hessian is I + (C/h) Gf Gf' over the
        # samples on the quadratic piece of H_h, ends included, so a
        # sample that a line search left exactly on a kink keeps its
        # curvature. It is solved in the smaller of its two forms
        # (Woodbury when fewer such samples than pivots).
        # An exactly singular or overflowing system is possible only when
        # C max diag(K) / h leaves the identity term below rounding; the
        # finish takes over.
        Gf = G[:, piece == 0]
        try:
            if Gf.shape[1] < Gf.shape[0]:
                M = Gf.T @ Gf
                M[np.diag_indices_from(M)] += h / C
                d = Gf @ np.linalg.solve(M, Gf.T @ grad) - grad
            else:
                with np.errstate(over="ignore"):
                    H = (C / h) * (Gf @ Gf.T)
                if not np.isfinite(H).all():
                    break
                H[np.diag_indices_from(H)] += 1.0
                d = -np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break
        s = y * (d @ G)
        if not np.isfinite(s).all():
            break
        t = _line_search(u, s, float(w @ d), float(d @ d), C, h)
        if not 0 < t < np.inf:
            break
        w_new = w + t * d
        u_new = 1.0 - y * (w_new @ G)
        if not np.isfinite(u_new).all():
            break
        new_piece = _piece(u_new, h)
        stationary = np.array_equal(new_piece, piece)
        w, u, piece = w_new, u_new, new_piece
        beta = np.clip(u / h, 0.0, 1.0)
        alpha, violation = C * beta, None
        trace.append(float(0.5 * (w @ w) + C * (beta * (u - 0.5 * h * beta)).sum()))
    if violation is None:
        violation = kkt_violation(K, y, alpha, C)
    # the finish: each round must lower the violation, so it cannot cycle
    for _ in range(FINISH_ROUNDS):
        if violation <= tol:
            break
        try:
            polished = _free_set_solve(K, y, alpha, C, tol)
        except np.linalg.LinAlgError:
            break
        polished_violation = kkt_violation(K, y, polished, C)
        if not polished_violation < violation:
            break
        alpha, violation = polished, polished_violation
    return alpha, violation <= tol, trace


def train_svm(dataset: LabeledDataset, kernel: KernelSpec,
              C: float = 1.0) -> SvmModel:
    """Fit the soft-margin kernel SVM on the full dataset."""
    if len(np.unique(dataset.y)) < 2:
        raise ValueError("training data must contain both classes")
    K = kernel_matrix(kernel, dataset.x)
    y = dataset.y.astype(float)
    alpha, converged, _ = solve_svm_dual(K, y, C)
    return SvmModel(kernel=kernel, x=dataset.x.copy(), y=dataset.y.copy(),
                    alpha=alpha, C=C, converged=converged,
                    kkt_violation=kkt_violation(K, y, alpha, C))


@dataclass(kw_only=True)
class TwoStageModel(SvmModel):
    """Screen-then-fit baseline: its SVM, fitted on the survivors x, plus a detector.

    Construction also refuses values ``train_two_stage`` cannot produce,
    such as kept_idx and removed_idx that do not split the training rows.
    """

    kept_idx: np.ndarray
    removed_idx: np.ndarray
    theta: float
    k: int
    alpha_level: float

    def __post_init__(self):
        super().__post_init__()
        check_rows(self, "kept_idx")
        self.removed_idx = check_array("removed_idx", self.removed_idx, (None,), "be a list")
        rows = np.sort(np.concatenate([self.kept_idx, self.removed_idx]))
        if not np.array_equal(rows, np.arange(rows.size)):
            raise ValueError(f"kept_idx and removed_idx must list each of the "
                             f"{rows.size} training rows once between them")
        self.kept_idx, self.removed_idx = self.kept_idx.astype(int), self.removed_idx.astype(int)
        check_reals(self, alpha_level="(0, 1)")
        check_detector(self, len(self.x), "survivors x")

    def anomaly_scores(self, xs: np.ndarray) -> np.ndarray:
        """k-NN distance sum of each query row into the survivors x, all in
        one batched call; a 1-D xs is one query."""
        return knn_distance_sum(xs, self.x, self.k)

    def detect(self, xs: np.ndarray) -> np.ndarray:
        """True for each query row whose anomaly score exceeds theta."""
        return self.anomaly_scores(xs) > self.theta


def train_two_stage(dataset: LabeledDataset, kernel: KernelSpec,
                    gem_config: GemConfig, C: float = 1.0) -> TwoStageModel:
    """Fit the SVM on the GEM-ME set, the survivors of the k-NN screen.

    The survivors are compute_gem_stats' kept set: per class z, the
    max(1, round(coverage * |class z|)) lowest-statistic samples.
    """
    kept_idx = compute_gem_stats(dataset, gem_config).kept
    removed_idx = np.setdiff1d(np.arange(dataset.n), kept_idx)
    survivors = dataset.subset(kept_idx)
    svm = train_svm(survivors, kernel, C=C)
    theta = loo_threshold(survivors.x, gem_config.k, gem_config.alpha)
    return TwoStageModel(**vars(svm), kept_idx=kept_idx, removed_idx=removed_idx,
                         theta=theta, k=gem_config.k, alpha_level=gem_config.alpha)
