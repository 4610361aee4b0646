"""Kernel evaluation and Gram matrix construction.

Two kernels are supported: the raw dot product (``linear``) and the
Gaussian kernel ``exp(-gamma * ||x - x'||^2)`` (``rbf``). Decision
functions built on these kernels carry no intercept term, so a Gram
matrix plus dual coefficients fully determines a model. The Gram matrix
the joint model factors takes 1e-8 times its largest diagonal as jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .dataset import check_reals
from .errors import NumericsError

KERNEL_KINDS = ("linear", "rbf")
# The most kernel values one block of query rows may hold when a decision
# function is scored block by block (see query_blocks).
SCORE_BLOCK = 1 << 16
# Rows of K that check_kernel_matrix reads at a time.
GRAM_CHECK_BLOCK = 64


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    gamma is required for ``rbf`` and ignored for ``linear``; a gamma that
    is set must be a positive number for either kind.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" or self.gamma is not None:
            check_reals(self, gamma="(0, inf)")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix with its cached lower Cholesky factor."""

    values: np.ndarray
    factor: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


def kernel_cross(spec: KernelSpec, xs1: np.ndarray, xs2: np.ndarray) -> np.ndarray:
    """Kernel matrix between two point sets, shape (len(xs1), len(xs2)).

    The one kernel evaluator of the package; a 1-D set is one point.
    """
    xs1 = np.atleast_2d(np.asarray(xs1, dtype=float))
    xs2 = np.atleast_2d(np.asarray(xs2, dtype=float))
    if spec.kind == "linear":
        return xs1 @ xs2.T
    # in place: one n x m array, the same bits as exp(-gamma * d)
    d = cdist(xs1, xs2, "sqeuclidean")
    d *= -spec.gamma
    return np.exp(d, out=d)


def compact_expansion(spec: KernelSpec, centers: np.ndarray,
                      coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers and coefficients of the cheapest form of the expansion
    f(x) = sum_j coef_j k(x, centers_j).

    A linear expansion is <x, w> with w = coef @ centers (the primal
    weight vector), so it collapses to the one center w with coefficient
    1 and scores each query in O(d). An rbf expansion is returned as is.
    """
    if spec.kind == "linear":
        return np.atleast_2d(coef @ centers), np.ones(1)
    return centers, coef


def query_blocks(xs: np.ndarray, width: int) -> list[np.ndarray]:
    """Split the query rows xs into blocks of about SCORE_BLOCK kernel
    values against width centers; a 1-D xs is one query.

    A block holds SCORE_BLOCK // width rows rounded down to a multiple of
    64, at least 64, and the last block also takes a lone final row.
    OpenBLAS's GEMV takes rows in groups of fixed size and sends the
    remainder through another kernel, and NumPy scores a one-row block
    by a dot product, so these blocks give the values of one
    single-threaded product over all rows, bit for bit.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    rows = max(64, SCORE_BLOCK // width // 64 * 64)
    return np.split(xs, range(rows, len(xs) - 1, rows))


def finite_decisions(values: np.ndarray) -> np.ndarray:
    """Return the decision values, or raise ValueError naming bad rows.

    Query rows large enough to overflow the kernel give an infinite or
    NaN decision value, which has no sign to label.
    """
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"decision value is not finite for {bad.size} of {values.size} "
            f"query rows (first: row {bad[0]}); rescale the features")
    return values


@np.errstate(over="ignore", invalid="ignore")  # check_kernel_matrix reports overflow
def kernel_matrix(spec: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """Plain symmetric kernel matrix on one point set, no jitter."""
    # one contiguous array as both operands keeps K == K.T exact (see the README)
    xs = np.atleast_2d(np.ascontiguousarray(xs, dtype=float))
    return kernel_cross(spec, xs, xs)


def check_kernel_matrix(K: np.ndarray) -> None:
    """Raise ValueError unless K is finite and K == K.T exactly, finite first;
    gram_matrix and solve_svm_dual run it before they factor K.

    One pass over K in blocks of GRAM_CHECK_BLOCK rows: each block must
    be finite, and its part from the diagonal block rightward, transposed,
    must equal the column block below it, so no n x n temporary is built.
    """
    symmetric = True
    for s in range(0, K.shape[0], GRAM_CHECK_BLOCK):
        rows = K[s:s + GRAM_CHECK_BLOCK]
        if not np.isfinite(rows).all():
            raise ValueError("kernel matrix is not finite; rescale the features")
        symmetric = symmetric and np.array_equal(
            rows[:, s:].T, K[s:, s:s + GRAM_CHECK_BLOCK])
    if not symmetric:
        raise ValueError("kernel matrix is not exactly symmetric")


def gram_matrix(spec: KernelSpec, xs: np.ndarray) -> GramMatrix:
    """Build the Gram matrix K + 1e-8 max diag(K) I and factor it.

    The jitter scales with the kernel, so it holds at any feature scale.
    Raises ValueError when the kernel matrix fails check_kernel_matrix
    or is too small for a normal-float jitter (all-zero features, or
    ones whose x . x underflows), which rescaled features avoid, and
    NumericsError when the Cholesky factorization still fails.
    """
    values = kernel_matrix(spec, xs)
    check_kernel_matrix(values)
    # an rbf diagonal is exactly 1, so there the jitter is 1e-8 itself
    scale = values.diagonal().max()
    jitter = 1e-8 * scale
    if jitter < np.finfo(float).tiny:  # zero, or too small to hold full precision
        raise ValueError("kernel matrix is too small to factor (largest diagonal "
                         f"entry {scale:g}); rescale the features")
    values[np.diag_indices_from(values)] += jitter
    try:
        factor = np.linalg.cholesky(values)
    except np.linalg.LinAlgError as exc:
        raise NumericsError("Gram factorization failed") from exc
    return GramMatrix(values=values, factor=factor)


def median_heuristic_gamma(xs: np.ndarray) -> float:
    """Return 1 / median squared pairwise distance of the points.

    Raises ValueError when fewer than two points are given or all
    points coincide (the median distance is then zero).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[0] < 2:
        raise ValueError("median heuristic needs at least two points")
    med = float(np.median(pdist(xs, "sqeuclidean")))
    if med <= 0:
        raise ValueError("median pairwise distance is zero; gamma undefined")
    return 1.0 / med


def resolve_kernel(kind: str, gamma, xs: np.ndarray) -> KernelSpec:
    """Build a KernelSpec, resolving an rbf gamma='auto' on the points xs
    via the median heuristic; any other kind goes without a width, and
    KernelSpec refuses a kind or a width it does not accept."""
    if kind != "rbf":
        return KernelSpec(kind=kind, gamma=None)
    if gamma == "auto":
        gamma = median_heuristic_gamma(xs)
    return KernelSpec(kind="rbf", gamma=gamma)
