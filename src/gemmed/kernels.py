"""Kernel evaluation and Gram matrix construction.

Two kernels are supported: the raw dot product (``linear``) and the
Gaussian kernel ``exp(-gamma * ||x - x'||^2)`` (``rbf``). Decision
functions built on these kernels carry no intercept term, so a Gram
matrix plus dual coefficients fully determines a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import NumericsError

KERNEL_KINDS = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    gamma is required (and must be positive) for ``rbf``; it is ignored
    for ``linear``. jitter is added to the Gram diagonal before
    factorization to keep the Cholesky well posed.
    """

    kind: str
    gamma: float | None = None
    jitter: float = 1e-8

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not self.gamma > 0:
                raise ValueError("rbf kernel requires gamma > 0")
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix with its cached lower Cholesky factor."""

    values: np.ndarray
    factor: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


def kernel_eval(spec: KernelSpec, x1, x2) -> float:
    """Evaluate the kernel on a single pair of points."""
    a = np.asarray(x1, dtype=float).ravel()
    b = np.asarray(x2, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("points must share a dimension")
    if spec.kind == "linear":
        return float(np.dot(a, b))
    d2 = float(np.dot(a - b, a - b))
    return float(np.exp(-spec.gamma * d2))


def kernel_cross(spec: KernelSpec, xs1: np.ndarray, xs2: np.ndarray) -> np.ndarray:
    """Kernel matrix between two point sets, shape (len(xs1), len(xs2))."""
    xs1 = np.atleast_2d(np.asarray(xs1, dtype=float))
    xs2 = np.atleast_2d(np.asarray(xs2, dtype=float))
    if spec.kind == "linear":
        return xs1 @ xs2.T
    return np.exp(-spec.gamma * cdist(xs1, xs2, "sqeuclidean"))


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


def kernel_matrix(spec: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """Plain symmetric kernel matrix on one point set, no jitter."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    # one array as both operands keeps K == K.T exact (see the README)
    return kernel_cross(spec, xs, xs)


def gram_matrix(spec: KernelSpec, xs: np.ndarray) -> GramMatrix:
    """Build the jittered Gram matrix and factor it.

    Raises ValueError when the kernel matrix is not finite, which
    rescaled features avoid, and NumericsError when the Cholesky
    factorization fails; the fix for that is almost always a larger
    jitter.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        values = kernel_matrix(spec, xs)
    if not np.isfinite(values).all():
        raise ValueError("kernel matrix is not finite; rescale the features")
    values = values + spec.jitter * np.eye(values.shape[0])
    try:
        factor = np.linalg.cholesky(values)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            "Gram factorization failed; increase the kernel jitter "
            f"(currently {spec.jitter:g})"
        ) from exc
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


def resolve_kernel(kind: str, gamma, xs: np.ndarray | None = None,
                   jitter: float = 1e-8) -> KernelSpec:
    """Build a KernelSpec, resolving gamma='auto' via the median heuristic."""
    if kind == "linear":
        return KernelSpec(kind="linear", gamma=None, jitter=jitter)
    if isinstance(gamma, str):
        if gamma != "auto":
            raise ValueError(f"gamma must be a positive number or 'auto', got {gamma!r}")
        if xs is None:
            raise ValueError("gamma='auto' needs data points to resolve against")
        gamma = median_heuristic_gamma(xs)
    return KernelSpec(kind="rbf", gamma=float(gamma), jitter=jitter)
