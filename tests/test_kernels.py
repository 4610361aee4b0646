import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from gemmed.errors import NumericsError
from gemmed.kernels import (GramMatrix, KernelSpec, compact_expansion,
                            gram_matrix, kernel_cross, kernel_eval,
                            kernel_matrix, median_heuristic_gamma,
                            resolve_kernel)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown kernel"):
        KernelSpec(kind="poly", gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        KernelSpec(kind="rbf")
    with pytest.raises(ValueError, match="gamma"):
        KernelSpec(kind="rbf", gamma=-2.0)
    with pytest.raises(ValueError, match="jitter"):
        KernelSpec(kind="rbf", gamma=1.0, jitter=-1e-9)
    KernelSpec(kind="linear")  # gamma not needed


def test_rbf_known_value():
    spec = KernelSpec(kind="rbf", gamma=1.0)
    # unit separation at gamma 1 gives exactly exp(-1)
    assert kernel_eval(spec, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(math.exp(-1.0), rel=0, abs=1e-15)
    assert kernel_eval(spec, [2.0, 3.0], [2.0, 3.0]) == 1.0


def test_linear_is_dot_product():
    spec = KernelSpec(kind="linear")
    assert kernel_eval(spec, [1.0, 2.0], [3.0, -1.0]) == 1.0
    assert kernel_eval(spec, [0.0], [5.0]) == 0.0


def test_kernel_eval_dim_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        kernel_eval(KernelSpec(kind="linear"), [1.0], [1.0, 2.0])


def test_kernel_matrix_matches_pairwise_eval():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 3))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.7)):
        K = kernel_matrix(spec, xs)
        for i in range(6):
            for j in range(6):
                assert K[i, j] == pytest.approx(kernel_eval(spec, xs[i], xs[j]),
                                                rel=1e-12, abs=1e-12)
        assert np.array_equal(K, K.T)  # exact symmetry, not approximate


def _mirrored_kernel_matrix(spec, xs):
    """The construction kernel_matrix used before it called kernel_cross:
    the lower triangle of x @ x.T mirrored up, or squareform of pdist."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if spec.kind == "linear":
        v = xs @ xs.T
        return np.tril(v) + np.tril(v, -1).T
    return np.exp(-spec.gamma * squareform(pdist(xs, "sqeuclidean")))


@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_kernel_matrix_is_bitwise_the_mirrored_construction(kind):
    rng = np.random.default_rng(4)
    for width in (1, 2, 7, 13):
        spec = KernelSpec(kind, gamma=None if kind == "linear" else 0.5 / width)
        for n in (1, 257, 1000):
            x = rng.normal(size=(n, width))
            x[n // 2] = x[0]  # a duplicate row (the same row when n == 1)
            # products of integers near 1e8 round, so coercing them twice
            # (two operand arrays, no symmetric product) changes the bits
            for xs in (x, np.asfortranarray(x),
                       np.rint(x * 1e8).astype(np.int64)):
                K = kernel_matrix(spec, xs)
                assert K.tobytes() == _mirrored_kernel_matrix(spec, xs).tobytes()
                assert K.tobytes() == K.T.tobytes()


def test_kernel_cross_matches_eval():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    spec = KernelSpec("rbf", gamma=0.3)
    C = kernel_cross(spec, a, b)
    assert C.shape == (4, 3)
    assert C[2, 1] == pytest.approx(kernel_eval(spec, a[2], b[1]), rel=1e-12)


def test_compact_expansion():
    rng = np.random.default_rng(4)
    centers, coef = rng.normal(size=(6, 3)), rng.normal(size=6)
    w, one = compact_expansion(KernelSpec("linear"), centers, coef)
    assert w.shape == (1, 3) and one.tolist() == [1.0]
    np.testing.assert_array_equal(w[0], coef @ centers)
    rbf = KernelSpec("rbf", gamma=0.3)
    kept, same = compact_expansion(rbf, centers, coef)
    assert kept is centers and same is coef


def test_rbf_diagonal_is_one():
    xs = np.random.default_rng(2).normal(size=(5, 2))
    K = kernel_matrix(KernelSpec("rbf", gamma=2.0), xs)
    assert np.array_equal(np.diag(K), np.ones(5))
    assert kernel_matrix(KernelSpec("rbf", gamma=2.0), xs[:1]).tolist() == [[1.0]]


def test_gram_factor_reconstructs():
    xs = np.random.default_rng(3).normal(size=(8, 2))
    spec = KernelSpec("rbf", gamma=0.5, jitter=1e-8)
    gram = gram_matrix(spec, xs)
    assert isinstance(gram, GramMatrix)
    assert gram.n == 8
    np.testing.assert_allclose(gram.factor @ gram.factor.T, gram.values,
                               rtol=0, atol=1e-10)
    # jitter shows up on the diagonal
    plain = kernel_matrix(spec, xs)
    np.testing.assert_allclose(np.diag(gram.values) - np.diag(plain), 1e-8)


def test_gram_failure_raises_numerics_error():
    # duplicated rows make the linear Gram exactly singular; with zero
    # jitter the factorization cannot proceed
    xs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    spec = KernelSpec("linear", jitter=0.0)
    with pytest.raises(NumericsError, match="jitter"):
        gram_matrix(spec, xs)
    gram_matrix(KernelSpec("linear", jitter=1e-8), xs)  # jitter rescues it


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gram_rejects_a_non_finite_kernel_matrix():
    # x . x overflows, to +-inf and to nan where inf - inf
    xs = np.random.default_rng(0).normal(size=(20, 2)) * 1e200
    with pytest.raises(ValueError, match="not finite; rescale the features"):
        gram_matrix(KernelSpec("linear"), xs)


def test_median_heuristic_frozen():
    # collinear points at 0, 1, 3: squared gaps 1, 4, 9, median 4
    xs = np.array([[0.0], [1.0], [3.0]])
    assert median_heuristic_gamma(xs) == pytest.approx(0.25, rel=0, abs=0)


def test_median_heuristic_errors():
    with pytest.raises(ValueError, match="two points"):
        median_heuristic_gamma(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="zero"):
        median_heuristic_gamma(np.array([[1.0], [1.0]]))


def test_resolve_kernel_paths():
    xs = np.array([[0.0], [1.0], [3.0]])
    spec = resolve_kernel("rbf", "auto", xs)
    assert spec.gamma == pytest.approx(0.25)
    assert resolve_kernel("rbf", 0.7, None).gamma == 0.7
    lin = resolve_kernel("linear", "auto")
    assert lin.kind == "linear" and lin.gamma is None
    with pytest.raises(ValueError, match="auto"):
        resolve_kernel("rbf", "med", xs)
    with pytest.raises(ValueError, match="data points"):
        resolve_kernel("rbf", "auto", None)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 5.0))
def test_rbf_gram_psd_property(seed, gamma):
    xs = np.random.default_rng(seed).normal(size=(7, 2))
    gram = gram_matrix(KernelSpec("rbf", gamma=gamma, jitter=1e-10), xs)
    w = np.linalg.eigvalsh(gram.values)
    assert w.min() > 0
    assert np.all(gram.values <= 1.0 + 1e-9)
