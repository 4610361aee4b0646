import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from gemmed import kernels
from gemmed.errors import NumericsError
from gemmed.kernels import (GramMatrix, KernelSpec, compact_expansion,
                            gram_matrix, kernel_cross, kernel_matrix,
                            median_heuristic_gamma, query_blocks,
                            resolve_kernel)
from gemmed.synthdata import RingExperimentConfig, generate


def _pair(spec, a, b):
    """The kernel of one pair of points in closed form."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if spec.kind == "linear":
        return float(np.dot(a, b))
    return math.exp(-spec.gamma * float(np.dot(a - b, a - b)))


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown kernel"):
        KernelSpec(kind="poly", gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        KernelSpec(kind="rbf")
    with pytest.raises(ValueError, match="gamma"):
        KernelSpec(kind="rbf", gamma=-2.0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"gamma must lie in \(0, inf\), got {value}"):
            KernelSpec(kind="rbf", gamma=value)
    KernelSpec(kind="linear")  # gamma not needed


def test_rbf_known_value():
    spec = KernelSpec(kind="rbf", gamma=1.0)
    # unit separation at gamma 1 gives exactly exp(-1)
    assert kernel_cross(spec, [0.0, 0.0], [1.0, 0.0])[0, 0] == pytest.approx(
        math.exp(-1.0), rel=0, abs=1e-15)
    assert kernel_cross(spec, [2.0, 3.0], [2.0, 3.0]).tolist() == [[1.0]]


def test_linear_is_dot_product():
    spec = KernelSpec(kind="linear")
    assert kernel_cross(spec, [1.0, 2.0], [3.0, -1.0]).tolist() == [[1.0]]
    assert kernel_cross(spec, [0.0], [5.0]).tolist() == [[0.0]]


def test_kernel_cross_dim_mismatch():
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=1.0)):
        with pytest.raises(ValueError):
            kernel_cross(spec, [[1.0]], [[1.0, 2.0]])


def test_kernel_matrix_matches_pairwise_eval():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 3))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.7)):
        K = kernel_matrix(spec, xs)
        for i in range(6):
            for j in range(6):
                assert K[i, j] == pytest.approx(_pair(spec, xs[i], xs[j]),
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
    assert C[2, 1] == pytest.approx(_pair(spec, a[2], b[1]), rel=1e-12)


def test_rbf_kernel_cross_is_bitwise_the_out_of_place_formula():
    rng = np.random.default_rng(5)
    for n, m, width in ((1, 1, 1), (4, 3, 2), (37, 129, 5), (300, 70, 13)):
        a, b = rng.normal(size=(n, width)), rng.normal(size=(m, width))
        b[0] = 1e3  # far enough from a that exp underflows to 0
        for gamma in (1e-3, 0.5, 30.0):
            got = kernel_cross(KernelSpec("rbf", gamma=gamma), a, b)
            want = np.exp(-gamma * cdist(a, b, "sqeuclidean"))
            assert got.tobytes() == want.tobytes()
            assert np.all(got[:, 0] == 0.0)


def test_compact_expansion():
    rng = np.random.default_rng(4)
    centers, coef = rng.normal(size=(6, 3)), rng.normal(size=6)
    w, one = compact_expansion(KernelSpec("linear"), centers, coef)
    assert w.shape == (1, 3) and one.tolist() == [1.0]
    np.testing.assert_array_equal(w[0], coef @ centers)
    rbf = KernelSpec("rbf", gamma=0.3)
    kept, same = compact_expansion(rbf, centers, coef)
    assert kept is centers and same is coef


def test_query_blocks_hold_whole_groups_of_64_rows(monkeypatch):
    xs = np.arange(1284.0).reshape(642, 2)

    def rows(xs, width):
        return [len(block) for block in query_blocks(xs, width)]

    # 65536 // 200 = 327 rows, rounded down to 320; a lone final row
    # joins the last block
    assert rows(xs[:641], 200) == [320, 321]
    assert rows(xs[:640], 200) == [320, 320]
    assert rows(xs, 200) == [320, 320, 2]
    assert rows(xs, 1) == [642]
    assert rows(xs[:129], 5000) == [64, 65]  # at least 64 rows
    assert np.array_equal(np.concatenate(query_blocks(xs, 3)), xs)
    assert [b.shape for b in query_blocks(xs[0], 200)] == [(1, 2)]
    assert [b.shape for b in query_blocks(xs[:0], 200)] == [(0, 2)]
    monkeypatch.setattr(kernels, "SCORE_BLOCK", 20_000)  # read per call
    assert rows(xs[:200], 100) == [192, 8]


def test_rbf_diagonal_is_one():
    xs = np.random.default_rng(2).normal(size=(5, 2))
    K = kernel_matrix(KernelSpec("rbf", gamma=2.0), xs)
    assert np.array_equal(np.diag(K), np.ones(5))
    assert kernel_matrix(KernelSpec("rbf", gamma=2.0), xs[:1]).tolist() == [[1.0]]


def test_gram_factor_reconstructs():
    xs = np.random.default_rng(3).normal(size=(8, 2))
    spec = KernelSpec("rbf", gamma=0.5)
    gram = gram_matrix(spec, xs)
    assert isinstance(gram, GramMatrix)
    assert gram.n == 8
    np.testing.assert_allclose(gram.factor @ gram.factor.T, gram.values,
                               rtol=0, atol=1e-10)
    # jitter shows up on the diagonal
    plain = kernel_matrix(spec, xs)
    np.testing.assert_allclose(np.diag(gram.values) - np.diag(plain), 1e-8)


def test_rbf_gram_keeps_its_fixed_jitter_bit_for_bit():
    # an rbf diagonal is exactly 1, so 1e-8 max diag(K) is the 1e-8 that
    # rbf Grams always had: the same values and factor on the ring benchmark
    train_set, _ = generate(RingExperimentConfig(R=55.0, r_a=0.2, seed=0))
    spec = KernelSpec("rbf", gamma=0.1)
    gram = gram_matrix(spec, train_set.x)
    values = kernel_matrix(spec, train_set.x) + 1e-8 * np.eye(train_set.n)
    assert gram.values.tobytes() == values.tobytes()
    assert gram.factor.tobytes() == np.linalg.cholesky(values).tobytes()


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4, 1e100])
def test_gram_jitter_scales_with_the_kernel(scale):
    # duplicated rows make a linear Gram exactly singular; 1e-8 max diag(K)
    # on the diagonal makes it positive definite at any feature scale
    xs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) * scale
    gram = gram_matrix(KernelSpec("linear"), xs)
    plain = kernel_matrix(KernelSpec("linear"), xs)
    assert np.array_equal(gram.values, plain + 1e-8 * plain.max() * np.eye(3))
    np.testing.assert_allclose(gram.factor @ gram.factor.T, gram.values,
                               rtol=1e-12, atol=0)


def test_gram_failure_raises_numerics_error(monkeypatch):
    # a kernel matrix is positive semidefinite, so only one that is not,
    # here with eigenvalues 3 and -1, gets past the jitter
    monkeypatch.setattr(kernels, "kernel_matrix",
                        lambda spec, xs: np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NumericsError, match="^Gram factorization failed$"):
        gram_matrix(KernelSpec("linear"), np.zeros((2, 1)))


@pytest.mark.parametrize("scale,largest", [(0.0, "0"), (1e-200, "0"), (1e-152, "1e-303")])
def test_gram_rejects_a_kernel_matrix_too_small_to_factor(scale, largest):
    # all-zero features, or ones whose x . x underflows, leave no kernel to
    # factor; the jitter would be 0 or a subnormal float short of bits
    xs = np.array([[1.0, 2.0], [-3.0, 1.0], [0.5, 0.5]]) * scale
    with pytest.raises(ValueError, match=re.escape(
            f"kernel matrix is too small to factor (largest diagonal entry {largest}); "
            "rescale the features")):
        gram_matrix(KernelSpec("linear"), xs)
    gram_matrix(KernelSpec("rbf", gamma=1.0), xs)  # an rbf diagonal is 1


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
    for gamma in ("med", None):
        with pytest.raises(ValueError, match=rf"gamma must lie in \(0, inf\), got {gamma!r}"):
            resolve_kernel("rbf", gamma, xs)
    with pytest.raises(ValueError, match="data points"):
        resolve_kernel("rbf", "auto", None)
    # only rbf reads a width; any other kind is KernelSpec's to refuse
    for kind in ("poly", "RBF", 3):
        with pytest.raises(ValueError, match=f"unknown kernel kind {kind!r}"):
            resolve_kernel(kind, 0.1, xs)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 5.0))
def test_rbf_gram_psd_property(seed, gamma):
    xs = np.random.default_rng(seed).normal(size=(7, 2))
    gram = gram_matrix(KernelSpec("rbf", gamma=gamma), xs)
    w = np.linalg.eigvalsh(gram.values)
    assert w.min() > 0
    # the rbf kernel is at most 1, and the jitter adds 1e-8 on the diagonal
    assert np.array_equal(np.diag(gram.values), np.full(7, 1.0 + 1e-8))
    assert np.all(gram.values[~np.eye(7, dtype=bool)] <= 1.0)
