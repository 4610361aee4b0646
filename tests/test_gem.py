import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gemmed import gem
from gemmed.dataset import LabeledDataset, class_index
from gemmed.gem import (GemConfig, bipartite_partition, compute_gem_stats,
                        gem_me_set, knn_distance_sum, loo_scores,
                        loo_threshold)


def test_knn_distance_sum_frozen():
    refs = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    # distances from the origin are 1, 2, 3; the two smallest sum to 3
    assert knn_distance_sum([0.0, 0.0], refs, k=2) == pytest.approx(3.0)
    assert knn_distance_sum([0.0, 0.0], refs, k=1) == pytest.approx(1.0)


def test_knn_distance_sum_errors():
    refs = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match="k must be"):
        knn_distance_sum([0.0], refs, k=0)
    with pytest.raises(ValueError, match="reference points"):
        knn_distance_sum([0.0], refs, k=3)


def test_knn_distance_sum_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        refs = rng.normal(size=(9, 3))
        x = rng.normal(size=3)
        k = int(rng.integers(1, 9))
        expected = sorted(math.dist(x, r) for r in refs)
        assert knn_distance_sum(x, refs, k) == pytest.approx(sum(expected[:k]))


def _per_row_knn(xs, refs, k):
    """The scoring loop before batching: one norm, sort and sum per query."""
    return np.array([float(np.sort(np.linalg.norm(refs - x[None, :], axis=1))[:k].sum())
                     for x in xs], dtype=float)


# small integers give duplicate points and tied distances
_coords = st.one_of(st.integers(-3, 3).map(float),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def _knn_cases(draw):
    p = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12]))
    refs = draw(hnp.arrays(float, (draw(st.integers(1, 10)), p), elements=_coords))
    refs = np.vstack([refs, refs[:draw(st.integers(0, refs.shape[0]))]])
    m = refs.shape[0]
    xs = draw(hnp.arrays(float, (draw(st.sampled_from([0, 1, 2, 7, 25])), p),
                         elements=_coords))
    xs = np.vstack([xs, refs[:draw(st.integers(0, 2))]])  # zero distances
    k = draw(st.integers(1, m))
    block = draw(st.integers(1, 4 * m))  # 1 to 4 query rows per block
    return xs, refs, k, block


@settings(max_examples=300, deadline=None)
@given(_knn_cases())
def test_knn_distance_sum_batched_matches_per_row(case):
    xs, refs, k, block = case
    with mock.patch.object(gem, "KNN_BLOCK", block):
        got = knn_distance_sum(xs, refs, k)
        singles = [knn_distance_sum(x, refs, k) for x in xs]
        first = knn_distance_sum(xs[:1], refs, k)
    want = _per_row_knn(xs, refs, k)
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert got.shape == (xs.shape[0],)
    assert all(type(v) is float for v in singles)
    assert isinstance(first, np.ndarray) and first.shape == (min(1, xs.shape[0]),)
    if refs.shape[1] < 8:
        assert np.array_equal(got, want)
        assert np.array_equal(singles, want)
    else:  # NumPy sums rows of 8 or more values pairwise
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(singles, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("p", [2, 7])
@pytest.mark.parametrize("k", [5, 100])  # k=100: np.partition leaves some rows unsorted
def test_knn_distance_sum_spans_several_blocks(p, k):
    rng = np.random.default_rng(p)
    refs = rng.normal(size=(1000, p))
    rows = 3 * (gem.KNN_BLOCK // refs.shape[0]) + 5
    xs = rng.normal(size=(rows, p))
    assert np.array_equal(knn_distance_sum(xs, refs, k), _per_row_knn(xs, refs, k))


def test_knn_distance_sum_rejects_mismatched_queries():
    refs = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="1 feature column.* have 2"):
        knn_distance_sum([3.0], refs, 1)
    with pytest.raises(ValueError, match="3 feature column.* have 2"):
        knn_distance_sum(np.zeros((4, 3)), refs, 1)
    with pytest.raises(ValueError, match="1-D or 2-D"):
        knn_distance_sum(np.zeros((1, 1, 2)), refs, 1)
    with pytest.raises(ValueError, match="1-D or 2-D"):
        knn_distance_sum(3.0, refs, 1)


def test_gem_me_set_tie_breaks_to_lower_index():
    keep = gem_me_set(np.array([1.0, 1.0, 0.5]), 2)
    assert list(keep) == [2, 0]


def test_gem_me_set_bounds():
    with pytest.raises(ValueError):
        gem_me_set(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        gem_me_set(np.array([1.0, 2.0]), 3)


def test_gem_me_set_matches_subset_enumeration():
    """The k lowest-value indices must realize the minimal subset sum."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        d = np.round(rng.uniform(0, 4, size=n), 2)  # rounding forces ties
        k = int(rng.integers(1, n + 1))
        keep = gem_me_set(d, k)
        assert len(keep) == k and len(set(keep.tolist())) == k
        best = min(sum(d[list(c)]) for c in itertools.combinations(range(n), k))
        assert d[keep].sum() == pytest.approx(best, abs=1e-12)


def _toy_dataset(n_per_class=10, seed=0):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(loc=-2.0, size=(n_per_class, 2)),
                   rng.normal(loc=2.0, size=(n_per_class, 2))])
    y = np.concatenate([np.full(n_per_class, -1), np.full(n_per_class, 1)])
    return LabeledDataset(x, y)


def test_bipartite_partition_properties():
    ds = _toy_dataset()
    ev, ref = bipartite_partition(ds, -1, ratio=0.3, seed=5)
    again_ev, again_ref = bipartite_partition(ds, -1, ratio=0.3, seed=5)
    assert np.array_equal(ev, again_ev) and np.array_equal(ref, again_ref)
    assert len(ref) == 3  # floor(0.3 * 10)
    assert set(ev) | set(ref) == set(ds.class_indices(-1))
    assert set(ev) & set(ref) == set()
    other_ev, _ = bipartite_partition(ds, -1, ratio=0.3, seed=6)
    assert not np.array_equal(ev, other_ev)  # the draw really is seeded


def test_bipartite_partition_small_class():
    ds = LabeledDataset(np.array([[0.0], [1.0], [2.0]]), np.array([-1, 1, 1]))
    with pytest.raises(ValueError, match="at least 2"):
        bipartite_partition(ds, -1, ratio=0.5, seed=0)
    ev, ref = bipartite_partition(ds, 1, ratio=0.9, seed=0)
    assert len(ref) == 1 and len(ev) == 1  # never swallows the whole class


def test_loo_scores_and_threshold_frozen():
    pts = np.array([[0.0], [1.0], [3.0], [7.0]])
    scores = loo_scores(pts, k=1)
    assert scores.tolist() == [1.0, 1.0, 2.0, 4.0]
    # 0.95 quantile of [1, 1, 2, 4] under linear interpolation
    assert loo_threshold(pts, k=1, alpha=0.05) == pytest.approx(3.7)


def test_loo_scores_sum_sorted_distances_bitwise():
    # the k smallest are added in sorted order, not in np.partition's order
    pts = np.random.default_rng(5).normal(size=(800, 2))
    k = 100
    want = np.array([
        np.sort(np.delete(np.linalg.norm(pts - p, axis=1), i))[:k].sum()
        for i, p in enumerate(pts)])
    assert np.array_equal(loo_scores(pts, k), want)


def test_loo_threshold_errors():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="points"):
        loo_threshold(pts, k=2, alpha=0.05)
    with pytest.raises(ValueError, match="alpha"):
        loo_threshold(np.zeros((5, 1)) + np.arange(5)[:, None], k=1, alpha=0.0)


def test_compute_gem_stats_against_direct_recomputation():
    ds = _toy_dataset(n_per_class=12, seed=3)
    config = GemConfig(k=2, partition_ratio=0.3, target_coverage=0.75,
                       epsilon_gamma=1e-3, seed=9)
    stats = compute_gem_stats(ds, config)

    assert np.array_equal(stats.d_tilde, stats.d_raw / ds.n)
    assert np.array_equal(stats.kept, np.unique(stats.kept))  # sorted

    for label in (-1, 1):
        slot = class_index(label)
        ev, ref = bipartite_partition(ds, label, 0.3, seed=9)
        # recompute the statistics sample by sample
        for i in ev:
            dists = sorted(math.dist(ds.x[i], ds.x[j]) for j in ref)
            assert stats.d_raw[i] == pytest.approx(sum(dists[:2]))
        for i in ref:
            dists = sorted(math.dist(ds.x[i], ds.x[j]) for j in ref if j != i)
            assert stats.d_raw[i] == pytest.approx(sum(dists[:2]))

        cls = ds.class_indices(label)
        kz = int(round(0.75 * cls.size))
        kept = np.intersect1d(stats.kept, cls)
        assert kept.size == kz
        lowest = np.sort(stats.d_raw[cls])[:kz]
        assert np.array_equal(np.sort(stats.d_raw[kept]), lowest)
        assert stats.gamma_hat[slot] == pytest.approx((lowest.sum() + 1e-3) / ds.n)
        assert stats.beta_hat[slot] == pytest.approx(0.75 * cls.size / ds.n)


def test_compute_gem_stats_keeps_at_least_one_sample_per_class():
    ds = _toy_dataset(n_per_class=12, seed=3)
    stats = compute_gem_stats(ds, GemConfig(k=2, target_coverage=0.01))
    assert ds.y[stats.kept].tolist() == [-1, 1]
    for label in (-1, 1):
        cls = ds.class_indices(label)
        lowest = stats.d_raw[cls].min()
        assert stats.d_raw[np.intersect1d(stats.kept, cls)].tolist() == [lowest]
        assert stats.gamma_hat[class_index(label)] == (lowest + 1e-3) / ds.n


def test_compute_gem_stats_needs_reference_headroom():
    ds = _toy_dataset(n_per_class=8)
    with pytest.raises(ValueError, match="reference part"):
        compute_gem_stats(ds, GemConfig(k=5, partition_ratio=0.3))


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_compute_gem_stats_rejects_overflowing_distances(scale):
    ds = _toy_dataset(n_per_class=12, seed=3)
    huge = LabeledDataset(ds.x * scale, ds.y)
    assert np.isfinite(huge.x).all()
    with pytest.raises(ValueError, match="k-NN statistics are not finite"):
        compute_gem_stats(huge, GemConfig(k=2))


def test_gem_config_validation():
    with pytest.raises(ValueError):
        GemConfig(k=0)
    with pytest.raises(ValueError):
        GemConfig(partition_ratio=1.0)
    with pytest.raises(ValueError):
        GemConfig(target_coverage=0.0)
    with pytest.raises(ValueError):
        GemConfig(epsilon_gamma=0.0)
    with pytest.raises(ValueError):
        GemConfig(alpha=1.0)
    for bad in ({"k": 2.5}, {"k": 3.0}, {"k": True}, {"seed": 1.5},
                {"seed": False}):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GemConfig(**bad)
    assert GemConfig(k=np.int64(3), seed=np.int64(7)).k == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_loo_threshold_caps_false_alarm_on_itself(seed, k):
    """At level alpha, at most an alpha fraction of the calibration
    points score above their own threshold."""
    pts = np.random.default_rng(seed).normal(size=(40, 2))
    theta = loo_threshold(pts, k=k, alpha=0.1)
    frac_above = np.mean(loo_scores(pts, k=k) > theta)
    assert frac_above <= 0.1 + 1e-12
