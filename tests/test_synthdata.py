import numpy as np
import pytest

from gemmed.synthdata import (COV, COV_FACTOR, MAX_ROWS_PER_CLASS, MEANS,
                              RingExperimentConfig, generate, sample_nominal,
                              sample_ring)


def test_config_validation():
    with pytest.raises(ValueError):
        RingExperimentConfig(R=0.0, r_a=0.2)
    with pytest.raises(ValueError):
        RingExperimentConfig(R=10.0, r_a=1.0)
    with pytest.raises(ValueError):
        RingExperimentConfig(R=10.0, r_a=-0.1)
    for name in ("n_train_per_class", "n_test_per_class"):
        # NumPy could not size the arrays of a count above the limit
        for value, needle in ((0, "at least 1, got 0"),
                              (MAX_ROWS_PER_CLASS + 1, f"at most {MAX_ROWS_PER_CLASS}")):
            with pytest.raises(ValueError, match=f"{name} must be {needle}"):
                RingExperimentConfig(R=10.0, r_a=0.2, **{name: value})
    for R in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"R must lie in \(0, inf\)"):
            RingExperimentConfig(R=R, r_a=0.2)
    # sample_ring squares the outer radius R + 1
    with pytest.raises(ValueError, match=r"R must be at most about 1\.34e154, "
                       r"so that \(R \+ 1\)\*\*2 is finite, got 1e\+200"):
        RingExperimentConfig(R=1e200, r_a=0.2)
    train, test = generate(RingExperimentConfig(R=1e150, r_a=0.2,
                                                n_train_per_class=10,
                                                n_test_per_class=5))
    assert np.isfinite(train.x).all() and np.isfinite(test.x).all()
    with pytest.raises(ValueError, match=r"r_a must lie in \[0, 1\), got nan"):
        RingExperimentConfig(R=10.0, r_a=np.nan)
    for name in ("n_train_per_class", "n_test_per_class", "seed"):
        for value in (2.5, 3.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                RingExperimentConfig(R=10.0, r_a=0.2, **{name: value})
    with pytest.raises(ValueError, match="seed must be at least 0, got -2"):
        RingExperimentConfig(R=10.0, r_a=0.2, seed=-2)
    assert RingExperimentConfig(R=10.0, r_a=0.2, seed=np.int64(3)).seed == 3


def test_exact_anomaly_counts():
    cfg = RingExperimentConfig(R=20.0, r_a=0.17, n_train_per_class=100,
                               n_test_per_class=10, seed=4)
    train, test = generate(cfg)
    assert train.n == 200
    assert test.n == 20
    assert test.anomaly is None
    for label in (-1, 1):
        idx = train.class_indices(label)
        assert idx.size == 100
        # round(0.17 * 100) = 17 corrupted rows in each class
        assert train.anomaly[idx].sum() == 17


def test_ring_rows_sit_in_the_annulus():
    cfg = RingExperimentConfig(R=30.0, r_a=0.25, n_train_per_class=80, seed=1)
    train, _ = generate(cfg)
    radii = np.linalg.norm(train.x[train.anomaly], axis=1)
    assert radii.min() >= 30.0
    assert radii.max() <= 31.0
    # nominal rows live far from the ring at this radius
    nominal_radii = np.linalg.norm(train.x[~train.anomaly], axis=1)
    assert nominal_radii.max() < 30.0


def test_generation_is_deterministic():
    cfg = RingExperimentConfig(R=55.0, r_a=0.2, seed=9)
    a_train, a_test = generate(cfg)
    b_train, b_test = generate(cfg)
    assert np.array_equal(a_train.x, b_train.x)
    assert np.array_equal(a_train.anomaly, b_train.anomaly)
    assert np.array_equal(a_test.x, b_test.x)
    c_train, _ = generate(RingExperimentConfig(R=55.0, r_a=0.2, seed=10))
    assert not np.array_equal(a_train.x, c_train.x)


def test_sample_ring_is_uniform_by_area():
    rng = np.random.default_rng(0)
    R = 10.0
    pts = sample_ring(rng, 40000, R)
    r2 = np.sum(pts ** 2, axis=1)
    assert r2.min() >= R * R
    assert r2.max() <= (R + 1) ** 2
    # squared radius of an area-uniform annulus draw is uniform on
    # [R^2, (R+1)^2], so its mean is the midpoint
    mid = (R * R + (R + 1) ** 2) / 2.0
    half_width = ((R + 1) ** 2 - R * R) / 2.0
    se = half_width / np.sqrt(3.0 * 40000)
    assert abs(r2.mean() - mid) < 4 * se
    # angles cover the whole circle
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    assert abs(np.mean(np.cos(ang))) < 0.02
    assert abs(np.mean(np.sin(ang))) < 0.02


def test_sample_nominal_moments():
    rng = np.random.default_rng(1)
    for label in (-1, 1):
        pts = sample_nominal(rng, 30000, label)
        se = np.sqrt(np.diag(COV) / 30000)
        assert np.all(np.abs(pts.mean(axis=0) - MEANS[label]) < 4 * se)
        np.testing.assert_allclose(np.cov(pts.T), COV, atol=0.6)


def test_class_means_are_antipodal():
    np.testing.assert_array_equal(MEANS[-1], -MEANS[1])
    assert np.array_equal(COV, COV.T)
    assert np.all(np.linalg.eigvalsh(COV) > 0)


def test_cov_factor_reproduces_cov():
    # z @ COV_FACTOR has covariance COV_FACTOR.T @ COV_FACTOR
    np.testing.assert_allclose(COV_FACTOR.T @ COV_FACTOR, COV, rtol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 80, 1000])
def test_sample_nominal_reads_exactly_one_standard_normal_block(n):
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    for label in (-1, 1):
        pts = sample_nominal(rng, n, label)
        z = twin.standard_normal((n, 2))
        assert pts.shape == (n, 2)
        np.testing.assert_array_equal(pts, MEANS[label] + z @ COV_FACTOR)
    assert rng.standard_normal() == twin.standard_normal()
