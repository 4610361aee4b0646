"""Synthetic two-Gaussian experiment with ring-shaped corruption.

Nominal samples of class -1 come from N((3, 3), S) and of class +1
from N((-3, -3), S) with shared covariance S = [[20, 16], [16, 20]].
Corrupted training samples are drawn uniformly by area from the
annulus of radii [R, R+1] centered at the origin and replace nominal
draws, so per-class totals stay fixed; exactly round(r_a * n) rows of
each class are anomalous. Test sets are clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset, check_integers, check_reals

MEANS = {-1: np.array([3.0, 3.0]), 1: np.array([-3.0, -3.0])}
COV = np.array([[20.0, 16.0], [16.0, 20.0]])
# z @ COV_FACTOR has covariance COV_FACTOR.T @ COV_FACTOR = COV for standard
# normal rows z; the factor is the one Generator.multivariate_normal builds
# by SVD, so draws match it while the SVD runs once.
_u, _s, _ = np.linalg.svd(COV)
COV_FACTOR = (_u * np.sqrt(_s)).T
# NumPy counts an array's bytes in intp; n rows per class fill 32n bytes
MAX_ROWS_PER_CLASS = np.iinfo(np.intp).max // 32


@dataclass(frozen=True)
class RingExperimentConfig:
    """Geometry and sizes for one simulated dataset."""

    R: float
    r_a: float
    n_train_per_class: int = 100
    n_test_per_class: int = 2000
    seed: int = 0

    def __post_init__(self):
        check_integers(self, n_train_per_class=1, n_test_per_class=1, seed=0)
        for name in ("n_train_per_class", "n_test_per_class"):
            if getattr(self, name) > MAX_ROWS_PER_CLASS:
                raise ValueError(f"{name} must be at most {MAX_ROWS_PER_CLASS}")
        check_reals(self, R="(0, inf)", r_a="[0, 1)")
        with np.errstate(over="ignore"):  # sample_ring squares the radii
            outer_squared = np.square(np.float64(self.R) + 1.0)
        if not np.isfinite(outer_squared):
            raise ValueError("R must be at most about 1.34e154, so that "
                             f"(R + 1)**2 is finite, got {self.R!r}")


def sample_ring(rng: np.random.Generator, n: int, R: float) -> np.ndarray:
    """Uniform-by-area draws from the annulus [R, R+1]."""
    u = rng.random(n)
    radius = np.sqrt(R * R + u * (2.0 * R + 1.0))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def sample_nominal(rng: np.random.Generator, n: int, label: int) -> np.ndarray:
    """n draws from N(MEANS[label], COV), reading standard_normal((n, 2))."""
    return MEANS[label] + rng.standard_normal((n, 2)) @ COV_FACTOR


def generate(config: RingExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Return (train, test); train carries ground-truth anomaly flags."""
    rng = np.random.default_rng(config.seed)
    xs, ys, flags = [], [], []
    for label in (-1, 1):
        n = config.n_train_per_class
        n_anom = int(round(config.r_a * n))
        xs.append(sample_nominal(rng, n - n_anom, label))
        ys.append(np.full(n - n_anom, label))
        flags.append(np.zeros(n - n_anom, dtype=bool))
        if n_anom:
            xs.append(sample_ring(rng, n_anom, config.R))
            ys.append(np.full(n_anom, label))
            flags.append(np.ones(n_anom, dtype=bool))
    train = LabeledDataset(np.vstack(xs), np.concatenate(ys),
                           np.concatenate(flags))

    xs, ys = [], []
    for label in (-1, 1):
        xs.append(sample_nominal(rng, config.n_test_per_class, label))
        ys.append(np.full(config.n_test_per_class, label))
    test = LabeledDataset(np.vstack(xs), np.concatenate(ys))
    return train, test
