"""A fixed reference computation that measures the host's current speed.

On a shared virtual machine with 2 vCPUs the speed of the same work
drifted by up to 2x for minutes at a time, with no steal time reported,
so wall times differed from run to run by more than any useful
regression bound. Timing this fixed computation right before and after
a block of rounds and dividing cancels most of that drift: over
25-second windows there, the quartile spread of the ratio was 4% of its
median, against 15% for raw medians and 29% for raw minimums.

The work mixes what the package spends its time on: a Python loop over
small NumPy operations (matrix-vector products, Gaussian and uniform
draws, expit, comparisons), as in the Gibbs sampler and the SVM solver,
plus formatting and parsing floats, as in the CLI's CSV handling. It
imports nothing from the package, so a change to the package cannot move
it. Never change it: every recorded ratio is in its units.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.special import expit

N = 200
SWEEPS = 250
ROWS = 400


def _work() -> float:
    rng = np.random.default_rng(12345)
    a = rng.normal(size=(N, N))
    K = a @ a.T / N + np.eye(N)
    L = np.linalg.cholesky(K)
    lam = rng.uniform(0.0, 0.4, N)
    y = np.where(rng.random(N) < 0.5, -1.0, 1.0)
    eta = np.ones(N)
    acc = 0.0
    for _ in range(SWEEPS):
        f = K @ (lam * eta * y) + L @ rng.standard_normal(N)
        slots = np.fromiter(((int(v) + 1) // 2 for v in y), dtype=int, count=N)
        draws = rng.random((20, N)) < expit(lam * y * f + 0.1 * slots)
        eta = draws[-1].astype(float)
        acc += float(draws.mean())
    text = "\n".join(f"{u!r},{v!r}" for u, v in rng.normal(size=(ROWS, 2)).tolist())
    acc += sum(float(cell) for line in text.split("\n") for cell in line.split(","))
    return acc


def seconds() -> float:
    """Wall time of one pass of the reference computation."""
    start = perf_counter()
    _work()
    return perf_counter() - start
