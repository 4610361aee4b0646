"""Small random dual instances for checking the sampler and the analytic
gradients against the exact enumeration oracle, the per-row k-NN scores
that the batched scorers must reproduce, and the check that a model
refuses a value both when built and when loaded from its file.

The tests import this module by its bare name: pytest puts the tests
directory on ``sys.path`` while it collects the test files there.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from gemmed.kernels import gram_matrix, resolve_kernel
from gemmed.model import DualProblem, DualState, HyperParams
from gemmed.persist import load_model, save_model


def random_instance(n: int, seed: int, hyper: HyperParams | None = None
                    ) -> tuple[DualProblem, DualState]:
    """Random feasible (problem, state): rbf Gram on random points, interior duals."""
    if n < 2:
        raise ValueError("instances need at least two samples")
    rng = np.random.default_rng(seed)
    hyper = hyper or HyperParams()
    x = rng.normal(scale=1.5, size=(n, 2))
    kernel = resolve_kernel("rbf", "auto", x)
    gram = gram_matrix(kernel, x)
    y = np.concatenate([[-1.0, 1.0], rng.choice([-1.0, 1.0], size=n - 2)])
    d_tilde = rng.uniform(0.05, 1.0, size=n)
    gamma_hat = rng.uniform(0.2, 1.5, size=2)
    beta_hat = rng.uniform(0.1, 0.5, size=2)
    p0 = rng.uniform(0.3, 0.9, size=n)
    high = min(1.5, hyper.resolved_cap - 0.05)
    state = DualState(
        lam=rng.uniform(0.05, high, size=n),
        mu=rng.uniform(0.05, 1.5, size=2),
        kappa=rng.uniform(0.05, 1.5, size=2),
    )
    return DualProblem(y, gram, d_tilde, gamma_hat, beta_hat, p0, hyper), state


def per_row_knn(xs, refs, k) -> np.ndarray:
    """k-NN distance sums the slow way: one norm, sort and sum per query row."""
    return np.array([float(np.sort(np.linalg.norm(refs - x[None, :], axis=1))[:k].sum())
                     for x in xs], dtype=float)


def assert_refused(model, key: str, bad, message: str, tmp_path) -> None:
    """A copy of model with the field saved under key set to bad raises
    ValueError(message), and so does loading model's file with key set to bad,
    after the file's name."""
    field = {"lambda": "lam"}.get(key, key)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        dataclasses.replace(model, **{field: np.asarray(bad) if isinstance(bad, list) else bad})
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), key: bad}))
    with pytest.raises(ValueError, match=re.escape(f"model.json: {message}") + "$"):
        load_model(path)
