import numpy as np
import pytest

from gemmed.model import HyperParams
from instances import random_instance


def test_random_instance_shape_and_feasibility():
    problem, state = random_instance(6, 3)
    again, again_state = random_instance(6, 3)
    assert np.array_equal(problem.gram.values,
                          again.gram.values)  # seeded, reproducible
    assert np.array_equal(state.lam, again_state.lam)
    assert problem.y[0] == -1 and problem.y[1] == 1  # both classes present
    assert np.all(state.lam < problem.hyper.lambda_cap)
    assert np.all(state.lam > 0)
    assert np.all((problem.p0 > 0) & (problem.p0 < 1))
    assert np.all(problem.d_tilde > 0)
    assert problem.gram.values.shape == (6, 6)
    other, _ = random_instance(6, 4)
    assert not np.array_equal(problem.gram.values, other.gram.values)
    with pytest.raises(ValueError):
        random_instance(1, 0)


def test_random_instance_respects_tight_cap():
    hyper = HyperParams(lambda_cap=0.4)
    for seed in range(5):
        _, state = random_instance(5, seed, hyper=hyper)
        assert np.all(state.lam <= 0.4 - 0.05 + 1e-12)
