import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemmed.dataset import class_index
from gemmed.kernels import GramMatrix, KernelSpec
from gemmed.model import (DualProblem, DualState, HyperParams, TrainedModel,
                          eta_logits, per_sample_class_values, resolve_p0)
from instances import assert_refused


def test_hyper_defaults_and_cap():
    h = HyperParams()
    assert (h.c, h.lambda_cap) == (10.0, 0.4)
    # only the nominal prior defaults to unset
    assert [f.name for f in dataclasses.fields(h) if getattr(h, f.name) is None] == ["p0"]
    # the cap does not follow c: a c at or below 0.4 needs its own cap
    with pytest.raises(ValueError,
                       match=r"lambda_cap must lie in \(0, 0\.3\), got 0\.4"):
        HyperParams(c=0.3)
    assert HyperParams(c=0.3, lambda_cap=0.2).lambda_cap == 0.2


def test_hyper_validation():
    with pytest.raises(ValueError):
        HyperParams(c=0.0)
    with pytest.raises(ValueError,
                       match=r"lambda_cap must lie in \(0, 10\.0\), got 10\.0"):
        HyperParams(lambda_cap=10.0)
    with pytest.raises(ValueError):
        HyperParams(lambda_cap=0.0)
    with pytest.raises(ValueError):
        HyperParams(p0=1.0)
    with pytest.raises(ValueError):
        HyperParams(steps=-1)
    with pytest.raises(ValueError):
        HyperParams(rate_mu=0.0)
    for name in ("c", "rate_lambda", "rate_mu", "rate_kappa"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=rf"{name} must lie in \(0, inf\)"):
                HyperParams(**{name: value})
    with pytest.raises(ValueError):
        HyperParams(gibbs_sweeps=0)
    with pytest.raises(ValueError, match="burn_in < gibbs_sweeps, got 30 and 30"):
        HyperParams(burn_in=30, gibbs_sweeps=30)
    for name in ("steps", "gibbs_sweeps", "burn_in", "seed"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            HyperParams(**{name: 3.0})
    with pytest.raises(ValueError, match="seed must be an integer"):
        HyperParams(seed=True)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        HyperParams(seed=-1)
    assert HyperParams(seed=np.int64(3)).seed == 3


def test_resolve_p0_priority_chain():
    n = 4
    assert resolve_p0(HyperParams(p0=0.6), coverage=0.9, n=n).tolist() == [0.6] * n
    # otherwise the coverage target, clipped into [0.5, 0.99]
    assert resolve_p0(HyperParams(), 0.8, n)[0] == pytest.approx(0.8)
    assert resolve_p0(HyperParams(), 0.2, n)[0] == 0.5
    assert resolve_p0(HyperParams(), 0.9999, n)[0] == 0.99


def test_per_sample_class_values():
    vals = np.array([10.0, 20.0])
    y = np.array([1, -1, -1, 1])
    assert per_sample_class_values(vals, y).tolist() == [20.0, 10.0, 10.0, 20.0]


@settings(max_examples=100, deadline=None)
@given(labels=st.lists(st.sampled_from([-1, 1]), max_size=40),
       dtype=st.sampled_from([np.int64, np.float64]),
       values=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
@example(labels=[], dtype=np.int64, values=(1.0, 2.0))
@example(labels=[], dtype=np.float64, values=(1.0, 2.0))
@example(labels=[-1], dtype=np.int64, values=(1.0, 2.0))
@example(labels=[1], dtype=np.float64, values=(1.0, 2.0))
def test_per_sample_class_values_matches_class_index(labels, dtype, values):
    vals = np.array(values)
    y = np.array(labels, dtype=dtype)
    out = per_sample_class_values(vals, y)
    assert out.shape == (len(labels),)
    assert out.tolist() == [vals[0] if v == -1 else vals[1] for v in y]
    assert out.tolist() == vals[class_index(y)].tolist()


def test_eta_logits_hand_computed():
    state = DualState(lam=np.array([2.0, 0.5]), mu=np.array([1.0, 3.0]),
                      kappa=np.array([4.0, 6.0]))
    y = np.array([-1.0, 1.0])
    d_tilde = np.array([0.1, 0.2])
    p0 = np.array([0.5, 0.75])
    problem = DualProblem(y, GramMatrix(np.eye(2), np.eye(2)), d_tilde,
                          np.zeros(2), np.zeros(2), p0, HyperParams())
    out = eta_logits(state, problem)
    # sample 0: 0 - 1.0*0.1 + 4/2 = 1.9
    assert out[0] == pytest.approx(1.9)
    # sample 1: log(3) - 3*0.2 + 6/2 = log(3) + 2.4
    assert out[1] == pytest.approx(math.log(3.0) + 2.4)




# Each value a joint model refuses, built in Python or read from a model file,
# as (JSON key, value, message). trainer.train produces none of them: it
# clips lam into [0, lambda_cap], eta_hat is a mean of 0/1 draws, theta is a
# quantile of k-NN distance sums, GemConfig holds k, alpha and
# target_coverage, and a nominal support of k or fewer points fails training.
@pytest.mark.parametrize("key,bad,message", [
    pytest.param("theta", -5.0, "theta must lie in [0, inf), got -5.0", id="theta-negative"),
    pytest.param("alpha", 2.0, "alpha must lie in (0, 1), got 2.0", id="alpha-above-1"),
    pytest.param("alpha", 0.0, "alpha must lie in (0, 1), got 0.0", id="alpha-zero"),
    pytest.param("target_coverage", 7.0, "target_coverage must lie in (0, 1], got 7.0",
                 id="target_coverage-above-1"),
    pytest.param("k", 0, "k must be at least 1, got 0", id="k-zero"),
    pytest.param("k", 3, "k=3 exceeds the 2 point(s) of the nominal support",
                 id="k-above-support"),
    pytest.param("eta_hat", [0.25, 0.5], "k=1 exceeds the 0 point(s) of the nominal support",
                 id="eta_hat-no-support"),
    pytest.param("eta_hat", [0.75, 1.5], "eta_hat must lie in [0, 1]", id="eta_hat-above-1"),
    pytest.param("eta_hat", [-0.5, 1.0], "eta_hat must lie in [0, 1]", id="eta_hat-negative"),
    pytest.param("lambda", [-0.25, 0.5], "lam must be at least 0", id="lam-negative"),
    pytest.param("lambda", [0.25], "lam must hold one entry per row of x", id="lam-short"),
    pytest.param("y", [-1, 0], "labels must be -1 or +1", id="y-not-a-label"),
])
def test_joint_model_refuses_what_training_cannot_produce(tmp_path, key, bad, message):
    model = TrainedModel(
        kernel=KernelSpec("rbf", gamma=0.5), x=np.array([[-1.0], [2.0]]),
        y=np.array([-1, 1]), lam=np.array([0.25, 0.5]), eta_hat=np.array([0.75, 1.0]),
        gamma_hat=np.array([0.1, 0.2]), beta_hat=np.array([0.5, 0.75]),
        theta=3.0, k=1, alpha=0.05, target_coverage=0.8)
    assert_refused(model, key, bad, message, tmp_path)
