import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemmed.dataset import class_index
from gemmed.gem import GemConfig
from gemmed.kernels import KernelSpec
from gemmed.model import (DualState, HyperParams, eta_logits,
                          per_sample_class_values, resolve_p0)
from gemmed.synthdata import RingExperimentConfig, generate
from gemmed.trainer import train


def test_hyper_defaults_and_cap():
    h = HyperParams()
    assert h.c == 10.0
    assert h.resolved_cap == pytest.approx(9.9)
    assert HyperParams(lambda_cap=0.4).resolved_cap == 0.4
    assert h.with_seed(7).seed == 7
    assert h.with_seed(7).c == h.c


def test_hyper_validation():
    with pytest.raises(ValueError):
        HyperParams(c=0.0)
    with pytest.raises(ValueError):
        HyperParams(lambda_cap=10.0)  # must stay below c
    with pytest.raises(ValueError):
        HyperParams(lambda_cap=0.0)
    with pytest.raises(ValueError):
        HyperParams(p0=1.0)
    with pytest.raises(ValueError):
        HyperParams(steps=-1)
    with pytest.raises(ValueError):
        HyperParams(rate_mu=0.0)
    with pytest.raises(ValueError):
        HyperParams(gibbs_sweeps=0)
    with pytest.raises(ValueError):
        HyperParams(burn_in=30, gibbs_sweeps=30)
    for name in ("steps", "gibbs_sweeps", "burn_in", "seed"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            HyperParams(**{name: 3.0})
    with pytest.raises(ValueError, match="seed must be an integer"):
        HyperParams(seed=True)
    assert HyperParams(seed=np.int64(3)).seed == 3


def test_hyper_warns_outside_stable_rate_band():
    # the rates are checked where they are used, once per train call and
    # at the caller's line; building (or loading) the parameters is silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hyper = HyperParams(lambda_cap=0.4, steps=1, gibbs_sweeps=8,
                            burn_in=2, rate_lambda=5e-2, rate_mu=5e-4)
    train_set, _ = generate(RingExperimentConfig(
        R=55.0, r_a=0.2, n_train_per_class=20, n_test_per_class=5, seed=0))
    with pytest.warns(UserWarning) as record:
        train(train_set, KernelSpec("rbf", gamma=0.1), GemConfig(k=3), hyper)
    assert [str(w.message) for w in record] == [
        "rate_lambda=0.05 outside the stable range [0.0001, 0.01]",
        "rate_mu=0.0005 outside the stable range [0.001, 0.1]"]
    assert {w.filename for w in record} == {__file__}


def test_resolve_p0_priority_chain():
    n = 4
    assert resolve_p0(HyperParams(p0=0.6), coverage=0.9, n=n).tolist() == [0.6] * n
    # a_eta maps through sigmoid(a_eta - 1)
    h = HyperParams(a_eta=math.log(3.0) + 1.0)
    np.testing.assert_allclose(resolve_p0(h, 0.9, n), 0.75)
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
    assert out.tolist() == [vals[class_index(v)] for v in y]


def test_eta_logits_hand_computed():
    state = DualState(lam=np.array([2.0, 0.5]), mu=np.array([1.0, 3.0]),
                      kappa=np.array([4.0, 6.0]))
    f = np.array([0.25, -1.0])
    y = np.array([-1.0, 1.0])
    d_tilde = np.array([0.1, 0.2])
    p0 = np.array([0.5, 0.75])
    out = eta_logits(state, f, y, d_tilde, p0, n_total=2)
    # sample 0: 0 + 2*(-1)*0.25 - 1.0*0.1 + 4/2 = 1.4
    assert out[0] == pytest.approx(1.4)
    # sample 1: log(3) + 0.5*(-1) - 3*0.2 + 6/2 = log(3) + 1.9
    assert out[1] == pytest.approx(math.log(3.0) + 1.9)


