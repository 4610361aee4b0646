"""Exact-enumeration posterior checks.

The reference implementation below recomputes everything with plain
Python loops over indicator configurations, structured differently
from the vectorized production code, so the two can only agree if the
underlying density is the same.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import expit

from gemmed.kernels import GramMatrix
from gemmed.model import DualProblem, DualState, HyperParams
from gemmed.trainer import dual_gradient
from instances import random_instance
from oracle import MAX_EXACT, OracleResult, exact_posterior, finite_diff_dual


def reference_posterior(state, y, K, d_tilde, p0, n):
    weights = {}
    for eta in itertools.product((0, 1), repeat=n):
        a = [state.lam[i] * eta[i] * y[i] for i in range(n)]
        quad = 0.5 * sum(a[i] * K[i][j] * a[j]
                         for i in range(n) for j in range(n))
        logw = quad
        for i in range(n):
            slot = 0 if y[i] < 0 else 1
            if eta[i]:
                logw += (state.kappa[slot] / n - state.mu[slot] * d_tilde[i]
                         + math.log(p0[i]))
            else:
                logw += math.log(1.0 - p0[i])
        weights[eta] = logw
    m = max(weights.values())
    z = sum(math.exp(v - m) for v in weights.values())
    log_z = m + math.log(z)
    probs = {eta: math.exp(v - log_z) for eta, v in weights.items()}

    eta_hat = np.zeros(n)
    e_eyf = np.zeros(n)
    e_sum_eta = np.zeros(2)
    e_sum_eta_d = np.zeros(2)
    for eta, p in probs.items():
        a = np.array([state.lam[i] * eta[i] * y[i] for i in range(n)])
        f_mean = np.asarray(K) @ a
        for i in range(n):
            slot = 0 if y[i] < 0 else 1
            eta_hat[i] += p * eta[i]
            e_eyf[i] += p * eta[i] * y[i] * f_mean[i]
            e_sum_eta[slot] += p * eta[i]
            e_sum_eta_d[slot] += p * eta[i] * d_tilde[i]
    return log_z, eta_hat, e_eyf, e_sum_eta, e_sum_eta_d


def test_matches_loop_reference_on_random_instances():
    for seed in range(6):
        problem, state = random_instance(5, seed)
        res = exact_posterior(state, problem)
        log_z, eta_hat, e_eyf, e_sum_eta, e_sum_eta_d = reference_posterior(
            state, problem.y, problem.gram.values, problem.d_tilde,
            problem.p0, 5)
        assert res.log_partition == pytest.approx(log_z, rel=1e-12)
        np.testing.assert_allclose(res.eta_hat, eta_hat, rtol=1e-10)
        np.testing.assert_allclose(res.e_eta_y_f, e_eyf, rtol=1e-10)
        np.testing.assert_allclose(res.e_sum_eta, e_sum_eta, rtol=1e-10)
        np.testing.assert_allclose(res.e_sum_eta_d, e_sum_eta_d, rtol=1e-10)


def test_single_sample_closed_form():
    """n=1, unit kernel, lam=1, flat prior: the two configurations weigh
    1 and e^(1/2), so everything reduces to sigmoid(1/2)."""
    state = DualState(lam=np.array([1.0]), mu=np.zeros(2), kappa=np.zeros(2))
    problem = DualProblem(np.array([1.0]), GramMatrix(np.eye(1), np.eye(1)),
                          np.array([0.3]), np.array([0.2, 0.4]),
                          np.array([0.1, 0.2]), np.array([0.5]),
                          HyperParams(c=10.0))
    res = exact_posterior(state, problem)
    s = float(expit(0.5))
    assert res.eta_hat[0] == pytest.approx(s, rel=1e-14)
    assert res.e_eta_y_f[0] == pytest.approx(s, rel=1e-14)
    np.testing.assert_allclose(res.e_sum_eta, [0.0, s], rtol=1e-14)
    np.testing.assert_allclose(res.e_sum_eta_d, [0.0, 0.3 * s], rtol=1e-14)
    assert res.log_partition == pytest.approx(
        math.log(0.5) + math.log(1.0 + math.exp(0.5)), rel=1e-14)
    closed = 1.0 + math.log(1.0 - 1.0 / 10.0)
    closed += -(0.0 * 0.2 + 0.0 * 0.4) + (0.0 * 0.1 + 0.0 * 0.2)
    assert res.dual_value == pytest.approx(closed - res.log_partition)
    assert res.config_probs.sum() == pytest.approx(1.0, rel=1e-14)


def test_dual_closed_part_tracks_duals():
    problem, state = random_instance(4, 3)
    res = exact_posterior(state, problem)
    lam, c = state.lam, problem.hyper.c
    closed = float(np.sum(lam + np.log1p(-lam / c)))
    closed += float(-state.mu @ problem.gamma_hat
                    + state.kappa @ problem.beta_hat)
    assert res.dual_value == pytest.approx(closed - res.log_partition)


def test_size_and_domain_guards():
    problem, state = random_instance(3, 0)
    big = MAX_EXACT + 1
    with pytest.raises(ValueError, match="at most"):
        exact_posterior(
            DualState(np.full(big, 0.1), np.zeros(2), np.zeros(2)),
            DualProblem(np.ones(big), GramMatrix(np.eye(big), np.eye(big)),
                        np.ones(big), np.ones(2), np.ones(2),
                        np.full(big, 0.5), problem.hyper))
    bad = DualState(state.lam.copy(), state.mu, state.kappa)
    bad.lam[0] = problem.hyper.c
    with pytest.raises(ValueError, match="below c"):
        exact_posterior(bad, problem)


def test_probabilities_form_distribution():
    for seed in (11, 12, 13):
        problem, state = random_instance(6, seed)
        res = exact_posterior(state, problem)
        assert isinstance(res, OracleResult)
        assert res.config_probs.shape == (64,)
        assert np.all(res.config_probs >= 0)
        assert res.config_probs.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(res.eta_hat >= 0) and np.all(res.eta_hat <= 1)
        sizes = [np.sum(problem.y == -1), np.sum(problem.y == 1)]
        assert np.all(res.e_sum_eta <= np.array(sizes) + 1e-12)


def test_raising_mu_suppresses_that_class_only():
    problem, state = random_instance(6, 2)
    base = exact_posterior(state, problem)
    bumped = DualState(state.lam.copy(), state.mu.copy(), state.kappa.copy())
    bumped.mu[0] += 2.0
    res = exact_posterior(bumped, problem)
    neg = problem.y == -1
    assert np.all(res.eta_hat[neg] < base.eta_hat[neg])


def test_gradient_matches_finite_differences():
    for seed in (0, 1):
        problem, state = random_instance(5, seed)
        g = dual_gradient(state, exact_posterior(state, problem), problem)
        *fd, flags = finite_diff_dual(state, problem)
        for a, f in zip(g, fd):
            np.testing.assert_allclose(a, f, rtol=0, atol=1e-6)
        assert not any(v.any() for v in flags.values())  # interior point


def test_finite_diff_boundary_coordinates_are_flagged():
    problem, interior = random_instance(4, 5)
    state = DualState(interior.lam.copy(), np.zeros(2),
                      interior.kappa.copy())
    state.lam[0] = 0.0
    state.lam[1] = problem.hyper.resolved_cap
    g_lam, *_, flags = finite_diff_dual(state, problem)
    assert flags["lam"][0]
    assert flags["lam"][1] and not flags["lam"][2:].any()
    assert flags["mu"].all()  # both at the lower boundary

    def dual(lam1):
        lam = state.lam.copy()
        lam[1] = lam1
        return exact_posterior(DualState(lam, state.mu, state.kappa),
                               problem).dual_value

    # lam at the cap takes the backward difference
    h = 1e-4
    assert g_lam[1] == (dual(state.lam[1]) - dual(state.lam[1] - h)) / h
    with pytest.raises(ValueError, match="h"):
        finite_diff_dual(interior, problem, h=0.0)
