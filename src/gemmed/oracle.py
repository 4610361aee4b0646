"""Exact small-instance posterior by indicator enumeration.

For n <= 16 samples the indicator posterior is tractable: integrating
the Gaussian decision values out of the joint density leaves, for each
configuration eta in {0,1}^n, the log weight

    w(eta) = (1/2) (lam*eta*y)' K (lam*eta*y)
             + sum_n eta_n (kappa_{y_n}/n - mu_{y_n} dt_n)
             + sum_n [eta_n log p0_n + (1 - eta_n) log(1 - p0_n)]

normalized by log-sum-exp. Conditional decision-value means are
E[f | eta] = K (lam*eta*y), which closes every expectation the trainer
estimates. The dual objective reported here drops the constant
Gaussian normalizer of the decision-value prior; it is additive and
does not depend on the duals, so gradients and finite differences are
unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .model import DualState, HyperParams, per_sample_class_values
from .trainer import dual_gradient

MAX_EXACT = 16


@dataclass(frozen=True)
class OracleResult:
    """Exact posterior summaries for one dual point."""

    log_partition: float
    dual_value: float
    e_eta_y_f: np.ndarray
    e_sum_eta_d: np.ndarray
    e_sum_eta: np.ndarray
    eta_hat: np.ndarray
    config_probs: np.ndarray


def _enumerate_configs(n: int) -> np.ndarray:
    codes = np.arange(2 ** n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    return bits.astype(float)


def exact_posterior(state: DualState, y: np.ndarray, K: np.ndarray,
                    d_tilde: np.ndarray, gamma_hat: np.ndarray,
                    beta_hat: np.ndarray, p0: np.ndarray,
                    hyper: HyperParams) -> OracleResult:
    """Enumerate all indicator configurations and return exact summaries.

    Refuses instances with more than 16 samples; the enumeration cost
    doubles per extra sample and larger instances are what the sampler
    is for.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n > MAX_EXACT:
        raise ValueError(f"exact posterior supports at most {MAX_EXACT} samples, got {n}")
    if np.any(state.lam >= hyper.c):
        raise ValueError("lam must stay strictly below c")
    p0 = np.asarray(p0, dtype=float)
    d_tilde = np.asarray(d_tilde, dtype=float)

    configs = _enumerate_configs(n)  # (2^n, n)
    a = state.lam * y
    mu_n = per_sample_class_values(state.mu, y)
    kap_n = per_sample_class_values(state.kappa, y)
    theta = kap_n / n - mu_n * d_tilde + np.log(p0) - np.log1p(-p0)

    scaled = configs * a[None, :]
    quad = 0.5 * np.einsum("ci,ij,cj->c", scaled, K, scaled)
    log_w = quad + configs @ theta + np.sum(np.log1p(-p0))

    log_z = float(logsumexp(log_w))
    probs = np.exp(log_w - log_z)

    mean_f = scaled @ K.T  # row c holds E[f | eta_c]
    e_eta_y_f = probs @ (configs * y[None, :] * mean_f)
    eta_hat = probs @ configs

    masks = np.stack([y == -1, y == 1])
    e_sum_eta_d = np.array([probs @ (configs[:, m] @ d_tilde[m]) for m in masks])
    e_sum_eta = np.array([probs @ configs[:, m].sum(axis=1) for m in masks])

    closed = float(np.sum(state.lam + np.log1p(-state.lam / hyper.c)))
    closed += float(-state.mu @ np.asarray(gamma_hat)
                    + state.kappa @ np.asarray(beta_hat))
    return OracleResult(
        log_partition=log_z,
        dual_value=closed - log_z,
        e_eta_y_f=e_eta_y_f,
        e_sum_eta_d=e_sum_eta_d,
        e_sum_eta=e_sum_eta,
        eta_hat=eta_hat,
        config_probs=probs,
    )


def oracle_gradient(state: DualState, y, K, d_tilde, gamma_hat, beta_hat, p0,
                    hyper: HyperParams):
    """trainer.dual_gradient evaluated at the exact expectations."""
    res = exact_posterior(state, y, K, d_tilde, gamma_hat, beta_hat, p0, hyper)
    return dual_gradient(state, res, gamma_hat, beta_hat, y.size, hyper)


def finite_diff_dual(state: DualState, y, K, d_tilde, gamma_hat, beta_hat, p0,
                     hyper: HyperParams, h: float = 1e-4):
    """Finite differences of the exact dual objective in every coordinate.

    Central differences by default; coordinates within h of a domain
    boundary (lam in [0, lambda_cap], mu and kappa at 0) fall back to a
    one-sided difference and are flagged. Returns (g_lam, g_mu,
    g_kappa, one_sided) with one_sided a dict of boolean arrays.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    cap = hyper.resolved_cap

    def value(s: DualState) -> float:
        return exact_posterior(s, y, K, d_tilde, gamma_hat, beta_hat, p0,
                               hyper).dual_value

    def diff_vector(vec: np.ndarray, assign, lower, upper):
        grads = np.zeros(vec.size)
        flags = np.zeros(vec.size, dtype=bool)
        for i in range(vec.size):
            v = vec[i]
            lo_ok = v - h >= lower
            hi_ok = (upper is None) or (v + h <= upper)
            if lo_ok and hi_ok:
                grads[i] = (value(assign(i, v + h)) - value(assign(i, v - h))) / (2 * h)
            elif hi_ok:
                grads[i] = (value(assign(i, v + h)) - value(assign(i, v))) / h
                flags[i] = True
            else:
                grads[i] = (value(assign(i, v)) - value(assign(i, v - h))) / h
                flags[i] = True
        return grads, flags

    def with_lam(i, v):
        lam = state.lam.copy(); lam[i] = v
        return DualState(lam, state.mu.copy(), state.kappa.copy())

    def with_mu(i, v):
        mu = state.mu.copy(); mu[i] = v
        return DualState(state.lam.copy(), mu, state.kappa.copy())

    def with_kappa(i, v):
        kap = state.kappa.copy(); kap[i] = v
        return DualState(state.lam.copy(), state.mu.copy(), kap)

    g_lam, f_lam = diff_vector(state.lam, with_lam, 0.0, cap)
    g_mu, f_mu = diff_vector(state.mu, with_mu, 0.0, None)
    g_kappa, f_kappa = diff_vector(state.kappa, with_kappa, 0.0, None)
    return g_lam, g_mu, g_kappa, {"lam": f_lam, "mu": f_mu, "kappa": f_kappa}
