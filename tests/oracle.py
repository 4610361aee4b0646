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
unaffected. ``exact_posterior`` and ``finite_diff_dual`` read the same
``model.DualProblem`` as the sampler; the exact dual gradient is
``trainer.dual_gradient`` evaluated at ``exact_posterior``'s expectations.

Only tests read it; they import it by its bare name, as they do
``instances``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from gemmed.model import DualProblem, DualState, eta_logits

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


def exact_posterior(state: DualState, problem: DualProblem) -> OracleResult:
    """Enumerate all indicator configurations and return exact summaries.

    Refuses instances with more than 16 samples; the enumeration cost
    doubles per extra sample and larger instances are what the sampler
    is for.
    """
    n, y, K = problem.n, problem.y, problem.gram.values
    if n > MAX_EXACT:
        raise ValueError(f"exact posterior supports at most {MAX_EXACT} samples, got {n}")
    if np.any(state.lam >= problem.hyper.c):
        raise ValueError("lam must stay strictly below c")

    configs = _enumerate_configs(n)  # (2^n, n)
    a = state.lam * y
    # the f-free logit: per-sample weight of eta_n = 1 beyond the quadratic
    theta = eta_logits(state, problem)

    scaled = configs * a[None, :]
    quad = 0.5 * np.einsum("ci,ij,cj->c", scaled, K, scaled)
    log_w = quad + configs @ theta + np.sum(np.log1p(-problem.p0))

    log_z = float(logsumexp(log_w))
    probs = np.exp(log_w - log_z)

    mean_f = scaled @ K.T  # row c holds E[f | eta_c]
    e_eta_y_f = probs @ (configs * y[None, :] * mean_f)
    eta_hat = probs @ configs

    # per class slot, through the one-hot matrices the sampler reads
    e_sum_eta_d = probs @ (configs @ problem.slot_d_tilde)
    e_sum_eta = probs @ (configs @ problem.slots)

    return OracleResult(
        log_partition=log_z,
        dual_value=problem.closed_dual(state) - log_z,
        e_eta_y_f=e_eta_y_f,
        e_sum_eta_d=e_sum_eta_d,
        e_sum_eta=e_sum_eta,
        eta_hat=eta_hat,
        config_probs=probs,
    )


def finite_diff_dual(state: DualState, problem: DualProblem, h: float = 1e-4):
    """Finite differences of the exact dual objective in every coordinate.

    Central differences by default; coordinates within h of a domain
    boundary (lam in [0, lambda_cap], mu and kappa at 0) fall back to a
    one-sided difference and are flagged. Returns (g_lam, g_mu,
    g_kappa, one_sided) with one_sided a dict of boolean arrays.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    cuts = (state.lam.size, state.lam.size + state.mu.size)
    point = np.concatenate([state.lam, state.mu, state.kappa])
    upper = np.full(point.size, np.inf)
    upper[:cuts[0]] = problem.hyper.lambda_cap

    def value(i: int, v: float) -> float:
        moved = point.copy()
        moved[i] = v
        return exact_posterior(DualState(*np.split(moved, cuts)),
                               problem).dual_value

    grads = np.zeros(point.size)
    flags = np.zeros(point.size, dtype=bool)
    for i, v in enumerate(point):
        hi_ok = v + h <= upper[i]
        lo_ok = v - h >= 0.0 or not hi_ok  # backward when the upper bound binds
        flags[i] = not (lo_ok and hi_ok)
        grads[i] = ((value(i, v + h if hi_ok else v)
                     - value(i, v - h if lo_ok else v))
                    / (h if flags[i] else 2 * h))
    g_lam, g_mu, g_kappa = np.split(grads, cuts)
    f_lam, f_mu, f_kappa = np.split(flags, cuts)
    return g_lam, g_mu, g_kappa, {"lam": f_lam, "mu": f_mu, "kappa": f_kappa}
