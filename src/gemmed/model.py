"""Shared model types: hyperparameters, dual state, trained model.

The joint density the trainer and the exact oracle both work with, at
fixed duals (lam, mu, kappa), has unnormalized log form

    -(1/2) f' K^{-1} f + sum_n eta_n lam_n y_n f_n
      + sum_n eta_n (kappa_{y_n} / n - mu_{y_n} dt_n)
      + sum_n [eta_n log p0_n + (1 - eta_n) log(1 - p0_n)]

with dt_n the per-sample statistic in 1/n units and p0_n the prior
probability that sample n is nominal. The helpers here centralize the
per-sample pieces of that expression so the sampler and the oracle
cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np
from scipy.special import expit

from .kernels import KernelSpec

RATE_RANGES = {"rate_lambda": (1e-4, 1e-2), "rate_mu": (1e-3, 1e-1),
               "rate_kappa": (1e-3, 1e-1)}


@dataclass(frozen=True)
class HyperParams:
    """Trainer hyperparameters.

    The margin-slack rate ``c`` also caps the per-sample duals through
    ``lambda_cap`` (defaults to 0.99 * c). The nominal prior ``p0`` may
    be given directly, derived from ``a_eta`` as sigmoid(a_eta - 1), or
    left unset, in which case it follows the coverage target (clipped
    to [0.5, 0.99]) so that unpenalized samples sit on the nominal side.

    Training always runs all ``steps`` dual ascent iterations, moving
    lam, mu and kappa by ``rate_lambda``, ``rate_mu`` and ``rate_kappa``
    times their gradients. Each step averages ``gibbs_sweeps - burn_in``
    sweeps of one persistent sampler chain, which discards its first
    ``burn_in`` sweeps. ``seed`` seeds the sampler.
    """

    c: float = 10.0
    lambda_cap: float | None = None
    a_eta: float | None = None
    p0: float | None = None
    steps: int = 200
    rate_lambda: float = 2e-3
    rate_mu: float = 2e-2
    rate_kappa: float = 2e-2
    gibbs_sweeps: int = 30
    burn_in: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "gibbs_sweeps", "burn_in", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.c <= 0:
            raise ValueError("c must be positive")
        cap = self.resolved_cap
        if not 0 < cap < self.c:
            raise ValueError("lambda_cap must lie strictly between 0 and c")
        if self.p0 is not None and not 0 < self.p0 < 1:
            raise ValueError("p0 must lie in (0, 1)")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        for rate in (self.rate_lambda, self.rate_mu, self.rate_kappa):
            if rate <= 0:
                raise ValueError("learning rates must be positive")
        if not 0 <= self.burn_in < self.gibbs_sweeps:
            raise ValueError("need 0 <= burn_in < gibbs_sweeps: the sampler "
                             "averages at least one sweep")

    @property
    def resolved_cap(self) -> float:
        return 0.99 * self.c if self.lambda_cap is None else self.lambda_cap

    def with_seed(self, seed: int) -> "HyperParams":
        return replace(self, seed=seed)


def resolve_p0(hyper: HyperParams, coverage: float, n: int) -> np.ndarray:
    """Per-sample nominal prior as an (n,) vector.

    Priority: explicit p0, then sigmoid(a_eta - 1), then the coverage
    target clipped to [0.5, 0.99].
    """
    if hyper.p0 is not None:
        p = float(hyper.p0)
    elif hyper.a_eta is not None:
        p = float(expit(hyper.a_eta - 1.0))
    else:
        p = float(np.clip(coverage, 0.5, 0.99))
    if not 0 < p < 1:
        raise ValueError("resolved nominal prior must lie in (0, 1)")
    return np.full(n, p)


@dataclass
class DualState:
    """Dual variables: per-sample lam, per-class mu and kappa (slot order -1, +1)."""

    lam: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray


def per_sample_class_values(values_by_slot: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Expand a 2-vector of per-class values to one entry per sample.

    Labels in {-1, +1}, int or float, map to slots (y + 1) // 2, the same
    slots ``dataset.class_index`` gives one label at a time.
    """
    slots = (np.asarray(y).astype(int) + 1) // 2
    return np.asarray(values_by_slot)[slots]


def eta_logits(state: DualState, f: np.ndarray, y: np.ndarray,
               d_tilde: np.ndarray, p0: np.ndarray, n_total: int) -> np.ndarray:
    """Log-odds of eta_n = 1 given decision values f.

    logit(p0_n) + lam_n y_n f_n - mu_{y_n} dt_n + kappa_{y_n} / n.
    """
    prior = np.log(p0) - np.log1p(-p0)
    mu_n = per_sample_class_values(state.mu, y)
    kap_n = per_sample_class_values(state.kappa, y)
    return prior + state.lam * y * f - mu_n * d_tilde + kap_n / n_total


@dataclass
class TrainedModel:
    """Joint classifier / anomaly screen produced by the trainer.

    Prediction uses sign(sum_n eta_hat_n lam_n y_n K(x, x_n)) with ties
    to +1. Detection scores a query by its k-NN distance sum into the
    nominal support (eta_hat > 1/2) and compares against theta.
    """

    kernel: KernelSpec
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    eta_hat: np.ndarray
    gamma_hat: np.ndarray
    beta_hat: np.ndarray
    theta: float
    k: int
    alpha: float
    target_coverage: float
    trace: list = field(default_factory=list)
    hyper: HyperParams | None = None

    @property
    def nominal_idx(self) -> np.ndarray:
        return np.flatnonzero(self.eta_hat > 0.5)
