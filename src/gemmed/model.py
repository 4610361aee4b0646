"""Shared model types: hyperparameters, dual state, trained model.

The joint density the trainer and the exact oracle both work with, at
fixed duals (lam, mu, kappa), has unnormalized log form

    -(1/2) f' K^{-1} f + sum_n eta_n lam_n y_n f_n
      + sum_n eta_n (kappa_{y_n} / n - mu_{y_n} dt_n)
      + sum_n [eta_n log p0_n + (1 - eta_n) log(1 - p0_n)]

with dt_n the per-sample statistic in 1/n units and p0_n the prior
probability that sample n is nominal. ``DualProblem`` holds the
constants of that expression (everything but the duals), and the
helpers here centralize its per-sample pieces so the sampler and the
oracle cannot drift apart: ``eta_logits`` reads the problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import (LabeledDataset, check_integers, check_reals, check_rows, check_type,
                      class_index)
from .gem import check_detector
from .kernels import GramMatrix, KernelSpec


@dataclass(frozen=True)
class HyperParams:
    """Trainer hyperparameters.

    The per-sample duals lie in [0, ``lambda_cap``], and the cap must
    stay below the margin-slack rate ``c``; the default 0.4 is the joint
    model's (see ``experiments.MethodSettings``). The nominal prior ``p0`` may
    be given directly or left unset, in which case it follows the
    coverage target (clipped to [0.5, 0.99]) so that unpenalized samples
    sit on the nominal side.

    Training always runs all ``steps`` dual ascent iterations, moving
    lam, mu and kappa by ``rate_lambda``, ``rate_mu`` and ``rate_kappa``
    times their gradients. Each step averages ``gibbs_sweeps - burn_in``
    samples, split over the persistent chains of the sampler
    (``trainer.CHAINS``), each of which discards its first ``burn_in``
    sweeps. ``seed`` seeds the sampler.
    """

    c: float = 10.0
    lambda_cap: float = 0.4
    p0: float | None = None
    steps: int = 200
    rate_lambda: float = 2e-3
    rate_mu: float = 2e-2
    rate_kappa: float = 2e-2
    gibbs_sweeps: int = 30
    burn_in: int = 10
    seed: int = 0

    def __post_init__(self):
        check_integers(self, steps=0, gibbs_sweeps=1, burn_in=0, seed=0)
        check_reals(self, c="(0, inf)")
        check_reals(self, lambda_cap=f"(0, {self.c!r})", rate_lambda="(0, inf)",
                    rate_mu="(0, inf)", rate_kappa="(0, inf)")
        if self.p0 is not None:
            check_reals(self, p0="(0, 1)")
        if not self.burn_in < self.gibbs_sweeps:
            raise ValueError(f"need 0 <= burn_in < gibbs_sweeps, got {self.burn_in} and "
                             f"{self.gibbs_sweeps}: the sampler averages at least one sweep")


def resolve_p0(hyper: HyperParams, coverage: float, n: int) -> np.ndarray:
    """Per-sample nominal prior as an (n,) vector: the explicit p0, else
    the coverage target clipped to [0.5, 0.99]."""
    p = np.clip(coverage, 0.5, 0.99) if hyper.p0 is None else hyper.p0
    return np.full(n, float(p))


@dataclass
class DualState:
    """Dual variables: per-sample lam, per-class mu and kappa (slot order -1, +1)."""

    lam: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray


@dataclass(frozen=True)
class DualProblem:
    """Everything in the MED dual but the duals: float labels, jittered Gram
    matrix, statistics d_tilde (1/n units), GEM levels, prior, hyperparameters.
    The one-hot ``slots``, ``slot_d_tilde`` and ``prior_logit`` are built
    once, on first read."""

    y: np.ndarray
    gram: GramMatrix
    d_tilde: np.ndarray
    gamma_hat: np.ndarray
    beta_hat: np.ndarray
    p0: np.ndarray
    hyper: HyperParams

    @property
    def n(self) -> int:
        return self.y.size

    @cached_property
    def slots(self) -> np.ndarray:
        return np.eye(2)[class_index(self.y)]

    @cached_property
    def slot_d_tilde(self) -> np.ndarray:
        return self.slots * self.d_tilde[:, None]

    @cached_property
    def prior_logit(self) -> np.ndarray:
        return np.log(self.p0) - np.log1p(-self.p0)

    def closed_dual(self, state: DualState) -> float:
        """sum_n [lam_n + log(1 - lam_n / c)] - mu.gamma_hat + kappa.beta_hat,
        the part of the dual objective outside log Z."""
        closed = np.sum(state.lam + np.log1p(-state.lam / self.hyper.c))
        closed += -state.mu @ self.gamma_hat + state.kappa @ self.beta_hat
        return float(closed)


def per_sample_class_values(values_by_slot: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Expand a 2-vector of per-class values to one entry per sample.

    Labels in {-1, +1}, int or float, pick their ``dataset.class_index``
    slot.
    """
    return np.asarray(values_by_slot)[class_index(y)]


def eta_logits(state: DualState, problem: DualProblem) -> np.ndarray:
    """f-free log-odds of eta_n = 1: logit(p0_n) - mu_{y_n} dt_n + kappa_{y_n} / n.

    Given decision values f, the log-odds add lam_n y_n f_n.
    """
    mu_n = per_sample_class_values(state.mu, problem.y)
    kap_n = per_sample_class_values(state.kappa, problem.y)
    return problem.prior_logit - mu_n * problem.d_tilde + kap_n / problem.n


@dataclass
class TrainedModel:
    """Joint classifier / anomaly screen produced by the trainer.

    Prediction uses sign(sum_n eta_hat_n lam_n y_n K(x, x_n)) with ties
    to +1. Detection scores a query by its k-NN distance sum into the
    nominal support (eta_hat > 1/2) and compares against theta.
    ``dual_estimate`` is the mean-field dual objective estimate at the
    final duals.

    Construction refuses values ``trainer.train`` cannot produce, such as
    eta_hat outside [0, 1], a negative theta or an infinite lam, as
    ``persist.load_model`` does; y and k are kept as ints, other numbers as floats.
    """

    kernel: KernelSpec
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    eta_hat: np.ndarray
    theta: float
    k: int
    dual_estimate: float

    def __post_init__(self):
        check_type("kernel", self.kernel, KernelSpec, "a KernelSpec")
        data = LabeledDataset(self.x, self.y)
        self.x, self.y = data.x, data.y
        check_rows(self, "lam", "eta_hat")
        if not (self.lam >= 0).all():
            raise ValueError("lam must be at least 0")
        if not ((self.eta_hat >= 0) & (self.eta_hat <= 1)).all():
            raise ValueError("eta_hat must lie in [0, 1]")
        check_detector(self, self.nominal_idx.size, "nominal support")
        check_reals(self, dual_estimate="(-inf, inf)")

    @property
    def nominal_idx(self) -> np.ndarray:
        return np.flatnonzero(self.eta_hat > 0.5)
