"""Joint classifier and anomaly-screen training.

Training maximizes a dual objective over per-sample margin duals lam,
per-class statistic duals mu, and per-class coverage duals kappa:

    D = sum_n [lam_n + log(1 - lam_n / c)]
        - sum_z mu_z gamma_z + sum_z kappa_z beta_z - log Z(lam, mu, kappa)

where Z integrates the joint density described in :mod:`gemmed.model`
over the decision values f and the nominal indicators eta. The exact
gradients are posterior expectations,

    dD/dlam_n   = 1 - 1/(c - lam_n) - E[eta_n y_n f_n]
    dD/dmu_z    = -gamma_z + E[sum_{n in z} eta_n dt_n]
    dD/dkappa_z = beta_z - E[sum_{n in z} eta_n] / n

estimated here with a blocked Gibbs sampler that alternates an exact
Gaussian draw of f given the current binary indicators with Bernoulli
draws of the indicators given f. Ascent steps are projected back to
lam in [0, lambda_cap] and mu, kappa nonnegative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import entr, expit
from scipy.stats import norm, t as student_t

from .baselines import solve_svm_dual
from .dataset import LabeledDataset
from .errors import TrainingFailure
from .gem import GemConfig, compute_gem_stats, knn_distance_sum, loo_threshold
from .kernels import (GramMatrix, KernelSpec, compact_expansion,
                      finite_decisions, gram_matrix, kernel_cross)
from .model import (RATE_RANGES, DualState, HyperParams, TrainedModel,
                    eta_logits, resolve_p0)

__all__ = [
    "GibbsExpectations", "init_duals", "sample_f_given_eta",
    "gibbs_expectations", "dual_gradient", "train", "decision_function",
    "predict", "anomaly_scores", "detect",
]


def init_duals(dataset: LabeledDataset, gram: GramMatrix,
               hyper: HyperParams) -> DualState:
    """Initial duals: mu = kappa = 0, lam from the plain SVM solution.

    The SVM is solved at its default box C = 1 and the resulting
    coefficients are clipped into [0, lambda_cap].
    """
    alpha, _, _ = solve_svm_dual(gram.values, dataset.y.astype(float), C=1.0)
    return DualState(lam=np.clip(alpha, 0.0, hyper.resolved_cap),
                     mu=np.zeros(2), kappa=np.zeros(2))


def sample_f_given_eta(state: DualState, eta: np.ndarray, gram: GramMatrix,
                       y: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Draw decision values from the exact Gaussian conditional.

    f | eta is Normal with mean K (lam * eta * y) and covariance K; noise
    is one draw of L z, L the cached Cholesky factor of K, z ~ N(0, I).
    """
    return gram.values @ (state.lam * eta * y) + noise


@dataclass
class GibbsExpectations:
    """Sampler averages over post-burn-in sweeps, with standard errors.

    e_eta_y_f approximates E[eta_n y_n f_n] per sample; e_sum_eta_d the
    per-class E[sum eta_n dt_n] (1/n units); e_sum_eta the per-class
    raw indicator sums E[sum eta_n]. eta_hat is the averaged indicator
    mean. Standard errors come from nonoverlapping batch means, which
    absorbs the sweep-to-sweep correlation of the chain. eta_last is the
    chain's final indicator vector, or None where no chain ran.
    """

    e_eta_y_f: np.ndarray
    e_sum_eta_d: np.ndarray
    e_sum_eta: np.ndarray
    eta_hat: np.ndarray
    se_eta_y_f: np.ndarray
    se_sum_eta_d: np.ndarray
    se_sum_eta: np.ndarray
    se_eta_hat: np.ndarray
    n_sweeps: int
    eta_last: np.ndarray | None = None


def _batch_se(rows: np.ndarray) -> np.ndarray:
    """Batch-means standard error of the column means of rows.

    The raw batch-means scale is inflated by a Student-t factor chosen
    so that a +/-3 SE band keeps the two-sided normal 3-sigma coverage
    despite the handful of batches behind the variance estimate; with
    few batches the uncorrected band undercovers noticeably.
    """
    n = rows.shape[0]
    if n < 2:
        return np.full(rows.shape[1], np.inf)
    n_batches = int(np.clip(np.floor(np.sqrt(n)), 2, 25))
    size = n // n_batches
    trimmed = rows[n - n_batches * size:]
    batches = trimmed.reshape(n_batches, size, -1).mean(axis=1)
    return (_t_correction(n_batches) * batches.std(axis=0, ddof=1)
            / np.sqrt(n_batches))


@lru_cache(maxsize=None)  # n_batches takes at most 24 values
def _t_correction(n_batches: int) -> float:
    """Student-t to normal ratio of the 3-sigma band's half-width."""
    level = 2.0 * norm.sf(3.0)  # two-sided tail mass of the 3-sigma band
    return float(student_t.isf(level / 2.0, df=n_batches - 1) / 3.0)


def gibbs_expectations(state: DualState, y: np.ndarray, gram: GramMatrix,
                       d_tilde: np.ndarray, p0: np.ndarray,
                       hyper: HyperParams, rng: np.random.Generator,
                       eta_start: np.ndarray | None = None
                       ) -> GibbsExpectations:
    """Run the blocked sampler and average the gradient expectations.

    Each sweep draws f given the chain's binary indicators, then one new
    indicator vector given f: an exact blocked Gibbs chain. Given f the
    indicators are independent with mean prob, so the averages use prob,
    not the draw (Rao-Blackwellization). A cold chain starts at all ones
    and discards ``burn_in`` sweeps; one continued from ``eta_start``
    discards none. Either way ``gibbs_sweeps - burn_in`` sweeps are
    averaged. All f noise, then all uniforms, are drawn up front.
    """
    n = gram.n
    yf_sign = y.astype(float)
    n_post = hyper.gibbs_sweeps - hyper.burn_in
    burn = hyper.burn_in if eta_start is None else 0
    eta_state = np.ones(n) if eta_start is None else eta_start.astype(float)
    noise = rng.standard_normal((burn + n_post, n)) @ gram.factor.T
    uniforms = rng.random((burn + n_post, n))
    # the logit is affine in f; its f-free part is the logit at f = 0
    offset = eta_logits(state, np.zeros(n), yf_sign, d_tilde, p0, n)
    rec_eyf = np.empty((n_post, n))
    rec_eta = np.empty((n_post, n))
    for t in range(burn + n_post):
        yf = yf_sign * sample_f_given_eta(state, eta_state, gram, yf_sign,
                                          noise[t])
        prob = expit(offset + state.lam * yf)
        eta_state = (uniforms[t] < prob).astype(float)
        if t >= burn:
            rec_eyf[t - burn] = prob * yf
            rec_eta[t - burn] = prob

    slots = np.stack([y == -1, y == 1], axis=1).astype(float)  # one-hot
    # one column block per averaged field, in field order
    rows = np.hstack([rec_eyf, rec_eta @ (slots * d_tilde[:, None]),
                      rec_eta @ slots, rec_eta])
    cuts = (n, n + 2, n + 4)
    return GibbsExpectations(*np.split(rows.mean(axis=0), cuts),
                             *np.split(_batch_se(rows), cuts), n_post, eta_state)


def dual_gradient(state: DualState, exps: GibbsExpectations,
                  gamma_hat: np.ndarray, beta_hat: np.ndarray, n_total: int,
                  hyper: HyperParams):
    """Exact dual gradient at sampled or exact (oracle.OracleResult) expectations."""
    if np.any(state.lam >= hyper.c):
        raise ValueError("lam must stay strictly below c")
    g_lam = 1.0 - 1.0 / (hyper.c - state.lam) - exps.e_eta_y_f
    g_mu = exps.e_sum_eta_d - np.asarray(gamma_hat, dtype=float)
    g_kappa = np.asarray(beta_hat, dtype=float) - exps.e_sum_eta / n_total
    return g_lam, g_mu, g_kappa


def mean_field_dual_estimate(state: DualState, gram: GramMatrix, y: np.ndarray,
                             d_tilde: np.ndarray, gamma_hat: np.ndarray,
                             beta_hat: np.ndarray, p0: np.ndarray,
                             eta_bar: np.ndarray, hyper: HyperParams) -> float:
    """Cheap dual-objective estimate from a factorized indicator surrogate.

    Bounds log Z from below with the usual evidence bound at the
    current indicator means, so the returned value upper-bounds the
    true dual objective. Used only for monitoring.
    """
    n = gram.n
    a = state.lam * y
    a_bar = a * eta_bar
    quad = 0.5 * a_bar @ gram.values @ a_bar
    quad += 0.5 * np.sum(a * a * np.diag(gram.values) * eta_bar * (1.0 - eta_bar))
    # the f-free logit holds the linear and the prior terms
    linear = (eta_bar @ eta_logits(state, np.zeros(n), y, d_tilde, p0, n)
              + np.sum(np.log1p(-p0)))
    entropy = np.sum(entr(eta_bar) + entr(1.0 - eta_bar))
    elbo = quad + linear + entropy
    closed = np.sum(state.lam + np.log1p(-state.lam / hyper.c))
    closed += -state.mu @ gamma_hat + state.kappa @ beta_hat
    return float(closed - elbo)


def train(dataset: LabeledDataset, kernel: KernelSpec, gem_config: GemConfig,
          hyper: HyperParams) -> TrainedModel:
    """Fit the joint model by projected dual ascent.

    Each step estimates the gradient expectations with the blocked
    sampler at the current duals, then takes a projected ascent step.
    The sampler's chain persists across steps, so only the first step
    discards burn-in sweeps.
    With ``steps`` = 0 the duals stay at their initialization and one
    sampler pass still produces eta_hat. After the loop the nominal
    support is {n : eta_hat_n > 1/2}; training fails if it is empty or
    too small to calibrate the leave-one-out detection threshold.
    Each call warns once per ascent rate outside its stable range.
    """
    for name, (lo, hi) in RATE_RANGES.items():
        if not lo <= (rate := getattr(hyper, name)) <= hi:
            warnings.warn(f"{name}={rate:g} outside the stable range "
                          f"[{lo:g}, {hi:g}]", stacklevel=2)
    if len(np.unique(dataset.y)) < 2:
        raise ValueError("training data must contain both classes")
    gram = gram_matrix(kernel, dataset.x)
    stats = compute_gem_stats(dataset, gem_config)
    p0 = resolve_p0(hyper, gem_config.target_coverage, dataset.n)
    y = dataset.y.astype(float)
    cap = hyper.resolved_cap
    state = init_duals(dataset, gram, hyper)
    rng = np.random.default_rng(hyper.seed)

    trace: list[float] = []
    exps = gibbs_expectations(state, y, gram, stats.d_tilde, p0, hyper, rng)
    for step in range(hyper.steps):
        if step:  # continue the chain at the updated duals
            exps = gibbs_expectations(state, y, gram, stats.d_tilde, p0,
                                      hyper, rng, exps.eta_last)
        g_lam, g_mu, g_kappa = dual_gradient(state, exps, stats.gamma_hat,
                                             stats.beta_hat, dataset.n, hyper)
        state = DualState(
            np.clip(state.lam + hyper.rate_lambda * g_lam, 0.0, cap),
            np.maximum(state.mu + hyper.rate_mu * g_mu, 0.0),
            np.maximum(state.kappa + hyper.rate_kappa * g_kappa, 0.0))
        trace.append(mean_field_dual_estimate(state, gram, y, stats.d_tilde,
                                              stats.gamma_hat, stats.beta_hat,
                                              p0, exps.eta_hat, hyper))
    eta_hat = exps.eta_hat

    nominal = np.flatnonzero(eta_hat > 0.5)
    if nominal.size == 0:
        raise TrainingFailure(
            "no sample ended with eta_hat > 1/2; mean eta_hat="
            f"{float(eta_hat.mean()):.3f}, mu={state.mu}, check coverage/p0"
        )
    if nominal.size < gem_config.k + 1:
        raise TrainingFailure(
            f"nominal support has {nominal.size} point(s); need at least "
            f"k+1={gem_config.k + 1} to calibrate the detection threshold"
        )
    theta = loo_threshold(dataset.x[nominal], gem_config.k, gem_config.alpha)

    return TrainedModel(
        kernel=kernel,
        x=dataset.x.copy(),
        y=dataset.y.copy(),
        lam=state.lam.copy(),
        eta_hat=eta_hat.copy(),
        gamma_hat=stats.gamma_hat.copy(),
        beta_hat=stats.beta_hat.copy(),
        theta=theta,
        k=gem_config.k,
        alpha=gem_config.alpha,
        target_coverage=gem_config.target_coverage,
        trace=trace,
        hyper=hyper,
    )


def decision_function(model: TrainedModel, xs: np.ndarray) -> np.ndarray:
    """sum_j eta_j lambda_j y_j k(x, x_j) for each query row.

    A linear model scores through its weight vector in O(d) per query;
    an rbf model builds one row of n kernel values per query. Raises
    ValueError when any value is not finite.
    """
    centers, coef = compact_expansion(model.kernel, model.x,
                                      model.eta_hat * model.lam * model.y)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        values = kernel_cross(model.kernel, xs, centers) @ coef
    return finite_decisions(values)


def predict(model: TrainedModel, xs: np.ndarray):
    """Label queries by the sign of the decision function; ties go to +1."""
    arr = np.asarray(xs, dtype=float)
    labels = np.where(decision_function(model, arr) < 0, -1, 1)
    return int(labels[0]) if arr.ndim == 1 else labels


def _nominal_points(model: TrainedModel) -> np.ndarray:
    nominal = model.nominal_idx
    if nominal.size < model.k:
        raise ValueError(
            f"nominal support has {nominal.size} point(s) but k={model.k}; "
            "the detector is not usable on this model"
        )
    return model.x[nominal]


def anomaly_scores(model: TrainedModel, xs: np.ndarray) -> np.ndarray:
    """k-NN distance sum of each query row into the nominal support.

    A 1-D xs is one query. All rows are scored in one batched call.
    """
    return knn_distance_sum(np.atleast_2d(xs), _nominal_points(model),
                            model.k)


def detect(model: TrainedModel, xs: np.ndarray):
    """True where the anomaly score exceeds theta; a bool for one 1-D query."""
    arr = np.asarray(xs, dtype=float)
    calls = anomaly_scores(model, arr) > model.theta
    return bool(calls[0]) if arr.ndim == 1 else calls
