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
draws of the indicators given f, for ``CHAINS`` chains in lockstep.
Ascent steps are projected back to lam in [0, lambda_cap] and mu, kappa
nonnegative.
``train`` builds one ``model.DualProblem``; ``init_duals``, the sampler,
``dual_gradient`` and ``mean_field_dual_estimate`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas
from scipy.special import entr, expit

from .baselines import solve_svm_dual
from .dataset import LabeledDataset
from .errors import TrainingFailure
from .gem import GemConfig, compute_gem_stats, knn_distance_sum, loo_threshold
from .kernels import (GramMatrix, KernelSpec, compact_expansion,
                      finite_decisions, gram_matrix, kernel_cross,
                      query_blocks)
from .model import (DualProblem, DualState, HyperParams, TrainedModel,
                    eta_logits, resolve_p0)

# sampler chains run in lockstep; at n=200, 4 and 5 chains tie on gradient
# error per second of sampler time, and both beat 1 or 2 chains
CHAINS = 4


def init_duals(problem: DualProblem) -> DualState:
    """Initial duals: mu = kappa = 0, lam from the plain SVM solution.

    The SVM is solved at its default box C = 1 and the resulting
    coefficients are clipped into [0, lambda_cap].
    """
    alpha, _, _ = solve_svm_dual(problem.gram.values, problem.y, C=1.0)
    return DualState(lam=np.clip(alpha, 0.0, problem.hyper.lambda_cap),
                     mu=np.zeros(2), kappa=np.zeros(2))


def sample_f_given_eta(coef: np.ndarray, gram: GramMatrix, noise: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Draw decision values from the exact Gaussian conditional into out.

    Each row of coef is one chain's lam * eta * y. f | eta is Normal with
    mean K coef_row and covariance K; the same row of noise is one draw
    of L z, L the cached Cholesky factor of K, z ~ N(0, I). All rows are
    drawn with one matrix product. Returns out.
    """
    np.matmul(coef, gram.values, out=out)  # K is symmetric: row j is K coef_j
    out += noise
    return out


def _times_factor_t(z: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """z @ factor.T for C-ordered z with rows of length n and the
    lower-triangular factor: one triangular multiply (BLAS trmm), which
    skips the zero half of the factor that a full product would multiply."""
    flat = z.reshape(-1, factor.shape[0])
    # trmm computes L @ flat.T; flat.T is Fortran-ordered, so it may write
    # the product over z instead of copying it
    return blas.dtrmm(1.0, factor.T, flat.T, side=0, lower=0, trans_a=1,
                      overwrite_b=1).T.reshape(z.shape)


@dataclass
class GibbsExpectations:
    """Sampler averages over the post-burn-in sweeps of ``CHAINS`` chains.

    e_eta_y_f approximates E[eta_n y_n f_n] per sample; e_sum_eta_d the
    per-class E[sum eta_n dt_n] (1/n units); e_sum_eta the per-class
    raw indicator sums E[sum eta_n]. eta_hat is the averaged indicator
    mean, and eta_last the chains' final indicator vectors, one row per
    chain. ``rows`` holds the values behind the first three averages,
    each of shape (sweeps, chains, k); the ascent never reads them, and
    the tests compute the averages' standard errors and split R-hat from
    them.
    """

    e_eta_y_f: np.ndarray
    e_sum_eta_d: np.ndarray
    e_sum_eta: np.ndarray
    eta_hat: np.ndarray
    eta_last: np.ndarray
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]


def gibbs_expectations(state: DualState, problem: DualProblem,
                       rng: np.random.Generator,
                       eta_start: np.ndarray | None = None
                       ) -> GibbsExpectations:
    """Run ``CHAINS`` blocked sampler chains in lockstep and average the
    gradient expectations.

    Each sweep draws f given every chain's binary indicators, then one
    new indicator vector per chain given its f: exact blocked Gibbs
    chains, advanced together as the rows of (CHAINS, n) matrices. Given
    f the indicators are independent with mean prob, so the averages use
    prob, not the draw (Rao-Blackwellization). Cold chains start at all
    ones and discard ``burn_in`` sweeps each; chains continued from
    ``eta_start``, a previous call's ``eta_last``, discard none. Either
    way the ``gibbs_sweeps - burn_in`` averaged samples are split over
    the chains, rounded up to whole sweeps per chain. All f noise, then
    all uniforms, are drawn up front, and the sweeps write f and prob
    into records allocated once per call.
    """
    n, y, gram, hyper = problem.n, problem.y, problem.gram, problem.hyper
    sweeps = -(-(hyper.gibbs_sweeps - hyper.burn_in) // CHAINS)
    burn = hyper.burn_in if eta_start is None else 0
    shape = (burn + sweeps, CHAINS, n)
    try:  # NumPy refuses a size no memory or address space holds before allocating
        z, uniforms = rng.standard_normal(shape), rng.random(shape)
    except (MemoryError, ValueError):
        gib = 8 * n * CHAINS * (burn + sweeps) / 2**30
        raise MemoryError(f"gibbs_sweeps={hyper.gibbs_sweeps} needs sampler records of "
                          f"{gib:.3g} GiB each, more than memory holds") from None
    noise = _times_factor_t(z, gram.factor)
    f_rec, prob_rec = np.empty_like(noise), np.empty_like(noise)
    # the logit is affine in f: its f-free part plus a * f
    offset = eta_logits(state, problem)
    # eta is 0/1 and y is +-1, so a * eta is lam * eta * y and a * f is
    # lam * (y * f), both to the bit
    a = state.lam * y
    coef = np.tile(a, (CHAINS, 1)) if eta_start is None else a * eta_start
    draw = np.empty((CHAINS, n), dtype=bool)
    for f, prob, z, u in zip(f_rec, prob_rec, noise, uniforms):
        sample_f_given_eta(coef, gram, z, f)
        np.multiply(a, f, out=prob)
        prob += offset
        expit(prob, out=prob)
        np.less(u, prob, out=draw)
        np.multiply(a, draw, out=coef)

    # one row per averaged sample, sweep by sweep, chains within a sweep
    prob = prob_rec[burn:].reshape(-1, n)
    f = f_rec[burn:].reshape(-1, n)
    rows = (prob * (y * f), prob @ problem.slot_d_tilde, prob @ problem.slots)
    return GibbsExpectations(*(r.mean(axis=0) for r in rows),
                             prob.mean(axis=0), draw.astype(float),
                             tuple(r.reshape(sweeps, CHAINS, -1) for r in rows))


def dual_gradient(state: DualState, exps: GibbsExpectations,
                  problem: DualProblem):
    """Exact dual gradient at sampled expectations, or at the exact ones of
    the oracle in tests/oracle.py."""
    if np.any(state.lam >= problem.hyper.c):
        raise ValueError("lam must stay strictly below c")
    g_lam = 1.0 - 1.0 / (problem.hyper.c - state.lam) - exps.e_eta_y_f
    g_mu = exps.e_sum_eta_d - problem.gamma_hat
    g_kappa = problem.beta_hat - exps.e_sum_eta / problem.n
    return g_lam, g_mu, g_kappa


def mean_field_dual_estimate(state: DualState, problem: DualProblem,
                             eta_bar: np.ndarray) -> float:
    """Cheap dual-objective estimate from a factorized indicator surrogate.

    Bounds log Z from below with the usual evidence bound at the
    current indicator means, so the returned value upper-bounds the
    true dual objective. ``train`` evaluates it once per run, at the
    final duals and indicator means, and stores it on the model; nothing
    else depends on it.
    """
    K = problem.gram.values
    a = state.lam * problem.y
    a_bar = a * eta_bar
    quad = 0.5 * a_bar @ K @ a_bar
    quad += 0.5 * np.sum(a * a * np.diag(K) * eta_bar * (1.0 - eta_bar))
    # the f-free logit holds the linear and the prior terms
    linear = (eta_bar @ eta_logits(state, problem)
              + np.sum(np.log1p(-problem.p0)))
    entropy = np.sum(entr(eta_bar) + entr(1.0 - eta_bar))
    elbo = quad + linear + entropy
    return float(problem.closed_dual(state) - elbo)


def train(dataset: LabeledDataset, kernel: KernelSpec, gem_config: GemConfig,
          hyper: HyperParams) -> TrainedModel:
    """Fit the joint model by projected dual ascent.

    Each step estimates the gradient expectations with the blocked
    sampler at the current duals, then takes a projected ascent step.
    The sampler's chains persist across steps, so only the first step
    discards burn-in sweeps.
    With ``steps`` = 0 the duals stay at their initialization and one
    sampler pass still produces eta_hat. After the loop the mean-field
    dual estimate is evaluated once, at the final duals and eta_hat, and
    the nominal support is {n : eta_hat_n > 1/2}. Training fails if the
    support is too small to calibrate the leave-one-out detection
    threshold, or if the fitted classifier mislabels more than half of it.
    """
    if len(np.unique(dataset.y)) < 2:
        raise ValueError("training data must contain both classes")
    gram = gram_matrix(kernel, dataset.x)
    stats = compute_gem_stats(dataset, gem_config)
    p0 = resolve_p0(hyper, gem_config.target_coverage, dataset.n)
    problem = DualProblem(dataset.y.astype(float), gram, stats.d_tilde, stats.gamma_hat,
                          stats.beta_hat, p0, hyper)
    state = init_duals(problem)
    rng = np.random.default_rng(hyper.seed)

    exps = gibbs_expectations(state, problem, rng)
    for step in range(hyper.steps):
        if step:  # continue the chains at the updated duals
            exps = gibbs_expectations(state, problem, rng, exps.eta_last)
        g_lam, g_mu, g_kappa = dual_gradient(state, exps, problem)
        state = DualState(
            np.clip(state.lam + hyper.rate_lambda * g_lam, 0.0, hyper.lambda_cap),
            np.maximum(state.mu + hyper.rate_mu * g_mu, 0.0),
            np.maximum(state.kappa + hyper.rate_kappa * g_kappa, 0.0))
    eta_hat = exps.eta_hat
    estimate = mean_field_dual_estimate(state, problem, eta_hat)

    nominal = np.flatnonzero(eta_hat > 0.5)
    if nominal.size < gem_config.k + 1:
        raise TrainingFailure(
            f"nominal support has {nominal.size} point(s); need at least "
            f"k+1={gem_config.k + 1} with eta_hat > 1/2 to calibrate the detection "
            f"threshold; mean eta_hat={float(eta_hat.mean()):.3f}, check coverage/p0"
        )
    theta = loo_threshold(dataset.x[nominal], gem_config.k, gem_config.alpha)

    model = TrainedModel(
        kernel=kernel,
        x=dataset.x.copy(),
        y=dataset.y.copy(),
        lam=state.lam.copy(),
        eta_hat=eta_hat.copy(),
        theta=theta,
        k=gem_config.k,
        dual_estimate=estimate,
    )
    wrong = np.mean(predict(model, model.x[nominal]) != model.y[nominal])
    if wrong > 0.5:
        raise TrainingFailure(f"the classifier mislabels {wrong:.1%} of its own "
                              "nominal support, worse than chance")
    return model


def decision_function(model: TrainedModel, xs: np.ndarray) -> np.ndarray:
    """sum_j eta_j lambda_j y_j k(x, x_j) for each query row.

    A 1-D xs is one query. A linear model scores through its weight
    vector in O(d) per query. Rows are scored in the blocks of
    kernels.query_blocks, so an rbf model holds about SCORE_BLOCK kernel
    values at a time however many rows there are, and every value equals
    that of one single-threaded product over all rows, bit for bit.
    Raises ValueError when any value is not finite.
    """
    centers, coef = compact_expansion(model.kernel, model.x,
                                      model.eta_hat * model.lam * model.y)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        values = np.concatenate([
            kernel_cross(model.kernel, block, centers) @ coef
            for block in query_blocks(xs, len(centers))])
    return finite_decisions(values)


def predict(model: TrainedModel, xs: np.ndarray) -> np.ndarray:
    """Label each query row by the sign of the decision function.

    Ties go to +1. A 1-D xs is one query.
    """
    return np.where(decision_function(model, xs) < 0, -1, 1)


def anomaly_scores(model: TrainedModel, xs: np.ndarray) -> np.ndarray:
    """k-NN distance sum of each query row into the nominal support.

    A 1-D xs is one query. All rows are scored in one batched call.
    """
    return knn_distance_sum(xs, model.x[model.nominal_idx], model.k)


def detect(model: TrainedModel, xs: np.ndarray) -> np.ndarray:
    """True for each query row whose anomaly score exceeds theta.

    A 1-D xs is one query.
    """
    return anomaly_scores(model, xs) > model.theta
