import functools
import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit

from gemmed import kernels, trainer
from gemmed.dataset import LabeledDataset
from gemmed.errors import TrainingFailure
from gemmed.experiments import MethodSettings, run_cell
from gemmed.gem import GemConfig, compute_gem_stats, knn_distance_sum
from gemmed.kernels import GramMatrix, KernelSpec, gram_matrix, kernel_cross
from gemmed.model import (DualProblem, DualState, HyperParams, TrainedModel,
                          resolve_p0)
from gemmed.synthdata import RingExperimentConfig, generate
from gemmed.trainer import (dual_gradient, gibbs_expectations, init_duals,
                            mean_field_dual_estimate, sample_f_given_eta)
from instances import per_row_knn, random_instance
from oracle import batch_se, exact_posterior, split_rhat


def _fixed_instance(n=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    gram = gram_matrix(KernelSpec("rbf", gamma=0.5), x)
    y = rng.choice([-1.0, 1.0], size=n)
    y[0], y[1] = -1.0, 1.0
    return gram, y


def test_f_sampler_moments():
    gram, y = _fixed_instance()
    state = DualState(lam=np.array([0.8, 0.3, 0.5, 0.2]),
                      mu=np.zeros(2), kappa=np.zeros(2))
    eta = np.array([1.0, 0.0, 1.0, 1.0])
    coef = state.lam * eta * y
    target_mean = gram.values @ coef
    noise = np.random.default_rng(123).standard_normal((20000, 4)) @ gram.factor.T
    draws = np.empty_like(noise)
    for row, out in zip(noise, draws):
        assert sample_f_given_eta(coef, gram, row, out) is out
    se = np.sqrt(np.diag(gram.values) / 20000)
    assert np.all(np.abs(draws.mean(axis=0) - target_mean) < 4 * se)
    emp_cov = np.cov(draws.T)
    np.testing.assert_allclose(emp_cov, gram.values, atol=0.05)


def test_decoupled_chain_recovers_prior():
    """With lam = mu = kappa = 0 the indicators are independent of f and
    each other, so eta_hat must track p0 and E[eta y f] must vanish."""
    gram, y = _fixed_instance()
    state = DualState(lam=np.zeros(4), mu=np.zeros(2), kappa=np.zeros(2))
    p0 = np.array([0.7, 0.4, 0.6, 0.85])
    problem = DualProblem(y, gram, np.full(4, 0.2), np.zeros(2), np.zeros(2),
                          p0, HyperParams(gibbs_sweeps=60, burn_in=10))
    exps = gibbs_expectations(state, problem, np.random.default_rng(0))
    assert np.all(np.abs(exps.eta_hat - p0) < 0.05)
    assert np.all(np.abs(exps.e_eta_y_f) < 4 * batch_se(exps.rows[0]) + 1e-12)
    # 50 averaged samples, rounded up to 13 sweeps of each of 4 chains
    assert exps.rows[0].shape == (13, trainer.CHAINS, 4)


def test_gibbs_is_bit_reproducible():
    gram, y = _fixed_instance()
    state = DualState(lam=np.array([0.8, 0.3, 0.5, 0.2]),
                      mu=np.array([0.5, 0.2]), kappa=np.array([0.1, 0.3]))
    d_tilde = np.array([0.1, 0.4, 0.2, 0.3])
    p0 = np.full(4, 0.7)
    problem = DualProblem(y, gram, d_tilde, np.zeros(2), np.zeros(2), p0,
                          HyperParams(gibbs_sweeps=20, burn_in=5))
    a = gibbs_expectations(state, problem, np.random.default_rng(7))
    b = gibbs_expectations(state, problem, np.random.default_rng(7))
    c = gibbs_expectations(state, problem, np.random.default_rng(8))
    assert np.array_equal(a.e_eta_y_f, b.e_eta_y_f)
    assert np.array_equal(a.eta_hat, b.eta_hat)
    assert all(map(np.array_equal, a.rows, b.rows))
    assert not np.array_equal(a.eta_hat, c.eta_hat)


def _reference_gibbs(state, problem, rng, eta_start=None):
    """The sampler written chain by chain: each chain is swept alone with
    its own noise and uniform rows, its f mean a matrix-vector product
    and its noise a full product with the Cholesky factor, the whole
    logit computed in place each sweep, class slots looked up one label
    at a time."""
    y, gram, d_tilde, p0, hyper = (problem.y, problem.gram, problem.d_tilde,
                                   problem.p0, problem.hyper)
    n, m = gram.n, trainer.CHAINS
    yf = y.astype(float)

    def class_values(values):
        return values[[0 if v == -1 else 1 for v in yf]]

    sweeps = math.ceil((hyper.gibbs_sweeps - hyper.burn_in) / m)
    burn = hyper.burn_in if eta_start is None else 0
    total = burn + sweeps
    z = rng.standard_normal((total, m, n))
    uniforms = rng.random((total, m, n))
    rec_eyf, rec_eta = np.empty((sweeps, m, n)), np.empty((sweeps, m, n))
    eta_last = np.empty((m, n))
    for j in range(m):
        eta = np.ones(n) if eta_start is None else eta_start[j].astype(float)
        noise = z[:, j] @ gram.factor.T
        for t in range(total):
            f = gram.values @ (state.lam * eta * yf) + noise[t]
            logit = ((np.log(p0) - np.log1p(-p0)
                      - class_values(state.mu) * d_tilde
                      + class_values(state.kappa) / n)
                     + state.lam * (yf * f))
            prob = expit(logit)
            eta = (uniforms[t, j] < prob).astype(float)
            if t >= burn:
                rec_eyf[t - burn, j] = prob * (yf * f)
                rec_eta[t - burn, j] = prob
        eta_last[j] = eta
    in_class = np.stack([y == -1, y == 1], axis=1).astype(float)
    rec_sum_eta_d = rec_eta @ (in_class * d_tilde[:, None])
    rec_sum_eta = rec_eta @ in_class
    return SimpleNamespace(
        e_eta_y_f=rec_eyf.mean(axis=(0, 1)),
        e_sum_eta_d=rec_sum_eta_d.mean(axis=(0, 1)),
        e_sum_eta=rec_sum_eta.mean(axis=(0, 1)),
        eta_hat=rec_eta.mean(axis=(0, 1)),
        eta_last=eta_last,
        rows=(rec_eyf, rec_sum_eta_d, rec_sum_eta),
    )


def _ring_instance():
    """The n=200 cell of the R=55, ra=0.2 grid at its training settings."""
    train_set, _ = generate(RingExperimentConfig(R=55.0, r_a=0.2,
                                                 n_test_per_class=1, seed=3))
    gem_config = GemConfig(target_coverage=0.8)
    hyper = HyperParams()
    gram = gram_matrix(KernelSpec("rbf", gamma=0.1), train_set.x)
    stats = compute_gem_stats(train_set, gem_config)
    p0 = resolve_p0(hyper, gem_config.target_coverage, train_set.n)
    problem = DualProblem(train_set.y.astype(float), gram, stats.d_tilde,
                          stats.gamma_hat, stats.beta_hat, p0, hyper)
    state = DualState(lam=init_duals(problem).lam, mu=np.array([0.9, 0.3]),
                      kappa=np.array([0.2, 0.6]))
    return problem, state


@pytest.mark.parametrize("case", [(4, 0), (7, 1), (12, 5), (30, 2), "ring"])
def test_gibbs_matches_reference_sampler_bitwise(case):
    """The lockstep sampler against the chain-by-chain loop: the same
    indicator draws bit for bit, and every average and per-sweep record
    to rtol 1e-12. Its f draw is one matrix product for all chains, which
    sums in another order than the reference's matrix-vector products,
    so f and what is computed from it may differ in the last bits."""
    if case == "ring":
        problem, state = _ring_instance()
    else:
        problem, state = random_instance(*case, hyper=HyperParams(
            lambda_cap=9.9, gibbs_sweeps=40, burn_in=7))
    got = gibbs_expectations(state, problem, np.random.default_rng(11))
    want = _reference_gibbs(state, problem, np.random.default_rng(11))
    _assert_same_expectations(got, want)


def _assert_same_expectations(got, want):
    assert np.array_equal(got.eta_last, want.eta_last)
    for name in ("e_eta_y_f", "e_sum_eta_d", "e_sum_eta", "eta_hat"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-12, atol=0, err_msg=name)
    for got_rows, want_rows in zip(got.rows, want.rows, strict=True):
        np.testing.assert_allclose(got_rows, want_rows, rtol=1e-12, atol=0)


def test_warm_started_call_runs_no_burn_in():
    problem, state = random_instance(7, 1, hyper=HyperParams(
        lambda_cap=9.9, gibbs_sweeps=40, burn_in=7))
    args = (state, problem)
    cold = gibbs_expectations(*args, np.random.default_rng(11))
    assert cold.eta_last.shape == (trainer.CHAINS, 7)
    assert set(np.unique(cold.eta_last)) <= {0.0, 1.0}
    start = cold.eta_last.copy()
    rng = np.random.default_rng(12)
    warm = gibbs_expectations(*args, rng, start)
    assert np.array_equal(start, cold.eta_last)  # the start is not mutated
    _assert_same_expectations(
        warm, _reference_gibbs(*args, np.random.default_rng(12), start))
    # 33 averaged samples: 9 sweeps of each of the 4 chains
    assert warm.rows[0].shape == cold.rows[0].shape == (9, trainer.CHAINS, 7)
    # a warm call consumes the noise and uniforms of 9 lockstep sweeps of
    # 4 chains, not 7 + 9
    used = np.random.default_rng(12)
    used.standard_normal((9, trainer.CHAINS, 7))
    used.random((9, trainer.CHAINS, 7))
    assert rng.random() == used.random()
    assert warm.eta_last.shape == (trainer.CHAINS, 7)
    assert set(np.unique(warm.eta_last)) <= {0.0, 1.0}


def test_chains_are_not_copies_of_one_another():
    """Every chain draws its own noise and uniforms: after the same
    all-ones start, no two chains record the same sweeps or end on the
    same indicators."""
    problem, state = random_instance(30, 2, hyper=HyperParams(
        lambda_cap=9.9, gibbs_sweeps=40, burn_in=7))
    exps = gibbs_expectations(state, problem, np.random.default_rng(11))
    for i, j in itertools.combinations(range(trainer.CHAINS), 2):
        for rows in exps.rows:
            assert not np.any(np.all(rows[:, i] == rows[:, j], axis=-1))
        assert not np.array_equal(exps.eta_last[i], exps.eta_last[j])


def test_gibbs_tracks_oracle_loosely():
    problem, state = random_instance(5, 0, hyper=HyperParams(
        lambda_cap=9.9, gibbs_sweeps=300, burn_in=20))
    oracle = exact_posterior(state, problem)
    exps = gibbs_expectations(state, problem, np.random.default_rng(0))
    for est, rows, truth in zip((exps.e_eta_y_f, exps.e_sum_eta_d, exps.e_sum_eta),
                                exps.rows,
                                (oracle.e_eta_y_f, oracle.e_sum_eta_d, oracle.e_sum_eta)):
        devs = np.abs(est - truth) / np.maximum(batch_se(rows), 1e-12)
        assert np.all(devs <= 5.0)


def test_batch_se_basics():
    assert np.isinf(batch_se(np.zeros((1, 1, 3)))).all()
    rows = np.random.default_rng(0).normal(size=(100, 1, 2))
    se = batch_se(rows)
    assert se.shape == (2,)
    assert np.all(se > 0) and np.all(np.isfinite(se))


def test_batch_se_covers_iid_mean():
    # For iid rows the sample mean should land within 3 corrected SEs of
    # the true mean in essentially every replication.
    rng = np.random.default_rng(42)
    hits = 0
    reps = 300
    for _ in range(reps):
        rows = rng.normal(size=(81, 1, 1))
        se = batch_se(rows)[0]
        hits += abs(rows.mean()) <= 3 * se
    assert hits / reps >= 0.97


def test_split_rhat_flags_chains_that_disagree():
    rng = np.random.default_rng(3)
    mixed = rng.normal(size=(400, 4, 2))
    np.testing.assert_allclose(split_rhat(mixed), 1.0, atol=0.02)
    shifted = mixed + np.array([0.0, 0.0, 0.0, 2.0])[None, :, None]
    assert np.all(split_rhat(shifted) > 1.2)
    # a chain that drifts disagrees with itself: its halves differ
    drifting = mixed + np.linspace(0.0, 4.0, 400)[:, None, None]
    assert np.all(split_rhat(drifting) > 1.2)
    assert np.array_equal(split_rhat(np.ones((10, 4, 1))), [1.0])
    assert np.isnan(split_rhat(mixed[:3])).all()  # halves of 1 sweep


def test_dual_gradient_formula():
    exps = SimpleNamespace(e_eta_y_f=np.array([0.5, -0.2]),
                           e_sum_eta_d=np.array([0.3, 0.1]),
                           e_sum_eta=np.array([1.2, 0.8]))
    state = DualState(lam=np.array([1.0, 2.0]), mu=np.zeros(2),
                      kappa=np.zeros(2))
    problem = DualProblem(np.ones(2), GramMatrix(np.eye(2), np.eye(2)),
                          np.zeros(2), np.array([0.4, 0.2]),
                          np.array([0.5, 0.6]), np.full(2, 0.5),
                          HyperParams(c=10.0))
    g_lam, g_mu, g_kappa = dual_gradient(state, exps, problem)
    np.testing.assert_allclose(g_lam, [1 - 1 / 9 - 0.5, 1 - 1 / 8 + 0.2])
    np.testing.assert_allclose(g_mu, [0.3 - 0.4, 0.1 - 0.2])
    np.testing.assert_allclose(g_kappa, [0.5 - 0.6, 0.6 - 0.4])
    state.lam[0] = 10.0
    with pytest.raises(ValueError, match="below c"):
        dual_gradient(state, exps, problem)


def test_init_duals_from_svm():
    from gemmed.baselines import solve_svm_dual
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(-1.5, 1.0, size=(8, 2)),
                   rng.normal(1.5, 1.0, size=(8, 2))])
    y = np.array([-1] * 8 + [1] * 8)
    gram = gram_matrix(KernelSpec("rbf", gamma=0.5), x)
    state = init_duals(DualProblem(y.astype(float), gram, np.zeros(16),
                                   np.zeros(2), np.zeros(2), np.full(16, 0.5),
                                   HyperParams()))
    assert np.array_equal(state.mu, np.zeros(2))
    assert np.array_equal(state.kappa, np.zeros(2))
    alpha, _, _ = solve_svm_dual(gram.values, y.astype(float), C=1.0)
    np.testing.assert_array_equal(state.lam, np.clip(alpha, 0.0, 0.4))


def test_mean_field_estimate_upper_bounds_exact_dual():
    for seed in range(5):
        problem, state = random_instance(6, seed)
        oracle = exact_posterior(state, problem)
        est = mean_field_dual_estimate(state, problem, oracle.eta_hat)
        assert est >= oracle.dual_value - 1e-9


def _small_cell(seed=0, n=30):
    cfg = RingExperimentConfig(R=55.0, r_a=0.2, n_train_per_class=n,
                               n_test_per_class=50, seed=seed)
    return generate(cfg)


def test_train_end_to_end_small():
    train_set, test_set = _small_cell()
    hyper = HyperParams(steps=5, gibbs_sweeps=10, burn_in=3, seed=0)
    config = GemConfig(k=3, target_coverage=0.8, seed=0)
    model = trainer.train(train_set, KernelSpec("rbf", gamma=0.1), config,
                          hyper)
    assert isinstance(model, TrainedModel)
    assert np.isfinite(model.dual_estimate)
    assert np.all((model.eta_hat >= 0) & (model.eta_hat <= 1))
    assert model.theta > 0
    assert model.nominal_idx.size >= 4
    labels = trainer.predict(model, test_set.x)
    assert set(np.unique(labels)) <= {-1, 1}
    calls = trainer.detect(model, test_set.x[:10])
    assert calls.dtype == bool and calls.shape == (10,)
    scores = trainer.anomaly_scores(model, test_set.x[:10])
    assert np.all(scores >= 0)


def test_train_zero_steps_still_produces_indicators():
    train_set, _ = _small_cell()
    hyper = HyperParams(steps=0, gibbs_sweeps=8, burn_in=2, seed=0)
    model = trainer.train(train_set, KernelSpec("rbf", gamma=0.1),
                          GemConfig(k=3, seed=0), hyper)
    assert np.isfinite(model.dual_estimate)
    assert model.eta_hat.shape == (train_set.n,)


@pytest.mark.parametrize("steps", [0, 1, 4])
def test_train_evaluates_the_dual_estimate_once(monkeypatch, steps):
    calls = []
    estimate = trainer.mean_field_dual_estimate

    def spy(*args):
        calls.append(estimate(*args))
        return calls[-1]

    monkeypatch.setattr(trainer, "mean_field_dual_estimate", spy)
    train_set, _ = _small_cell()
    hyper = HyperParams(steps=steps, gibbs_sweeps=8, burn_in=2, seed=0)
    model = trainer.train(train_set, KernelSpec("rbf", gamma=0.1),
                          GemConfig(k=3, seed=0), hyper)
    assert calls == [model.dual_estimate]


def test_train_continues_one_chain_across_steps(monkeypatch):
    starts, ends = [], []
    sampler = trainer.gibbs_expectations

    def spy(*args):
        exps = sampler(*args)
        starts.append(args[3] if len(args) > 3 else None)
        ends.append(exps.eta_last)
        return exps

    monkeypatch.setattr(trainer, "gibbs_expectations", spy)
    train_set, _ = _small_cell()
    hyper = HyperParams(steps=4, gibbs_sweeps=8, burn_in=2, seed=0)
    trainer.train(train_set, KernelSpec("rbf", gamma=0.1),
                  GemConfig(k=3, seed=0), hyper)
    assert len(starts) == 4 and starts[0] is None
    assert all(s is e for s, e in zip(starts[1:], ends))


def test_train_rejects_single_class():
    ds = LabeledDataset(np.random.default_rng(0).normal(size=(10, 2)),
                        np.ones(10, dtype=int))
    with pytest.raises(ValueError, match="both classes"):
        trainer.train(ds, KernelSpec("rbf", gamma=0.1), GemConfig(k=2),
                      HyperParams())


def test_training_failure_when_prior_rules_everything_out():
    train_set, _ = _small_cell()
    hyper = HyperParams(p0=1e-3, lambda_cap=1e-3, steps=0, gibbs_sweeps=8,
                        burn_in=2, seed=0)
    with pytest.raises(TrainingFailure, match=r"nominal support has 0 point\(s\); "
                       r"need at least k\+1=4 with eta_hat > 1/2 .* check coverage/p0"):
        trainer.train(train_set, KernelSpec("rbf", gamma=0.1),
                      GemConfig(k=3, seed=0), hyper)


def test_training_failure_when_the_fit_mislabels_its_nominal_support():
    # the README walkthrough's cell on a linear kernel: lam jumps between 0
    # and the cap each step, and at 201 steps the classifier ends inverted
    train_set, _ = generate(RingExperimentConfig(R=55.0, r_a=0.2, seed=0))
    with pytest.raises(TrainingFailure) as failure:
        trainer.train(train_set, KernelSpec("linear"), GemConfig(),
                      HyperParams(steps=201))
    # the share moves in its last digits with the BLAS thread count
    share = re.fullmatch(r"the classifier mislabels (\d+\.\d)% of its own nominal support, "
                         "worse than chance", str(failure.value))
    assert share and float(share[1]) > 50


@pytest.mark.parametrize("scale", [100.0, 1e4])
def test_a_linear_fit_trains_at_any_feature_scale(scale):
    # the Gram jitter scales with the kernel; a fixed 1e-8 left K + 1e-8 I
    # short of positive definite in floating point at these scales
    train_set, test_set = generate(RingExperimentConfig(R=55.0, r_a=0.2, seed=0))
    scaled = LabeledDataset(train_set.x * scale, train_set.y, train_set.anomaly)
    model = trainer.train(scaled, KernelSpec("linear"), GemConfig(), HyperParams(steps=0))
    labels = trainer.predict(model, test_set.x * scale)
    assert np.mean(labels != test_set.y) < 0.3


def _toy_model(eta_hat, k=1, theta=2.0):
    x = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]])
    return TrainedModel(
        kernel=KernelSpec("linear"), x=x, y=np.array([1, -1, 1]),
        lam=np.array([0.5, 0.5, 0.1]), eta_hat=np.asarray(eta_hat, float),
        theta=theta, k=k, dual_estimate=0.0)


def test_predict_breaks_ties_positive():
    model = TrainedModel(
        kernel=KernelSpec("linear"), x=np.array([[1.0], [-1.0]]),
        y=np.array([1, -1]), lam=np.array([0.5, 0.5]),
        eta_hat=np.ones(2), theta=1.0, k=1, dual_estimate=0.0)
    # coef = eta*lam*y = [0.5, -0.5]; decision(x) = 0.5 x - 0.5 (-x) = x
    assert trainer.decision_function(model, np.array([[2.0]]))[0] == pytest.approx(2.0)
    assert trainer.predict(model, np.array([0.0])).tolist() == [1]
    assert trainer.predict(model, np.array([-0.25])).tolist() == [-1]
    labels = trainer.predict(model, np.array([[0.0], [3.0], [-3.0]]))
    assert labels.tolist() == [1, 1, -1]


def test_detect_uses_nominal_support_only():
    model = _toy_model([1.0, 1.0, 0.2])
    assert model.nominal_idx.tolist() == [0, 1]
    # nearest nominal point to (5, 5) is (1, 0), distance sqrt(41)
    assert trainer.anomaly_scores(model, [5.0, 5.0]).tolist() == pytest.approx(
        [np.sqrt(41.0)])
    assert trainer.detect(model, np.array([5.0, 5.0])).tolist() == [True]
    assert trainer.detect(model, np.array([0.5, 0.0])).tolist() == [False]
    calls = trainer.detect(model, np.array([[5.0, 5.0], [0.5, 0.0]]))
    assert calls.tolist() == [True, False]


def test_detector_unusable_without_support():
    # a model whose detector could not score a query is refused when built
    with pytest.raises(ValueError, match=r"k=1 exceeds the 0 point\(s\) of the nominal support"):
        _toy_model([0.2, 0.3, 0.1])


def test_detector_rejects_mismatched_queries():
    model = _toy_model([1.0, 1.0, 0.2])
    with pytest.raises(ValueError, match="1 feature column.* have 2"):
        trainer.anomaly_scores(model, [3.0])
    with pytest.raises(ValueError, match="3 feature column.* have 2"):
        trainer.anomaly_scores(model, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="1 feature column.* have 2"):
        trainer.detect(model, np.array([3.0]))
    with pytest.raises(ValueError, match="4 feature column.* have 2"):
        trainer.detect(model, np.zeros((2, 4)))


def test_detectors_match_per_row_scoring_bitwise():
    from gemmed.baselines import train_two_stage
    train_set, test_set = generate(RingExperimentConfig(
        R=55.0, r_a=0.2, n_test_per_class=100, seed=3))
    kernel, gem_config = KernelSpec("rbf", gamma=0.1), GemConfig(target_coverage=0.8)
    joint = trainer.train(train_set, kernel, gem_config, HyperParams())
    two_stage = train_two_stage(train_set, kernel, gem_config)
    # queries: fresh test points and every training point, nominal or not
    xs = np.vstack([test_set.x, train_set.x])

    want = per_row_knn(xs, joint.x[joint.nominal_idx], joint.k)
    assert np.array_equal(trainer.anomaly_scores(joint, xs), want)
    assert np.array_equal(trainer.detect(joint, xs), want > joint.theta)
    assert 0 < np.count_nonzero(want > joint.theta) < xs.shape[0]
    for i in (0, 250):
        assert np.array_equal(trainer.anomaly_scores(joint, xs[i]),
                              want[i:i + 1])
        assert np.array_equal(trainer.detect(joint, xs[i]),
                              want[i:i + 1] > joint.theta)

    want = per_row_knn(xs, two_stage.x, two_stage.k)
    assert np.array_equal(two_stage.anomaly_scores(xs), want)
    assert np.array_equal(two_stage.detect(xs), want > two_stage.theta)
    assert 0 < np.count_nonzero(want > two_stage.theta) < xs.shape[0]
    assert np.array_equal(two_stage.anomaly_scores(xs[7]), want[7:8])


def test_a_1d_query_is_one_row_for_every_scorer():
    from gemmed.baselines import train_svm, train_two_stage
    train_set, test_set = _small_cell()
    kernel, config = KernelSpec("rbf", gamma=0.1), GemConfig(k=3, seed=0)
    joint = trainer.train(train_set, kernel, config, HyperParams(
        steps=2, gibbs_sweeps=8, burn_in=2, seed=0))
    svm = train_svm(train_set, kernel)
    two_stage = train_two_stage(train_set, kernel, config)
    scorers = {
        "trainer.predict": functools.partial(trainer.predict, joint),
        "trainer.detect": functools.partial(trainer.detect, joint),
        "trainer.anomaly_scores": functools.partial(trainer.anomaly_scores,
                                                    joint),
        "SvmModel.predict": svm.predict,
        "TwoStageModel.detect": two_stage.detect,
        "knn_distance_sum": lambda xs: knn_distance_sum(xs, train_set.x, 3),
    }
    for name, score in scorers.items():
        for row in test_set.x[:3]:
            one, as_row = score(row), score(row[None, :])
            assert isinstance(one, np.ndarray) and one.shape == (1,), name
            assert one.dtype == as_row.dtype, name
            assert np.array_equal(one, as_row), name


def test_med_reduction_equals_svm_rule():
    """Freezing every indicator at 1 with mu = kappa = 0 reduces the
    decision rule to the plain kernel machine with the same duals."""
    from gemmed.baselines import SvmModel
    rng = np.random.default_rng(17)
    x = rng.normal(size=(20, 2))
    y = rng.choice([-1, 1], size=20)
    y[0], y[1] = -1, 1
    lam = rng.uniform(0.0, 2.0, size=20)
    grid = rng.normal(scale=2.0, size=(200, 2))
    for kernel in (KernelSpec("rbf", gamma=0.3), KernelSpec("linear")):
        joint = TrainedModel(kernel=kernel, x=x, y=y, lam=lam,
                             eta_hat=np.ones(20), theta=1.0, k=1, dual_estimate=0.0)
        svm = SvmModel(kernel=kernel, x=x, y=y, alpha=lam, C=10.0,
                       converged=True, kkt_violation=0.0)
        np.testing.assert_array_equal(trainer.predict(joint, grid),
                                      svm.predict(grid))
        np.testing.assert_allclose(trainer.decision_function(joint, grid),
                                   svm.decision_function(grid), rtol=1e-12)
        _assert_matches_full_expansion(trainer.decision_function(joint, grid),
                                       kernel, grid, x, lam * y)
        _assert_matches_full_expansion(svm.decision_function(grid),
                                       kernel, grid, x, lam * y)


def _assert_matches_full_expansion(got, kernel, xs, centers, coef):
    """An rbf model's scores are the kernel expansion over every training
    row, bit for bit. A linear model's weight-vector scores agree with it
    to 1e-12 of the summed term magnitudes sum_j |coef_j k(x, x_j)|: the
    terms cancel, so the expansion's own rounding is far above 1e-12 of
    a decision value near 0."""
    block = kernel_cross(kernel, xs, centers)
    full = block @ coef
    if kernel.kind == "rbf":
        np.testing.assert_array_equal(got, full)
    else:
        assert np.all(np.abs(got - full) <= 1e-12 * (np.abs(block)
                                                     @ np.abs(coef)))
    return full


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fitted_linear_models_score_as_their_kernel_expansion(seed):
    """Linear SVM, two-stage and joint models label a 1000-row ring test
    set exactly as the full kernel expansion over their training rows."""
    from gemmed.baselines import train_svm, train_two_stage
    cfg = RingExperimentConfig(R=55.0, r_a=0.2, n_train_per_class=100,
                               n_test_per_class=500, seed=seed)
    train_set, test_set = generate(cfg)
    kernel = KernelSpec("linear")
    config = GemConfig(target_coverage=0.8, seed=seed)
    svm = train_svm(train_set, kernel)
    two_stage = train_two_stage(train_set, kernel, config)
    joint = trainer.train(train_set, kernel, config,
                          HyperParams(steps=50, seed=seed))
    xs = test_set.x
    cases = [
        (svm.decision_function(xs), svm.predict(xs), svm.x,
         svm.alpha * svm.y),
        (two_stage.decision_function(xs), two_stage.predict(xs),
         two_stage.x, two_stage.alpha * two_stage.y),
        (trainer.decision_function(joint, xs), trainer.predict(joint, xs),
         joint.x, joint.eta_hat * joint.lam * joint.y),
    ]
    for scores, labels, centers, coef in cases:
        full = _assert_matches_full_expansion(scores, kernel, xs, centers,
                                              coef)
        np.testing.assert_array_equal(labels, np.where(full < 0, -1, 1))


def _scoring_model(kind, kernel, train_set):
    """A fitted SVM, or a joint model with random duals, on train_set, as
    (decision function, centers, coefficients of its kernel expansion)."""
    from gemmed.baselines import train_svm
    if kind == "svm":
        svm = train_svm(train_set, kernel)
        return svm.decision_function, svm.x, svm.alpha * svm.y
    rng = np.random.default_rng(5)
    n = train_set.n
    model = TrainedModel(kernel=kernel, x=train_set.x, y=train_set.y,
                         lam=rng.uniform(0.0, 0.4, size=n),
                         eta_hat=rng.uniform(size=n),
                         theta=1.0, k=3, dual_estimate=0.0)
    return (functools.partial(trainer.decision_function, model), model.x,
            model.eta_hat * model.lam * model.y)


def _peak_bytes(score, xs):
    tracemalloc.start()
    try:
        score(xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["svm", "joint"])
def test_linear_scoring_memory_stays_near_the_query_size(kind):
    """A linear model scores 20000 queries against 1000 training rows
    without a queries x training-rows kernel block (160 MB)."""
    train_set, _ = generate(RingExperimentConfig(
        R=55.0, r_a=0.2, n_train_per_class=500, n_test_per_class=1, seed=0))
    score, _, _ = _scoring_model(kind, KernelSpec("linear"), train_set)
    xs = np.random.default_rng(6).normal(scale=60.0, size=(20000, 2))
    peak = _peak_bytes(score, xs)
    assert peak < 4 * xs.nbytes, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("kind", ["svm", "joint"])
def test_rbf_scoring_memory_stays_within_one_row_block(kind):
    """An rbf model scores 50000 queries against 200 training rows in
    row blocks, without the 80 MB queries x training-rows kernel block."""
    train_set, _ = generate(RingExperimentConfig(
        R=55.0, r_a=0.2, n_train_per_class=100, n_test_per_class=1, seed=0))
    score, _, _ = _scoring_model(kind, KernelSpec("rbf", gamma=0.1),
                                 train_set)
    xs = np.random.default_rng(6).normal(scale=60.0, size=(50000, 2))
    peak = _peak_bytes(score, xs)
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("kind", ["svm", "joint"])
def test_rbf_scores_in_row_blocks_equal_one_product(kind, monkeypatch):
    """Scores built block by block equal the one queries x training-rows
    product, bit for bit, with SCORE_BLOCK lowered so that many blocks
    form. OpenBLAS splits one product over many rows evenly among its
    threads, and each share has its own remainder rows; the 4000-row
    reference splits into multiples of 4 rows on 1, 2 and 4 threads, so
    it keeps the bits of one thread."""
    train_set, test_set = generate(RingExperimentConfig(
        R=55.0, r_a=0.2, n_train_per_class=100, n_test_per_class=2000,
        seed=0))
    kernel = KernelSpec("rbf", gamma=0.1)
    score, centers, coef = _scoring_model(kind, kernel, train_set)
    one = test_set.x[0]
    for block in (1, 50_000):  # 64 rows, and 250 rounded down to 192
        monkeypatch.setattr(kernels, "SCORE_BLOCK", block)
        for xs in (one, *(test_set.x[:n] for n in (0, 63, 64, 65, 129,
                                                   1037, 4000))):
            want = kernel_cross(kernel, xs, centers) @ coef
            assert np.array_equal(score(xs), want), (block, len(xs))


@pytest.mark.parametrize("kind", ["svm", "joint"])
def test_non_finite_value_in_a_later_block_names_its_row(kind, monkeypatch):
    train_set, _ = generate(RingExperimentConfig(
        R=55.0, r_a=0.2, n_train_per_class=100, n_test_per_class=1, seed=0))
    score, _, _ = _scoring_model(kind, KernelSpec("rbf", gamma=0.1),
                                 train_set)
    monkeypatch.setattr(kernels, "SCORE_BLOCK", 1)  # blocks of 64 rows
    xs = np.random.default_rng(7).normal(size=(200, 2))
    xs[150, 0] = np.nan
    with pytest.raises(ValueError, match=r"not finite for 1 of 200 query "
                       r"rows \(first: row 150\)"):
        score(xs)


def test_training_is_equivariant_under_global_negation():
    """Negating every feature and label produces a statistically
    identical problem, so average test error should be unchanged."""
    from gemmed.metrics import misclassification_error
    hyper = HyperParams()
    errs, errs_neg = [], []
    for seed in range(4):
        cfg = RingExperimentConfig(R=55.0, r_a=0.2, n_train_per_class=100,
                                   n_test_per_class=500, seed=seed)
        train_set, test_set = generate(cfg)
        flipped_train = LabeledDataset(-train_set.x, -train_set.y,
                                       train_set.anomaly)
        flipped_test = LabeledDataset(-test_set.x, -test_set.y)
        config = GemConfig(target_coverage=0.8, seed=seed)
        m1 = trainer.train(train_set, KernelSpec("rbf", gamma=0.1), config,
                           replace(hyper, seed=seed))
        m2 = trainer.train(flipped_train, KernelSpec("rbf", gamma=0.1),
                           config, replace(hyper, seed=seed))
        errs.append(misclassification_error(
            trainer.predict(m1, test_set.x), test_set.y))
        errs_neg.append(misclassification_error(
            trainer.predict(m2, flipped_test.x), flipped_test.y))
    assert abs(np.mean(errs) - np.mean(errs_neg)) < 0.05


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 19: off its tuned rbf kernel the joint trainer "
                          "returns inverted fits, refused as TrainingFailure")
def test_linear_joint_model_trains_on_the_ring_cells():
    # the ascent's lam steps span the whole box on a linear kernel, so the
    # parity of steps decides the sign of the fit; the fix tightens the bound
    failed = []
    for R, seed, steps in itertools.product((55.0, 10.0), range(10), (200, 201)):
        settings = MethodSettings(kernel="linear", gamma=None, hyper=HyperParams(steps=steps))
        try:
            error = run_cell("gemmed", R, 0.2, seed, settings=settings,
                             n_detect_ring=0, n_detect_clean=0).error
        except TrainingFailure:
            error = None
        if error is None or error > 0.5:
            failed.append((R, seed, steps, error))
    assert not failed, f"{len(failed)} of 40 fits failed: {failed}"
