import functools
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm, t as student_t

from gemmed import trainer
from gemmed.dataset import LabeledDataset, class_index
from gemmed.errors import TrainingFailure
from gemmed.experiments import random_instance
from gemmed.gem import GemConfig, compute_gem_stats
from gemmed.kernels import KernelSpec, gram_matrix, kernel_cross
from gemmed.model import DualState, HyperParams, TrainedModel, resolve_p0
from gemmed.oracle import exact_posterior
from gemmed.synthdata import RingExperimentConfig, generate
from gemmed.trainer import (GibbsExpectations, _batch_se, dual_gradient,
                            gibbs_expectations, init_duals,
                            mean_field_dual_estimate, sample_f_given_eta)


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
    target_mean = gram.values @ (state.lam * eta * y)
    noise = np.random.default_rng(123).standard_normal((20000, 4)) @ gram.factor.T
    draws = np.array([sample_f_given_eta(state, eta, gram, y, row)
                      for row in noise])
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
    hyper = HyperParams(gibbs_sweeps=60, burn_in=10)
    exps = gibbs_expectations(state, y, gram, np.full(4, 0.2), p0, hyper,
                              np.random.default_rng(0))
    assert np.all(np.abs(exps.eta_hat - p0) < 0.05)
    assert np.all(np.abs(exps.e_eta_y_f) < 4 * exps.se_eta_y_f + 1e-12)
    assert exps.n_sweeps == 50


def test_gibbs_is_bit_reproducible():
    gram, y = _fixed_instance()
    state = DualState(lam=np.array([0.8, 0.3, 0.5, 0.2]),
                      mu=np.array([0.5, 0.2]), kappa=np.array([0.1, 0.3]))
    d_tilde = np.array([0.1, 0.4, 0.2, 0.3])
    p0 = np.full(4, 0.7)
    hyper = HyperParams(gibbs_sweeps=20, burn_in=5)
    a = gibbs_expectations(state, y, gram, d_tilde, p0, hyper,
                           np.random.default_rng(7))
    b = gibbs_expectations(state, y, gram, d_tilde, p0, hyper,
                           np.random.default_rng(7))
    c = gibbs_expectations(state, y, gram, d_tilde, p0, hyper,
                           np.random.default_rng(8))
    assert np.array_equal(a.e_eta_y_f, b.e_eta_y_f)
    assert np.array_equal(a.eta_hat, b.eta_hat)
    assert np.array_equal(a.se_sum_eta, b.se_sum_eta)
    assert not np.array_equal(a.eta_hat, c.eta_hat)


def _reference_batch_se(rows):
    """Batch-means SE with the t-correction recomputed on every call."""
    n = rows.shape[0]
    if n < 2:
        return np.full(rows.shape[1], np.inf)
    n_batches = int(np.clip(np.floor(np.sqrt(n)), 2, 25))
    size = n // n_batches
    trimmed = rows[n - n_batches * size:]
    batches = trimmed.reshape(n_batches, size, -1).mean(axis=1)
    level = 2.0 * norm.sf(3.0)
    correction = student_t.isf(level / 2.0, df=n_batches - 1) / 3.0
    return correction * batches.std(axis=0, ddof=1) / np.sqrt(n_batches)


def _reference_gibbs(state, y, gram, d_tilde, p0, hyper, rng, eta_start=None):
    """The sampler written sweep by sweep: the f mean and the whole logit
    computed in place each sweep, class slots looked up one label at a
    time through class_index; the optimized sampler must match it bit
    for bit."""
    n = gram.n
    yf = y.astype(float)

    def class_values(values):
        slots = np.fromiter((class_index(v) for v in yf), dtype=int, count=n)
        return values[slots]

    burn = hyper.burn_in if eta_start is None else 0
    eta = np.ones(n) if eta_start is None else eta_start.astype(float)
    total = burn + hyper.gibbs_sweeps - hyper.burn_in
    noise = rng.standard_normal((total, n)) @ gram.factor.T
    uniforms = rng.random((total, n))
    rec_eyf, rec_eta = [], []
    for t in range(total):
        f = gram.values @ (state.lam * eta * yf) + noise[t]
        logit = ((np.log(p0) - np.log1p(-p0)
                  - class_values(state.mu) * d_tilde
                  + class_values(state.kappa) / n)
                 + state.lam * (yf * f))
        prob = expit(logit)
        eta = (uniforms[t] < prob).astype(float)
        if t >= burn:
            rec_eyf.append(prob * (yf * f))
            rec_eta.append(prob)
    rec_eyf, rec_eta = np.array(rec_eyf), np.array(rec_eta)
    in_class = np.stack([y == -1, y == 1], axis=1).astype(float)
    rec_sum_eta_d = rec_eta @ (in_class * d_tilde[:, None])
    rec_sum_eta = rec_eta @ in_class
    return GibbsExpectations(
        e_eta_y_f=rec_eyf.mean(axis=0),
        e_sum_eta_d=rec_sum_eta_d.mean(axis=0),
        e_sum_eta=rec_sum_eta.mean(axis=0),
        eta_hat=rec_eta.mean(axis=0),
        se_eta_y_f=_reference_batch_se(rec_eyf),
        se_sum_eta_d=_reference_batch_se(rec_sum_eta_d),
        se_sum_eta=_reference_batch_se(rec_sum_eta),
        se_eta_hat=_reference_batch_se(rec_eta),
        n_sweeps=len(rec_eta),
        eta_last=eta,
    )


def _ring_instance():
    """The n=200 cell of the R=55, ra=0.2 grid at its training settings."""
    train_set, _ = generate(RingExperimentConfig(R=55.0, r_a=0.2,
                                                 n_test_per_class=1, seed=3))
    gem_config = GemConfig(target_coverage=0.8)
    hyper = HyperParams(lambda_cap=0.4)
    gram = gram_matrix(KernelSpec("rbf", gamma=0.1), train_set.x)
    stats = compute_gem_stats(train_set, gem_config)
    lam = init_duals(train_set, gram, hyper).lam
    state = DualState(lam=lam, mu=np.array([0.9, 0.3]),
                      kappa=np.array([0.2, 0.6]))
    p0 = resolve_p0(hyper, gem_config.target_coverage, train_set.n)
    return (state, train_set.y.astype(float), gram, stats.d_tilde, p0, hyper)


@pytest.mark.parametrize("case", [(4, 0), (7, 1), (12, 5), (30, 2), "ring"])
def test_gibbs_matches_reference_sampler_bitwise(case):
    if case == "ring":
        args = _ring_instance()
    else:
        inst = random_instance(*case, hyper=HyperParams(
            gibbs_sweeps=40, burn_in=7))
        args = (inst.state, inst.y, inst.gram, inst.d_tilde, inst.p0,
                inst.hyper)
    got = gibbs_expectations(*args, np.random.default_rng(11))
    want = _reference_gibbs(*args, np.random.default_rng(11))
    _assert_same_expectations(got, want)


def _assert_same_expectations(got, want):
    for name in ("e_eta_y_f", "e_sum_eta_d", "e_sum_eta", "eta_hat",
                 "se_eta_y_f", "se_sum_eta_d", "se_sum_eta", "se_eta_hat",
                 "eta_last"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.n_sweeps == want.n_sweeps


def test_warm_started_call_runs_no_burn_in():
    inst = random_instance(7, 1, hyper=HyperParams(gibbs_sweeps=40,
                                                   burn_in=7))
    args = (inst.state, inst.y, inst.gram, inst.d_tilde, inst.p0, inst.hyper)
    cold = gibbs_expectations(*args, np.random.default_rng(11))
    assert set(np.unique(cold.eta_last)) <= {0.0, 1.0}
    start = cold.eta_last.copy()
    rng = np.random.default_rng(12)
    warm = gibbs_expectations(*args, rng, start)
    assert np.array_equal(start, cold.eta_last)  # the start is not mutated
    _assert_same_expectations(
        warm, _reference_gibbs(*args, np.random.default_rng(12), start))
    assert warm.n_sweeps == cold.n_sweeps == 33
    # a warm call consumes the noise and uniforms of 33 sweeps, not 40
    used = np.random.default_rng(12)
    used.standard_normal((33, 7))
    used.random((33, 7))
    assert rng.random() == used.random()
    assert set(np.unique(warm.eta_last)) <= {0.0, 1.0}


def test_gibbs_tracks_oracle_loosely():
    inst = random_instance(5, 0, hyper=HyperParams(gibbs_sweeps=300,
                                                   burn_in=20))
    oracle = exact_posterior(inst.state, inst.y, inst.K, inst.d_tilde,
                             inst.gamma_hat, inst.beta_hat, inst.p0,
                             inst.hyper)
    exps = gibbs_expectations(inst.state, inst.y, inst.gram, inst.d_tilde,
                              inst.p0, inst.hyper, np.random.default_rng(0))
    for est, se, truth in ((exps.e_eta_y_f, exps.se_eta_y_f, oracle.e_eta_y_f),
                           (exps.e_sum_eta_d, exps.se_sum_eta_d,
                            oracle.e_sum_eta_d),
                           (exps.e_sum_eta, exps.se_sum_eta,
                            oracle.e_sum_eta)):
        devs = np.abs(est - truth) / np.maximum(se, 1e-12)
        assert np.all(devs <= 5.0)


def test_batch_se_basics():
    assert np.isinf(_batch_se(np.zeros((1, 3)))).all()
    rows = np.random.default_rng(0).normal(size=(100, 2))
    se = _batch_se(rows)
    assert se.shape == (2,)
    assert np.all(se > 0) and np.all(np.isfinite(se))


def test_batch_se_covers_iid_mean():
    # For iid rows the sample mean should land within 3 corrected SEs of
    # the true mean in essentially every replication.
    rng = np.random.default_rng(42)
    hits = 0
    reps = 300
    for _ in range(reps):
        rows = rng.normal(size=(81, 1))
        se = _batch_se(rows)[0]
        hits += abs(rows.mean()) <= 3 * se
    assert hits / reps >= 0.97


def test_dual_gradient_formula():
    exps = GibbsExpectations(
        e_eta_y_f=np.array([0.5, -0.2]),
        e_sum_eta_d=np.array([0.3, 0.1]),
        e_sum_eta=np.array([1.2, 0.8]),
        eta_hat=np.array([0.9, 0.7]),
        se_eta_y_f=np.zeros(2), se_sum_eta_d=np.zeros(2),
        se_sum_eta=np.zeros(2), se_eta_hat=np.zeros(2), n_sweeps=10)
    state = DualState(lam=np.array([1.0, 2.0]), mu=np.zeros(2),
                      kappa=np.zeros(2))
    hyper = HyperParams(c=10.0)
    g_lam, g_mu, g_kappa = dual_gradient(state, exps, np.array([0.4, 0.2]),
                                         np.array([0.5, 0.6]), 2, hyper)
    np.testing.assert_allclose(g_lam, [1 - 1 / 9 - 0.5, 1 - 1 / 8 + 0.2])
    np.testing.assert_allclose(g_mu, [0.3 - 0.4, 0.1 - 0.2])
    np.testing.assert_allclose(g_kappa, [0.5 - 0.6, 0.6 - 0.4])
    state.lam[0] = 10.0
    with pytest.raises(ValueError, match="below c"):
        dual_gradient(state, exps, np.array([0.4, 0.2]),
                      np.array([0.5, 0.6]), 2, hyper)


def test_init_duals_from_svm():
    from gemmed.baselines import solve_svm_dual
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(-1.5, 1.0, size=(8, 2)),
                   rng.normal(1.5, 1.0, size=(8, 2))])
    y = np.array([-1] * 8 + [1] * 8)
    ds = LabeledDataset(x, y)
    gram = gram_matrix(KernelSpec("rbf", gamma=0.5), x)
    hyper = HyperParams(lambda_cap=0.4)
    state = init_duals(ds, gram, hyper)
    assert np.array_equal(state.mu, np.zeros(2))
    assert np.array_equal(state.kappa, np.zeros(2))
    alpha, _, _ = solve_svm_dual(gram.values, y.astype(float), C=1.0)
    np.testing.assert_array_equal(state.lam, np.clip(alpha, 0.0, 0.4))


def test_mean_field_estimate_upper_bounds_exact_dual():
    for seed in range(5):
        inst = random_instance(6, seed)
        oracle = exact_posterior(inst.state, inst.y, inst.K, inst.d_tilde,
                                 inst.gamma_hat, inst.beta_hat, inst.p0,
                                 inst.hyper)
        est = mean_field_dual_estimate(inst.state, inst.gram, inst.y,
                                       inst.d_tilde, inst.gamma_hat,
                                       inst.beta_hat, inst.p0,
                                       oracle.eta_hat, inst.hyper)
        assert est >= oracle.dual_value - 1e-9


def _small_cell(seed=0, n=30):
    cfg = RingExperimentConfig(R=55.0, r_a=0.2, n_train_per_class=n,
                               n_test_per_class=50, seed=seed)
    return generate(cfg)


def test_train_end_to_end_small():
    train_set, test_set = _small_cell()
    hyper = HyperParams(lambda_cap=0.4, steps=5, gibbs_sweeps=10,
                        burn_in=3, seed=0)
    config = GemConfig(k=3, target_coverage=0.8, seed=0)
    model = trainer.train(train_set, KernelSpec("rbf", gamma=0.1), config,
                          hyper)
    assert isinstance(model, TrainedModel)
    assert len(model.trace) == 5
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
    hyper = HyperParams(lambda_cap=0.4, steps=0, gibbs_sweeps=8,
                        burn_in=2, seed=0)
    model = trainer.train(train_set, KernelSpec("rbf", gamma=0.1),
                          GemConfig(k=3, seed=0), hyper)
    assert model.trace == []
    assert model.eta_hat.shape == (train_set.n,)


def test_train_continues_one_chain_across_steps(monkeypatch):
    starts, ends = [], []
    sampler = trainer.gibbs_expectations

    def spy(*args):
        exps = sampler(*args)
        starts.append(args[7] if len(args) > 7 else None)
        ends.append(exps.eta_last)
        return exps

    monkeypatch.setattr(trainer, "gibbs_expectations", spy)
    train_set, _ = _small_cell()
    hyper = HyperParams(lambda_cap=0.4, steps=4, gibbs_sweeps=8, burn_in=2,
                        seed=0)
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
    with pytest.raises(TrainingFailure, match="eta_hat"):
        trainer.train(train_set, KernelSpec("rbf", gamma=0.1),
                      GemConfig(k=3, seed=0), hyper)


def _toy_model(eta_hat, k=1, theta=2.0):
    x = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]])
    return TrainedModel(
        kernel=KernelSpec("linear"), x=x, y=np.array([1, -1, 1]),
        lam=np.array([0.5, 0.5, 0.1]), eta_hat=np.asarray(eta_hat, float),
        gamma_hat=np.zeros(2), beta_hat=np.zeros(2), theta=theta, k=k,
        alpha=0.05, target_coverage=0.8)


def test_predict_breaks_ties_positive():
    model = TrainedModel(
        kernel=KernelSpec("linear"), x=np.array([[1.0], [-1.0]]),
        y=np.array([1, -1]), lam=np.array([0.5, 0.5]),
        eta_hat=np.ones(2), gamma_hat=np.zeros(2), beta_hat=np.zeros(2),
        theta=1.0, k=1, alpha=0.05, target_coverage=0.8)
    # coef = eta*lam*y = [0.5, -0.5]; decision(x) = 0.5 x - 0.5 (-x) = x
    assert trainer.decision_function(model, np.array([[2.0]]))[0] == pytest.approx(2.0)
    assert trainer.predict(model, np.array([0.0])) == 1
    assert trainer.predict(model, np.array([-0.25])) == -1
    labels = trainer.predict(model, np.array([[0.0], [3.0], [-3.0]]))
    assert labels.tolist() == [1, 1, -1]


def test_detect_uses_nominal_support_only():
    model = _toy_model([1.0, 1.0, 0.2])
    assert model.nominal_idx.tolist() == [0, 1]
    # nearest nominal point to (5, 5) is (1, 0), distance sqrt(41)
    assert trainer.anomaly_scores(model, [5.0, 5.0]).tolist() == pytest.approx(
        [np.sqrt(41.0)])
    assert trainer.detect(model, np.array([5.0, 5.0])) is True
    assert trainer.detect(model, np.array([0.5, 0.0])) is False
    calls = trainer.detect(model, np.array([[5.0, 5.0], [0.5, 0.0]]))
    assert calls.tolist() == [True, False]


def test_detector_unusable_without_support():
    model = _toy_model([0.2, 0.3, 0.1])
    with pytest.raises(ValueError, match="not usable"):
        trainer.anomaly_scores(model, np.array([[0.0, 0.0]]))


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


def _per_row_scores(xs, refs, k):
    """Detector scores as computed before batching: one query row at a time."""
    return np.array([float(np.sort(np.linalg.norm(refs - x[None, :], axis=1))[:k].sum())
                     for x in xs])


def test_detectors_match_per_row_scoring_bitwise():
    from gemmed.baselines import train_two_stage
    train_set, test_set = generate(RingExperimentConfig(
        R=55.0, r_a=0.2, n_test_per_class=100, seed=3))
    kernel, gem_config = KernelSpec("rbf", gamma=0.1), GemConfig(target_coverage=0.8)
    joint = trainer.train(train_set, kernel, gem_config, HyperParams(lambda_cap=0.4))
    two_stage = train_two_stage(train_set, kernel, gem_config)
    # queries: fresh test points and every training point, nominal or not
    xs = np.vstack([test_set.x, train_set.x])

    want = _per_row_scores(xs, joint.x[joint.nominal_idx], joint.k)
    assert np.array_equal(trainer.anomaly_scores(joint, xs), want)
    assert np.array_equal(trainer.detect(joint, xs), want > joint.theta)
    assert 0 < np.count_nonzero(want > joint.theta) < xs.shape[0]
    for i in (0, 250):
        assert np.array_equal(trainer.anomaly_scores(joint, xs[i]),
                              want[i:i + 1])
        call = trainer.detect(joint, xs[i])
        assert type(call) is bool and call == (want[i] > joint.theta)

    want = _per_row_scores(xs, train_set.x[two_stage.kept_idx], two_stage.k)
    assert np.array_equal(two_stage.anomaly_scores(xs), want)
    assert np.array_equal(two_stage.detect(xs), want > two_stage.theta)
    assert 0 < np.count_nonzero(want > two_stage.theta) < xs.shape[0]
    assert np.array_equal(two_stage.anomaly_scores(xs[7]), want[7:8])


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
                             eta_hat=np.ones(20), gamma_hat=np.zeros(2),
                             beta_hat=np.zeros(2), theta=1.0, k=1,
                             alpha=0.05, target_coverage=0.8)
        svm = SvmModel(kernel=kernel, x=x, y=y, alpha=lam, C=10.0,
                       converged=True)
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
                          HyperParams(lambda_cap=0.4, steps=50, seed=seed))
    xs = test_set.x
    cases = [
        (svm.decision_function(xs), svm.predict(xs), svm.x,
         svm.alpha * svm.y),
        (two_stage.decision_function(xs), two_stage.predict(xs),
         two_stage.svm.x, two_stage.svm.alpha * two_stage.svm.y),
        (trainer.decision_function(joint, xs), trainer.predict(joint, xs),
         joint.x, joint.eta_hat * joint.lam * joint.y),
    ]
    for scores, labels, centers, coef in cases:
        full = _assert_matches_full_expansion(scores, kernel, xs, centers,
                                              coef)
        np.testing.assert_array_equal(labels, np.where(full < 0, -1, 1))


@pytest.mark.parametrize("kind", ["svm", "joint"])
def test_linear_scoring_memory_stays_near_the_query_size(kind):
    """A linear model scores 20000 queries against 1000 training rows
    without a queries x training-rows kernel block (160 MB)."""
    from gemmed.baselines import train_svm
    train_set, _ = generate(RingExperimentConfig(
        R=55.0, r_a=0.2, n_train_per_class=500, n_test_per_class=1, seed=0))
    kernel = KernelSpec("linear")
    if kind == "svm":
        score = train_svm(train_set, kernel).decision_function
    else:
        rng = np.random.default_rng(5)
        n = train_set.n
        model = TrainedModel(kernel=kernel, x=train_set.x, y=train_set.y,
                             lam=rng.uniform(0.0, 0.4, size=n),
                             eta_hat=rng.uniform(size=n),
                             gamma_hat=np.zeros(2), beta_hat=np.zeros(2),
                             theta=1.0, k=3, alpha=0.05,
                             target_coverage=0.8)
        score = functools.partial(trainer.decision_function, model)
    xs = np.random.default_rng(6).normal(scale=60.0, size=(20000, 2))
    tracemalloc.start()
    try:
        score(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * xs.nbytes, f"peak {peak / 1e6:.1f} MB"


def test_training_is_equivariant_under_global_negation():
    """Negating every feature and label produces a statistically
    identical problem, so average test error should be unchanged."""
    from gemmed.metrics import misclassification_error
    hyper = HyperParams(lambda_cap=0.4)
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
                           hyper.with_seed(seed))
        m2 = trainer.train(flipped_train, KernelSpec("rbf", gamma=0.1),
                           config, hyper.with_seed(seed))
        errs.append(misclassification_error(
            trainer.predict(m1, test_set.x), test_set.y))
        errs_neg.append(misclassification_error(
            trainer.predict(m2, flipped_test.x), flipped_test.y))
    assert abs(np.mean(errs) - np.mean(errs_neg)) < 0.05
