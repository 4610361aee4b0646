"""Acceptance suite: nine checks covering exactness, fidelity, and the
simulated benchmark. Each test prints one `criterion N: PASS/FAIL` line
(run with -s to see them on passing tests too).

Criterion 4 carries two clauses, and neither can hold on this data.
The clean-test Bayes error of the data generator is already near 24%
(the class means are 6*sqrt(2) apart under a covariance whose
along-the-gap variance is 36, giving a Mahalanobis separation of
sqrt(2)), and the Bayes rule is the linear rule through the origin,
with error Phi(-1/sqrt(2)) ~= 24.0%. The reference SVM fits that rule
and is solved to its optimum, so the margin clause (beat the SVM by 2
points) fails first: joint 25.00% against SVM 24.41% over the 10 seeds.
The absolute 15% target is out of reach for any classifier. Both are
expected to fail honestly rather than be weakened; see the test body.

Beyond the nine, the two-stage detector's false-alarm rate is checked
against its level on clean data, and the golden test recomputes the
digests in golden.json that pin every output bit for bit.
"""

import itertools
import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from gemmed import trainer
from gemmed.baselines import SvmModel
from gemmed.experiments import default_settings, run_cell
from gemmed.gem import GemConfig, gem_me_set
from gemmed.kernels import KernelSpec
from gemmed.model import HyperParams
from gemmed.trainer import dual_gradient, gibbs_expectations
from instances import CRITERION_9_CONFIG, golden_digests, random_instance, sweep_csv
from oracle import batch_se, exact_posterior, finite_diff_dual, split_rhat


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ------------------------------------------------------------ benchmark grid

N_SEEDS = 10


@pytest.fixture(scope="session")
def benchmark_cells():
    """R = 55, r_a = 0.2 cells for the joint model and the reference SVM,
    ten seeds each, at method defaults."""
    t0 = time.perf_counter()
    cells = {"gemmed": [], "svm": []}
    for seed in range(N_SEEDS):
        for method in cells:
            cells[method].append(run_cell(method, R=55.0, r_a=0.2, seed=seed))
    cells["elapsed"] = time.perf_counter() - t0
    return cells


@pytest.fixture(scope="session")
def rate_sweep_cells():
    """The same grid at the two classifier-rate settings of criterion 7."""
    from dataclasses import replace
    base = default_settings("gemmed")
    out = {}
    for phi in (1e-3, 4e-3):
        settings = replace(base, hyper=replace(base.hyper, rate_lambda=phi))
        out[phi] = [run_cell("gemmed", R=55.0, r_a=0.2, seed=s,
                             settings=settings).error
                    for s in range(N_SEEDS)]
    return out


GRADIENT_TOL = 1e-5
RHAT_MAX = 1.5


def gradient_check(pairs) -> tuple[bool, float]:
    """Criterion 1's verdict over (analytic, numeric) gradient pairs: the
    largest relative error |a - f| / max(1, |f|) and whether it is at most
    GRADIENT_TOL. np.max, unlike max, propagates NaN, and NaN passes no
    tolerance."""
    worst = float(np.max([np.max(np.abs(a - f) / np.maximum(1.0, np.abs(f)))
                          for analytic, numeric in pairs
                          for a, f in zip(analytic, numeric)]))
    return worst <= GRADIENT_TOL, worst


def standardized_deviations(exps, oracle) -> np.ndarray:
    """|sampled - exact| / SE for each expectation the gradient reads, the
    SE computed from the sampler's per-sweep rows; 0 where they agree
    exactly, NaN where the sample is NaN."""
    devs = []
    for est, rows, truth in zip(
        (exps.e_eta_y_f, exps.e_sum_eta_d, exps.e_sum_eta), exps.rows,
        (oracle.e_eta_y_f, oracle.e_sum_eta_d, oracle.e_sum_eta), strict=True,
    ):
        diff = np.abs(np.asarray(est) - np.asarray(truth))
        devs.append(np.where(diff == 0, 0.0, diff / np.maximum(batch_se(rows), 1e-12)))
    return np.concatenate(devs)


def meets_sweep_floor(gibbs_sweeps: int, burn_in: int) -> bool:
    """Whether a sampler schedule averages at least four sweeps per chain:
    two per half for the split R-hat, and standard-error batches of a
    whole chain each."""
    return gibbs_sweeps - burn_in >= 4 * trainer.CHAINS


def sampler_trials(n, trials, hyper):
    """Standardized deviations and the largest split R-hat of the sampler
    against the exact oracle on `trials` random instances of size n."""
    deviations, rhats = [], []
    for t in range(trials):
        problem, state = random_instance(n, t, hyper=hyper)
        oracle = exact_posterior(state, problem)
        exps = gibbs_expectations(state, problem, np.random.default_rng(t))
        deviations.append(standardized_deviations(exps, oracle))
        rhats.append(np.max(np.concatenate([split_rhat(r) for r in exps.rows])))
    return deviations, rhats


def sampler_check(deviations, rhats) -> tuple[bool, str]:
    """Criterion 2's verdict over trials: at least 95% of them have every
    expectation within 3 SE, none is NaN, and the largest split R-hat is
    finite and below RHAT_MAX."""
    trials_ok = sum(bool(np.all(d <= 3.0)) for d in deviations)
    # a NaN fails only its own trial, which the 95% rule forgives
    has_nan = any(np.isnan(d).any() for d in deviations)
    rhat = float(np.max(rhats))  # NaN propagates
    ok = (trials_ok >= 0.95 * len(deviations) and not has_nan
          and rhat < RHAT_MAX)
    return ok, (f"{trials_ok}/{len(deviations)} trials fully within 3 SE"
                f"{', a NaN expectation' if has_nan else ''}, "
                f"max split R-hat {rhat:.3f}")


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.perf_counter()
    pairs = []
    for t in range(20):
        problem, state = random_instance(6, t)
        oracle = exact_posterior(state, problem)
        # route the exact expectations through the production gradient
        analytic = dual_gradient(state, oracle, problem)
        *numeric, _ = finite_diff_dual(state, problem)
        pairs.append((analytic, numeric))
    within, worst = gradient_check(pairs)
    elapsed = time.perf_counter() - t0
    ok = within and elapsed < 10.0
    assert report(1, ok, f"max relative gradient error {worst:.2e} "
                         f"over 20 instances in {elapsed:.1f}s")


def test_criterion_2_sampler_matches_oracle():
    t0 = time.perf_counter()
    hyper = HyperParams(lambda_cap=9.9, gibbs_sweeps=200, burn_in=20)
    assert meets_sweep_floor(hyper.gibbs_sweeps, hyper.burn_in)
    matches, detail = sampler_check(*sampler_trials(6, 100, hyper))
    elapsed = time.perf_counter() - t0
    ok = matches and elapsed < 60.0
    assert report(2, ok, f"{detail} in {elapsed:.1f}s")


def _exact_gradient_pair():
    problem, state = random_instance(4, 0)
    exact = dual_gradient(state, exact_posterior(state, problem), problem)
    *numeric, _ = finite_diff_dual(state, problem)
    return exact, numeric


def test_gradient_check_passes_and_fails_by_tolerance():
    exact, numeric = _exact_gradient_pair()
    assert gradient_check([(exact, numeric)])[0]
    off = (exact[0] + 2 * GRADIENT_TOL, *exact[1:])
    assert not gradient_check([(exact, numeric), (off, numeric)])[0]


def test_gradient_check_fails_a_nan_gradient():
    exact, numeric = _exact_gradient_pair()
    # after a finite error, so a running max() would drop it
    spoiled = (exact[0].copy(), *exact[1:])
    spoiled[0][0] = np.nan
    within, worst = gradient_check([(exact, numeric), (spoiled, numeric)])
    assert not within and np.isnan(worst)


def test_sampler_check_fails_a_nan_expectation():
    hyper = HyperParams(lambda_cap=9.9, gibbs_sweeps=60, burn_in=10)
    problem, state = random_instance(4, 0, hyper=hyper)
    oracle = exact_posterior(state, problem)
    exps = gibbs_expectations(state, problem, np.random.default_rng(0))
    clean = standardized_deviations(exps, oracle)
    assert sampler_check([clean] * 20, [1.0] * 20)[0]
    exps.e_eta_y_f = exps.e_eta_y_f.copy()
    exps.e_eta_y_f[0] = np.nan
    spoiled = standardized_deviations(exps, oracle)
    assert np.isnan(spoiled[0])
    # 19 of 20 trials within 3 SE meet the 95% rule on their own
    ok, detail = sampler_check([clean] * 19 + [spoiled], [1.0] * 20)
    assert not ok and "a NaN expectation" in detail


def test_sampler_check_small_run():
    deviations, rhats = sampler_trials(
        4, 3, HyperParams(lambda_cap=9.9, gibbs_sweeps=150, burn_in=20))
    ok, detail = sampler_check(deviations, rhats)
    assert ok, detail
    assert 0.9 < np.max(rhats) < RHAT_MAX


def test_sweep_floor_rejects_one_averaged_sweep():
    assert not meets_sweep_floor(1, 0)
    # one averaged sweep per chain leaves no halves for the split R-hat
    deviations, rhats = sampler_trials(
        4, 1, HyperParams(lambda_cap=9.9, gibbs_sweeps=1, burn_in=0))
    assert np.isnan(rhats[0])
    ok, detail = sampler_check(deviations, rhats)
    assert not ok and "max split R-hat nan" in detail


def test_sweep_floor_is_four_sweeps_per_chain():
    assert not meets_sweep_floor(25, 10)
    assert meets_sweep_floor(26, 10)
    hyper = HyperParams(lambda_cap=9.9, gibbs_sweeps=26, burn_in=10)
    problem, state = random_instance(4, 0, hyper=hyper)
    exps = gibbs_expectations(state, problem, np.random.default_rng(0))
    assert exps.rows[0].shape == (4, trainer.CHAINS, 4)
    assert all(np.isfinite(split_rhat(r)).all() for r in exps.rows)


@pytest.mark.parametrize("rhat", [np.nan, np.inf, RHAT_MAX])
def test_sampler_check_fails_an_unmixed_rhat(rhat):
    deviations = [np.zeros(8)] * 20
    assert sampler_check(deviations, [1.0] * 20)[0]
    # last, so a running max() would drop a NaN
    assert not sampler_check(deviations, [1.0] * 19 + [rhat])[0]


def test_criterion_3_reduces_to_kernel_machine():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=2.0, size=(40, 2))
    y = rng.choice([-1, 1], size=40)
    y[0], y[1] = -1, 1
    lam = rng.uniform(0.0, 2.0, size=40)
    kernel = KernelSpec("rbf", gamma=0.4)
    frozen = trainer.TrainedModel(
        kernel=kernel, x=x, y=y, lam=lam, eta_hat=np.ones(40),
        theta=1.0, k=1, dual_estimate=0.0)
    reference = SvmModel(kernel=kernel, x=x, y=y, alpha=lam, C=10.0,
                         converged=True, kkt_violation=0.0)
    points = rng.normal(scale=3.0, size=(1000, 2))
    agree = np.mean(trainer.predict(frozen, points)
                    == reference.predict(points))
    ok = agree == 1.0
    assert report(3, ok, f"{100 * agree:.1f}% label agreement on 1000 points")


def test_criterion_4_benchmark_error(benchmark_cells):
    g = float(np.mean([c.error for c in benchmark_cells["gemmed"]]))
    s = float(np.mean([c.error for c in benchmark_cells["svm"]]))
    elapsed = benchmark_cells["elapsed"]
    margin_ok = g <= s - 0.02 and elapsed < 600.0
    absolute_ok = g <= 0.15
    detail = (f"joint {100 * g:.2f}% vs svm {100 * s:.2f}% "
              f"(margin {'holds' if margin_ok else 'MISSED'}), "
              f"absolute target 15% {'met' if absolute_ok else 'unattainable'}"
              f", grid in {elapsed:.0f}s")
    report(4, margin_ok and absolute_ok, detail)
    assert margin_ok
    if not absolute_ok:
        pytest.fail(
            "absolute clause: mean error {:.2f}% > 15%. The generator's "
            "clean-test Bayes error is ~23.98% (squared Mahalanobis "
            "separation 2), so 15% is below what any classifier can reach "
            "on this data; failing honestly instead of loosening the "
            "check.".format(100 * g))


def test_criterion_5_anomaly_ranking(benchmark_cells):
    aucs = [c.auc for c in benchmark_cells["gemmed"]]
    mean_auc = float(np.mean(aucs))
    ok = mean_auc >= 0.90
    assert report(5, ok, f"mean indicator precision-recall area "
                         f"{mean_auc:.3f} over {len(aucs)} seeds")


def test_criterion_6_detection_rates(benchmark_cells):
    tpr = float(np.mean([c.tpr for c in benchmark_cells["gemmed"]]))
    far = float(np.mean([c.far for c in benchmark_cells["gemmed"]]))
    ok = tpr >= 0.90 and far <= 0.10
    assert report(6, ok, f"held-out detection tpr {tpr:.3f}, "
                         f"false alarms {100 * far:.2f}%")


def test_criterion_7_rate_stability(rate_sweep_cells):
    means = {phi: float(np.mean(errs))
             for phi, errs in rate_sweep_cells.items()}
    gap = abs(means[1e-3] - means[4e-3])
    ok = gap <= 0.03
    assert report(7, ok, "errors {:.2f}% at 1e-3 vs {:.2f}% at 4e-3, "
                         "gap {:.2f}pp".format(100 * means[1e-3],
                                               100 * means[4e-3], 100 * gap))


def test_criterion_8_me_set_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        d = np.round(rng.uniform(0.0, 3.0, size=n), 2)
        k = int(rng.integers(1, n + 1))
        keep = gem_me_set(d, k)
        best = min(sum(d[list(c)])
                   for c in itertools.combinations(range(n), k))
        exact = (len(set(keep.tolist())) == k
                 and abs(float(d[keep].sum()) - best) < 1e-12)
        agree += exact
    elapsed = time.perf_counter() - t0
    ok = agree == 1000 and elapsed < 5.0
    assert report(8, ok, f"{agree}/1000 minimal subsets reproduced "
                         f"in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def criterion_9_sweeps(tmp_path_factory):
    """Criterion 9's sweep run twice, as the bytes of each CSV."""
    tmp_path = tmp_path_factory.mktemp("sweep")
    return tuple(sweep_csv(CRITERION_9_CONFIG, tmp_path) for _ in range(2))


def test_criterion_9_sweep_is_byte_deterministic(criterion_9_sweeps):
    first, second = criterion_9_sweeps
    ok = first == second and len(first) > 0
    assert report(9, ok, f"two runs, {len(first)} identical bytes")


# ------------------------------------------------------- false-alarm level

def test_two_stage_false_alarm_rate_is_alpha_on_a_clean_calibration_set():
    """The false-alarm promise where it holds. With no anomalies and no
    screen (ra = 0, coverage 1) the two-stage detector calibrates theta on a
    clean sample, and its mean false-alarm rate over 20 seeds, on 2000 clean
    draws each, is within 2 standard errors of alpha. theta varies by seed,
    so the SE is taken across seeds."""
    alpha = GemConfig().alpha
    fars = np.array([run_cell("two-stage", R=55.0, r_a=0.0, seed=seed, coverage=1.0,
                              n_detect_ring=0, n_detect_clean=2000).far
                     for seed in range(20)])
    mean, se = fars.mean(), fars.std(ddof=1) / np.sqrt(fars.size)
    assert abs(mean - alpha) <= 2 * se, f"mean FAR {mean:.4f}, SE {se:.4f}, alpha {alpha}"


# ----------------------------------------------------------- golden outputs

TESTS = Path(__file__).resolve().parent
GOLDEN = json.loads((TESTS / "golden.json").read_text())


def test_golden_outputs(criterion_9_sweeps, tmp_path):
    """Every output is the one golden.json records: the criterion-9 and
    README sweep CSVs and the three bench workloads' results. A change that
    moves an output on purpose updates golden.json with it. The digests hold
    only for the NumPy and SciPy they were taken on."""
    taken_on = GOLDEN["taken_on"]
    here = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}
    if (here["numpy"], here["scipy"]) != (taken_on["numpy"], taken_on["scipy"]):
        pytest.skip(f"golden digests were taken on {taken_on}, this run has {here}")
    assert golden_digests(tmp_path, criterion_9_sweeps[0]) == GOLDEN["sha256"]
