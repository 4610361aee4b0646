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
points) fails first: joint 24.64% against SVM 24.41% over the 10 seeds.
The absolute 15% target is out of reach for any classifier. Both are
expected to fail honestly rather than be weakened; see the test body.
"""

import itertools
import json
import time

import numpy as np
import pytest

from gemmed import trainer
from gemmed.baselines import SvmModel
from gemmed.cli import main
from gemmed.experiments import default_settings, random_instance, run_cell
from gemmed.gem import gem_me_set
from gemmed.kernels import KernelSpec
from gemmed.model import HyperParams
from gemmed.oracle import exact_posterior, finite_diff_dual
from gemmed.trainer import dual_gradient, gibbs_expectations


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


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(20):
        problem, state = random_instance(6, t)
        oracle = exact_posterior(state, problem)
        # route the exact expectations through the production gradient
        analytic = dual_gradient(state, oracle, problem)
        *numeric, _ = finite_diff_dual(state, problem)
        for a, f in zip(analytic, numeric):
            rel = np.abs(a - f) / np.maximum(1.0, np.abs(f))
            worst = float(np.maximum(worst, rel.max()))  # NaN propagates
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    assert report(1, ok, f"max relative gradient error {worst:.2e} "
                         f"over 20 instances in {elapsed:.1f}s")


def test_criterion_2_sampler_matches_oracle():
    t0 = time.perf_counter()
    hyper = HyperParams(gibbs_sweeps=200, burn_in=20)
    trials_ok = 0
    for t in range(100):
        problem, state = random_instance(6, t, hyper=hyper)
        oracle = exact_posterior(state, problem)
        exps = gibbs_expectations(state, problem, np.random.default_rng(t))
        all_in = True
        for est, se, truth in (
            (exps.e_eta_y_f, exps.se_eta_y_f, oracle.e_eta_y_f),
            (exps.e_sum_eta_d, exps.se_sum_eta_d, oracle.e_sum_eta_d),
            (exps.e_sum_eta, exps.se_sum_eta, oracle.e_sum_eta),
        ):
            diff = np.abs(np.asarray(est) - np.asarray(truth))
            devs = np.where(diff == 0, 0.0, diff / np.maximum(se, 1e-12))
            all_in &= bool(np.all(devs <= 3.0))
        trials_ok += all_in
    elapsed = time.perf_counter() - t0
    ok = trials_ok >= 95 and elapsed < 60.0
    assert report(2, ok, f"{trials_ok}/100 trials fully within 3 SE "
                         f"in {elapsed:.1f}s")


def test_criterion_3_reduces_to_kernel_machine():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=2.0, size=(40, 2))
    y = rng.choice([-1, 1], size=40)
    y[0], y[1] = -1, 1
    lam = rng.uniform(0.0, 2.0, size=40)
    kernel = KernelSpec("rbf", gamma=0.4)
    frozen = trainer.TrainedModel(
        kernel=kernel, x=x, y=y, lam=lam, eta_hat=np.ones(40),
        gamma_hat=np.zeros(2), beta_hat=np.zeros(2), theta=1.0, k=1,
        alpha=0.05, target_coverage=0.8)
    reference = SvmModel(kernel=kernel, x=x, y=y, alpha=lam, C=10.0,
                         converged=True)
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


def test_criterion_9_sweep_is_byte_deterministic(tmp_path):
    config = {
        "R": [55.0], "ra": [0.2], "seeds": [0, 1],
        "methods": ["gemmed", "svm", "two-stage"],
        "out": str(tmp_path / "sweep.csv"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(path)]) == 0
    second = (tmp_path / "sweep.csv").read_bytes()
    ok = first == second and len(first) > 0
    assert report(9, ok, f"two runs, {len(first)} identical bytes")
