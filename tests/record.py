"""Per-layer timings and quality record, written to BENCH_<n>.json at the repo root.

Run from the root of a source checkout (nothing needs to be installed):

    python tests/record.py --out BENCH_<n>.json

``bench/run.py`` answers end-to-end questions: how long a workload's round
takes. This script answers per-layer ones: how long each layer that ROADMAP
aim 1 lists takes on its own, at n=200 and n=1000 training rows. The data is
the R=55, ra=0.2, seed-0 ring training set, the settings those of a default
``gemmed train``; ``train_svm_linear`` is the reference SVM of the benchmark
cells (Gram build, check, solve and KKT product together), and
``check_kernel_matrix_linear`` the check alone on its K. Each layer is
called once as a discarded warm-up, then timed over REPEATS calls; the
record holds the median and minimum in seconds, with the environment as
``bench/run.py`` records it. Predict and detect score 1000 test rows per
call, so their times are per 1k queries. The record also holds the five
output digests that ``tests/golden.json`` pins, computed as
``test_golden_outputs`` computes them, and whether they equal that file's.

The quality block answers what each method learns, on ROADMAP item 7's
fixed grid: R=55 at ra 0, 0.2 and 0.3, and R 10 and 20 at ra 0.2, seeds
0-9, each seed one ``run_cell`` per method at its defaults, plus item
20's like-for-like rbf SVM (gamma 0.1, C=0.4). Per cell it holds each
method's mean error (a fraction), the per-seed paired differences of the
joint model's error from each other method's as mean +- t(0.975, 9) sd /
sqrt(10) in percentage points, and the mean joint PR-AUC (null at ra=0,
where nothing is anomalous), TPR and FAR and two-stage TPR and FAR. Its
200 fits are deterministic, so it repeats bit for bit.

Importing ``bench/run.py`` pins BLAS to one thread before NumPy is
imported. pytest does not collect this file. A run takes about 13 s on a
2-core x86-64 box, 6 s of it the quality block.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402  (first, so that BLAS is pinned before NumPy loads)

import numpy as np  # noqa: E402
from scipy import stats  # noqa: E402

from gemmed import trainer  # noqa: E402
from gemmed.baselines import train_svm  # noqa: E402
from gemmed.experiments import MethodSettings, default_settings, run_cell  # noqa: E402
from gemmed.gem import GemConfig  # noqa: E402
from gemmed.kernels import (KernelSpec, check_kernel_matrix,  # noqa: E402
                            kernel_matrix, resolve_kernel)
from gemmed.model import DualProblem, DualState, resolve_p0  # noqa: E402
from gemmed.synthdata import RingExperimentConfig, generate  # noqa: E402
from instances import golden_digests  # noqa: E402  (tests/ is the script's directory)

SIZES = (200, 1000)  # training rows, half per class
QUERIES = 1000
REPEATS = 5
# ROADMAP item 7's grid, (R, ra); it is fixed, so no cell may be added or
# dropped to favour a method
QUALITY_CELLS = ((55.0, 0.0), (55.0, 0.2), (55.0, 0.3), (20.0, 0.2), (10.0, 0.2))
QUALITY_SEEDS = range(10)
# each row's method and settings; None is run_cell's default for the method
QUALITY_ROWS = {
    "joint": ("gemmed", None),
    "svm": ("svm", None),
    "two-stage": ("two-stage", None),
    "rbf-svm": ("svm", MethodSettings(kernel="rbf", gamma=0.1, C=0.4)),
}


def timed(fn) -> dict:
    """Median and minimum seconds of REPEATS calls of fn, after one warm-up."""
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "min_s": min(times)}


def layers(n: int) -> dict:
    """Timings of each layer on the n-row training set, in aim 1's order."""
    data, test = generate(RingExperimentConfig(
        R=55.0, r_a=0.2, n_train_per_class=n // 2, seed=0))
    settings, gem_config = default_settings("gemmed"), GemConfig()
    kernel, hyper = resolve_kernel(settings.kernel, settings.gamma, data.x), settings.hyper
    # the problem train builds, and a continued sampler state to step from
    gram = trainer.gram_matrix(kernel, data.x)
    stats = trainer.compute_gem_stats(data, gem_config)
    problem = DualProblem(data.y.astype(float), gram, stats.d_tilde, stats.gamma_hat,
                          stats.beta_hat, resolve_p0(hyper, gem_config.target_coverage,
                                                     data.n), hyper)
    state = trainer.init_duals(problem)
    rng = np.random.default_rng(hyper.seed)
    exps = trainer.gibbs_expectations(state, problem, rng)

    def dual_step():  # a copy of one step of trainer.train's loop; keep it in step
        g_lam, g_mu, g_kappa = trainer.dual_gradient(state, exps, problem)
        return DualState(
            np.clip(state.lam + hyper.rate_lambda * g_lam, 0.0, hyper.lambda_cap),
            np.maximum(state.mu + hyper.rate_mu * g_mu, 0.0),
            np.maximum(state.kappa + hyper.rate_kappa * g_kappa, 0.0))

    model = trainer.train(data, kernel, gem_config, hyper)
    linear_K = kernel_matrix(KernelSpec("linear"), data.x)  # train_svm_linear's K
    support = model.x[model.nominal_idx]
    queries = test.x[:: len(test.x) // QUERIES][:QUERIES]
    return {
        "n": data.n,
        "nominal_support": len(support),
        "gram_matrix": timed(lambda: trainer.gram_matrix(kernel, data.x)),
        "compute_gem_stats": timed(lambda: trainer.compute_gem_stats(data, gem_config)),
        "init_duals": timed(lambda: trainer.init_duals(problem)),
        "gibbs_expectations_continued": timed(lambda: trainer.gibbs_expectations(
            state, problem, rng, exps.eta_last)),
        "dual_step": timed(dual_step),
        "loo_threshold": timed(lambda: trainer.loo_threshold(
            support, gem_config.k, gem_config.alpha)),
        "predict_per_1k": timed(lambda: trainer.predict(model, queries)),
        "detect_per_1k": timed(lambda: trainer.detect(model, queries)),
        "train_svm_linear": timed(lambda: train_svm(data, KernelSpec("linear"))),
        "check_kernel_matrix_linear": timed(lambda: check_kernel_matrix(linear_K)),
    }


def paired_interval(diffs: list[float]) -> dict:
    """Mean and 95% t half-width of per-seed paired differences, in points."""
    d = 100 * np.asarray(diffs)
    half = stats.t.ppf(0.975, len(d) - 1) * d.std(ddof=1) / np.sqrt(len(d))
    return {"mean": round(float(d.mean()), 4), "half_width": round(float(half), 4)}


def quality_cell(R: float, ra: float) -> dict:
    """Item 7's record of one grid cell over QUALITY_SEEDS."""
    runs = {row: [run_cell(method, R, ra, seed, settings=settings)
                  for seed in QUALITY_SEEDS]
            for row, (method, settings) in QUALITY_ROWS.items()}

    def mean(row, field):
        values = [getattr(cell, field) for cell in runs[row]]
        return None if None in values else round(float(np.mean(values)), 6)

    joint = [cell.error for cell in runs["joint"]]
    return {
        "R": R, "ra": ra,
        "error": {row: mean(row, "error") for row in QUALITY_ROWS},
        "joint_minus": {row: paired_interval(
            [j - cell.error for j, cell in zip(joint, runs[row])])
            for row in QUALITY_ROWS if row != "joint"},
        "joint_pr_auc": mean("joint", "auc"),
        "joint_tpr": mean("joint", "tpr"), "joint_far": mean("joint", "far"),
        "two_stage_tpr": mean("two-stage", "tpr"),
        "two_stage_far": mean("two-stage", "far"),
    }


def quality() -> dict:
    """Item 7's quality block, with the seconds it took."""
    start = time.perf_counter()
    cells = [quality_cell(R, ra) for R, ra in QUALITY_CELLS]
    return {"seeds": list(QUALITY_SEEDS),
            "rows": {row: {"method": method, "settings": "defaults" if settings is None
                           else {"kernel": settings.kernel, "gamma": settings.gamma,
                                 "C": settings.C}}
                     for row, (method, settings) in QUALITY_ROWS.items()},
            "cells": cells, "run_s": round(time.perf_counter() - start, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="the record to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    record = {
        "environment": run.environment(),
        "data": {"R": 55.0, "ra": 0.2, "seed": 0, "queries": QUERIES},
        "repeats": REPEATS,
        "layers": {f"n={n}": layers(n) for n in SIZES},
        "quality": quality(),
    }
    with tempfile.TemporaryDirectory() as work_dir:
        digests = golden_digests(Path(work_dir))
    golden = json.loads((ROOT / "tests" / "golden.json").read_text())
    record["golden_sha256"] = {"digests": digests,
                               "equal_to_golden_json": digests == golden["sha256"]}
    record["run_s"] = round(time.perf_counter() - start, 1)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out} in {record['run_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
