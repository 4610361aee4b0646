"""Per-layer timings of the package, written to BENCH_<n>.json at the repo root.

Run from the root of a source checkout (nothing needs to be installed):

    python tests/record.py --out BENCH_<n>.json

``bench/run.py`` answers end-to-end questions: how long a workload's round
takes. This script answers per-layer ones: how long each layer that ROADMAP
aim 1 lists takes on its own, at n=200 and n=1000 training rows. The data is
the R=55, ra=0.2, seed-0 ring training set, the settings those of a default
``gemmed train``; ``train_svm_linear`` is the reference SVM of the benchmark
cells (Gram build, check, solve and KKT product together). Each layer is
called once as a discarded warm-up, then timed over REPEATS calls; the
record holds the median and minimum in seconds, with the environment as
``bench/run.py`` records it. Predict and detect score 1000 test rows per
call, so their times are per 1k queries. The record also holds the five
output digests that ``tests/golden.json`` pins, computed as
``test_golden_outputs`` computes them, and whether they equal that file's.
Importing ``bench/run.py`` pins BLAS to one thread before NumPy is
imported. pytest does not collect this file. A run takes about 9 s on a
2-core x86-64 box.
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

from gemmed import trainer  # noqa: E402
from gemmed.baselines import train_svm  # noqa: E402
from gemmed.experiments import default_settings  # noqa: E402
from gemmed.gem import GemConfig  # noqa: E402
from gemmed.kernels import KernelSpec, resolve_kernel  # noqa: E402
from gemmed.model import DualProblem, DualState, resolve_p0  # noqa: E402
from gemmed.synthdata import RingExperimentConfig, generate  # noqa: E402
from instances import golden_digests  # noqa: E402  (tests/ is the script's directory)

SIZES = (200, 1000)  # training rows, half per class
QUERIES = 1000
REPEATS = 5


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
    }


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
