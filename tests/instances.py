"""Small random dual instances for checking the sampler and the analytic
gradients against the exact enumeration oracle, the per-row k-NN scores
that the batched scorers must reproduce, the check that a model refuses
a value both when built and when loaded from its file, and the digests
of the outputs that golden.json pins (``tests/record.py`` records them
too).

The tests import this module by its bare name: pytest puts the tests
directory on ``sys.path`` while it collects the test files there.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import gemmed
from gemmed.cli import main
from gemmed.kernels import gram_matrix, resolve_kernel
from gemmed.model import DualProblem, DualState, HyperParams
from gemmed.persist import load_model, save_model


def random_instance(n: int, seed: int, hyper: HyperParams | None = None
                    ) -> tuple[DualProblem, DualState]:
    """Random feasible (problem, state): rbf Gram on random points, interior duals;
    hyper defaults to HyperParams(lambda_cap=9.9)."""
    if n < 2:
        raise ValueError("instances need at least two samples")
    rng = np.random.default_rng(seed)
    hyper = hyper or HyperParams(lambda_cap=9.9)
    x = rng.normal(scale=1.5, size=(n, 2))
    kernel = resolve_kernel("rbf", "auto", x)
    gram = gram_matrix(kernel, x)
    y = np.concatenate([[-1.0, 1.0], rng.choice([-1.0, 1.0], size=n - 2)])
    d_tilde = rng.uniform(0.05, 1.0, size=n)
    gamma_hat = rng.uniform(0.2, 1.5, size=2)
    beta_hat = rng.uniform(0.1, 0.5, size=2)
    p0 = rng.uniform(0.3, 0.9, size=n)
    high = min(1.5, hyper.lambda_cap - 0.05)
    state = DualState(
        lam=rng.uniform(0.05, high, size=n),
        mu=rng.uniform(0.05, 1.5, size=2),
        kappa=rng.uniform(0.05, 1.5, size=2),
    )
    return DualProblem(y, gram, d_tilde, gamma_hat, beta_hat, p0, hyper), state


def per_row_knn(xs, refs, k) -> np.ndarray:
    """k-NN distance sums the slow way: one norm, sort and sum per query row."""
    return np.array([float(np.sort(np.linalg.norm(refs - x[None, :], axis=1))[:k].sum())
                     for x in xs], dtype=float)


def assert_refused(model, key: str, bad, message: str, tmp_path) -> None:
    """A copy of model with the field saved under key set to bad raises
    ValueError(message), and so does loading model's file with key set to bad,
    after the file's name. A key that names no field of the model, such as
    one an older file held, is refused as an unexpected keyword instead."""
    field = {"lambda": "lam"}.get(key, key)
    if hasattr(model, field):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            dataclasses.replace(model, **{field: bad})
    else:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            dataclasses.replace(model, **{field: bad})
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), key: bad}))
    with pytest.raises(ValueError, match=re.escape(f"model.json: {message}") + "$"):
        load_model(path)


ROOT = Path(__file__).resolve().parents[1]
CRITERION_9_CONFIG = {"R": [55.0], "ra": [0.2], "seeds": [0, 1],
                      "methods": ["gemmed", "svm", "two-stage"]}


def sweep_csv(config: dict, work_dir: Path) -> bytes:
    """The CSV bytes of gemmed sweep on config, run in work_dir."""
    path = work_dir / "config.json"
    path.write_text(json.dumps(config))
    out = work_dir / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    return out.read_bytes()


def _bench_results_sha256(name: str, work_dir: Path) -> str:
    """bench/run.py's untraced seed-0 results sha256 of one workload: the
    hash of its result lines over its quality rounds, as run.py's digest
    takes it. Only bench/workloads.py is imported; run.py is not, as
    importing it sets BLAS thread variables in this process's environment."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses need it in sys.modules
    workload = workloads.make_workload(gemmed, name, 0)
    if name == "cli-score":  # trains the served model and writes the queries
        workload.setup(work_dir)
    rounds = [workload.run_round(i) for i in range(workload.quality_rounds)]
    return hashlib.sha256(("\n".join(workload.result_lines(rounds)) + "\n").encode()
                          ).hexdigest()


def golden_digests(work_dir: Path, criterion_9_csv: bytes | None = None) -> dict:
    """The sha256 of each output golden.json pins: the criterion-9 and
    README sweep CSVs (criterion 9's is run unless given) and the three
    bench workloads' results. work_dir must exist; the sweeps write there."""
    readme = (ROOT / "README.md").read_text()
    readme_config = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    with contextlib.redirect_stdout(io.StringIO()):
        if criterion_9_csv is None:
            criterion_9_csv = sweep_csv(CRITERION_9_CONFIG, work_dir)
        return {
            "criterion-9 sweep CSV": hashlib.sha256(criterion_9_csv).hexdigest(),
            "README sweep CSV": hashlib.sha256(sweep_csv(readme_config, work_dir)
                                               ).hexdigest(),
            **{f"{name} results": _bench_results_sha256(name, work_dir / name)
               for name in ("ring-n200", "cli-score", "baselines-n1000")},
        }
