import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gemmed import experiments, trainer
from gemmed.cli import main
from gemmed.experiments import (METHODS, CellResult, MethodSettings,
                                default_settings, run_cell)
from gemmed.metrics import misclassification_error
from gemmed.model import HyperParams
from gemmed.persist import save_model


def test_default_settings_per_method():
    # the joint model's settings are the dataclass defaults
    g = default_settings("gemmed")
    assert g == MethodSettings() and g.hyper == HyperParams()
    assert g.kernel == "rbf"
    assert g.gamma == 0.1
    assert g.hyper.lambda_cap == 0.4
    for m in ("svm", "two-stage"):
        s = default_settings(m)
        assert s.kernel == "linear"
        assert s.gamma is None
        assert s.C == 1.0


def test_readme_library_use_is_the_flagless_cli_train(tmp_path, monkeypatch, capsys):
    # the README's library block, run as written at the dataclass defaults,
    # gets the walkthrough's test error and saves the bytes of a flagless
    # `gemmed train --seed 0` on the same cell
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    library = {}
    exec(block, library)
    assert misclassification_error(library["yhat"], library["test_set"].y) == 0.249
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--R", "55", "--ra", "0.2", "--seed", "0"]) == 0
    assert main(["train", "--data", "train.csv", "--seed", "0"]) == 0
    save_model(library["model"], "library.json")
    assert Path("library.json").read_bytes() == Path("model.json").read_bytes()
    capsys.readouterr()


def test_method_settings_refuse_a_bad_C_or_kernel():
    with pytest.raises(ValueError, match=r"C must lie in \(0, inf\), got 0$"):
        MethodSettings(C=0)
    with pytest.raises(ValueError, match="unknown kernel kind 'poly'"):
        MethodSettings(kernel="poly")


def test_run_cell_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        run_cell("boost", R=55.0, r_a=0.2, seed=0)


def _tiny_gemmed_settings():
    return MethodSettings(hyper=HyperParams(steps=4, gibbs_sweeps=8, burn_in=2))


def test_run_cell_svm_fields():
    cell = run_cell("svm", R=55.0, r_a=0.2, seed=0, n_train_per_class=30,
                    n_test_per_class=50, n_detect_ring=0, n_detect_clean=0)
    assert isinstance(cell, CellResult)
    assert cell.method == "svm"
    assert 0.0 <= cell.error <= 1.0
    assert cell.auc is None and cell.det_acc is None
    assert cell.tpr is None and cell.far is None


def test_run_cell_two_stage_fields():
    from gemmed.gem import GemConfig
    cell = run_cell("two-stage", R=55.0, r_a=0.2, seed=0,
                    n_train_per_class=30, n_test_per_class=50,
                    gem_config=GemConfig(k=3), n_detect_ring=20,
                    n_detect_clean=30)
    assert cell.auc is None  # binary survival ranking has no usable curve
    assert cell.det_acc is not None
    assert 0.0 <= cell.det_acc <= 1.0
    assert cell.tpr is not None and cell.far is not None


def test_run_cell_gemmed_fields():
    from gemmed.gem import GemConfig
    cell = run_cell("gemmed", R=55.0, r_a=0.2, seed=0, n_train_per_class=30,
                    n_test_per_class=50, gem_config=GemConfig(k=3),
                    settings=_tiny_gemmed_settings(), n_detect_ring=20,
                    n_detect_clean=30)
    assert cell.method == "gemmed"
    assert cell.R == 55.0 and cell.r_a == 0.2 and cell.seed == 0
    assert cell.auc is not None and 0.0 <= cell.auc <= 1.0
    assert cell.det_acc is not None
    assert cell.tpr is not None and cell.far is not None


def test_run_cell_gemmed_without_training_anomalies():
    # at the method defaults, as the R=55 grid runs it
    cell = run_cell("gemmed", R=55.0, r_a=0.0, seed=0, n_test_per_class=50,
                    n_detect_ring=20, n_detect_clean=30)
    assert cell.auc is None
    assert 0.0 <= cell.error <= 1.0
    assert cell.tpr is not None and cell.far is not None


def test_run_cell_is_deterministic():
    a = run_cell("svm", R=40.0, r_a=0.1, seed=3, n_train_per_class=30,
                 n_test_per_class=50, n_detect_ring=0, n_detect_clean=0)
    b = run_cell("svm", R=40.0, r_a=0.1, seed=3, n_train_per_class=30,
                 n_test_per_class=50, n_detect_ring=0, n_detect_clean=0)
    assert a == b


def test_methods_tuple_is_the_public_contract():
    assert METHODS == ("gemmed", "svm", "two-stage")


# The benchmark's traced job checks these two counts on its cells (see
# bench/workloads.py); they are checked here too, on the same cells.

def test_a_ring_n200_joint_cell_draws_f_1010_times(monkeypatch):
    # one lockstep draw of the 4 chains per sweep: 10 burn-in sweeps, then
    # 5 averaged sweeps for each of the 200 ascent steps
    calls = []
    draw = trainer.sample_f_given_eta

    def counted(*args):
        calls.append(None)
        return draw(*args)

    monkeypatch.setattr(trainer, "sample_f_given_eta", counted)
    run_cell("gemmed", R=55.0, r_a=0.2, seed=0, n_train_per_class=100)
    assert len(calls) == 1010


def test_the_baselines_n1000_cells_converge(monkeypatch):
    # cell seeds 0-7, the rounds the traced baselines-n1000 run covers
    fits = []

    def recorded(fit):
        def wrapper(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]
        return wrapper

    for name in ("train_svm", "train_two_stage"):
        monkeypatch.setattr(experiments, name, recorded(getattr(experiments, name)))
    for seed in range(8):
        for method in ("svm", "two-stage"):
            run_cell(method, R=55.0, r_a=0.2, seed=seed, n_train_per_class=500)
    assert [type(model).__name__ for model in fits] == ["SvmModel", "TwoStageModel"] * 8
    assert all(model.converged for model in fits)
