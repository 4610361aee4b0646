"""Command-line checks, run in process through main().

These tests hold what the CLI itself does: how each command's options reach
the library, its exit codes, error text that names the file, line or field,
that a refused input writes no output, and the bytes a command writes. Each
command keeps one refused case per input it reads, which shows that it reads
the input through the strict reader. The value rules are tested where they
live, one table row per value: model files in test_persist.py, CSV files in
test_dataset.py, and settings in the validation tests of test_model.py,
test_gem.py, test_kernels.py and test_synthdata.py. A new rule's cases go in
its owner's table; a new command or input gets one refused case here.
Every new table row gets an explicit id, so that deleting a row renames no
other: rows without one are numbered by position.
"""

import csv
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gemmed
from gemmed import cli, trainer
from gemmed.baselines import train_svm, train_two_stage
from gemmed.cli import main
from gemmed.dataset import LabeledDataset
from gemmed.experiments import CellResult, default_settings, run_cell
from gemmed.gem import GemConfig, knn_distance_sum
from gemmed.kernels import KernelSpec
from gemmed.model import TrainedModel
from gemmed.persist import load_model, save_model
from gemmed.synthdata import MAX_ROWS_PER_CLASS


# the training flags of the shared model.json
TRAIN_FLAGS = ["--k", "3", "--steps", "2", "--gibbs", "8,2", "--seed", "0"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulated cell plus a small trained model, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(["simulate", "--R", "40", "--ra", "0.2", "--n-train", "30",
               "--n-test", "40", "--seed", "1",
               "--out-train", str(root / "train.csv"),
               "--out-test", str(root / "test.csv")])
    assert rc == 0
    assert main(["train", "--data", str(root / "train.csv"), *TRAIN_FLAGS,
                 "--model-out", str(root / "model.json")]) == 0
    return root


@pytest.fixture(scope="module")
def baselines(workdir):
    """An SVM and a two-stage model on the shared training set, saved as
    svm.json and two-stage.json next to it."""
    ds = LabeledDataset.from_csv(workdir / "train.csv")
    models = {"svm": train_svm(ds, KernelSpec("linear")),
              "two-stage": train_two_stage(ds, KernelSpec("linear"),
                                           GemConfig(k=3))}
    for kind, model in models.items():
        save_model(model, workdir / f"{kind}.json")
    return models


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_output_shape(workdir):
    train = LabeledDataset.from_csv(workdir / "train.csv")
    test = LabeledDataset.from_csv(workdir / "test.csv")
    assert train.n == 60 and train.anomaly is not None
    assert train.anomaly.sum() == 12  # round(0.2 * 30) per class
    assert test.n == 80 and test.anomaly is None


def test_train_is_deterministic(workdir, tmp_path):
    out = tmp_path / "again.json"
    assert main(["train", "--data", str(workdir / "train.csv"), *TRAIN_FLAGS,
                 "--model-out", str(out)]) == 0
    assert out.read_bytes() == (workdir / "model.json").read_bytes()


def test_predict_writes_labels(workdir, tmp_path):
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--model", str(workdir / "model.json"),
               "--data", str(workdir / "test.csv"), "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0] == ["label"]
    labels = {int(r[0]) for r in rows[1:]}
    assert len(rows) == 81
    assert labels <= {-1, 1}


def test_predict_accepts_bare_points(workdir, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0.0,0.0\n50.0,50.0\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(workdir / "model.json"),
                 "--data", str(pts), "--out", str(out)]) == 0
    assert len(_read_rows(out)) == 3


def test_predict_rejects_dimension_mismatch(workdir, tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n0.0,0.0,0.0\n")
    rc = main(["predict", "--model", str(workdir / "model.json"),
               "--data", str(pts), "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "feature column" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "detect"])
def test_query_rows_must_be_finite(workdir, tmp_path, capsys, command):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0.0,0.0\n1.0,nan\n")
    out = tmp_path / "out.csv"
    rc = main([command, "--model", str(workdir / "model.json"),
               "--data", str(pts), "--out", str(out)])
    assert rc == 2
    assert f"{pts}:3: non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_detect_writes_scores_and_calls(workdir, tmp_path):
    out = tmp_path / "det.csv"
    rc = main(["detect", "--model", str(workdir / "model.json"),
               "--data", str(workdir / "train.csv"), "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0] == ["score", "call"]
    assert len(rows) == 61
    for r in rows[1:]:
        assert float(r[0]) >= 0
        assert r[1] in {"0", "1"}


def test_predict_and_detect_output_bytes(tmp_path):
    # integer points: every decision value and distance sum is exact
    # or a sum of correctly rounded square roots, so the bytes are portable
    model = TrainedModel(
        kernel=KernelSpec("linear"),
        x=np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0], [-2.0, 0.0]]),
        y=np.array([1, 1, -1, -1]), lam=np.full(4, 0.5),
        eta_hat=np.array([0.9, 0.8, 0.7, 0.2]),
        theta=3.0, k=2, dual_estimate=0.0)
    save_model(model, tmp_path / "model.json")
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0,0\n3,0\n-1,2\n-3,-1\n")
    for command in ("predict", "detect"):
        assert main([command, "--model", str(tmp_path / "model.json"),
                     "--data", str(pts),
                     "--out", str(tmp_path / f"{command}.csv")]) == 0
    assert (tmp_path / "predict.csv").read_bytes() == \
        b"label\r\n1\r\n1\r\n1\r\n-1\r\n"
    assert (tmp_path / "detect.csv").read_bytes() == (
        b"score,call\r\n"
        b"1.4142135623730951,0\r\n"         # 0 + sqrt(2)
        b"5.23606797749979,1\r\n"           # sqrt(5) + 3
        b"4.47213595499958,1\r\n"           # 2 sqrt(5)
        b"7.63441361516796,1\r\n")          # sqrt(10) + sqrt(20)


def test_predict_refuses_non_finite_decision_values(workdir, tmp_path, capsys):
    model = tmp_path / "linear.json"
    assert main(["train", "--data", str(workdir / "train.csv"),
                 "--kernel", "linear", "--k", "3",
                 "--steps", "2", "--gibbs", "8,2", "--seed", "0",
                 "--model-out", str(model)]) == 0
    # Finite rows, but <x, w> overflows for the sign pattern of w, whose
    # entries are far above 1 on this training set.
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0.0,0.0\n1.7e308,1.7e308\n1.7e308,-1.7e308\n"
                   "-1.7e308,1.7e308\n-1.7e308,-1.7e308\n")
    out = tmp_path / "out.csv"
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--data", str(pts),
               "--out", str(out)])
    assert rc == 2
    assert re.search(r"decision value is not finite for [1-4] of 5 query "
                     r"rows \(first: row [1-4]\); rescale the features",
                     capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["svm", "two-stage"])
def test_predict_with_a_baseline_model(workdir, baselines, tmp_path, kind):
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--model", str(workdir / f"{kind}.json"),
               "--data", str(workdir / "test.csv"), "--out", str(out)])
    assert rc == 0
    xs = LabeledDataset.from_csv(workdir / "test.csv").x
    labels = [int(r[0]) for r in _read_rows(out)[1:]]
    assert labels == baselines[kind].predict(xs).tolist()


def test_detect_with_a_two_stage_model(workdir, baselines, tmp_path,
                                      monkeypatch):
    passes = []

    def spy(*args):
        passes.append(len(args[0]))
        return knn_distance_sum(*args)

    monkeypatch.setattr("gemmed.baselines.knn_distance_sum", spy)
    out = tmp_path / "det.csv"
    rc = main(["detect", "--model", str(workdir / "two-stage.json"),
               "--data", str(workdir / "test.csv"), "--out", str(out)])
    assert rc == 0
    assert passes == [80]  # the calls reuse the scores: one k-NN pass
    monkeypatch.undo()
    xs = LabeledDataset.from_csv(workdir / "test.csv").x
    model = baselines["two-stage"]
    rows = _read_rows(out)[1:]
    assert [float(r[0]) for r in rows] == model.anomaly_scores(xs).tolist()
    assert [r[1] == "1" for r in rows] == model.detect(xs).tolist()


def test_evaluate_prediction_error(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    main(["predict", "--model", str(workdir / "model.json"),
          "--data", str(workdir / "test.csv"), "--out", str(pred)])
    capsys.readouterr()
    report = tmp_path / "report.json"
    rc = main(["evaluate", "--predictions", str(pred),
               "--truth", str(workdir / "test.csv"),
               "--report", str(report)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(report.read_text())
    assert printed == on_disk
    assert 0.0 <= on_disk["error"] <= 1.0


def test_evaluate_anomaly_ranking(workdir, tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    rc = main(["evaluate", "--model", str(workdir / "model.json"),
               "--anomaly-truth", str(workdir / "train.csv"),
               "--curve-out", str(curve)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["auc"] <= 1.0
    rows = _read_rows(curve)
    assert rows[0] == ["rho", "precision", "recall"]
    assert len(rows) > 2


def test_evaluate_detection_accuracy(workdir, tmp_path, capsys):
    det = tmp_path / "det.csv"
    main(["detect", "--model", str(workdir / "model.json"),
          "--data", str(workdir / "train.csv"), "--out", str(det)])
    capsys.readouterr()
    rc = main(["evaluate", "--detections", str(det),
               "--detection-truth", str(workdir / "train.csv")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["detection_accuracy"] <= 1.0


@pytest.mark.parametrize("flag,text", [
    ("--predictions", "id,label\n0,1\n1\n"),      # short row
    ("--detections", "score,call\n1.0,1\n2.0,nan\n"),
])
def test_evaluate_rejects_bad_rows(workdir, tmp_path, capsys, flag, text):
    path = tmp_path / "col.csv"
    path.write_text(text)
    truth = "--truth" if flag == "--predictions" else "--detection-truth"
    report = tmp_path / "report.json"
    rc = main(["evaluate", flag, str(path), truth, str(workdir / "test.csv"),
               "--report", str(report)])
    assert rc == 2
    assert f"{path}:3: bad" in capsys.readouterr().err
    assert not report.exists()


def _corrupt(src, dest, line, column, value):
    """Copy a dataset CSV with two blank lines before data row `line` - 2
    and `column` of that row set to `value`; returns its physical line."""
    rows = _read_rows(src)
    rows[line - 1][rows[0].index(column)] = value
    text = [",".join(r) for r in rows]
    text[line - 1:line - 1] = ["", ""]
    dest.write_text("\n".join(text) + "\n")
    return line + 2


@pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
@pytest.mark.parametrize("column,value", [("y", "1.5"), ("is_anomaly", "0.5")])
def test_bad_labels_and_flags_exit_two(workdir, tmp_path, capsys, command,
                                       column, value):
    # neither truncated to a label nor cast to a flag: exit 2 at the line
    bad = tmp_path / "bad.csv"
    line = _corrupt(workdir / "train.csv", bad, 7, column, value)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--data", str(bad), "--k", "3", "--model-out", str(out)]
    elif command == "predict":
        argv = ["predict", "--model", str(workdir / "model.json"),
                "--data", str(bad), "--out", str(out)]
    elif column == "y":
        pred = tmp_path / "pred.csv"
        pred.write_text("label\n" + "1\n" * 60)
        argv = ["evaluate", "--predictions", str(pred), "--truth", str(bad),
                "--report", str(out)]
    else:
        det = tmp_path / "det.csv"
        det.write_text("score,call\n" + "1.0,0\n" * 60)
        argv = ["evaluate", "--detections", str(det),
                "--detection-truth", str(bad), "--report", str(out)]
    assert main(argv) == 2
    expected = "-1 or 1" if column == "y" else "0 or 1"
    assert (f"{bad}:{line}: bad or missing '{column}' value; expected "
            f"{expected}") in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_reads_only_the_named_column(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("id,label\n" + "".join(f"row{i},1\n" for i in range(80)))
    assert main(["evaluate", "--predictions", str(pred),
                 "--truth", str(workdir / "test.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["error"] == 0.5


def _refused_evaluate(workdir, tmp_path, capsys, args):
    """evaluate's error text for args, whose file names are read from workdir
    where they are there and from tmp_path otherwise, after checking that it
    exits 2 and writes neither its report nor a curve."""
    paths = [a if a.startswith("--") else
             str(workdir / a if (workdir / a).exists() else tmp_path / a)
             for a in args.split()]
    report = tmp_path / "report.json"
    assert main(["evaluate", *paths, "--report", str(report)]) == 2
    assert not report.exists() and not (tmp_path / "curve.csv").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("args,needle", [
    pytest.param("", "nothing to evaluate", id="argv0"),
    pytest.param("--predictions x.csv", "--predictions requires --truth", id="argv1"),
    pytest.param("--model m.json", "--model requires --anomaly-truth", id="argv2"),
    pytest.param("--detections d.csv", "--detections requires --detection-truth",
                 id="argv3"),
    # each flag needs its partner, also the truth and output flags
    pytest.param("--truth test.csv", "--truth requires --predictions", id="truth-alone"),
    pytest.param("--anomaly-truth train.csv --curve-out curve.csv",
                 "--anomaly-truth requires --model", id="anomaly-truth-alone"),
    pytest.param("--predictions pred.csv --truth test.csv --curve-out curve.csv "
                 "--detection-truth train.csv", "--detection-truth requires --detections",
                 id="detection-truth-alone"),
    pytest.param("--predictions pred.csv --truth test.csv --curve-out curve.csv",
                 "--curve-out requires --model", id="curve-out-alone"),
])
def test_evaluate_incomplete_inputs(workdir, tmp_path, capsys, args, needle):
    assert f"error: {needle}" in _refused_evaluate(workdir, tmp_path, capsys, args)


@pytest.mark.parametrize("args,needle", [
    ("--model svm.json --anomaly-truth train.csv", "needs the joint model"),
    ("--model model.json --anomaly-truth unflagged.csv",
     "unflagged.csv: no is_anomaly column"),
    ("--detections calls.csv --detection-truth unflagged.csv",
     "unflagged.csv: no is_anomaly column"),
    ("--predictions calls.csv --truth test.csv",
     "calls.csv: expected a 'label' column"),
    # each pair must have as many rows; the error names both files
    ("--predictions labels.csv --truth test.csv",
     "labels.csv has 3 row(s) but test.csv has 80"),
    ("--model model.json --anomaly-truth head.csv --curve-out curve.csv",
     "model.json has 60 row(s) but head.csv has 10"),
    ("--model model.json --anomaly-truth train.csv --curve-out curve.csv "
     "--detections calls.csv --detection-truth head.csv",
     "calls.csv has 60 row(s) but head.csv has 10"),
])
def test_evaluate_rejects_missing_inputs(workdir, baselines, tmp_path, capsys,
                                         args, needle):
    rows = _read_rows(workdir / "train.csv")
    (tmp_path / "unflagged.csv").write_text(
        "".join(",".join(r[:3]) + "\n" for r in rows))
    (tmp_path / "head.csv").write_text("".join(",".join(r) + "\n" for r in rows[:11]))
    (tmp_path / "calls.csv").write_text("score,call\n" + "1.0,1\n" * 60)
    (tmp_path / "labels.csv").write_text("label\n" + "1\n" * 3)
    err = _refused_evaluate(workdir, tmp_path, capsys, args)
    # the needle names each file without its directory
    assert needle in err.replace(f"{workdir}{os.sep}", "").replace(f"{tmp_path}{os.sep}", "")


@pytest.mark.parametrize("model", ["model.json", "two-stage.json"])
def test_detect_rejects_dimension_mismatch(workdir, baselines, tmp_path,
                                           capsys, model):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n0.0,0.0,0.0\n")
    rc = main(["detect", "--model", str(workdir / model),
               "--data", str(pts), "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "has 3 feature column(s) but the model expects 2" in (
        capsys.readouterr().err)


def test_importing_the_commands_skips_scipy_stats():
    # scipy.stats is most of an import of scipy; no command needs it
    code = ("import sys, gemmed, gemmed.cli, gemmed.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    env = {**os.environ,
           "PYTHONPATH": str(Path(gemmed.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


def test_detect_requires_a_detector(workdir, baselines, tmp_path, capsys):
    # a plain SVM sweep cell has no detector
    rc = main(["detect", "--model", str(workdir / "svm.json"),
               "--data", str(workdir / "test.csv"),
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "detector" in capsys.readouterr().err


def _spy_on_train(monkeypatch) -> list:
    """The (dataset, kernel, gem_config, hyper) of each trainer.train call."""
    calls, train = [], trainer.train
    monkeypatch.setattr(trainer, "train", lambda *args: calls.append(args) or train(*args))
    return calls


@pytest.mark.filterwarnings("error")
def test_rates_reach_the_model_without_a_warning(workdir, tmp_path, capsys, monkeypatch):
    calls = _spy_on_train(monkeypatch)
    model = tmp_path / "fast.json"
    rc = main(["train", "--data", str(workdir / "train.csv"), *TRAIN_FLAGS,
               "--rates", "5e-2,2e-2,2e-2", "--model-out", str(model)])
    assert rc == 0
    [(_, _, _, hyper)] = calls
    assert hyper.rate_lambda == 0.05
    for command, data in (("predict", "test.csv"), ("detect", "train.csv")):
        assert main([command, "--model", str(model), "--data",
                     str(workdir / data), "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err == ""


# one refused value per setting flag: each reaches the rule that checks it
@pytest.mark.parametrize("flag,value,needle", [
    # explicit ids, so that a change of needle renames no test
    pytest.param("--rates", "inf,2e-2,2e-2", "rate_lambda must lie in (0, inf), got inf",
                 id="--rates-inf,2e-2,2e-2-rate_lambda must be positive and finite, got inf"),
    # the Gram jitter is worked out from the kernel: --jitter is gone
    pytest.param("--jitter", "nan", "unrecognized arguments: --jitter nan",
                 id="--jitter-nan-jitter must be nonnegative and finite, got nan"),
    pytest.param("--gamma", "inf", "gamma must lie in (0, inf), got inf",
                 id="--gamma-inf-rbf kernel requires gamma > 0 and finite, got inf"),
    ("--seed", "-1", "seed must be at least 0, got -1"),
    # with c = inf the margin-slack term would drop out of the dual
    pytest.param("--c", "inf", "c must lie in (0, inf), got inf",
                 id="--c-inf-c must be positive and finite, got inf"),
    ("--gamma", "wide", "argument --gamma: invalid number_or_auto value: 'wide'"),
    ("--rates", "1e-3,2e-2", "--rates expects 3 comma-separated values"),
    # the prior is --p0, else the coverage rule; --a-eta is gone
    ("--a-eta", "1", "unrecognized arguments: --a-eta 1"),
])
def test_train_refuses_non_finite_rates_and_jitter(workdir, tmp_path, capsys,
                                                   flag, value, needle):
    out = tmp_path / "m.json"
    assert main(["train", "--data", str(workdir / "train.csv"), flag, value,
                 "--steps", "1", "--model-out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,needle", [
    pytest.param(["--R", "nan", "--ra", "0"], "R must lie in (0, inf), got nan",
                 id="argv0-R must be positive and finite, got nan"),
    pytest.param(["--R", "55", "--ra", "0.2", "--seed", "-2"],
                 "seed must be at least 0, got -2", id="seed-negative"),
    # NumPy cannot size the arrays; a count below the limit would be allocated
    *(pytest.param([flag, str(10**400), "--R", "40", "--ra", "0.2"],
                   f"{name} must be at most {MAX_ROWS_PER_CLASS}", id=f"{flag[2:]}-too-large")
      for flag, name in (("--n-train", "n_train_per_class"),
                         ("--n-test", "n_test_per_class"))),
    pytest.param(["--R", "55", "--ra", "1.5"], "r_a must lie in [0, 1), got 1.5",
                 id="ra-out-of-range"),
])
def test_simulate_refuses_bad_geometry_and_seeds(tmp_path, capsys, argv,
                                                 needle):
    out = [tmp_path / "train.csv", tmp_path / "test.csv"]
    assert main(["simulate", *argv, "--out-train", str(out[0]),
                 "--out-test", str(out[1])]) == 2
    assert needle in capsys.readouterr().err
    assert not any(path.exists() for path in out)


def test_train_gibbs_schedule_must_be_whole_numbers(workdir, tmp_path, capsys):
    out = tmp_path / "m.json"
    argv = ["train", "--data", str(workdir / "train.csv"), *TRAIN_FLAGS, "--model-out", str(out)]
    assert main(argv + ["--gibbs", "30.7,10.9"]) == 2
    assert "--gibbs" in capsys.readouterr().err
    assert not out.exists()
    # whole numbers written as floats still work
    assert main(argv + ["--gibbs", "8.0,2e0"]) == 0
    assert out.read_bytes() == (workdir / "model.json").read_bytes()
    capsys.readouterr()


def test_train_failure_maps_to_exit_one(workdir, tmp_path, capsys):
    rc = main(["train", "--data", str(workdir / "train.csv"),
               "--k", "3", "--p0", "0.001", "--lambda-cap", "0.001", "--steps", "0",
               "--gibbs", "8,2", "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "eta_hat" in capsys.readouterr().err


def test_train_refuses_a_fit_that_mislabels_its_nominal_support(tmp_path, monkeypatch,
                                                                 capsys):
    # on the walkthrough cell the linear kernel's lam jumps between 0 and
    # the cap each step, and at 201 steps the classifier ends inverted
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--R", "55", "--ra", "0.2", "--seed", "0"]) == 0
    capsys.readouterr()
    rc = main(["train", "--data", "train.csv", "--kernel", "linear",
               "--steps", "201", "--seed", "0", "--model-out", "m.json"])
    assert rc == 1
    # the share moves in its last digits with the BLAS thread count
    share = re.fullmatch(r"error: the classifier mislabels (\d+\.\d)% of its own nominal "
                         r"support, worse than chance\n", capsys.readouterr().err)
    assert share and float(share[1]) > 50
    assert not Path("m.json").exists()


def test_train_reports_an_allocation_too_big_for_memory(workdir, tmp_path, capsys):
    # the sampler's records would take 426 PiB, more than any address space
    # holds, so NumPy refuses at once without allocating; at 1e18 their size
    # overflows NumPy's, which it refuses as a ValueError
    out = tmp_path / "m.json"
    for sweeps, gib in (("1e15", "4.47e+08"), ("1e18", "4.47e+11")):
        rc = main(["train", "--data", str(workdir / "train.csv"), "--k", "3",
                   "--steps", "1", "--gibbs", f"{sweeps},10", "--model-out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: gibbs_sweeps={int(float(sweeps))} needs sampler records of "
            f"{gib} GiB each, more than memory holds\n")
        assert not out.exists()


def test_train_fails_below_k_plus_one_nominal_points(workdir, tmp_path, capsys):
    rc = main(["train", "--data", str(workdir / "train.csv"),
               "--k", "8", "--p0", "0.44", "--steps", "0",
               "--gibbs", "8,2", "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "nominal support has 4 point(s); need at least k+1=9" in \
        capsys.readouterr().err


@pytest.mark.parametrize("kernel,needle", [
    (["linear"], "kernel matrix is not finite"),
    # exp(-inf) = 0 keeps this kernel finite, but the k-NN distance sums overflow
    (["rbf"], "k-NN statistics are not finite"),
], ids=["linear", "rbf"])
def test_train_rejects_features_that_overflow(workdir, tmp_path, capsys,
                                              kernel, needle):
    rows = _read_rows(workdir / "train.csv")
    scaled = [rows[0]] + [[r[0], repr(float(r[1]) * 1e200),
                           repr(float(r[2]) * 1e200), r[3]] for r in rows[1:]]
    data = tmp_path / "huge.csv"
    data.write_text("".join(",".join(r) + "\n" for r in scaled))
    out = tmp_path / "m.json"
    rc = main(["train", "--data", str(data), "--kernel", *kernel,
               "--steps", "1", "--model-out", str(out)])
    assert rc == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", [0.0, 1e-200])
def test_train_refuses_features_too_small_for_a_linear_kernel(workdir, tmp_path, capsys,
                                                              scale):
    # all-zero features, or ones whose x . x underflows to 0, leave no
    # kernel to fit: bad input, refused before any model is written
    rows = _read_rows(workdir / "train.csv")
    scaled = [rows[0]] + [[r[0], repr(float(r[1]) * scale),
                           repr(float(r[2]) * scale), r[3]] for r in rows[1:]]
    data = tmp_path / "tiny.csv"
    data.write_text("".join(",".join(r) + "\n" for r in scaled))
    out = tmp_path / "m.json"
    rc = main(["train", "--data", str(data), "--kernel", "linear",
               "--steps", "0", "--model-out", str(out)])
    assert rc == 2
    assert "kernel matrix is too small to factor" in capsys.readouterr().err
    assert not out.exists()


def test_train_flags_default_to_the_joint_model_settings(tmp_path, monkeypatch, capsys):
    # the README walkthrough's commands, each writing to its default file
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--R", "55", "--ra", "0.2", "--seed", "0"]) == 0
    train = ["train", "--data", "train.csv", "--seed", "0", "--model-out"]
    calls = _spy_on_train(monkeypatch)
    assert main(train + ["model.json"]) == 0
    [(_, kernel, gem_config, hyper)] = calls
    joint = default_settings("gemmed")
    assert kernel == load_model("model.json").kernel == KernelSpec(joint.kernel, joint.gamma)
    assert hyper == joint.hyper
    assert gem_config == GemConfig()
    assert main(train + ["flags.json", "--kernel", "rbf", "--gamma", "0.1",
                         "--lambda-cap", "0.4"]) == 0
    assert Path("model.json").read_bytes() == Path("flags.json").read_bytes()
    assert main(["predict", "--model", "model.json", "--data", "test.csv"]) == 0
    assert main(["evaluate", "--predictions", "predictions.csv", "--truth", "test.csv",
                 "--report", "report.json"]) == 0
    assert json.loads(Path("report.json").read_text()) == {"error": 0.249}
    capsys.readouterr()


def _sweep_config(root, **overrides):
    config = {
        "R": [40.0], "ra": [0.2], "seeds": [1], "methods": ["svm"],
        "n_train_per_class": 30, "n_test_per_class": 40,
        "detect_ring": 0, "detect_clean": 0,
        "out": str(root / "sweep.csv"),
    }
    config.update(overrides)
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_sweep_runs_and_is_byte_deterministic(tmp_path, capsys):
    config = _sweep_config(tmp_path)
    assert main(["sweep", "--config", str(config)]) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(config)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first
    rows = _read_rows(tmp_path / "sweep.csv")
    assert rows[0] == ["method", "R", "r_a", "seed", "error", "auc", "det_acc"]
    assert len(rows) == 2
    assert rows[1][0] == "svm"
    assert rows[1][5] == "" and rows[1][6] == ""  # svm has no anomaly metrics
    capsys.readouterr()


def test_sweep_of_the_joint_model_on_clean_training_data(tmp_path, capsys):
    # no training anomalies leaves nothing to rank: the auc cell is empty
    config = _sweep_config(
        tmp_path, ra=[0], methods=["gemmed"], gem={"k": 3},
        gemmed={"hyper": {"steps": 2, "gibbs_sweeps": 8, "burn_in": 2}})
    assert main(["sweep", "--config", str(config)]) == 0
    rows = _read_rows(tmp_path / "sweep.csv")
    assert rows[1][:3] == ["gemmed", "40.0", "0.0"]
    assert rows[1][5] == ""
    capsys.readouterr()


def test_sweep_partial_hyper_keeps_the_method_defaults(tmp_path, capsys):
    # a hyper section that sets only the schedule keeps the joint model's
    # lambda_cap of 0.4
    schedule = {"steps": 3, "gibbs_sweeps": 8, "burn_in": 2}
    outputs = []
    for extra in ({}, {"lambda_cap": 0.4}):
        config = _sweep_config(tmp_path, methods=["gemmed"], gem={"k": 3},
                               detect_ring=20, detect_clean=20,
                               gemmed={"hyper": {**schedule, **extra}})
        assert main(["sweep", "--config", str(config)]) == 0
        outputs.append((tmp_path / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
    capsys.readouterr()


ROW_COUNT_PARAMS = ("n_train_per_class", "n_test_per_class",
                    "n_detect_ring", "n_detect_clean")


def test_sweep_leaves_omitted_row_counts_to_run_cell(tmp_path, capsys,
                                                     monkeypatch):
    calls = []

    def fake_run_cell(method, R, r_a, seed, **kwargs):
        bound = inspect.signature(run_cell).bind(method, R, r_a, seed, **kwargs)
        bound.apply_defaults()
        calls.append((kwargs, bound.arguments))
        return CellResult(method, R, r_a, seed, 0.25, None, None)

    monkeypatch.setattr(cli, "run_cell", fake_run_cell)
    path = tmp_path / "config.json"
    for counts in ({}, {"n_train_per_class": 20.0, "detect_clean": 0}):
        path.write_text(json.dumps({"R": [55], "ra": [0.2], "seeds": [0],
                                    "methods": ["svm"], **counts,
                                    "out": str(tmp_path / "sweep.csv")}))
        assert main(["sweep", "--config", str(path)]) == 0
    (unset, defaults), (partial, applied) = calls
    assert not unset.keys() & set(ROW_COUNT_PARAMS)
    assert [defaults[k] for k in ROW_COUNT_PARAMS] == [100, 2000, 200, 2000]
    assert {k: partial[k] for k in partial.keys() & set(ROW_COUNT_PARAMS)} \
        == {"n_train_per_class": 20, "n_detect_clean": 0}
    assert [applied[k] for k in ROW_COUNT_PARAMS] == [20, 2000, 200, 0]
    capsys.readouterr()


def test_sweep_honors_method_sections(tmp_path, capsys):
    config = _sweep_config(
        tmp_path, methods=["two-stage"],
        gem={"k": 3},
        **{"two-stage": {"kernel": "rbf", "gamma": 0.2, "C": 2.0}})
    assert main(["sweep", "--config", str(config)]) == 0
    rows = _read_rows(tmp_path / "sweep.csv")
    assert rows[1][0] == "two-stage"
    capsys.readouterr()


# each row names its site and key; a section's integer and float fields and
# the object a range refusal names are the tables of test_persist, and
# HyperParams' ranges test_model's
@pytest.mark.parametrize("mutation,needle", [
    pytest.param({"bogus": 1}, "unknown key 'bogus' in sweep config", id="config-bogus-unknown"),
    pytest.param({"methods": ["boost"]}, "unknown method 'boost'", id="methods-boost-unknown"),
    pytest.param({"methods": []}, "key 'methods' must be a nonempty list", id="methods-empty"),
    pytest.param({"gem": {"seed": 4}}, "unknown key 'seed' in sweep config section 'gem'",
                 id="gem-seed-unknown"),
    pytest.param({"svm": {"epochs": 3}}, "unknown key 'epochs' in sweep config section 'svm'",
                 id="svm-epochs-unknown"),
    pytest.param({"gemmed": {"hyper": {"lr": 0.1}}}, "unknown key 'lr' in sweep config "
                 "section 'gemmed.hyper'", id="gemmed-hyper-lr-unknown"),
    pytest.param({"svm": [1]}, "section 'svm' must be an object", id="svm-not-an-object"),
    pytest.param({"gemmed": {"hyper": 1}}, "section 'gemmed.hyper' must be an object",
                 id="gemmed-hyper-not-an-object"),
    pytest.param({"gem": 3}, "section 'gem' must be an object", id="gem-not-an-object"),
    pytest.param({"seeds": [1.7]}, "key 'seeds' must be a whole number, got 1.7",
                 id="grid-seeds-fraction"),
    pytest.param({"n_train_per_class": "20"}, "key 'n_train_per_class' must be a whole "
                 "number, got '20'", id="counts-n_train_per_class-string"),
    # keys another method reads but this one never does
    pytest.param({"svm": {"hyper": {"steps": 3}}},
                 "unknown key 'hyper' in sweep config section 'svm'", id="svm-hyper-unknown"),
    pytest.param({"gemmed": {"C": 123.0}}, "unknown key 'C' in sweep config section 'gemmed'",
                 id="gemmed-C-unknown"),
    # kernel values of a section whose method the sweep does not run
    pytest.param({"gemmed": {"gamma": -1}},
                 "section 'gemmed': gamma must lie in (0, inf), got -1",
                 id="gemmed-gamma-negative-not-run"),
    # the Gram jitter is worked out from the kernel: no section sets one
    pytest.param({"gemmed": {"jitter": float("nan")}},
                 "unknown key 'jitter' in sweep config section 'gemmed'",
                 id="gemmed-jitter-nan-not-run"),
    pytest.param({"two-stage": {"jitter": 5.0}}, "unknown key 'jitter' in sweep config "
                 "section 'two-stage'", id="two-stage-jitter-unknown"),
    pytest.param({"two-stage": {"kernel": "rbf", "gamma": None}}, "section 'two-stage': "
                 "gamma must lie in (0, inf), got None", id="two-stage-gamma-null-not-run"),
    # the coverage every cell sets as its target_coverage
    pytest.param({"coverage": 1.5}, "key 'coverage': target_coverage must lie in (0, 1], "
                 "got 1.5", id="coverage-above-one"),
    # a value the section's dataclass refuses names the section
    pytest.param({"methods": ["two-stage"], "svm": {"C": -1}},
                 "section 'svm': C must lie in (0, inf), got -1", id="svm-C-negative"),
    pytest.param({"two-stage": {"C": float("inf")}},
                 "section 'two-stage': C must lie in (0, inf), got inf",
                 id="two-stage-C-infinite"),
    pytest.param({"gemmed": {"hyper": {"c": None}}},
                 "section 'gemmed.hyper': c must lie in (0, inf), got None",
                 id="gemmed-hyper-c-null"),
    # the cap is a number: null does not mean a default
    pytest.param({"gemmed": {"hyper": {"lambda_cap": None}}},
                 "section 'gemmed.hyper': lambda_cap must lie in (0, 10.0), got None",
                 id="gemmed-hyper-lambda_cap-null"),
    pytest.param({"R": ["55"]}, "key 'R' expects a number, got '55'",
                 id="grid-R-not-a-number"),
    # run_cell seeds each cell's sampler with the cell seed
    pytest.param({"gemmed": {"hyper": {"seed": 5}}},
                 "unknown key 'seed' in sweep config section 'gemmed.hyper'",
                 id="gemmed-hyper-seed-unknown"),
    # a hyper section overrides the joint model's lambda_cap of 0.4 only
    # where it sets it, so a c at or below 0.4 needs its own cap
    pytest.param({"gemmed": {"hyper": {"c": 0.3}}},
                 "lambda_cap must lie in (0, 0.3), got 0.4",
                 id="gemmed-hyper-c-below-default-cap"),
    # every cell's data and detection counts are checked before any cell
    pytest.param({"ra": [0.2, 1.5]}, "r_a must lie in [0, 1), got 1.5",
                 id="grid-ra-second-value-out-of-range"),
    pytest.param({"seeds": [1, -3]}, "seed must be at least 0, got -3",
                 id="grid-seeds-second-value-negative"),
    pytest.param({"detect_ring": -1, "detect_clean": 0},
                 "key 'detect_ring' must be at least 0, got -1",
                 id="counts-detect_ring-negative"),
    # a JSON integer too large for a float is not a number a setting can hold
    pytest.param({"R": [40.0, 10**400]}, "key 'R' expects a number, got an integer too large",
                 id="grid-R-integer-too-large"),
    # 7 used to run every cell, then fail in write_csv with a TypeError
    pytest.param({"out": 7}, "sweep config key 'out' must be a nonempty string, got 7",
                 id="out-not-a-string"),
    pytest.param({"out": ""}, "sweep config key 'out' must be a nonempty string, got ''",
                 id="out-empty"),
    # a detection count NumPy cannot size is refused before the first cell
    pytest.param({"methods": ["two-stage"], "detect_ring": 10**400},
                 f"key 'detect_ring' must be at most {MAX_ROWS_PER_CLASS}",
                 id="counts-detect_ring-too-large"),
    # a kind KernelSpec does not know is refused, not run as an rbf kernel
    pytest.param({"svm": {"kernel": "poly", "gamma": 0.1}},
                 "section 'svm': unknown kernel kind 'poly'", id="svm-kernel-unknown"),
])
def test_sweep_rejects_malformed_configs(tmp_path, capsys, monkeypatch, mutation, needle):
    monkeypatch.setattr(cli, "run_cell", lambda *cell, **kwargs: pytest.fail("a cell ran"))
    config = _sweep_config(tmp_path, **mutation)
    # --out overrides the config's out but skips none of the checks
    for flag in ([], ["--out", str(tmp_path / "other.csv")]):
        assert main(["sweep", "--config", str(config), *flag]) == 2
        assert needle in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))


def test_sweep_null_unsets_optional_floats(tmp_path, capsys):
    # null stays valid where a setting defaults to unset
    config = _sweep_config(tmp_path, coverage=None, gemmed={"hyper": {"p0": None}})
    assert main(["sweep", "--config", str(config)]) == 0
    capsys.readouterr()


def test_sweep_gamma_auto_runs_a_cell(tmp_path, capsys, monkeypatch):
    # 'auto' is the one string a float setting admits, and only where its
    # type admits a string: the median heuristic on each cell's data
    gammas = []
    monkeypatch.setattr(cli, "run_cell", lambda *cell, **kwargs: gammas.append(
        kwargs["settings"].gamma) or run_cell(*cell, **kwargs))
    config = _sweep_config(tmp_path, methods=["gemmed"], gem={"k": 3}, gemmed={
        "gamma": "auto", "hyper": {"steps": 2, "gibbs_sweeps": 8, "burn_in": 2}})
    assert main(["sweep", "--config", str(config)]) == 0
    assert gammas == ["auto"]
    assert _read_rows(tmp_path / "sweep.csv")[1][0] == "gemmed"
    capsys.readouterr()


def test_readme_sweep_config_is_accepted(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    config = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    config["seeds"] = config["seeds"][:1]
    config["gemmed"]["hyper"]["steps"] = 2
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = _read_rows(out)
    cells = len(config["methods"]) * len(config["R"]) * len(config["ra"])
    assert len(rows) == 1 + cells
    capsys.readouterr()


def test_sweep_requires_grid_keys(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"R": [40.0], "ra": [0.2]}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "seeds" in capsys.readouterr().err
    path.write_text("[1, 2]")
    assert main(["sweep", "--config", str(path)]) == 2
    path.write_text("{ nope")
    assert main(["sweep", "--config", str(path)]) == 2
    capsys.readouterr()


def test_help_and_missing_subcommand(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["gradcheck", "oracle-compare"])
def test_package_self_checks_are_not_commands(command, capsys):
    # acceptance criteria 1 and 2 check the dual against the exact oracle
    assert main([command]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert command not in capsys.readouterr().out


def test_missing_files_exit_two(tmp_path, capsys):
    assert main(["predict", "--model", str(tmp_path / "no.json"),
                 "--data", str(tmp_path / "no.csv")]) == 2
    capsys.readouterr()


def test_every_model_reader_refuses_a_malformed_file(workdir, tmp_path, capsys):
    # every command that reads a model exits 2 naming the file and the
    # field, and writes nothing; tests/test_persist.py holds each field rule
    payload = json.loads((workdir / "model.json").read_text())
    payload["k"] = 3.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    data = ["--data", str(workdir / "test.csv"), "--out", str(out)]
    for argv in (["predict", *data], ["detect", *data],
                 ["evaluate", "--anomaly-truth", str(workdir / "train.csv"),
                  "--curve-out", str(out)]):
        assert main([*argv, "--model", str(path)]) == 2
        printed, err = capsys.readouterr()
        assert f"{path}: field 'k' must be a whole number, got 3.9" in err
        assert printed == "" and not out.exists()
