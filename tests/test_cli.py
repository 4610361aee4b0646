"""End-to-end command-line checks, run in process through main()."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gemmed.baselines import train_svm, train_two_stage
from gemmed.cli import main
from gemmed.dataset import LabeledDataset
from gemmed.gem import GemConfig
from gemmed.kernels import KernelSpec
from gemmed.model import TrainedModel
from gemmed.persist import load_model, save_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulated cell plus a small trained model, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(["simulate", "--R", "40", "--ra", "0.2", "--n-train", "30",
               "--n-test", "40", "--seed", "1",
               "--out-train", str(root / "train.csv"),
               "--out-test", str(root / "test.csv")])
    assert rc == 0
    rc = main(["train", "--data", str(root / "train.csv"),
               "--kernel", "rbf", "--gamma", "0.1", "--k", "3",
               "--lambda-cap", "0.4", "--steps", "2", "--gibbs", "8,2",
               "--seed", "0", "--model-out", str(root / "model.json")])
    assert rc == 0
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
    rc = main(["train", "--data", str(workdir / "train.csv"),
               "--kernel", "rbf", "--gamma", "0.1", "--k", "3",
               "--lambda-cap", "0.4", "--steps", "2", "--gibbs", "8,2",
               "--seed", "0", "--model-out", str(out)])
    assert rc == 0
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
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_query_rows_must_be_finite(workdir, tmp_path, capsys, command, value):
    pts = tmp_path / "pts.csv"
    pts.write_text(f"x1,x2\n0.0,0.0\n1.0,{value}\n")
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
        gamma_hat=np.array([0.1, 0.1]), beta_hat=np.array([0.4, 0.4]),
        theta=3.0, k=2, alpha=0.05, target_coverage=0.8)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_predict_refuses_non_finite_decision_values(workdir, tmp_path, capsys):
    model = tmp_path / "linear.json"
    assert main(["train", "--data", str(workdir / "train.csv"),
                 "--kernel", "linear", "--k", "3", "--lambda-cap", "0.4",
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


def test_detect_with_a_two_stage_model(workdir, baselines, tmp_path):
    out = tmp_path / "det.csv"
    rc = main(["detect", "--model", str(workdir / "two-stage.json"),
               "--data", str(workdir / "test.csv"), "--out", str(out)])
    assert rc == 0
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
    ("--predictions", "label\n1\ninf\n"),          # int(inf) overflows
    ("--predictions", "label\n1\nyes\n"),
    ("--predictions", "label\n1\n-1.9\n"),        # not a label, not truncated
    ("--predictions", "label\n-1\n1.5\n"),
    ("--detections", "score,call\n1.0,1\n2.0,nan\n"),
    ("--detections", "score,call\n1.0,0\n2.0,2\n"),
    ("--predictions", "label\n1\nnan\n"),
    ("--detections", "score,call\n1.0,1\n2.0,0.5\n"),
    ("--detections", "score,call\n1.0,1\n2.0,inf\n"),
])
def test_evaluate_rejects_bad_rows(workdir, tmp_path, capsys, flag, text):
    path = tmp_path / "col.csv"
    path.write_text(text)
    truth = "--truth" if flag == "--predictions" else "--detection-truth"
    rc = main(["evaluate", flag, str(path), truth, str(workdir / "test.csv")])
    assert rc == 2
    assert f"{path}:3: bad" in capsys.readouterr().err


def test_evaluate_rejects_zero_labels(workdir, tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    path.write_text("label\n" + "0\n" * 80)
    rc = main(["evaluate", "--predictions", str(path),
               "--truth", str(workdir / "test.csv")])
    assert rc == 2
    assert f"{path}:2: bad or missing 'label' value; expected -1 or 1" in \
        capsys.readouterr().err


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
@pytest.mark.parametrize("column,value", [
    ("y", "1.5"), ("y", "-1.9"), ("y", "inf"), ("y", "nan"),
    ("is_anomaly", "0.5"), ("is_anomaly", "inf"),
])
def test_bad_labels_and_flags_exit_two(workdir, tmp_path, capsys, command,
                                       column, value):
    # neither truncated to a label nor cast to a flag: exit 2 at the line
    bad = tmp_path / "bad.csv"
    line = _corrupt(workdir / "train.csv", bad, 7, column, value)
    if command == "train":
        argv = ["train", "--data", str(bad), "--k", "3",
                "--model-out", str(tmp_path / "m.json")]
    elif command == "predict":
        argv = ["predict", "--model", str(workdir / "model.json"),
                "--data", str(bad), "--out", str(tmp_path / "p.csv")]
    elif column == "y":
        pred = tmp_path / "pred.csv"
        pred.write_text("label\n" + "1\n" * 60)
        argv = ["evaluate", "--predictions", str(pred), "--truth", str(bad)]
    else:
        det = tmp_path / "det.csv"
        det.write_text("score,call\n" + "1.0,0\n" * 60)
        argv = ["evaluate", "--detections", str(det),
                "--detection-truth", str(bad)]
    assert main(argv) == 2
    expected = "-1 or 1" if column == "y" else "0 or 1"
    assert (f"{bad}:{line}: bad or missing '{column}' value; expected "
            f"{expected}") in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    ("train", "y,x1,x2\n\n1,0,0\n\n\n-1,1,1\n\n1,2\n"),
    ("predict", "y,x1,x2\n\n1,0,0\n\n\n-1,1,1\n\n1,2\n"),
    ("predict", "x1,x2\n\n0,0\n\n\n1,1\n\n2\n"),
    ("detect", "x1,x2\n\n0,0\n\n\n1,1\n\n2\n"),
])
def test_short_row_names_its_physical_line(workdir, tmp_path, capsys,
                                           command, text):
    path = tmp_path / "short.csv"
    path.write_text(text)
    if command == "train":
        argv = ["train", "--data", str(path),
                "--model-out", str(tmp_path / "m.json")]
    else:
        argv = [command, "--model", str(workdir / "model.json"),
                "--data", str(path), "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    width = len(text.partition("\n")[0].split(","))
    assert (f"{path}:8: bad row; expected {width} fields, got {width - 1}"
            in capsys.readouterr().err)


def test_evaluate_reads_only_the_named_column(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("id,label\n" + "".join(f"row{i},1\n" for i in range(80)))
    assert main(["evaluate", "--predictions", str(pred),
                 "--truth", str(workdir / "test.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["error"] == 0.5


@pytest.mark.parametrize("argv", [
    ["evaluate"],
    ["evaluate", "--predictions", "x.csv"],
    ["evaluate", "--model", "m.json"],
    ["evaluate", "--detections", "d.csv"],
])
def test_evaluate_incomplete_inputs(workdir, argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args,needle", [
    ("--model svm.json --anomaly-truth train.csv", "needs the joint model"),
    ("--model model.json --anomaly-truth unflagged.csv",
     "unflagged.csv: no is_anomaly column"),
    ("--detections calls.csv --detection-truth unflagged.csv",
     "unflagged.csv: no is_anomaly column"),
    ("--predictions calls.csv --truth test.csv",
     "calls.csv: expected a 'label' column"),
])
def test_evaluate_rejects_missing_inputs(workdir, baselines, tmp_path, capsys,
                                         args, needle):
    rows = _read_rows(workdir / "train.csv")
    (tmp_path / "unflagged.csv").write_text(
        "".join(",".join(r[:3]) + "\n" for r in rows))
    (tmp_path / "calls.csv").write_text("score,call\n" + "1.0,1\n" * 60)

    def path(name):
        return str(tmp_path / name if (tmp_path / name).exists()
                   else workdir / name)

    rc = main(["evaluate"] + [a if a.startswith("--") else path(a)
                              for a in args.split()])
    assert rc == 2
    assert needle in capsys.readouterr().err


def test_detect_requires_a_detector(workdir, baselines, tmp_path, capsys):
    # a plain SVM sweep cell has no detector
    rc = main(["detect", "--model", str(workdir / "svm.json"),
               "--data", str(workdir / "test.csv"),
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "detector" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_unstable_rates_warn_in_train_only(workdir, tmp_path, capsys):
    model = tmp_path / "fast.json"
    with pytest.warns(UserWarning, match="rate_lambda=0.05 outside"):
        rc = main(["train", "--data", str(workdir / "train.csv"),
                   "--kernel", "rbf", "--gamma", "0.1", "--k", "3",
                   "--lambda-cap", "0.4", "--steps", "2", "--gibbs", "8,2",
                   "--rates", "5e-2,2e-2,2e-2", "--model-out", str(model)])
    assert rc == 0
    assert load_model(model).hyper.rate_lambda == 0.05
    for command, data in (("predict", "test.csv"), ("detect", "train.csv")):
        assert main([command, "--model", str(model), "--data",
                     str(workdir / data), "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_train_bad_gamma_and_rates(workdir, tmp_path, capsys):
    rc = main(["train", "--data", str(workdir / "train.csv"),
               "--gamma", "wide", "--model-out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "--gamma" in capsys.readouterr().err
    rc = main(["train", "--data", str(workdir / "train.csv"),
               "--rates", "1e-3,2e-2", "--model-out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "--rates" in capsys.readouterr().err


def test_train_gibbs_schedule_must_be_whole_numbers(workdir, tmp_path, capsys):
    out = tmp_path / "m.json"
    argv = ["train", "--data", str(workdir / "train.csv"), "--kernel", "rbf",
            "--gamma", "0.1", "--k", "3", "--lambda-cap", "0.4",
            "--steps", "2", "--seed", "0", "--model-out", str(out)]
    assert main(argv + ["--gibbs", "30.7,10.9"]) == 2
    assert "--gibbs" in capsys.readouterr().err
    assert not out.exists()
    # whole numbers written as floats still work
    assert main(argv + ["--gibbs", "8.0,2e0"]) == 0
    assert out.read_bytes() == (workdir / "model.json").read_bytes()
    capsys.readouterr()


def test_train_failure_maps_to_exit_one(workdir, tmp_path, capsys):
    rc = main(["train", "--data", str(workdir / "train.csv"),
               "--kernel", "rbf", "--gamma", "0.1", "--k", "3",
               "--p0", "0.001", "--lambda-cap", "0.001", "--steps", "0",
               "--gibbs", "8,2", "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "eta_hat" in capsys.readouterr().err


def test_train_fails_below_k_plus_one_nominal_points(workdir, tmp_path, capsys):
    rc = main(["train", "--data", str(workdir / "train.csv"),
               "--kernel", "rbf", "--gamma", "0.1", "--k", "8",
               "--p0", "0.4", "--lambda-cap", "0.4", "--steps", "0",
               "--gibbs", "8,2", "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "nominal support has 4 point(s); need at least k+1=9" in \
        capsys.readouterr().err


def test_train_rejects_a_non_finite_kernel_matrix(workdir, tmp_path, capsys):
    rows = _read_rows(workdir / "train.csv")
    scaled = [rows[0]] + [[r[0], repr(float(r[1]) * 1e200),
                           repr(float(r[2]) * 1e200), r[3]] for r in rows[1:]]
    data = tmp_path / "huge.csv"
    data.write_text("".join(",".join(r) + "\n" for r in scaled))
    rc = main(["train", "--data", str(data), "--kernel", "linear",
               "--steps", "1", "--model-out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "not finite" in capsys.readouterr().err


def test_gradcheck_passes_and_fails_by_tolerance(capsys):
    assert main(["gradcheck", "--n", "4", "--trials", "2"]) == 0
    assert "OK" in capsys.readouterr().out
    assert main(["gradcheck", "--n", "4", "--trials", "2",
                 "--tol", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_oracle_compare_small_run(capsys):
    rc = main(["oracle-compare", "--n", "4", "--trials", "3",
               "--sweeps", "150", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "within 3 SE" in out


def test_oracle_compare_rejects_big_instances(capsys):
    assert main(["oracle-compare", "--n", "40"]) == 2
    assert main(["gradcheck", "--n", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["oracle-compare", "gradcheck"])
def test_oracle_commands_reject_zero_trials(command, capsys):
    assert main([command, "--n", "4", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert "--trials must be at least 1, got 0" in captured.err
    assert "OK" not in captured.out


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


def test_sweep_honors_method_sections(tmp_path, capsys):
    config = _sweep_config(
        tmp_path, methods=["two-stage"],
        gem={"k": 3},
        **{"two-stage": {"kernel": "rbf", "gamma": 0.2, "C": 2.0}})
    assert main(["sweep", "--config", str(config)]) == 0
    rows = _read_rows(tmp_path / "sweep.csv")
    assert rows[1][0] == "two-stage"
    capsys.readouterr()


@pytest.mark.parametrize("mutation,needle", [
    ({"bogus": 1}, "unknown key 'bogus'"),
    ({"methods": ["boost"]}, "unknown method"),
    ({"methods": []}, "nonempty list"),
    ({"gem": {"seed": 4}}, "unknown key 'seed'"),
    ({"svm": {"epochs": 3}}, "unknown key 'epochs'"),
    ({"gemmed": {"hyper": {"lr": 0.1}}}, "unknown key 'lr'"),
    ({"gem": {"intrinsic_dim": None}}, "unknown key 'intrinsic_dim'"),
    ({"gemmed": {"hyper": {"early_stop": True}}}, "unknown key 'early_stop'"),
    ({"gemmed": {"hyper": {"inner_draws": 20}}}, "unknown key 'inner_draws'"),
    ({"gemmed": {"hyper": {"gibbs_sweeps": 8.5}}},
     "gibbs_sweeps must be an integer"),
    ({"gemmed": {"hyper": {"steps": 2.0}}}, "steps must be an integer"),
    ({"gem": {"k": 2.5}}, "k must be an integer"),
    ({"gem": {"k": True}}, "k must be an integer"),
    ({"svm": [1]}, "sweep config section 'svm' must be an object"),
    ({"gemmed": {"hyper": 1}}, "'gemmed.hyper' must be an object"),
    ({"gem": 3}, "'gem' must be an object"),
    ({"seeds": [1.7]}, "key 'seeds' expects whole numbers, got 1.7"),
    ({"seeds": [True]}, "key 'seeds' expects whole numbers, got True"),
    ({"n_train_per_class": "20"},
     "key 'n_train_per_class' expects whole numbers, got '20'"),
    ({"n_train_per_class": float("inf")},  # what 1e400 in a file loads as
     "key 'n_train_per_class' expects whole numbers, got inf"),
    ({"n_test_per_class": None}, "key 'n_test_per_class' expects whole numbers"),
    ({"detect_ring": 2.5}, "key 'detect_ring' expects whole numbers, got 2.5"),
    ({"detect_clean": [200]}, "key 'detect_clean' expects whole numbers"),
])
def test_sweep_rejects_malformed_configs(tmp_path, capsys, mutation, needle):
    config = _sweep_config(tmp_path, **mutation)
    assert main(["sweep", "--config", str(config)]) == 2
    assert needle in capsys.readouterr().err


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


def test_missing_files_exit_two(tmp_path, capsys):
    assert main(["predict", "--model", str(tmp_path / "no.json"),
                 "--data", str(tmp_path / "no.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field,value,needle", [
    ("hyper", {"c": 10.0, "bogus": 1}, "unknown key 'bogus' in field 'hyper'"),
    ("gamma_hat", [0.1, 0.2], "'gamma_hat' must be an object"),
    ("beta_hat", 0.5, "'beta_hat' must be an object"),
    ("kernel", "rbf", "'kernel' must be an object"),
    ("kernel", {"kind": "rbf", "gamma": 0.1, "jitter": 1e-8, "width": 2.0},
     "unknown key 'width' in field 'kernel'"),
    ("beta_hat", {"-1": 0.4, "1": 0.4, "0": 0.2},
     "unknown key '0' in field 'beta_hat'"),
])
def test_predict_rejects_malformed_model_fields(workdir, tmp_path, capsys,
                                                field, value, needle):
    payload = json.loads((workdir / "model.json").read_text())
    payload[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    rc = main(["predict", "--model", str(path),
               "--data", str(workdir / "test.csv"),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert needle in capsys.readouterr().err
