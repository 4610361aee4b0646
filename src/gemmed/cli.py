"""Command-line interface.

Subcommands cover data simulation, training, prediction, anomaly
detection, evaluation and grid sweeps. Exit codes: 0 success, 1 contract
or validation failure, 2 input error.

Score conventions, to prevent inversion bugs: the per-sample indicator
mean eta_hat ranks training anomalies with LOW values anomalous,
while detect's k-NN distance score flags HIGH values (above the
calibrated threshold) as anomalous.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import trainer
from .dataset import LabeledDataset, feature_columns, features, read_csv, \
    write_csv
from .errors import GemMedError
from .experiments import METHODS, default_settings, run_cell
from .gem import GemConfig
from .kernels import KERNEL_KINDS, resolve_kernel
from .metrics import auc, detection_accuracy, misclassification_error, \
    precision_recall_curve
from .model import HyperParams
from .persist import json_fields, json_list, json_number, json_object, \
    json_whole, load_model, read_json, save_model
from .synthdata import MAX_ROWS_PER_CLASS, RingExperimentConfig, generate


def _fmt(value) -> str:
    """CSV cell for an optional float; repr round-trips float64 exactly."""
    return "" if value is None else repr(float(value))


def _read_points(path, model) -> np.ndarray:
    """Feature rows from either a dataset CSV or a bare x1..xp CSV, as
    many columns as the model's training rows x."""
    xs = features(*read_csv(path, feature_columns))
    if xs.shape[1] != model.x.shape[1]:
        raise ValueError(f"{path} has {xs.shape[1]} feature column(s) but the "
                         f"model expects {model.x.shape[1]}")
    return xs


def _check_out(*paths) -> None:
    """Refuse an output path outside any existing directory, before the work."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise ValueError(f"{path}: '{Path(path).parent}' is not an existing directory")


def _parse_floats(text: str, flag: str, count: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{flag} expects {count} comma-separated values")
    return tuple(float(v) for v in parts)


def number_or_auto(text: str) -> float | str:
    """--gamma's value: 'auto' (the median heuristic) or a number."""
    return text if text == "auto" else float(text)


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    config = RingExperimentConfig(R=args.R, r_a=args.ra, n_train_per_class=args.n_train,
                                  n_test_per_class=args.n_test, seed=args.seed)
    _check_out(args.out_train, args.out_test)
    train_set, test_set = generate(config)
    train_set.to_csv(args.out_train)
    test_set.to_csv(args.out_test)
    print(f"wrote {train_set.n} training rows to {args.out_train}")
    print(f"wrote {test_set.n} test rows to {args.out_test}")
    return 0


# ------------------------------------------------------------------- train

def cmd_train(args) -> int:
    _check_out(args.model_out)
    data = LabeledDataset.from_csv(args.data)
    kernel = resolve_kernel(args.kernel, args.gamma, data.x)
    phi, psi, tau = _parse_floats(args.rates, "--rates", 3)
    sweeps, burn = (json_whole(v, "--gibbs")
                    for v in _parse_floats(args.gibbs, "--gibbs", 2))
    hyper = HyperParams(c=args.c, lambda_cap=args.lambda_cap, p0=args.p0,
                        steps=args.steps, rate_lambda=phi, rate_mu=psi, rate_kappa=tau,
                        gibbs_sweeps=sweeps, burn_in=burn, seed=args.seed)
    gem_config = GemConfig(k=args.k, target_coverage=args.coverage,
                           alpha=args.alpha, seed=args.seed)
    model = trainer.train(data, kernel, gem_config, hyper)
    save_model(model, args.model_out)
    print(f"wrote model to {args.model_out}")
    print(f"final dual objective estimate: {model.dual_estimate:.6g}")
    print(f"mean eta_hat: {float(model.eta_hat.mean()):.6g}")
    return 0


# --------------------------------------------------- predict/detect/evaluate

def cmd_predict(args) -> int:
    _check_out(args.out)
    model = load_model(args.model)
    xs = _read_points(args.data, model)
    if hasattr(model, "predict"):
        labels = model.predict(xs)
    else:
        labels = trainer.predict(model, xs)
    write_csv(args.out, ["label"], zip(map(str, labels.tolist())))
    print(f"wrote {xs.shape[0]} predictions to {args.out}")
    return 0


def cmd_detect(args) -> int:
    _check_out(args.out)
    model = load_model(args.model)
    if not hasattr(model, "theta"):               # plain SVM
        raise ValueError("this model kind has no anomaly detector")
    xs = _read_points(args.data, model)
    if hasattr(model, "anomaly_scores"):          # two-stage baseline
        scores = model.anomaly_scores(xs)
        calls = scores > model.theta
    else:                                         # joint model
        scores = trainer.anomaly_scores(model, xs)
        calls = trainer.detect(model, xs)
    write_csv(args.out, ["score", "call"],
              zip(map(repr, scores.tolist()),
                  map(str, calls.astype(int).tolist())))
    print(f"wrote {xs.shape[0]} detection calls to {args.out} "
          f"(threshold {model.theta!r}; score above threshold means anomaly)")
    return 0


def _read_column(path, name: str) -> np.ndarray:
    """One column of a predict or detect output file, checked by name."""
    def pick(header):
        if name not in header:
            raise ValueError(f"expected a '{name}' column")
        return [name]
    return read_csv(path, pick)[1][:, 0]


def cmd_evaluate(args) -> int:
    # each input flag needs its partner, so that none is silently ignored
    partners = {"predictions": "truth", "model": "anomaly_truth",
                "detections": "detection_truth", "truth": "predictions",
                "anomaly_truth": "model", "detection_truth": "detections",
                "curve_out": "model"}
    for flag, partner in partners.items():
        if getattr(args, flag) and not getattr(args, partner):
            raise ValueError(f"--{flag} requires --{partner}".replace("_", "-"))
    _check_out(args.curve_out, args.report)

    def aligned(values, path, truth, truth_path):
        if len(values) != len(truth):
            raise ValueError(f"{path} has {len(values)} row(s) but {truth_path} "
                             f"has {len(truth)}")

    report: dict = {}
    if args.predictions:
        predicted = _read_column(args.predictions, "label")
        truth = LabeledDataset.from_csv(args.truth)
        aligned(predicted, args.predictions, truth.y, args.truth)
        report["error"] = misclassification_error(predicted, truth.y)
    if args.model:
        model = load_model(args.model)
        if not hasattr(model, "eta_hat"):
            raise ValueError("anomaly ranking needs the joint model kind")
        flags = LabeledDataset.from_csv(args.anomaly_truth).anomaly
        if flags is None:
            raise ValueError(f"{args.anomaly_truth}: no is_anomaly column")
        aligned(model.eta_hat, args.model, flags, args.anomaly_truth)
        curve = precision_recall_curve(model.eta_hat, flags)
        report["auc"] = auc(curve)
        if args.curve_out:
            report["curve_csv"] = str(args.curve_out)
    if args.detections:
        calls = _read_column(args.detections, "call") != 0
        flags = LabeledDataset.from_csv(args.detection_truth).anomaly
        if flags is None:
            raise ValueError(f"{args.detection_truth}: no is_anomaly column")
        aligned(calls, args.detections, flags, args.detection_truth)
        report["detection_accuracy"] = detection_accuracy(calls, flags)
    if not report:
        raise ValueError("nothing to evaluate; pass --predictions, --model, "
                         "or --detections")
    if args.curve_out:  # written only once every input has been read
        write_csv(args.curve_out, ["rho", "precision", "recall"],
                  (map(repr, row) for row in curve.tolist()))
    text = json.dumps(report, indent=1)
    if args.report:
        Path(args.report).write_text(text + "\n")
    print(text)
    return 0


# ------------------------------------------------------------------- sweep

# the fields run_cell sets in each cell, which no section may set, and the
# keys each method's section may not set: only the joint model has
# HyperParams; only the SVMs have a box C
CELL_FIELDS = {"seed", "target_coverage"}
METHOD_REFUSED = {"gemmed": {"C"}, "svm": {"hyper"}, "two-stage": {"hyper"}}
# sweep config key -> run_cell parameter, for the counts a config may set
ROW_COUNTS = {"n_train_per_class": "n_train_per_class",
              "n_test_per_class": "n_test_per_class",
              "detect_ring": "n_detect_ring", "detect_clean": "n_detect_clean"}
SWEEP_TOP_KEYS = {"R", "ra", "seeds", "methods", "coverage", "gem", "out",
                  *ROW_COUNTS, *METHODS}
# how errors name a sweep config section and a key of one
SWEEP = ("sweep config section", "sweep config key")


def cmd_sweep(args) -> int:
    config = read_json(args.config)
    json_object(config, "sweep config", SWEEP_TOP_KEYS)
    for key in ("R", "ra", "seeds"):
        if key not in config:
            raise ValueError(f"sweep config is missing required key '{key}'")
    grid_R, grid_ra, seeds = (
        json_list(config[key], f"sweep config key '{key}'", read)
        for key, read in (("R", json_number), ("ra", json_number), ("seeds", json_whole)))
    methods = json_list(config.get("methods", list(METHODS)), "sweep config key 'methods'")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method '{m}' in sweep config")
    gem_config = json_fields(config.get("gem", {}), "gem", GemConfig(), CELL_FIELDS, SWEEP)
    # read every method section present, not just the selected ones, so a
    # typo in an inactive section cannot hide; null keeps the defaults
    settings = {m: json_fields({} if config.get(m) is None else config[m], m,
                               default_settings(m), CELL_FIELDS | METHOD_REFUSED[m], SWEEP)
                for m in METHODS}
    coverage = config.get("coverage")
    if coverage is not None:  # run_cell sets it as each cell's target_coverage
        try:
            dataclasses.replace(gem_config, target_coverage=coverage)
        except ValueError as exc:
            raise ValueError(f"sweep config key 'coverage': {exc}") from None
    # run_cell's signature holds the default of every count a config omits
    counts = {name: json_whole(config[key], f"sweep config key '{key}'", 0)
              for key, name in ROW_COUNTS.items() if key in config}
    # every cell's data config, checked before the first cell runs
    sizes = {k: counts[k]
             for k in counts.keys() & RingExperimentConfig.__dataclass_fields__}
    for R, ra, seed in itertools.product(grid_R, grid_ra, seeds):
        RingExperimentConfig(R=R, r_a=ra, seed=seed, **sizes)
    for key in ("detect_ring", "detect_clean"):  # NumPy must size these draws too
        if counts.get(ROW_COUNTS[key], 0) > MAX_ROWS_PER_CLASS:
            raise ValueError(f"sweep config key '{key}' must be at most {MAX_ROWS_PER_CLASS}")
    out = config.get("out", "sweep.csv")
    if not isinstance(out, str) or not out:
        raise ValueError(f"sweep config key 'out' must be a nonempty string, got {out!r}")
    out = args.out or out
    _check_out(out)

    rows = []
    for method, R, ra, seed in itertools.product(methods, grid_R, grid_ra, seeds):
        cell = run_cell(method, R, ra, seed, gem_config=gem_config,
                        settings=settings[method], coverage=coverage, **counts)
        rows.append(cell)
        print(f"{method} R={R:g} ra={ra:g} seed={seed}: error={cell.error:.4f}")
    write_csv(out, ["method", "R", "r_a", "seed", "error", "auc", "det_acc"],
              ([cell.method, _fmt(cell.R), _fmt(cell.r_a), str(cell.seed),
                _fmt(cell.error), _fmt(cell.auc), _fmt(cell.det_acc)]
               for cell in rows))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ------------------------------------------------------------------ parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gemmed parser, built once per process and shared: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="gemmed",
        description="Robust kernel classification with joint anomaly "
                    "screening. Anomaly ranking convention: low eta_hat "
                    "means anomalous; detect's distance score flags high "
                    "values as anomalous.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate the two-Gaussian ring benchmark")
    p.add_argument("--R", type=float, required=True, help="ring radius")
    p.add_argument("--ra", type=float, required=True, help="training corruption rate")
    p.add_argument("--n-train", type=int, help="training rows per class",
                   default=RingExperimentConfig.n_train_per_class)
    p.add_argument("--n-test", type=int, help="test rows per class",
                   default=RingExperimentConfig.n_test_per_class)
    p.add_argument("--seed", type=int, default=RingExperimentConfig.seed)
    p.add_argument("--out-train", default="train.csv")
    p.add_argument("--out-test", default="test.csv")
    p.set_defaults(func=cmd_simulate)

    joint = default_settings("gemmed")  # the settings every sweep cell uses too
    hyper = joint.hyper
    p = sub.add_parser("train", help="fit the joint classifier and screen")
    p.add_argument("--data", required=True, help="training CSV (y,x1..xp[,is_anomaly])")
    p.add_argument("--kernel", choices=KERNEL_KINDS, default=joint.kernel)
    p.add_argument("--gamma", type=number_or_auto, default=joint.gamma,
                   help="rbf width, a number or 'auto' (median heuristic)")
    p.add_argument("--k", type=int, default=GemConfig.k, help="k-NN neighbor count")
    p.add_argument("--coverage", type=float, default=GemConfig.target_coverage,
                   help="target nominal mass per class")
    p.add_argument("--alpha", type=float, default=GemConfig.alpha,
                   help="detection false-alarm level")
    p.add_argument("--c", type=float, default=hyper.c, help="margin slack rate")
    p.add_argument("--lambda-cap", type=float, default=hyper.lambda_cap)
    p.add_argument("--p0", type=float, default=hyper.p0,
                   help="explicit nominal prior probability")
    p.add_argument("--rates", help="ascent rates phi,psi,tau",
                   default=f"{hyper.rate_lambda},{hyper.rate_mu},{hyper.rate_kappa}")
    p.add_argument("--steps", type=int, default=hyper.steps)
    p.add_argument("--gibbs", help="sampler schedule sweeps,burn_in",
                   default=f"{hyper.gibbs_sweeps},{hyper.burn_in}")
    p.add_argument("--seed", type=int, default=hyper.seed)
    p.add_argument("--model-out", default="model.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label points with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV of points (x1..xp or dataset)")
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("detect", help="anomaly-screen points with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV of points (x1..xp or dataset)")
    p.add_argument("--out", default="detections.csv")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score predictions/rankings/detections")
    p.add_argument("--predictions", help="CSV from predict")
    p.add_argument("--truth", help="dataset CSV with true labels")
    p.add_argument("--model", help="joint model JSON for eta_hat ranking")
    p.add_argument("--anomaly-truth",
                   help="training CSV with is_anomaly flags")
    p.add_argument("--curve-out", help="where to write the precision-recall curve")
    p.add_argument("--detections", help="CSV from detect")
    p.add_argument("--detection-truth",
                   help="dataset CSV with is_anomaly flags for the detect points")
    p.add_argument("--report", help="where to write the JSON report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a method/R/ra/seed grid to a tidy CSV")
    p.add_argument("--config", required=True, help="JSON sweep configuration")
    p.add_argument("--out", default=None,
                   help="output CSV (overrides the config's 'out')")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GemMedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
