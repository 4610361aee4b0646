"""Command-line interface.

Subcommands cover data simulation, training, prediction, anomaly
detection, evaluation, validation harnesses (gradcheck,
oracle-compare), and grid sweeps. Exit codes: 0 success, 1 contract or
validation failure, 2 input error.

Score conventions, to prevent inversion bugs: the per-sample indicator
mean eta_hat ranks training anomalies with LOW values anomalous,
while detect's k-NN distance score flags HIGH values (above the
calibrated threshold) as anomalous.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import trainer
from .dataset import LabeledDataset, feature_columns, features, read_csv, \
    write_csv
from .errors import GemMedError
from .experiments import (METHODS, MethodSettings, default_settings,
                          random_instance, run_cell)
from .gem import GemConfig
from .kernels import resolve_kernel
from .metrics import auc, detection_accuracy, misclassification_error, \
    precision_recall_curve
from .model import HyperParams
from .oracle import MAX_EXACT, exact_posterior, finite_diff_dual, oracle_gradient
from .persist import json_object, load_model, save_model
from .synthdata import RingExperimentConfig, generate

GEM_FIELDS = set(GemConfig.__dataclass_fields__)


def _fmt(value) -> str:
    """CSV cell for an optional float; repr round-trips float64 exactly."""
    return "" if value is None else repr(float(value))


def _read_points(path) -> np.ndarray:
    """Feature rows from either a dataset CSV or a bare x1..xp CSV."""
    return features(*read_csv(path, feature_columns))


def _check_dim(model_x: np.ndarray, xs: np.ndarray, what: str) -> None:
    if xs.shape[1] != model_x.shape[1]:
        raise ValueError(
            f"{what} has {xs.shape[1]} feature column(s) but the model "
            f"expects {model_x.shape[1]}")


def _whole_number(value, what: str) -> int:
    if isinstance(value, float) and value.is_integer():  # false for inf, nan
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} expects whole numbers, got {value!r}")
    return value


def _parse_floats(text: str, flag: str, count: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{flag} expects {count} comma-separated values")
    return tuple(float(v) for v in parts)


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    config = RingExperimentConfig(R=args.R, r_a=args.ra,
                                  n_train_per_class=args.n_train,
                                  n_test_per_class=args.n_test,
                                  seed=args.seed)
    train_set, test_set = generate(config)
    train_set.to_csv(args.out_train)
    test_set.to_csv(args.out_test)
    print(f"wrote {train_set.n} training rows to {args.out_train}")
    print(f"wrote {test_set.n} test rows to {args.out_test}")
    return 0


# ------------------------------------------------------------------- train

def cmd_train(args) -> int:
    data = LabeledDataset.from_csv(args.data)
    gamma = args.gamma
    if gamma != "auto":
        try:
            gamma = float(gamma)
        except ValueError:
            raise ValueError(
                f"--gamma must be a number or 'auto', got {gamma!r}") from None
    kernel = resolve_kernel(args.kernel, gamma, data.x, args.jitter)
    phi, psi, tau = _parse_floats(args.rates, "--rates", 3)
    sweeps, burn = (_whole_number(v, "--gibbs")
                    for v in _parse_floats(args.gibbs, "--gibbs", 2))
    hyper = HyperParams(c=args.c, lambda_cap=args.lambda_cap,
                        a_eta=args.a_eta, p0=args.p0, steps=args.steps,
                        rate_lambda=phi, rate_mu=psi, rate_kappa=tau,
                        gibbs_sweeps=sweeps, burn_in=burn,
                        seed=args.seed)
    gem_config = GemConfig(k=args.k, target_coverage=args.coverage,
                           alpha=args.alpha, seed=args.seed)
    model = trainer.train(data, kernel, gem_config, hyper)
    save_model(model, args.model_out)
    final = model.trace[-1] if model.trace else float("nan")
    print(f"wrote model to {args.model_out}")
    print(f"final dual objective estimate: {final:.6g}")
    print(f"mean eta_hat: {float(model.eta_hat.mean()):.6g}")
    return 0


# --------------------------------------------------- predict/detect/evaluate

def cmd_predict(args) -> int:
    model = load_model(args.model)
    xs = _read_points(args.data)
    # a two-stage model keeps its training rows on its SVM
    _check_dim(getattr(model, "svm", model).x, xs, args.data)
    if hasattr(model, "predict"):
        labels = model.predict(xs)
    else:
        labels = trainer.predict(model, xs)
    write_csv(args.out, ["label"], zip(map(str, labels.tolist())))
    print(f"wrote {xs.shape[0]} predictions to {args.out}")
    return 0


def cmd_detect(args) -> int:
    model = load_model(args.model)
    if hasattr(model, "anomaly_scores"):          # two-stage baseline
        xs = _read_points(args.data)
        _check_dim(model.svm.x, xs, args.data)
        scores = model.anomaly_scores(xs)
        calls = model.detect(xs)
        theta = model.theta
    elif hasattr(model, "eta_hat"):               # joint model
        xs = _read_points(args.data)
        _check_dim(model.x, xs, args.data)
        scores = trainer.anomaly_scores(model, xs)
        calls = trainer.detect(model, xs)
        theta = model.theta
    else:
        raise ValueError("this model kind has no anomaly detector")
    write_csv(args.out, ["score", "call"],
              zip(map(repr, scores.tolist()),
                  map(str, calls.astype(int).tolist())))
    print(f"wrote {xs.shape[0]} detection calls to {args.out} "
          f"(threshold {theta!r}; score above threshold means anomaly)")
    return 0


def _read_column(path, name: str) -> np.ndarray:
    """One column of a predict or detect output file, checked by name."""
    def pick(header):
        if name not in header:
            raise ValueError(f"expected a '{name}' column")
        return [name]
    return read_csv(path, pick)[1][:, 0]


def cmd_evaluate(args) -> int:
    report: dict = {}
    if args.predictions:
        if not args.truth:
            raise ValueError("--predictions requires --truth")
        predicted = _read_column(args.predictions, "label")
        truth = LabeledDataset.from_csv(args.truth)
        report["error"] = misclassification_error(predicted, truth.y)
    if args.model:
        if not args.anomaly_truth:
            raise ValueError("--model requires --anomaly-truth")
        model = load_model(args.model)
        if not hasattr(model, "eta_hat"):
            raise ValueError("anomaly ranking needs the joint model kind")
        flags = LabeledDataset.from_csv(args.anomaly_truth).anomaly
        if flags is None:
            raise ValueError(f"{args.anomaly_truth}: no is_anomaly column")
        curve = precision_recall_curve(np.clip(model.eta_hat, 0.0, 1.0), flags)
        report["auc"] = auc(curve)
        if args.curve_out:
            write_csv(args.curve_out, ["rho", "precision", "recall"],
                      (map(repr, row) for row in curve.tolist()))
            report["curve_csv"] = str(args.curve_out)
    if args.detections:
        if not args.detection_truth:
            raise ValueError("--detections requires --detection-truth")
        calls = _read_column(args.detections, "call") != 0
        flags = LabeledDataset.from_csv(args.detection_truth).anomaly
        if flags is None:
            raise ValueError(f"{args.detection_truth}: no is_anomaly column")
        report["detection_accuracy"] = detection_accuracy(calls, flags)
    if not report:
        raise ValueError("nothing to evaluate; pass --predictions, --model, "
                         "or --detections")
    text = json.dumps(report, indent=1)
    if args.report:
        Path(args.report).write_text(text + "\n")
    print(text)
    return 0


# ------------------------------------------------- gradcheck/oracle-compare

def _require_small(n: int, trials: int) -> None:
    if not 2 <= n <= MAX_EXACT:
        raise ValueError(f"--n must lie in [2, {MAX_EXACT}], got {n}")
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")


def cmd_gradcheck(args) -> int:
    """Analytic dual gradient vs finite differences of the exact dual.

    Error per coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    _require_small(args.n, args.trials)
    worst = 0.0
    for t in range(args.trials):
        inst = random_instance(args.n, args.seed + t)
        analytic = oracle_gradient(inst.state, inst.y, inst.K, inst.d_tilde,
                                   inst.gamma_hat, inst.beta_hat, inst.p0,
                                   inst.hyper)
        *numeric, _flags = finite_diff_dual(inst.state, inst.y, inst.K,
                                            inst.d_tilde, inst.gamma_hat,
                                            inst.beta_hat, inst.p0, inst.hyper)
        for a, f in zip(analytic, numeric):
            rel = np.abs(a - f) / np.maximum(1.0, np.abs(f))
            worst = max(worst, float(rel.max()))
    print(f"max relative gradient error over {args.trials} trial(s): {worst:.3e}")
    if worst > args.tol:
        print(f"FAIL: exceeds tolerance {args.tol:g}")
        return 1
    print(f"OK: within tolerance {args.tol:g}")
    return 0


def cmd_oracle_compare(args) -> int:
    """Sampler expectations vs exact enumeration, in standard-error units."""
    _require_small(args.n, args.trials)
    hyper = HyperParams(gibbs_sweeps=args.sweeps, burn_in=args.burn_in)
    total = within = 0
    trials_ok = 0
    worst = 0.0
    for t in range(args.trials):
        inst = random_instance(args.n, args.seed + t, hyper=hyper)
        oracle = exact_posterior(inst.state, inst.y, inst.K, inst.d_tilde,
                                 inst.gamma_hat, inst.beta_hat, inst.p0,
                                 inst.hyper)
        rng = np.random.default_rng(args.seed + t)
        exps = trainer.gibbs_expectations(inst.state, inst.y, inst.gram,
                                          inst.d_tilde, inst.p0, inst.hyper,
                                          rng)
        devs = []
        for est, se, truth in (
            (exps.e_eta_y_f, exps.se_eta_y_f, oracle.e_eta_y_f),
            (exps.e_sum_eta_d, exps.se_sum_eta_d, oracle.e_sum_eta_d),
            (exps.e_sum_eta, exps.se_sum_eta, oracle.e_sum_eta),
        ):
            diff = np.abs(np.asarray(est) - np.asarray(truth))
            devs.extend(np.where(diff == 0, 0.0,
                                 diff / np.maximum(se, 1e-12)))
        devs = np.array(devs)
        total += devs.size
        within += int(np.sum(devs <= 3.0))
        trials_ok += int(np.all(devs <= 3.0))
        worst = max(worst, float(devs.max()))
    frac = within / total
    print(f"expectations within 3 SE: {within}/{total} ({100 * frac:.1f}%)")
    print(f"trials with all expectations within 3 SE: {trials_ok}/{args.trials}")
    print(f"max standardized deviation: {worst:.3f}")
    if frac < 0.95:
        print("FAIL: fewer than 95% of expectations within 3 SE")
        return 1
    print("OK")
    return 0


# ------------------------------------------------------------------- sweep

SWEEP_TOP_KEYS = {
    "R", "ra", "seeds", "methods", "n_train_per_class", "n_test_per_class",
    "coverage", "detect_ring", "detect_clean", "gem", "out",
    "gemmed", "svm", "two-stage",
}
METHOD_KEYS = {"kernel", "gamma", "jitter", "C", "hyper"}


def _as_list(value, key):
    if not isinstance(value, list) or not value:
        raise ValueError(f"sweep config key '{key}' must be a nonempty list")
    return value


def _method_settings(config: dict, method: str) -> MethodSettings:
    section = config.get(method)
    base = default_settings(method)
    if section is None:
        return base
    json_object(section, f"sweep config section '{method}'", METHOD_KEYS)
    hyper = base.hyper
    if "hyper" in section:
        hyper = HyperParams(**json_object(section["hyper"],
                                          f"sweep config section '{method}.hyper'",
                                          HyperParams.__dataclass_fields__))
    return MethodSettings(
        kernel=section.get("kernel", base.kernel),
        gamma=section.get("gamma", base.gamma),
        jitter=section.get("jitter", base.jitter),
        C=section.get("C", base.C),
        hyper=hyper,
    )


def cmd_sweep(args) -> int:
    path = Path(args.config)
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    json_object(config, "sweep config", SWEEP_TOP_KEYS)
    for key in ("R", "ra", "seeds"):
        if key not in config:
            raise ValueError(f"sweep config is missing required key '{key}'")
    grid_R = [float(v) for v in _as_list(config["R"], "R")]
    grid_ra = [float(v) for v in _as_list(config["ra"], "ra")]
    seeds = [_whole_number(v, "sweep config key 'seeds'")
             for v in _as_list(config["seeds"], "seeds")]
    methods = config.get("methods", list(METHODS))
    methods = [str(m) for m in _as_list(methods, "methods")]
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method '{m}' in sweep config")
    gem_config = GemConfig(**json_object(config.get("gem", {}),
                                         "sweep config section 'gem'",
                                         GEM_FIELDS - {"seed", "target_coverage"}))
    # validate every method section present, not just the selected ones,
    # so a typo in an inactive section cannot hide
    settings = {m: _method_settings(config, m) for m in METHODS}
    coverage = config.get("coverage")
    if coverage is not None:
        coverage = float(coverage)
    n_train, n_test, detect_ring, detect_clean = (
        _whole_number(config.get(key, default), f"sweep config key '{key}'")
        for key, default in (("n_train_per_class", 100), ("n_test_per_class", 2000),
                             ("detect_ring", 200), ("detect_clean", 2000)))
    out = args.out or config.get("out", "sweep.csv")

    rows = []
    for method in methods:
        for R in grid_R:
            for ra in grid_ra:
                for seed in seeds:
                    cell = run_cell(method, R, ra, seed,
                                    n_train_per_class=n_train,
                                    n_test_per_class=n_test,
                                    gem_config=gem_config,
                                    settings=settings[method],
                                    coverage=coverage,
                                    n_detect_ring=detect_ring,
                                    n_detect_clean=detect_clean)
                    rows.append(cell)
                    print(f"{method} R={R:g} ra={ra:g} seed={seed}: "
                          f"error={cell.error:.4f}")
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
    p.add_argument("--n-train", type=int, default=100, help="training rows per class")
    p.add_argument("--n-test", type=int, default=2000, help="test rows per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-train", default="train.csv")
    p.add_argument("--out-test", default="test.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit the joint classifier and screen")
    p.add_argument("--data", required=True, help="training CSV (y,x1..xp[,is_anomaly])")
    p.add_argument("--kernel", choices=["linear", "rbf"], default="rbf")
    p.add_argument("--gamma", default="auto",
                   help="rbf width, a number or 'auto' (median heuristic)")
    p.add_argument("--jitter", type=float, default=1e-8)
    p.add_argument("--k", type=int, default=5, help="k-NN neighbor count")
    p.add_argument("--coverage", type=float, default=0.8,
                   help="target nominal mass per class")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="detection false-alarm level")
    p.add_argument("--c", type=float, default=10.0, help="margin slack rate")
    p.add_argument("--lambda-cap", type=float, default=None)
    p.add_argument("--a-eta", type=float, default=None,
                   help="indicator prior location; prior = sigmoid(a_eta - 1)")
    p.add_argument("--p0", type=float, default=None,
                   help="explicit nominal prior probability")
    p.add_argument("--rates", default="2e-3,2e-2,2e-2",
                   help="ascent rates phi,psi,tau")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--gibbs", default="30,10",
                   help="sampler schedule sweeps,burn_in")
    p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("gradcheck",
                       help="check analytic dual gradients against the exact oracle")
    p.add_argument("--n", type=int, default=6, help=f"instance size (max {MAX_EXACT})")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("oracle-compare",
                       help="check sampler expectations against the exact oracle")
    p.add_argument("--n", type=int, default=6, help=f"instance size (max {MAX_EXACT})")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweeps", type=int, default=200)
    p.add_argument("--burn-in", type=int, default=20)
    p.set_defaults(func=cmd_oracle_compare)

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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GemMedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
