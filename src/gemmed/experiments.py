"""Shared experiment harness: one simulated-data cell per call.

``run_cell`` generates one simulated dataset, fits one method, and
returns its metrics; the command-line sweep and the acceptance checks
both go through it so results agree by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import trainer
from .baselines import train_svm, train_two_stage
from .dataset import check_reals
from .gem import GemConfig
from .kernels import KernelSpec, resolve_kernel
from .metrics import auc, detection_accuracy, misclassification_error, precision_recall_curve
from .model import HyperParams
from .synthdata import RingExperimentConfig, generate, sample_nominal, sample_ring

METHODS = ("gemmed", "svm", "two-stage")

RING_SEED_OFFSET = 104729  # keeps held-out detection draws apart from training draws
CLEAN_SEED_OFFSET = 224737


@dataclass(frozen=True)
class MethodSettings:
    """Per-method knobs for one sweep cell; the defaults are the joint model's.

    The joint model runs with a fixed rbf width and a tight dual cap
    (``HyperParams().lambda_cap`` of 0.4). Both matter for stability on
    the ring benchmark: the indicator posterior couples samples through
    lam_m lam_n y_m y_n K_mn, and once those couplings grow past unit
    size the sampler's class imbalance mode dominates the learned
    boundary. Capping lam at 0.4 keeps the couplings weak, and gamma =
    0.1 keeps the kernel short range so the cross-class terms stay local.
    """

    kernel: str = "rbf"
    gamma: float | str | None = 0.1
    C: float = 1.0
    hyper: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        check_reals(self, C="(0, inf)")
        # build the kernel now so that bad values fail before any cell runs;
        # an 'auto' width is resolved on each cell's data, so check it as 1
        KernelSpec(self.kernel, 1.0 if self.gamma == "auto" else self.gamma)


@dataclass(frozen=True)
class CellResult:
    method: str
    R: float
    r_a: float
    seed: int
    error: float
    auc: float | None
    det_acc: float | None
    tpr: float | None = None
    far: float | None = None


def default_settings(method: str) -> MethodSettings:
    """Defaults per method: joint model on rbf, reference SVMs on linear."""
    if method == "gemmed":
        return MethodSettings()
    return MethodSettings(kernel="linear", gamma=None)


def run_cell(method: str, R: float, r_a: float, seed: int,
             n_train_per_class: int = RingExperimentConfig.n_train_per_class,
             n_test_per_class: int = RingExperimentConfig.n_test_per_class,
             gem_config: GemConfig | None = None,
             settings: MethodSettings | None = None, coverage: float | None = None,
             n_detect_ring: int = 200, n_detect_clean: int = 2000) -> CellResult:
    """Generate the cell's data, fit one method, evaluate it.

    Coverage defaults to 1 - r_a. The error comes from the method's
    predict. Detection metrics come from its detect on held-out ring
    draws plus a fresh clean sample (half per class); a method without
    a detector (plain SVM) draws neither and reports None for them.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    settings = settings or default_settings(method)
    cfg = RingExperimentConfig(R=R, r_a=r_a, n_train_per_class=n_train_per_class,
                               n_test_per_class=n_test_per_class, seed=seed)
    train_set, test_set = generate(cfg)
    if coverage is None:
        coverage = 1.0 - r_a
    gem_config = replace(gem_config or GemConfig(), target_coverage=coverage,
                         seed=seed)
    kernel = resolve_kernel(settings.kernel, settings.gamma, train_set.x)

    if method == "gemmed":
        model = trainer.train(train_set, kernel, gem_config,
                              replace(settings.hyper, seed=seed))
        predict = functools.partial(trainer.predict, model)
        detect = functools.partial(trainer.detect, model)
        # with no training anomalies there is nothing to rank, as for the SVM
        area = (auc(precision_recall_curve(model.eta_hat, train_set.anomaly))
                if train_set.anomaly.any() else None)
    elif method == "svm":
        model = train_svm(train_set, kernel, C=settings.C)
        predict, detect, area = model.predict, None, None
    else:
        model = train_two_stage(train_set, kernel, gem_config, C=settings.C)
        # The survival ranking is binary, so its precision-recall curve
        # collapses to a single recall value and the area under it is not
        # meaningful; the column stays empty for this method.
        predict, detect, area = model.predict, model.detect, None

    error = misclassification_error(predict(test_set.x), test_set.y)
    det = tpr = far = None
    if detect is not None and (n_detect_ring > 0 or n_detect_clean > 0):
        xs, truth = _detection_points(R, seed, n_detect_ring, n_detect_clean)
        det, tpr, far = _detection_summary(detect(xs), truth)
    return CellResult(method, R, r_a, seed, error, area, det, tpr, far)


def _detection_points(R: float, seed: int, n_ring: int, n_clean: int):
    """Held-out ring draws, then clean draws; True marks a ring draw."""
    ring = sample_ring(np.random.default_rng(seed + RING_SEED_OFFSET), n_ring, R)
    clean_rng = np.random.default_rng(seed + CLEAN_SEED_OFFSET)
    clean = np.vstack([sample_nominal(clean_rng, n_clean - n_clean // 2, -1),
                       sample_nominal(clean_rng, n_clean // 2, 1)])
    return np.vstack([ring, clean]), np.arange(n_ring + n_clean) < n_ring


def _detection_summary(calls, truth):
    det = detection_accuracy(calls, truth)
    tpr = float(np.mean(calls[truth])) if truth.any() else None
    far = float(np.mean(calls[~truth])) if not truth.all() else None
    return det, tpr, far

