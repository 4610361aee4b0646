"""Robust kernel classification with joint anomaly screening.

The package trains a Bayesian large-margin classifier that learns,
together with the decision function, a per-sample posterior
probability of being nominal, so corrupted training points lose their
influence instead of bending the boundary. Nonparametric k-NN
statistics feed the screen and calibrate a test-time anomaly detector.
"""

from .baselines import SvmModel, TwoStageModel, train_svm, train_two_stage
from .dataset import CLASSES, LabeledDataset, class_index
from .errors import GemMedError, NumericsError, TrainingFailure
from .gem import GemConfig, GemStats, compute_gem_stats, gem_me_set, \
    knn_distance_sum, loo_threshold
from .kernels import KernelSpec, gram_matrix, kernel_matrix, \
    median_heuristic_gamma, resolve_kernel
from .metrics import auc, detection_accuracy, misclassification_error, \
    precision_recall_curve
from .model import DualProblem, DualState, HyperParams, TrainedModel
from .persist import load_model, save_model
from .synthdata import RingExperimentConfig, generate
from .trainer import anomaly_scores, decision_function, detect, predict, train

__version__ = "0.1.0"

__all__ = [
    "CLASSES", "DualProblem", "DualState", "GemConfig", "GemMedError", "GemStats",
    "HyperParams", "KernelSpec", "LabeledDataset", "NumericsError",
    "RingExperimentConfig", "SvmModel", "TrainedModel",
    "TrainingFailure", "TwoStageModel", "anomaly_scores", "auc",
    "class_index", "compute_gem_stats", "decision_function", "detect",
    "detection_accuracy", "gem_me_set",
    "generate", "gram_matrix", "kernel_matrix", "knn_distance_sum",
    "load_model", "loo_threshold", "median_heuristic_gamma",
    "misclassification_error", "precision_recall_curve",
    "predict", "resolve_kernel", "save_model", "train", "train_svm",
    "train_two_stage", "__version__",
]
