"""Span tracing from outside the package, for the traced benchmark run.

Each traced name is wrapped in the namespace where callers look it up
(``from .gem import knn_distance_sum`` binds a second name in
``gemmed.trainer``, so both bindings are wrapped). A wrapper records one
span per call: the wrap point, start, end and the index of the enclosing
span. Spans stay in memory until the run writes them out.

Self time of a span is its duration minus the durations of its direct
child spans; the package is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
from time import perf_counter

import numpy as np

# (module of gemmed, attribute path in it). A wrap point's key is
# "<module>:<attribute path>", so it names the namespace of the lookup.
WRAP_POINTS = (
    ("experiments", "run_cell"),
    ("experiments", "generate"),
    ("experiments", "precision_recall_curve"),
    ("experiments", "train_svm"),
    ("experiments", "train_two_stage"),
    ("trainer", "train"),
    ("trainer", "predict"),
    ("trainer", "detect"),
    ("trainer", "anomaly_scores"),
    ("trainer", "init_duals"),
    ("trainer", "gibbs_expectations"),
    ("trainer", "sample_f_given_eta"),
    ("trainer", "eta_logits"),
    ("trainer", "dual_gradient"),
    ("trainer", "mean_field_dual_estimate"),
    ("trainer", "gram_matrix"),
    ("trainer", "compute_gem_stats"),
    ("trainer", "solve_svm_dual"),
    ("trainer", "loo_threshold"),
    ("trainer", "knn_distance_sum"),
    ("trainer", "kernel_cross"),
    ("model", "per_sample_class_values"),
    ("kernels", "kernel_matrix"),
    ("baselines", "train_svm"),
    ("baselines", "solve_svm_dual"),
    ("baselines", "kernel_matrix"),
    ("baselines", "kernel_cross"),
    ("baselines", "compute_gem_stats"),
    ("baselines", "loo_threshold"),
    ("baselines", "knn_distance_sum"),
    ("baselines", "TwoStageModel.detect"),
    ("cli", "main"),
    ("cli", "load_model"),
)


# Wrap points each workload must call; one that stays silent fails the run,
# so a refactor cannot quietly zero a layer.
REQUIRED_SPANS = {
    "ring-n200": tuple(f"{mod}:{path}" for mod, path in WRAP_POINTS
                       if mod != "cli"),
    "baselines-n1000": (
        "experiments:run_cell", "experiments:generate",
        "experiments:train_svm", "experiments:train_two_stage",
        "baselines:train_svm", "baselines:solve_svm_dual",
        "baselines:kernel_matrix", "baselines:kernel_cross",
        "baselines:compute_gem_stats", "baselines:loo_threshold",
        "baselines:knn_distance_sum", "baselines:TwoStageModel.detect",
    ),
    "cli-score": (
        "cli:main", "cli:load_model", "trainer:predict", "trainer:detect",
        "trainer:anomaly_scores", "trainer:kernel_cross",
        "trainer:knn_distance_sum",
    ),
}


def _observe_tag(args, kwargs, result):
    """First argument: the method of a cell, the subcommand of a CLI call."""
    first = args[0]
    return first[0] if isinstance(first, (list, tuple)) else first


def _observe_rows(args, kwargs, result):
    """Number of query rows handed to a detector."""
    return int(np.atleast_2d(np.asarray(args[1])).shape[0])


def _observe_solve(args, kwargs, result):
    """(passes made, converged) of one SVM dual solve."""
    _alpha, converged, trace = result
    return len(trace), bool(converged)


OBSERVERS = {
    "experiments:run_cell": _observe_tag,
    "cli:main": _observe_tag,
    "trainer:detect": _observe_rows,
    "baselines:TwoStageModel.detect": _observe_rows,
    "trainer:solve_svm_dual": _observe_solve,
    "baselines:solve_svm_dual": _observe_solve,
}


class Tracer:
    """Wraps the traced names, records spans, restores the names on exit."""

    def __init__(self, package):
        self.package = package
        self.keys = [f"{mod}:{path}" for mod, path in WRAP_POINTS]
        self.key_id = {k: i for i, k in enumerate(self.keys)}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.observed: dict[int, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _resolve(self, mod: str, path: str):
        module = getattr(self.package, mod)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        if not hasattr(owner, attr):
            raise AttributeError(
                f"traced name gemmed.{mod}.{path} no longer exists; update "
                "the benchmark's wrap points")
        return owner, attr

    def __enter__(self):
        try:
            for key, (mod, path) in zip(self.keys, WRAP_POINTS):
                owner, attr = self._resolve(mod, path)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, self.key_id[key],
                                                OBSERVERS.get(key)))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name_id, observe):
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, observed = self._stack, self.observed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observed[idx] = observe(args, kwargs, result)
            return result

        return wrapper

    # ---------------------------------------------------------- analysis

    def arrays(self):
        name = np.asarray(self.name, dtype=int)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=int)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=name.size)
        root = np.arange(name.size)
        for i in np.flatnonzero(has_parent):  # parents precede children
            root[i] = root[parent[i]]
        return name, dur, dur - child_sum, root

    def counts(self) -> dict[str, int]:
        per_id = np.bincount(np.asarray(self.name, dtype=int),
                             minlength=len(self.keys))
        return {k: int(per_id[i]) for i, k in enumerate(self.keys)}

    def write(self, path) -> None:
        """Write every span as [wrap point, start, end, parent index]."""
        payload = {
            "wrap_points": self.keys,
            "spans": [[n, s, e, p] for n, s, e, p in
                      zip(self.name, self.start, self.end, self.parent)],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def layer_metrics(tracer: Tracer, n_rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    Times are seconds per round; call counts are per joint-model cell,
    per solve, per round or per detected query row, as the unit says.
    """
    name, dur, self_time, root = tracer.arrays()
    kid = tracer.key_id

    def sel(*keys):
        return np.isin(name, [kid[k] for k in keys])

    def total(*keys):
        return float(dur[sel(*keys)].sum())

    def own(*keys):
        return float(self_time[sel(*keys)].sum())

    def count(*keys):
        return int(sel(*keys).sum())

    def ratio(a, b):
        return float(a) / b if b else 0.0

    def rooted(kind_key, tag):
        """Mask of spans whose outermost span is a kind_key span tagged tag."""
        roots = [i for i in np.flatnonzero(name == kid[kind_key])
                 if tracer.observed.get(int(i)) == tag]
        return np.isin(root, roots), float(dur[roots].sum()) if roots else 0.0

    per_round = float(max(n_rounds, 1))
    joint_cells = count("trainer:train")
    solves = {caller: [tracer.observed[int(i)]
                       for i in np.flatnonzero(name == kid[f"{ns}:solve_svm_dual"])
                       if int(i) in tracer.observed]
              for caller, ns in (("train_svm", "baselines"),
                                 ("init_duals", "trainer"))}
    all_solves = solves["train_svm"] + solves["init_duals"]
    queries = sum(tracer.observed.get(int(i), 0) for i in np.flatnonzero(
        sel("trainer:detect", "baselines:TwoStageModel.detect")))
    knn = ("trainer:knn_distance_sum", "baselines:knn_distance_sum")

    in_gemmed, gemmed_cell = rooted("experiments:run_cell", "gemmed")
    in_svm, svm_cell = rooted("experiments:run_cell", "svm")
    in_detect, detect_req = rooted("cli:main", "detect")
    solve_mask = sel("trainer:solve_svm_dual", "baselines:solve_svm_dual")

    seconds = {
        "model.class_values_s": total("model:per_sample_class_values"),
        "model.eta_logits_s": total("trainer:eta_logits"),
        "trainer.gibbs_s": total("trainer:gibbs_expectations"),
        "trainer.f_draw_s": total("trainer:sample_f_given_eta"),
        "trainer.gibbs_self_s": own("trainer:gibbs_expectations"),
        "trainer.train_s": total("trainer:train"),
        "trainer.init_s": total("trainer:init_duals"),
        "trainer.dual_step_s": total("trainer:dual_gradient",
                                     "trainer:mean_field_dual_estimate")
                               + own("trainer:train"),
        "baselines.svm_solve_s": float(dur[solve_mask].sum()),
        "kernels.gram_s": total("trainer:gram_matrix"),
        "kernels.kernel_matrix_s": total("kernels:kernel_matrix",
                                         "baselines:kernel_matrix"),
        "kernels.cross_s": total("trainer:kernel_cross", "baselines:kernel_cross"),
        "gem.stats_s": total("trainer:compute_gem_stats",
                             "baselines:compute_gem_stats"),
        "gem.loo_s": total("trainer:loo_threshold", "baselines:loo_threshold"),
        "gem.knn_s": total(*knn),
        "persist.load_s": total("cli:load_model"),
        "cli.self_s": own("cli:main"),
        "synthdata.generate_s": total("experiments:generate"),
        "metrics.pr_curve_s": total("experiments:precision_recall_curve"),
        "experiments.cell_self_s": own("experiments:run_cell"),
    }
    out = {k: (v / per_round, "s/round") for k, v in seconds.items()}
    out.update({
        "model.class_values_calls": (ratio(count("model:per_sample_class_values"),
                                           joint_cells), "calls/cell"),
        "model.eta_logits_calls": (ratio(count("trainer:eta_logits"), joint_cells),
                                   "calls/cell"),
        "trainer.gibbs_calls": (ratio(count("trainer:gibbs_expectations"),
                                      joint_cells), "calls/cell"),
        "trainer.f_draw_calls": (ratio(count("trainer:sample_f_given_eta"),
                                       joint_cells), "calls/cell"),
        "baselines.svm_passes": (ratio(sum(p for p, _ in all_solves),
                                       len(all_solves)), "passes/solve"),
        "baselines.svm_converged_ratio.train_svm": (
            ratio(sum(c for _, c in solves["train_svm"]),
                  len(solves["train_svm"])), "ratio"),
        "baselines.svm_converged_ratio.init_duals": (
            ratio(sum(c for _, c in solves["init_duals"]),
                  len(solves["init_duals"])), "ratio"),
        "gem.knn_calls": (count(*knn) / per_round, "calls/round"),
        "gem.knn_calls_per_query": (ratio(count(*knn), queries), "calls/query"),
        "trainer.gibbs_share_of_gemmed_cell": (
            ratio(dur[in_gemmed & sel("trainer:gibbs_expectations")].sum(),
                  gemmed_cell), "ratio"),
        "baselines.svm_solve_share_of_svm_cell": (
            ratio(dur[in_svm & solve_mask].sum(), svm_cell), "ratio"),
        "gem.knn_share_of_detect": (
            ratio(dur[in_detect & sel(*knn)].sum(), detect_req), "ratio"),
    })
    return out
