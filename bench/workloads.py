"""The benchmark's workloads: set-up, one round of traffic, and output checks.

Every workload is a closed loop with one client: the next operation is
sent only after the previous one returns. A round is the unit the loop
repeats:

- ring-n200: one seed of the acceptance grid, ``run_cell`` for the joint
  model, the SVM and the two-stage baseline at 100 training rows per class.
- baselines-n1000: one seed, ``run_cell`` for the SVM and the two-stage
  baseline at 500 training rows per class.
- cli-score: one ``gemmed predict`` and one ``gemmed detect`` request,
  in process, on a fixed 2000-row query file against a saved joint model.

Every cell uses the paper's ring geometry, R = 55 and r_a = 0.2.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

R = 55.0
RA = 0.2
WARMUP_INDEX = 999  # cell seed offset of the discarded warm-up round
QUERY_RING = 200
QUERY_CLEAN = 1800
QUERY_STREAM = 7919  # keeps the query draws apart from the training draws


@dataclass
class Op:
    """One operation sent by the client: its kind, wall time and outcome."""

    kind: str
    seconds: float
    ok: bool


@dataclass
class Round:
    index: int
    ops: list[Op] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def tail(values, ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """Highest ladder percentile with at least ten samples beyond it.

    Uses the nearest-rank percentile. Returns (percentile, value), or
    None when there are too few samples for even the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in ladder:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def _repr(value) -> str:
    return "" if value is None else repr(float(value))


class CellWorkload:
    """Benchmark cells through ``experiments.run_cell`` over consecutive seeds.

    ``screen`` names the method whose classifier and detector stand for
    the workload's output quality.
    """

    def __init__(self, package, name, n_per_class, methods, screen,
                 trace_rounds, seed):
        self.experiments = package.experiments
        self.name = name
        self.n_per_class = n_per_class
        self.methods = methods
        self.screen = screen
        self.seed = seed
        self.quality_rounds = 6
        self.trace_rounds = trace_rounds

    @property
    def sizes(self) -> dict:
        return {"n_train": 2 * self.n_per_class, "n_test": 4000,
                "n_detect": 2200, "methods": list(self.methods)}

    def cell_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def setup(self, work_dir: Path) -> Round:
        return self.run_round(WARMUP_INDEX)

    def run_round(self, index: int) -> Round:
        rnd = Round(index)
        seed = self.cell_seed(index)
        for method in self.methods:
            start = perf_counter()
            try:
                cell = self.experiments.run_cell(
                    method, R, RA, seed, n_train_per_class=self.n_per_class)
            except Exception:
                traceback.print_exc()
                rnd.ops.append(Op(method, perf_counter() - start, False))
                continue
            rnd.ops.append(Op(method, perf_counter() - start, True))
            rnd.outputs.append(cell)
            rnd.problems.extend(self._check(cell))
        return rnd

    @staticmethod
    def _check(cell) -> list[str]:
        where = f"{cell.method} seed {cell.seed}"
        problems = []
        if not 0.0 <= cell.error <= 1.0:
            problems.append(f"{where}: error {cell.error!r} outside [0, 1]")
        if cell.method != "svm":
            for key in ("det_acc", "tpr", "far"):
                value = getattr(cell, key)
                if value is None or not 0.0 <= value <= 1.0:
                    problems.append(f"{where}: {key} is {value!r}")
        if cell.method == "gemmed" and (cell.auc is None
                                        or not 0.0 <= cell.auc <= 1.0):
            problems.append(f"{where}: auc is {cell.auc!r}")
        return problems

    def result_lines(self, rounds) -> list[str]:
        """One line per cell, floats by repr, for the results digest."""
        return [",".join([c.method, str(c.seed), _repr(c.error), _repr(c.auc),
                          _repr(c.det_acc), _repr(c.tpr), _repr(c.far)])
                for rnd in rounds for c in rnd.outputs]

    def quality(self, rounds) -> dict[str, float]:
        cells = [c for rnd in rounds for c in rnd.outputs
                 if c.method == self.screen]
        return {"error": statistics.fmean(c.error for c in cells),
                "det_acc": statistics.fmean(c.det_acc for c in cells)}

    def breakdown(self, rounds, quality_rounds) -> dict[str, tuple]:
        """Median time, error and detection figures per method."""
        out = {}
        for method in self.methods:
            label = method.replace("-", "_")
            times = [op.seconds for rnd in rounds for op in rnd.ops
                     if op.kind == method and op.ok]
            out[f"{label}.cell_s"] = (statistics.median(times), "s",
                                      {"n": len(times)})
            cells = [c for rnd in quality_rounds for c in rnd.outputs
                     if c.method == method]
            out[f"{label}.error"] = (statistics.fmean(c.error for c in cells),
                                     "fraction", {"n": len(cells)})
            if method == "gemmed":
                out[f"{label}.auc"] = (statistics.fmean(c.auc for c in cells),
                                       "fraction", {"n": len(cells)})
            if method != "svm":
                out[f"{label}.det_acc"] = (
                    statistics.fmean(c.det_acc for c in cells), "fraction",
                    {"n": len(cells)})
        return out


class CliWorkload:
    """In-process ``gemmed predict`` / ``gemmed detect`` on a saved model."""

    kinds = ("predict", "detect")

    def __init__(self, package, name, seed):
        self.package = package
        self.cli = package.cli
        self.name = name
        self.seed = seed
        self.quality_rounds = 1
        self.trace_rounds = 100

    @property
    def sizes(self) -> dict:
        return {"n_train": 200, "n_query": QUERY_RING + QUERY_CLEAN}

    def _call(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def setup(self, work_dir: Path) -> Round:
        pkg = self.package
        work_dir.mkdir(parents=True, exist_ok=True)
        train = work_dir / "train.csv"
        self.model_path = work_dir / "model.json"
        self.query_path = work_dir / "query.csv"
        self.out_path = {kind: work_dir / f"{kind}.csv" for kind in self.kinds}
        for argv in (
            ["simulate", "--R", repr(R), "--ra", repr(RA), "--n-train", "100",
             "--n-test", "1", "--seed", str(self.seed), "--out-train",
             str(train), "--out-test", str(work_dir / "unused-test.csv")],
            ["train", "--data", str(train), "--gamma", "0.1",
             "--lambda-cap", "0.4", "--seed", str(self.seed),
             "--model-out", str(self.model_path)],
        ):
            code = self._call(argv)
            if code != 0:
                raise RuntimeError(f"gemmed {argv[0]} exited with code {code}")

        rng = np.random.default_rng([self.seed, QUERY_STREAM])
        sd = pkg.synthdata
        xs = np.vstack([sd.sample_ring(rng, QUERY_RING, R),
                        sd.sample_nominal(rng, QUERY_CLEAN // 2, -1),
                        sd.sample_nominal(rng, QUERY_CLEAN // 2, 1)])
        self.is_ring = np.arange(len(xs)) < QUERY_RING
        self.truth_y = np.concatenate([np.zeros(QUERY_RING, dtype=int),
                                       np.full(QUERY_CLEAN // 2, -1),
                                       np.full(QUERY_CLEAN // 2, 1)])
        with self.query_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2"])
            writer.writerows([repr(float(a)), repr(float(b))] for a, b in xs)

        model = pkg.persist.load_model(self.model_path)
        self.ref_labels = pkg.trainer.predict(model, xs)
        self.ref_scores = pkg.trainer.anomaly_scores(model, xs)
        self.ref_calls = pkg.trainer.detect(model, xs)
        return self.run_round(-1)

    def run_round(self, index: int) -> Round:
        rnd = Round(index)
        for kind in self.kinds:
            out = self.out_path[kind]
            argv = [kind, "--model", str(self.model_path),
                    "--data", str(self.query_path), "--out", str(out)]
            start = perf_counter()
            try:
                code = self._call(argv)
            except Exception:
                traceback.print_exc()
                code = None
            seconds = perf_counter() - start
            rnd.ops.append(Op(kind, seconds, code == 0))
            if code != 0:
                continue
            data = out.read_bytes()
            # a digest, not the bytes: memory must not grow with the rounds
            rnd.outputs.append(hashlib.sha256(data).hexdigest())
            rnd.problems.extend(self._check(kind, data))
        return rnd

    def _check(self, kind: str, data: bytes) -> list[str]:
        """The request's output must equal the library's on the reloaded model."""
        rows = list(csv.reader(io.StringIO(data.decode())))
        body = rows[1:]
        try:
            if kind == "predict":
                same = (rows[0] == ["label"] and [int(r[0]) for r in body]
                        == self.ref_labels.tolist())
            else:
                same = (rows[0] == ["score", "call"]
                        and [float(r[0]) for r in body] == self.ref_scores.tolist()
                        and [r[1] == "1" for r in body] == self.ref_calls.tolist())
        except (IndexError, ValueError):
            same = False
        return [] if same else [f"{kind} output differs from the library's"]

    def result_lines(self, rounds) -> list[str]:
        """SHA-256 of the predict and detect output files."""
        first = next(rnd for rnd in rounds if len(rnd.outputs) == 2)
        return list(first.outputs)

    def quality(self, rounds) -> dict[str, float]:
        clean = ~self.is_ring
        return {
            "error": float(np.mean(self.ref_labels[clean] != self.truth_y[clean])),
            "det_acc": float(np.mean(self.ref_calls == self.is_ring)),
        }

    def breakdown(self, rounds, quality_rounds) -> dict[str, tuple]:
        """Median and tail latency per request kind, in milliseconds."""
        out = {}
        for kind in self.kinds:
            ms = [1000.0 * op.seconds for rnd in rounds for op in rnd.ops
                  if op.kind == kind and op.ok]
            out[f"cli.{kind}_ms_p50"] = (statistics.median(ms), "ms",
                                         {"n": len(ms)})
            found = tail(ms)
            if found is not None:
                pct, value = found
                out[f"cli.{kind}_ms_tail"] = (value, "ms",
                                              {"percentile": pct, "n": len(ms)})
        return out


def make_workload(package, name: str, seed: int):
    if name == "ring-n200":
        return CellWorkload(package, name, 100, ("gemmed", "svm", "two-stage"),
                            "gemmed", 6, seed)
    if name == "baselines-n1000":
        return CellWorkload(package, name, 500, ("svm", "two-stage"),
                            "two-stage", 8, seed)
    if name == "cli-score":
        return CliWorkload(package, name, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ring-n200", "baselines-n1000", "cli-score")
