"""Benchmark for gemmed: time to a trained model, time to score a batch.

Run from the root of a source checkout:

    python3 bench/run.py --workload ring-n200 --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): ring-n200, baselines-n1000, cli-score. The
package is imported from ``src/`` of the checkout and from nowhere else;
without it the command fails with exit code 2 and prints no result.

One run sets up (imports, a discarded warm-up round, and for cli-score
the model training and the query file), then repeats rounds in a closed
loop for ``--seconds`` and for at least the workload's quality rounds.
Inputs derive from ``--seed`` alone. Every output is checked, and every
raised exception or nonzero CLI exit code counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones:

- ``setup_s``: median set-up time of this process and of four fresh
  processes that only set up, each timed from before NumPy is imported.
- ``peak_rss_mb``: peak resident memory of this process.
- ``round_rel``: median wall time of a round in units of a fixed
  reference computation timed around each block of rounds (see
  reference.py), which cancels most of the drift in a shared host's
  speed. Raw medians, minimums and per-operation tails are in the run's
  record.
- ``det_acc``: detection accuracy of the workload's screening model (the
  joint model on ring-n200, the two-stage baseline on baselines-n1000,
  the served joint model on cli-score), as a mean over the first rounds;
  it depends only on the seed. Test errors are in the record only: with
  the SVM solver stopping at its pass cap, the baselines' error swings
  between 0.24 and 0.76 from seed to seed.

With ``--trace 1`` the run measures untraced rounds for half of
``--seconds``, repeats a fixed number of them with every traced name
wrapped (tracing.py), and reports the per-layer metrics instead, plus
the tracing overhead. Per-method and per-request figures, the
environment and a SHA-256 digest of the per-seed results are printed
above the last line and written, with the spans, to ``bench/out/``.

BLAS runs on one thread in this process and in its children.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # must precede the first NumPy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXTRA_SETUPS = 4
BLOCK_S = 1.0  # rounds per reference measurement: about this many seconds
RUN_LIMIT_S = 150.0  # no new round after this, so the run ends within 180 s


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_package():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import gemmed
        import gemmed.cli  # noqa: F401
        import gemmed.experiments  # noqa: F401
    except ImportError as exc:
        raise BenchError(f"cannot import gemmed from {src}: {exc}") from None
    origin = Path(gemmed.__file__).resolve()
    if src not in origin.parents:
        raise BenchError(f"gemmed was imported from {origin}, not from {src}")
    return gemmed


def blas_threads() -> dict[str, int]:
    """Thread count reported by each loaded OpenBLAS, by library file name."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}

    threads = blas_threads()
    if any(n != 1 for n in threads.values()):
        raise BenchError(f"BLAS is not single-threaded: {threads}")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def child_setups(args) -> list[float]:
    """Set-up times of fresh processes that set up and exit."""
    samples = []
    for _ in range(EXTRA_SETUPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up process exited with code "
                             f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_blocks(workload, indices, keep_going):
    """Closed loop over rounds, in blocks bracketed by the reference.

    A block is the rounds run in about BLOCK_S seconds. Its ratio is the
    median wall time of its rounds without a failed operation, divided by
    the mean of the reference times just before and after it. Returns the
    rounds and the block ratios.
    """
    rounds, ratios, block = [], [], []
    before = reference.seconds()
    block_start = time.perf_counter()
    for index in indices:
        if not keep_going(len(rounds) + len(block)):
            break
        block.append(workload.run_round(index))
        if time.perf_counter() - block_start >= BLOCK_S:
            before = close_block(block, before, ratios)
            rounds += block
            block = []
            block_start = time.perf_counter()
    if block:
        close_block(block, before, ratios)
        rounds += block
    return rounds, ratios


def close_block(block, before: float, ratios: list) -> float:
    after = reference.seconds()
    times = [r.seconds for r in block if all(op.ok for op in r.ops)]
    if times:
        ratios.append(statistics.median(times) / ((before + after) / 2.0))
    return after


def measure(workload, seconds: float, min_rounds: int):
    """Rounds back to back for `seconds` and at least `min_rounds`."""
    deadline = time.perf_counter() + seconds

    def keep_going(done: int) -> bool:
        if time.perf_counter() - T0 > RUN_LIMIT_S:
            return False
        return done < min_rounds or time.perf_counter() < deadline

    return run_blocks(workload, itertools.count(), keep_going)


def digest(workload, rounds) -> str:
    text = "\n".join(workload.result_lines(rounds)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def clean_times(rounds) -> list[float]:
    """Wall times of the rounds in which no operation failed."""
    times = [r.seconds for r in rounds if all(op.ok for op in r.ops)]
    if not times:
        raise BenchError("every round had a failed operation")
    return times


def relative(ratios) -> float:
    if not ratios:
        raise BenchError("no block finished without a failed operation")
    return statistics.median(ratios)


def run_untraced(args, workload, setup_s):
    setups = [setup_s] + child_setups(args)
    rounds, ratios = measure(workload, args.seconds, workload.quality_rounds)
    first = rounds[:workload.quality_rounds]
    quality = workload.quality(first)
    times = clean_times(rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "round_rel": (relative(ratios), "x"),
        "det_acc": (quality["det_acc"], "fraction"),
    }
    details = {
        "setup_samples_s": setups,
        "rounds": len(rounds),
        "quality_rounds": len(first),
        "round_s_median": statistics.median(times),
        "round_s_min": min(times),
        "block_ratios": ratios,
        "quality": quality,
        "breakdown": workload.breakdown(rounds, first),
        "results_sha256": digest(workload, first),
        "results": workload.result_lines(first),
        "op_seconds": [[op.kind, op.seconds] for r in rounds for op in r.ops],
    }
    return rounds, metrics, details, []


def run_traced(args, workload, package):
    from tracing import REQUIRED_SPANS, Tracer, layer_metrics

    # The traced rounds are a fixed set, so the counts repeat for a seed.
    plain, plain_ratios = measure(workload, args.seconds / 2.0,
                                  workload.trace_rounds)
    same = plain[:workload.trace_rounds]
    try:
        with Tracer(package) as tracer:
            traced, traced_ratios = run_blocks(
                workload, [r.index for r in same], lambda done: True)
    except AttributeError as exc:  # a traced name was renamed or removed
        raise BenchError(str(exc)) from None
    problems = [f"round {p.index}: traced outputs differ from untraced ones"
                for p, t in zip(same, traced) if p.outputs != t.outputs]
    counts = tracer.counts()
    silent = [k for k in REQUIRED_SPANS[workload.name] if counts[k] == 0]
    if silent:
        raise BenchError(f"traced names never called: {', '.join(silent)}")
    metrics = layer_metrics(tracer, len(traced))
    overhead = relative(traced_ratios) / relative(plain_ratios) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json.gz"
    tracer.write(spans_path)
    details = {
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "span_counts": counts,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "results_sha256": digest(workload, plain),
    }
    return plain + traced, metrics, details, problems


def check_declared(metrics, trace: int) -> None:
    """The metrics must be exactly those BENCHMARK.json declares, in its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {name: unit for name, (_value, unit) in metrics.items()}
    if produced != declared:
        raise BenchError(f"metrics {sorted(produced.items())} differ from "
                         f"BENCHMARK.json's {sorted(declared.items())}")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        package = import_package()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import make_workload

    workload = make_workload(package, args.workload, args.seed)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        warmup = workload.setup(work_dir)
        setup_s = time.perf_counter() - T0
        if not all(op.ok for op in warmup.ops) or warmup.problems:
            raise BenchError(f"warm-up round failed: {warmup.problems}")
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment()
        reference.seconds()  # its first pass is not a measurement
        if args.trace:
            rounds, metrics, details, problems = run_traced(args, workload,
                                                            package)
        else:
            rounds, metrics, details, problems = run_untraced(args, workload,
                                                              setup_s)
        check_declared(metrics, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = [op for r in rounds for op in r.ops]
    failed = sum(not op.ok for op in ops)
    problems += [p for r in rounds for p in r.problems]
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "sizes": workload.sizes, "environment": env,
              "problems": problems, **details, **result}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {details['rounds']} rounds, "
          f"{len(ops)} operations, {failed} failed")
    for name, (value, unit, *extra) in details.get("breakdown", {}).items():
        print(f"  {name:<24} {value:.6g} {unit} {extra[0] if extra else ''}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    for problem in problems:
        print(f"  check failed: {problem}")
    print(f"  results sha256 {details['results_sha256']}")
    print(f"  environment {json.dumps(env)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
