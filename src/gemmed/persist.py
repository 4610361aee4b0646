"""JSON persistence for trained models.

All model kinds share an envelope with ``format_version`` and
``model_kind``; floats go through Python's repr-based JSON encoding,
which round-trips float64 exactly, so reloaded models reproduce
predictions bit for bit. The two-stage model stores its SVM's fields
first, under the same keys as an SVM file.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .baselines import SvmModel, TwoStageModel
from .kernels import KernelSpec
from .model import HyperParams, TrainedModel

FORMAT_VERSION = 1

# HyperParams fields that older files may carry; loading drops them.
RETIRED_HYPER_KEYS = frozenset({"early_stop", "stop_tol", "stop_patience",
                                "inner_draws", "a_eta"})


def json_object(value, name: str, allowed) -> dict:
    """value itself if it is a dict with no key outside allowed."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ValueError(f"unknown key '{sorted(unknown)[0]}' in {name}")
    return value


def _finite(key: str, value):
    """value itself; JSON's NaN and Infinity are refused."""
    if not np.isfinite(value).all():
        raise ValueError(f"field '{key}' must be finite")
    return value


def _floats(payload: dict, key: str) -> np.ndarray:
    return _finite(key, np.array(payload[key], dtype=float))


def _count(payload: dict, key: str) -> int:
    """A whole number of at least 1; booleans and fractions are refused."""
    value = payload[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"field '{key}' must be a whole number of at least 1, "
                         f"got {value!r}")
    return value


def _by_class(payload: dict, key: str) -> np.ndarray:
    slots = json_object(payload[key], f"field '{key}'", ("-1", "1"))
    return _finite(key, np.array([slots[slot] for slot in ("-1", "1")], dtype=float))


def _hyper(payload: dict) -> HyperParams | None:
    if not payload.get("hyper"):
        return None
    hyper = json_object(payload["hyper"], "field 'hyper'",
                        RETIRED_HYPER_KEYS.union(HyperParams.__dataclass_fields__))
    return HyperParams(**{k: v for k, v in hyper.items()
                          if k not in RETIRED_HYPER_KEYS})


def _base_fields(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> dict:
    """The kernel, x and y fields every model kind writes first."""
    return {"kernel": {"kind": spec.kind, "gamma": spec.gamma,
                       "jitter": spec.jitter},
            "x": x.tolist(), "y": y.tolist()}


def _base(payload: dict) -> dict:
    d = json_object(payload["kernel"], "field 'kernel'", ("kind", "gamma", "jitter"))
    return {"kernel": KernelSpec(kind=d["kind"], gamma=d["gamma"],
                                 jitter=d["jitter"]),
            "x": _floats(payload, "x"),
            "y": np.array(payload["y"], dtype=int)}


def _joint_fields(m: TrainedModel) -> dict:
    return {**_base_fields(m.kernel, m.x, m.y), "lambda": m.lam.tolist(),
            "eta_hat": m.eta_hat.tolist(),
            "gamma_hat": {"-1": m.gamma_hat[0], "1": m.gamma_hat[1]},
            "beta_hat": {"-1": m.beta_hat[0], "1": m.beta_hat[1]},
            "theta": m.theta, "k": m.k, "alpha": m.alpha,
            "target_coverage": m.target_coverage,
            "dual_estimate": m.dual_estimate,
            "hyper": asdict(m.hyper) if m.hyper is not None else None}


def _joint_model(p: dict) -> TrainedModel:
    # files before dual_estimate load with None; their "trace" is ignored
    estimate = p.get("dual_estimate")
    return TrainedModel(
        **_base(p), lam=_floats(p, "lambda"), eta_hat=_floats(p, "eta_hat"),
        gamma_hat=_by_class(p, "gamma_hat"), beta_hat=_by_class(p, "beta_hat"),
        theta=_finite("theta", float(p["theta"])), k=_count(p, "k"),
        alpha=_finite("alpha", float(p["alpha"])),
        target_coverage=float(p["target_coverage"]),
        dual_estimate=None if estimate is None else float(estimate),
        hyper=_hyper(p))


def _svm_fields(m: SvmModel) -> dict:
    return {**_base_fields(m.kernel, m.x, m.y), "alpha": m.alpha.tolist(),
            "C": m.C, "converged": m.converged,
            "kkt_violation": m.kkt_violation}


def _svm_model(p: dict) -> SvmModel:
    # files without kkt_violation load with None, meaning not recorded
    violation = p.get("kkt_violation")
    return SvmModel(**_base(p), alpha=_floats(p, "alpha"),
                    C=_finite("C", float(p["C"])), converged=bool(p["converged"]),
                    kkt_violation=None if violation is None else float(violation))


def _two_stage_fields(m: TwoStageModel) -> dict:
    return {**_svm_fields(m.svm), "kept_idx": m.kept_idx.tolist(),
            "removed_idx": m.removed_idx.tolist(), "theta": m.theta,
            "k": m.k, "alpha_level": m.alpha_level}


def _two_stage_model(p: dict) -> TwoStageModel:
    return TwoStageModel(
        svm=_svm_model(p), kept_idx=np.array(p["kept_idx"], dtype=int),
        removed_idx=np.array(p["removed_idx"], dtype=int),
        theta=_finite("theta", float(p["theta"])), k=_count(p, "k"),
        alpha_level=float(p["alpha_level"]))


# (class, model_kind tag, field writer, reader) per model kind
_KINDS = (
    (TrainedModel, "gemmed", _joint_fields, _joint_model),
    (SvmModel, "svm", _svm_fields, _svm_model),
    (TwoStageModel, "two_stage", _two_stage_fields, _two_stage_model),
)


def save_model(model, path) -> None:
    """Serialize a trained model (joint, svm, or two_stage) to JSON."""
    for cls, kind, fields, _ in _KINDS:
        if isinstance(model, cls):
            break
    else:
        raise ValueError(f"cannot serialize {type(model).__name__}")
    payload = {"format_version": FORMAT_VERSION, "model_kind": kind,
               **fields(model)}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_model(path):
    """Load any serialized model; the kind tag picks the class."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or "model_kind" not in payload:
        raise ValueError(f"{path}: missing model_kind")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version!r}")
    kind = payload["model_kind"]
    for _, tag, _, reader in _KINDS:
        if tag == kind:
            break
    else:
        raise ValueError(f"{path}: unknown model_kind {kind!r}")
    try:
        return reader(payload)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
