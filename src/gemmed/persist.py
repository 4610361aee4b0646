"""JSON persistence for trained models, and the JSON readers of every input.

All model kinds share an envelope with ``format_version`` and
``model_kind``; floats go through Python's repr-based JSON encoding,
which round-trips float64 exactly, so reloaded models reproduce
predictions bit for bit. Each kind's file is one table of (JSON key,
model field, rule) rows, which ``save_model`` and ``load_model`` walk.
A rule checks only the JSON form of its value; the model class checks
ranges and row counts when ``load_model`` builds it.
The ``json_*`` readers serve sweep configs too: ``json_fields`` builds a
settings object, nested ones included, and a refusal names it or its key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .baselines import SvmModel, TwoStageModel
from .dataset import CLASSES
from .kernels import KernelSpec
from .model import HyperParams, TrainedModel

FORMAT_VERSION = 1


def json_object(value, name: str, allowed) -> dict:
    """value itself if it is a dict with no key outside allowed."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ValueError(f"unknown key '{sorted(unknown)[0]}' in {name}")
    return value


def json_list(value, what: str, read=None) -> list:
    """value if it is a nonempty list, each element read by read(it, what)."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"{what} must be a nonempty list")
    return [read(v, what) for v in value] if read else value


def json_number(value, what: str) -> float:
    """value as a float if it is a JSON int or float (not a bool) a float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} expects a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond about 1.8e308
        raise ValueError(f"{what} expects a number, got an integer too large "
                         "for a float") from None


def json_whole(value, what: str, minimum: int | None = None) -> int:
    """value as an int >= minimum if whole: 3 or 3.0, not 3.5, true, "3" or inf."""
    if isinstance(value, float) and value.is_integer():  # false for inf, nan
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")
    return value


def json_fields(value, name: str, base, refused=(), nouns=("field", "field")):
    """The object value read onto base, a dataclass instance whose other fields it
    keeps or a dataclass whose every field it sets (KeyError 'name.field' names
    one it lacks); keys in refused are unknown. An int field holds a whole number;
    a float field a number, null if its type admits None, or 'auto' if it admits
    str; a dataclass field an object read alike. Errors name the object as
    nouns[0] 'name', also before the dataclass's own, and a key as nouns[1]
    'name.key'."""
    cls = base if isinstance(base, type) else type(base)
    section = dict(json_object(value, f"{nouns[0]} '{name}'",
                               [f.name for f in fields(cls) if f.name not in refused]))
    for f in fields(cls):
        if f.name not in section:
            if base is cls:
                raise KeyError(f"{name}.{f.name}")
            continue
        v, key = section[f.name], f"{name}.{f.name}"
        if is_dataclass(inner := getattr(base, f.name, None)):
            section[f.name] = json_fields(v, key, inner, refused, nouns)
        elif f.type == "int":
            section[f.name] = json_whole(v, f"{nouns[1]} '{key}'")
        elif f.type.startswith("float") and not (
                v is None and "None" in f.type or v == "auto" and "str" in f.type):
            section[f.name] = json_number(v, f"{nouns[1]} '{key}'")
    try:
        return cls(**section) if base is cls else replace(base, **section)
    except ValueError as exc:
        raise ValueError(f"{nouns[0]} '{name}': {exc}") from None


def _floats(key: str, value) -> np.ndarray:
    """value as a float array of JSON numbers, all finite: the rules' base.

    np.array would read true as 1 and "0.1" as 0.1, so once the nesting
    is known to be regular every element must be an int or a float.
    """
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # text, ragged rows, huge ints
        raise ValueError(f"field '{key}' must hold only numbers") from None
    elements = [value] if array.ndim == 0 else value
    for _ in range(array.ndim - 1):
        elements = chain.from_iterable(elements)
    if not set(map(type, elements)) <= {int, float}:
        raise ValueError(f"field '{key}' must hold only numbers")
    if not np.isfinite(array).all():
        raise ValueError(f"field '{key}' must be finite")
    return array


# Rules: (key, JSON value) -> the value in its field's form; an error names the
# key. Each model checks its own ranges and row counts.

def _kernel(key: str, value) -> KernelSpec:
    return json_fields(value, key, KernelSpec)


def _matrix(key: str, value) -> np.ndarray:
    x = _floats(key, value)
    if x.ndim != 2 or not x.size:
        raise ValueError(f"field '{key}' must be a matrix with at least one "
                         "row and one column")
    return x


def _indices(key: str, value) -> np.ndarray:
    if _floats(key, value).ndim == 1:
        try:
            return np.array([json_whole(v, key) for v in value], dtype=int)
        except (ValueError, OverflowError):  # a fraction, or beyond an int64
            pass
    raise ValueError(f"field '{key}' must list whole numbers that fit a 64-bit integer")


def _by_class(key: str, value) -> np.ndarray:
    slots = json_object(value, f"field '{key}'", map(str, CLASSES))
    for c in map(str, CLASSES):
        if c not in slots:
            raise KeyError(f"{key}.{c}")
    return _floats(key, [slots[str(c)] for c in CLASSES])


def _number(key: str, value) -> float:
    return float(_floats(key, json_number(value, f"field '{key}'")))


def _optional_number(key: str, value) -> float | None:
    return None if value is None else _number(key, value)


def _whole(key: str, value) -> int:
    return json_whole(value, f"field '{key}'")


def _flag(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"field '{key}' must be true or false, got {value!r}")
    return value


def _hyper(key: str, value) -> HyperParams | None:
    return None if value is None else json_fields(value, key, HyperParams)


# Each kind's file after format_version and model_kind: (JSON key, model
# field, rule) rows in file order.
_HEAD = (("kernel", "kernel", _kernel), ("x", "x", _matrix), ("y", "y", _floats))
_JOINT = _HEAD + (
    ("lambda", "lam", _floats), ("eta_hat", "eta_hat", _floats),
    ("gamma_hat", "gamma_hat", _by_class), ("beta_hat", "beta_hat", _by_class),
    ("theta", "theta", _number), ("k", "k", _whole), ("alpha", "alpha", _number),
    ("target_coverage", "target_coverage", _number),
    ("dual_estimate", "dual_estimate", _optional_number), ("hyper", "hyper", _hyper))
_SVM = _HEAD + (
    ("alpha", "alpha", _floats), ("C", "C", _number), ("converged", "converged", _flag),
    ("kkt_violation", "kkt_violation", _optional_number))
_TWO_STAGE = _SVM + (
    ("kept_idx", "kept_idx", _indices), ("removed_idx", "removed_idx", _indices),
    ("theta", "theta", _number), ("k", "k", _whole),
    ("alpha_level", "alpha_level", _number))

_FILES = {"gemmed": (TrainedModel, _JOINT), "svm": (SvmModel, _SVM),
          "two_stage": (TwoStageModel, _TWO_STAGE)}
# saving looks up the exact class: a TwoStageModel is also an SvmModel
_TAGS = {cls: kind for kind, (cls, _) in _FILES.items()}


def save_model(model, path) -> None:
    """Serialize a trained model (joint, svm, or two_stage) to JSON."""
    kind = _TAGS.get(type(model))
    if kind is None:
        raise ValueError(f"cannot serialize {type(model).__name__}")
    payload = {"format_version": FORMAT_VERSION, "model_kind": kind}
    for key, field, rule in _FILES[kind][1]:
        value = getattr(model, field)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if rule is _by_class:
            value = dict(zip(map(str, CLASSES), value))
        payload[key] = asdict(value) if is_dataclass(value) else value
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_model(path):
    """Load a model file: the kind tag picks the class and the keys."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or "model_kind" not in payload:
        raise ValueError(f"{path}: missing model_kind")
    kind = payload["model_kind"]
    try:
        version = json_whole(payload["format_version"], "format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}")
        if not isinstance(kind, str) or kind not in _FILES:
            raise ValueError(f"unknown model_kind {kind!r}")
        cls, table = _FILES[kind]
        json_object(payload, f"a {kind} model file",
                    ("format_version", "model_kind", *(row[0] for row in table)))
        return cls(**{field: rule(key, payload[key]) for key, field, rule in table})
    except KeyError as exc:  # a key of the file, or 'key.field' of an object in it
        raise ValueError(f"{path}: missing field '{exc.args[0]}'") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
