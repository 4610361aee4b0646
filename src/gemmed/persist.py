"""JSON persistence for trained models, and the JSON readers of every input.

All model kinds share an envelope with ``format_version`` and
``model_kind``; floats go through Python's repr-based JSON encoding,
which round-trips float64 exactly, so reloaded models reproduce
predictions bit for bit. After the envelope, a file holds its model's
fields in the class's order, lam under the key ``lambda``: what scoring
reads, and no training setting. ``load_model`` maps JSON structure only:
the kernel object to its KernelSpec, a whole-number k to an int. The
model class then checks every value as it checks one built in code, and
a refusal gives the same message after the file's path: ``model.json:
lam must be finite``. A version-1 or -2 file loads without the keys it
held that no scorer reads (``_RETIRED``, and a version-1 kernel's
``jitter``), whatever their values.
The ``json_*`` readers serve sweep configs too: ``json_fields`` builds a
settings object, nested ones included, and a refusal names it or its key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import SvmModel, TwoStageModel
from .kernels import KernelSpec
from .model import TrainedModel

FORMAT_VERSION = 3


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
    one it lacks); keys in refused are unknown. An int field holds a whole number
    and a dataclass field an object read alike; the dataclass checks every other
    value itself. Errors name the object as nouns[0] 'name', also before the
    dataclass's own, and a key as nouns[1] 'name.key'."""
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
    try:
        return cls(**section) if base is cls else replace(base, **section)
    except ValueError as exc:
        raise ValueError(f"{nouns[0]} '{name}': {exc}") from None


# Rules mapping a key's JSON structure to its field's form; an error names the
# key. Every other key's value goes to the model as it is, which checks it.
_RULES = {"kernel": lambda key, value: (json_fields(value, key, KernelSpec)
                                        if isinstance(value, dict) else value),
          "k": lambda key, value: json_whole(value, f"field '{key}'")}
_KINDS = {"gemmed": TrainedModel, "svm": SvmModel, "two_stage": TwoStageModel}
# saving looks up the exact class: a TwoStageModel is also an SvmModel
_TAGS = {cls: kind for kind, cls in _KINDS.items()}
# Keys that files of versions 1 and 2 held and no scorer read: training
# settings and screen intermediates. Such a file loads without them, unread.
_RETIRED = {"gemmed": ("gamma_hat", "beta_hat", "alpha", "target_coverage", "hyper"),
            "svm": (), "two_stage": ("kept_idx", "removed_idx", "alpha_level")}


def _layout(cls) -> list[tuple[str, str]]:
    """(JSON key, field) of each field of cls, in file order."""
    return [("lambda" if f.name == "lam" else f.name, f.name) for f in fields(cls)]


def save_model(model, path) -> None:
    """Serialize a trained model (joint, svm, or two_stage) to JSON."""
    kind = _TAGS.get(type(model))
    if kind is None:
        raise ValueError(f"cannot serialize {type(model).__name__}")
    payload = {"format_version": FORMAT_VERSION, "model_kind": kind}
    for key, field in _layout(type(model)):
        value = getattr(model, field)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        payload[key] = asdict(value) if is_dataclass(value) else value
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def read_json(path):
    """The value a JSON file holds, read once as UTF-8; ValueError names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def load_model(path):
    """Load a model file: the kind tag picks the class and the keys."""
    payload = read_json(path)
    if not isinstance(payload, dict) or "model_kind" not in payload:
        raise ValueError(f"{path}: missing model_kind")
    kind = payload["model_kind"]
    try:
        version = json_whole(payload["format_version"], "format_version")
        if not 1 <= version <= FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown model_kind {kind!r}")
        if version < FORMAT_VERSION:
            payload = {k: v for k, v in payload.items() if k not in _RETIRED[kind]}
        if version == 1 and isinstance(payload.get("kernel"), dict):
            payload["kernel"] = {k: v for k, v in payload["kernel"].items() if k != "jitter"}
        cls = _KINDS[kind]
        layout = _layout(cls)
        json_object(payload, f"a {kind} model file",
                    ("format_version", "model_kind", *(key for key, _ in layout)))
        return cls(**{field: _RULES[key](key, payload[key]) if key in _RULES else payload[key]
                      for key, field in layout})
    except KeyError as exc:  # a key of the file, or 'key.field' of an object in it
        raise ValueError(f"{path}: missing field '{exc.args[0]}'") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
