import copy
import dataclasses
import functools
import itertools
import json
import re

import numpy as np
import pytest

from gemmed import cli, trainer
from gemmed.baselines import SvmModel, TwoStageModel, train_svm, train_two_stage
from gemmed.cli import main
from gemmed.experiments import CellResult, MethodSettings
from gemmed.gem import GemConfig
from gemmed.kernels import KernelSpec
from gemmed.model import HyperParams, TrainedModel
from gemmed.persist import load_model, save_model
from gemmed.synthdata import RingExperimentConfig, generate
from instances import assert_refused


@pytest.fixture(scope="module")
def cell():
    cfg = RingExperimentConfig(R=40.0, r_a=0.2, n_train_per_class=30,
                               n_test_per_class=40, seed=2)
    return generate(cfg)


def test_joint_model_round_trip(cell, tmp_path):
    train_set, test_set = cell
    hyper = HyperParams(steps=3, gibbs_sweeps=8, burn_in=2, seed=0)
    model = trainer.train(train_set, KernelSpec("rbf", gamma=0.1),
                          GemConfig(k=3, seed=0), hyper)
    path = tmp_path / "joint.json"
    save_model(model, path)
    back = load_model(path)
    # bit-exact state, hence bit-exact behavior
    assert np.array_equal(back.x, model.x)
    assert np.array_equal(back.lam, model.lam)
    assert np.array_equal(back.eta_hat, model.eta_hat)
    assert back.theta == model.theta
    assert back.dual_estimate == model.dual_estimate
    np.testing.assert_array_equal(trainer.predict(back, test_set.x),
                                  trainer.predict(model, test_set.x))
    np.testing.assert_array_equal(
        trainer.decision_function(back, test_set.x),
        trainer.decision_function(model, test_set.x))
    np.testing.assert_array_equal(trainer.detect(back, test_set.x),
                                  trainer.detect(model, test_set.x))


def test_svm_round_trip(cell, tmp_path):
    train_set, test_set = cell
    model = train_svm(train_set, KernelSpec("linear"), C=1.0)
    path = tmp_path / "svm.json"
    save_model(model, path)
    back = load_model(path)
    assert back.C == 1.0
    assert back.converged is model.converged is True
    assert back.kkt_violation == model.kkt_violation
    np.testing.assert_array_equal(back.predict(test_set.x),
                                  model.predict(test_set.x))


def test_two_stage_round_trip(cell, tmp_path):
    train_set, test_set = cell
    model = train_two_stage(train_set, KernelSpec("linear"),
                            GemConfig(k=3, seed=0, target_coverage=0.8))
    path = tmp_path / "ts.json"
    save_model(model, path)
    back = load_model(path)
    # the two-stage model is its SVM plus a detector, with no nested .svm
    assert type(back) is TwoStageModel and isinstance(back, SvmModel)
    assert not hasattr(back, "svm")
    assert json.loads(path.read_text())["model_kind"] == "two_stage"
    assert np.array_equal(back.x, model.x)
    assert back.converged is model.converged is True
    assert (back.theta, back.kkt_violation) == (model.theta, model.kkt_violation)
    np.testing.assert_array_equal(back.predict(test_set.x),
                                  model.predict(test_set.x))
    np.testing.assert_array_equal(back.detect(test_set.x),
                                  model.detect(test_set.x))


def test_save_rejects_unknown_type(tmp_path):
    with pytest.raises(ValueError, match="serialize"):
        save_model({"weights": [1, 2]}, tmp_path / "no.json")


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ValueError, match="JSON"):
        load_model(path)
    path.write_text(json.dumps({"format_version": 1}))
    with pytest.raises(ValueError, match="model_kind"):
        load_model(path)
    path.write_text(json.dumps({"format_version": 99, "model_kind": "svm"}))
    with pytest.raises(ValueError, match="format_version"):
        load_model(path)
    # true is no version number, though True == 1 in Python
    path.write_text(json.dumps({"format_version": True, "model_kind": "svm"}))
    with pytest.raises(ValueError, match="format_version must be a whole number, got True"):
        load_model(path)
    path.write_text(json.dumps({"format_version": 1, "model_kind": "what"}))
    with pytest.raises(ValueError, match="model_kind"):
        load_model(path)
    path.write_text(json.dumps({"format_version": 1, "model_kind": "svm"}))
    with pytest.raises(ValueError, match="missing field"):
        load_model(path)


# the model field of a JSON key, where they differ
_FIELD = {"lambda": "lam"}
# the float fields of each model kind that must be finite to load
_FINITE_FIELDS = {
    "gemmed": ("x", "lambda", "eta_hat", "theta", "dual_estimate"),
    "svm": ("x", "alpha", "C", "kkt_violation"),
    "two_stage": ("x", "alpha", "C", "kkt_violation", "theta"),
}


def _put(payload, key, value):
    """payload with the value at a key, dotted for a nested object, set."""
    *outer, last = key.split(".")
    target = payload
    for part in outer:
        target = target.setdefault(part, {})
    target[last] = value
    return payload


def _spoil(payload, key, bad):
    """payload with one number of field key replaced by bad."""
    value = payload[key]
    if isinstance(value, list):
        row = value[0] if isinstance(value[0], list) else value
        row[0] = bad
    else:
        payload[key] = bad
    return payload


def _fit(train_set, kind):
    """A small model of the given kind, with k=3 where it has a k."""
    gem = GemConfig(k=3, seed=0)
    if kind == "gemmed":
        return trainer.train(train_set, KernelSpec("rbf", gamma=0.1), gem,
                             HyperParams(steps=2, gibbs_sweeps=8, burn_in=2, seed=0))
    if kind == "svm":
        return train_svm(train_set, KernelSpec("linear"), C=1.0)
    return train_two_stage(train_set, KernelSpec("linear"), gem)


@pytest.mark.parametrize("kind", sorted(_FINITE_FIELDS))
def test_load_rejects_non_finite_numbers(cell, tmp_path, kind):
    model = _fit(cell[0], kind)
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    assert json.loads(text)["model_kind"] == kind
    for key in _FINITE_FIELDS[kind]:
        field = _FIELD.get(key, key)
        for bad in (float("nan"), float("inf"), float("-inf")):
            payload = _spoil(json.loads(text), key, bad)
            path.write_text(json.dumps(payload))
            # an array must be finite; a number names its range
            needle = (re.escape(f"{field} must be finite") if payload[key] is not bad
                      else re.escape(f"{field} must lie in ") + ".*" + re.escape(f", got {bad!r}"))
            with pytest.raises(ValueError, match=f"model.json: {needle}$"):
                load_model(path)
    path.write_text(text)
    assert type(load_model(path)) is type(model)


# the bytes of each model kind's file, pinned: the key order, the float
# reprs, null for an unset kernel width and the one-space indent are the format
_FILE_BYTES = {
    "gemmed": b"""{
 "format_version": 3,
 "model_kind": "gemmed",
 "kernel": {
  "kind": "rbf",
  "gamma": 0.5
 },
 "x": [
  [
   -1.0
  ],
  [
   2.0
  ]
 ],
 "y": [
  -1,
  1
 ],
 "lambda": [
  0.25,
  0.5
 ],
 "eta_hat": [
  0.75,
  1.0
 ],
 "theta": 3.0,
 "k": 1,
 "dual_estimate": -1.5
}
""",
    "svm": b"""{
 "format_version": 3,
 "model_kind": "svm",
 "kernel": {
  "kind": "linear",
  "gamma": null
 },
 "x": [
  [
   -1.0
  ],
  [
   2.0
  ]
 ],
 "y": [
  -1,
  1
 ],
 "alpha": [
  0.5,
  1.0
 ],
 "C": 1.0,
 "converged": true,
 "kkt_violation": 0.0
}
""",
    "two_stage": b"""{
 "format_version": 3,
 "model_kind": "two_stage",
 "kernel": {
  "kind": "linear",
  "gamma": null
 },
 "x": [
  [
   -1.0
  ],
  [
   2.0
  ]
 ],
 "y": [
  -1,
  1
 ],
 "alpha": [
  0.5,
  1.0
 ],
 "C": 1.0,
 "converged": false,
 "kkt_violation": 0.25,
 "theta": 2.5,
 "k": 1
}
""",
}


# a version-2 file of each _hand_built model, as saved while a file also held
# training settings and screen intermediates; each loads as that model
_V2_FILES = {
    "gemmed": b"""{
 "format_version": 2,
 "model_kind": "gemmed",
 "kernel": {
  "kind": "rbf",
  "gamma": 0.5
 },
 "x": [
  [
   -1.0
  ],
  [
   2.0
  ]
 ],
 "y": [
  -1,
  1
 ],
 "lambda": [
  0.25,
  0.5
 ],
 "eta_hat": [
  0.75,
  1.0
 ],
 "gamma_hat": {
  "-1": 0.1,
  "1": 0.2
 },
 "beta_hat": {
  "-1": 0.5,
  "1": 0.75
 },
 "theta": 3.0,
 "k": 1,
 "alpha": 0.05,
 "target_coverage": 0.8,
 "dual_estimate": -1.5,
 "hyper": {
  "c": 10.0,
  "lambda_cap": 0.4,
  "p0": null,
  "steps": 2,
  "rate_lambda": 0.002,
  "rate_mu": 0.02,
  "rate_kappa": 0.02,
  "gibbs_sweeps": 3,
  "burn_in": 1,
  "seed": 0
 }
}
""",
    "svm": b"""{
 "format_version": 2,
 "model_kind": "svm",
 "kernel": {
  "kind": "linear",
  "gamma": null
 },
 "x": [
  [
   -1.0
  ],
  [
   2.0
  ]
 ],
 "y": [
  -1,
  1
 ],
 "alpha": [
  0.5,
  1.0
 ],
 "C": 1.0,
 "converged": true,
 "kkt_violation": 0.0
}
""",
    "two_stage": b"""{
 "format_version": 2,
 "model_kind": "two_stage",
 "kernel": {
  "kind": "linear",
  "gamma": null
 },
 "x": [
  [
   -1.0
  ],
  [
   2.0
  ]
 ],
 "y": [
  -1,
  1
 ],
 "alpha": [
  0.5,
  1.0
 ],
 "C": 1.0,
 "converged": false,
 "kkt_violation": 0.25,
 "kept_idx": [
  0,
  2
 ],
 "removed_idx": [
  1
 ],
 "theta": 2.5,
 "k": 1,
 "alpha_level": 0.05
}
""",
}


# a version-1 file of _hand_built("gemmed"), as saved before the kernel's
# jitter was worked out from the kernel; it loads as that model
_V1_FILE = b"""{
 "format_version": 1,
 "model_kind": "gemmed",
 "kernel": {
  "kind": "rbf",
  "gamma": 0.5,
  "jitter": 1e-08
 },
 "x": [
  [
   -1.0
  ],
  [
   2.0
  ]
 ],
 "y": [
  -1,
  1
 ],
 "lambda": [
  0.25,
  0.5
 ],
 "eta_hat": [
  0.75,
  1.0
 ],
 "gamma_hat": {
  "-1": 0.1,
  "1": 0.2
 },
 "beta_hat": {
  "-1": 0.5,
  "1": 0.75
 },
 "theta": 3.0,
 "k": 1,
 "alpha": 0.05,
 "target_coverage": 0.8,
 "dual_estimate": -1.5,
 "hyper": {
  "c": 10.0,
  "lambda_cap": 0.4,
  "p0": null,
  "steps": 2,
  "rate_lambda": 0.002,
  "rate_mu": 0.02,
  "rate_kappa": 0.02,
  "gibbs_sweeps": 3,
  "burn_in": 1,
  "seed": 0
 }
}
"""


def _hand_built(kind):
    """A two-row model of the given kind with short, exact float reprs."""
    x, y = np.array([[-1.0], [2.0]]), np.array([-1, 1])
    if kind == "gemmed":
        return TrainedModel(
            kernel=KernelSpec("rbf", gamma=0.5), x=x, y=y,
            lam=np.array([0.25, 0.5]), eta_hat=np.array([0.75, 1.0]),
            theta=3.0, k=1, dual_estimate=-1.5)
    svm = dict(kernel=KernelSpec("linear"), x=x, y=y,
               alpha=np.array([0.5, 1.0]), C=1.0)
    if kind == "svm":
        return SvmModel(**svm, converged=True, kkt_violation=0.0)
    return TwoStageModel(**svm, converged=False, kkt_violation=0.25, theta=2.5, k=1)


@pytest.mark.parametrize("kind", sorted(_FILE_BYTES))
def test_model_file_bytes(tmp_path, kind):
    path = tmp_path / "model.json"
    save_model(_hand_built(kind), path)
    assert path.read_bytes() == _FILE_BYTES[kind]
    # loading and saving again writes the same bytes
    save_model(load_model(path), path)
    assert path.read_bytes() == _FILE_BYTES[kind]


def test_a_version_1_file_loads_without_its_jitter(tmp_path):
    # version 1 also saved the kernel's jitter, which no scorer read
    path = tmp_path / "model.json"
    path.write_bytes(_V1_FILE)
    assert _fields(load_model(path)) == _fields(_hand_built("gemmed"))
    save_model(load_model(path), path)
    assert path.read_bytes() == _FILE_BYTES["gemmed"]
    # version 2 holds no jitter
    path.write_text(json.dumps({**json.loads(_V1_FILE), "format_version": 2}))
    with pytest.raises(ValueError, match=re.escape(
            "model.json: unknown key 'jitter' in field 'kernel'") + "$"):
        load_model(path)


@pytest.mark.parametrize("kind", sorted(_FILE_BYTES))
def test_a_version_2_file_loads_without_its_retired_keys(tmp_path, kind):
    # version 2 also saved training settings and screen intermediates, which
    # no scorer read; they load unread, whatever their values, and version 3
    # refuses each of them
    v2, v3 = json.loads(_V2_FILES[kind]), json.loads(_FILE_BYTES[kind])
    retired = [key for key in v2 if key not in v3]
    assert retired == {"gemmed": ["gamma_hat", "beta_hat", "alpha", "target_coverage", "hyper"],
                       "svm": [], "two_stage": ["kept_idx", "removed_idx", "alpha_level"]}[kind]
    path = tmp_path / "model.json"
    path.write_bytes(_V2_FILES[kind])
    assert _fields(load_model(path)) == _fields(_hand_built(kind))
    save_model(load_model(path), path)
    assert path.read_bytes() == _FILE_BYTES[kind]
    for key in retired:
        path.write_text(json.dumps({**v2, key: "spoiled"}))
        assert _fields(load_model(path)) == _fields(_hand_built(kind))
        path.write_text(json.dumps({**v3, key: v2[key]}))
        with pytest.raises(ValueError, match=re.escape(
                f"model.json: unknown key '{key}' in a {kind} model file") + "$"):
            load_model(path)


def _unknown(key, kind) -> str:
    """The refusal of a key that a file of the kind may not hold."""
    return f"unknown key '{key}' in a {kind} model file"


@pytest.mark.parametrize("kind,key,bad,needle", [
    # a label other than -1 and 1 is the model's to refuse, as are the row
    # counts further down
    *(pytest.param(kind, "y", [-1, 0.5], "labels must be -1 or +1",
                   id=f"{kind}-y-bad{i}-must hold only the labels -1 and 1")
      for i, kind in enumerate(sorted(_FILE_BYTES))),
    ("svm", "y", ["-1", "one"], "must hold only numbers"),
    # a key an older file held, the screen's index split say, is refused
    # whatever its value, and an older file's loads unread
    pytest.param("two_stage", "kept_idx", [0, 1.7], _unknown("kept_idx", "two_stage"),
                 id="two_stage-kept_idx-bad4-must list whole numbers of at least 0"),
    pytest.param("two_stage", "removed_idx", [-1], _unknown("removed_idx", "two_stage"),
                 id="two_stage-removed_idx-bad5-must list whole numbers of at least 0"),
    ("two_stage", "converged", "false", "must be true or false, got 'false'"),
    ("svm", "converged", 1, "must be true or false, got 1"),
    # a number a model refuses names its range; the ids keep an older needle
    pytest.param("two_stage", "theta", "1.5", "must lie in [0, inf), got '1.5'",
                 id="two_stage-theta-1.5-expects a number"),
    pytest.param("gemmed", "theta", None, "must lie in [0, inf), got None",
                 id="gemmed-theta-None-expects a number"),
    pytest.param("svm", "C", "1", "must lie in (0, inf), got '1'", id="svm-C-1-expects a number"),
    pytest.param("two_stage", "C", True, "must lie in (0, inf), got True",
                 id="two_stage-C-True-expects a number"),
    pytest.param("gemmed", "target_coverage", [0.8], _unknown("target_coverage", "gemmed"),
                 id="gemmed-target_coverage-bad12-expects a number, got [0.8]"),
    pytest.param("svm", "kkt_violation", "0", "must lie in [0, inf), got '0'",
                 id="svm-kkt_violation-0-expects a number"),
    ("gemmed", "x", [[-1.0], [2.0, 3.0]], "must hold only numbers"),
    *(pytest.param(kind, key, [1], f"{field} must hold one entry per row of x",
                   id=f"{kind}-{key}-bad{i}-must hold one entry per row of x")
      for i, (kind, key, field) in enumerate((
          ("gemmed", "y", "y"), ("gemmed", "lambda", "lam"),
          ("gemmed", "eta_hat", "eta_hat"), ("svm", "alpha", "alpha"),
          ("two_stage", "y", "y"), ("two_stage", "alpha", "alpha")), start=15)),
    # np.array would read true as 1 and "0.25" as 0.25
    ("gemmed", "y", [True, 1], "must hold only numbers"),
    ("svm", "y", [-1, False], "must hold only numbers"),
    ("gemmed", "lambda", ["0.25", 0.5], "must hold only numbers"),
    ("svm", "alpha", [0.5, True], "must hold only numbers"),
    pytest.param("gemmed", "gamma_hat", {"-1": True, "1": 0.2}, _unknown("gamma_hat", "gemmed"),
                 id="gemmed-gamma_hat-bad25-must hold only numbers"),
    pytest.param("two_stage", "kept_idx", [False, 2], _unknown("kept_idx", "two_stage"),
                 id="two_stage-kept_idx-bad26-must hold only numbers"),
    ("two_stage", "x", [[True], [2.0]], "must hold only numbers"),
    ("gemmed", "x", [["-1"], [2.0]], "must hold only numbers"),
    *(("svm", "x", bad, "must be a matrix with at least one row and one column")
      for bad in ([-1.0, 2.0], [], [[], []], [[[-1.0]], [[2.0]]], 1.0)),
    # the kernel object, whose dataclass refuses a non-number naming the
    # object; explicit ids, so that a change of needle renames no test
    pytest.param("gemmed", "kernel.gamma", True,
                 "field 'kernel': gamma must lie in (0, inf), got True",
                 id="gemmed-kernel.gamma-True-expects a number, got True"),
    pytest.param("gemmed", "kernel.gamma", "0.1",
                 "field 'kernel': gamma must lie in (0, inf), got '0.1'",
                 id="gemmed-kernel.gamma-0.1-expects a number, got '0.1'"),
    # KernelSpec refuses an rbf kernel without a width
    pytest.param("gemmed", "kernel.gamma", None,
                 "field 'kernel': gamma must lie in (0, inf), got None",
                 id="gemmed-kernel.gamma-None-expects a number, got None"),
    pytest.param("svm", "kernel.gamma", True,  # a linear kernel's width, when set
                 "field 'kernel': gamma must lie in (0, inf), got True",
                 id="svm-kernel.gamma-True-expects a number, got True"),
    # the Gram jitter is worked out from the kernel, and no file holds one
    pytest.param("two_stage", "kernel.jitter", None,
                 "unknown key 'jitter' in field 'kernel'",
                 id="two_stage-kernel.jitter-None-expects a number, got None"),
    # the training settings a joint file held: refused in any form, and
    # loaded unread from an older file
    *(pytest.param("gemmed", key, bad, _unknown("hyper", "gemmed"), id=f"gemmed-{key}-{shown}")
      for key, bad, shown in (
          ("hyper.c", True, "True-expects a number, got True"),
          ("hyper.c", "abc", "abc-expects a number, got 'abc'"),
          ("hyper.c", 10**400, "10**400-expects a number"),
          ("hyper.rate_mu", True, "True-expects a number, got True"),
          ("hyper", False, "False-must be an object"), ("hyper", 0, "0-must be an object"),
          ("hyper", [], "bad45-must be an object"))),
    pytest.param("gemmed", "gamma_hat", [0.1, 0.2], _unknown("gamma_hat", "gemmed"),
                 id="gemmed-gamma_hat-bad46-must be an object"),
    pytest.param("gemmed", "beta_hat", 0.5, _unknown("beta_hat", "gemmed"),
                 id="gemmed-beta_hat-0.5-must be an object"),
    # a kernel that is no object goes to the model, which refuses it
    pytest.param("gemmed", "kernel", "rbf", "must be a KernelSpec, got 'rbf'",
                 id="gemmed-kernel-rbf-must be an object"),
    # a key the kernel may not hold, or one it lacks, is named in full; a
    # retired object is refused whole, whatever keys it holds
    pytest.param("gemmed", "hyper.bogus", 1, _unknown("hyper", "gemmed"),
                 id="gemmed-hyper.bogus-1-unknown key 'bogus' in field 'hyper'"),
    pytest.param("gemmed", "hyper.early_stop", False, _unknown("hyper", "gemmed"),
                 id="gemmed-hyper.early_stop-False-unknown key 'early_stop' in field 'hyper'"),
    pytest.param("gemmed", "beta_hat.0", 0.2, _unknown("beta_hat", "gemmed"),
                 id="gemmed-beta_hat.0-0.2-unknown key '0' in field 'beta_hat'"),
    ("gemmed", "kernel.width", 2.0, "unknown key 'width' in field 'kernel'"),
    pytest.param("gemmed", "gamma_hat", {"-1": 0.1}, _unknown("gamma_hat", "gemmed"),
                 id="gemmed-gamma_hat-bad53-missing field 'gamma_hat.1'"),
    ("two_stage", "kernel", {"gamma": None}, "missing field 'kernel.kind'"),
    # the kernel object holds every field: none is filled in with its default
    pytest.param("gemmed", "hyper", {}, _unknown("hyper", "gemmed"),
                 id="gemmed-hyper-bad55-missing field 'hyper.c'"),
    pytest.param("gemmed", "hyper", {k: v for k, v in dataclasses.asdict(HyperParams()).items()
                                     if k != "seed"}, _unknown("hyper", "gemmed"),
                 id="gemmed-hyper-bad56-missing field 'hyper.seed'"),
    ("gemmed", "kernel", {"gamma": 0.5}, "missing field 'kernel.kind'"),
    ("gemmed", "kernel", {"kind": "rbf"}, "missing field 'kernel.gamma'"),
    ("svm", "kernel", {"kind": "linear"}, "missing field 'kernel.gamma'"),
    # a k below 1, refused by the detector check; the int-field table below
    # holds the values that are not whole
    pytest.param("gemmed", "k", 0, "k must be at least 1, got 0", id="gemmed-k-zero"),
    pytest.param("two_stage", "k", -2, "k must be at least 1, got -2",
                 id="two_stage-k-negative"),
    pytest.param("two_stage", "kept_idx", [0, 1e300], _unknown("kept_idx", "two_stage"),
                 id="two_stage-kept_idx-float-beyond-int64"),
    pytest.param("two_stage", "removed_idx", [2**63], _unknown("removed_idx", "two_stage"),
                 id="two_stage-removed_idx-integer-beyond-int64"),
    pytest.param("gemmed", "hyper.lambda_cap", None, _unknown("hyper", "gemmed"),
                 id="gemmed-hyper.lambda_cap-null"),
])
def test_load_refuses_a_field_of_the_wrong_form(tmp_path, kind, key, bad, needle):
    # the model refuses a value as "<field> <needle>", built in Python or loaded
    if needle.startswith("must"):
        needle = f"{_FIELD.get(key, key)} {needle}"
    if "field '" not in needle and " model file" not in needle:
        assert_refused(_hand_built(kind), key, bad, needle, tmp_path)
        return
    # the file's structure, which no model sees: a key it lacks or may not
    # hold, the kernel object's value, a whole number
    path = tmp_path / "model.json"
    save_model(_hand_built(kind), path)
    path.write_text(json.dumps(_put(json.loads(path.read_text()), key, bad)))
    with pytest.raises(ValueError, match=re.escape(f"model.json: {needle}") + "$"):
        load_model(path)
    if " model file" in needle:  # a retired key, which a version-2 file held unread
        path.write_text(json.dumps(_put(json.loads(_V2_FILES[kind]), key, bad)))
        assert _fields(load_model(path)) == _fields(_hand_built(kind))


def _odd_payloads(saved, key):
    """Copies of a model file's payload with an odd value at key: each of NaN,
    inf, -inf, true, "0.1" and null in place of the value and of its first
    number, and the value in one more list."""
    for bad in (float("nan"), float("inf"), float("-inf"), True, "0.1", None):
        yield {**saved, key: bad}
        if isinstance(saved[key], list):
            yield _spoil(copy.deepcopy(saved), key, bad)
    yield {**saved, key: [saved[key]]}


def _fields(model) -> list:
    return [np.asarray(v).tolist() if isinstance(v, np.ndarray) else v
            for v in vars(model).values()]


@pytest.mark.parametrize("kind", sorted(_FILE_BYTES))
def test_a_model_refuses_a_value_built_exactly_as_loaded(tmp_path, kind):
    path, saved = tmp_path / "model.json", json.loads(_FILE_BYTES[kind])
    for key in list(saved)[2:]:  # after format_version and model_kind
        for payload in _odd_payloads(saved, key):
            value = payload[key]
            try:
                built = dataclasses.replace(_hand_built(kind), **{_FIELD.get(key, key): value})
            except ValueError as exc:
                built = str(exc)
            path.write_text(json.dumps(payload))
            try:
                loaded = load_model(path)
            except ValueError as exc:
                loaded = str(exc).removeprefix(f"{path}: ")
            if isinstance(built, str):
                # the whole-number reader names the key as a sweep config's do
                assert loaded == built or (isinstance(loaded, str) and key == "k"), (
                    key, value, built, loaded)
                continue
            assert not isinstance(loaded, str), (key, value, loaded)
            assert _fields(loaded) == _fields(built)
            save_model(built, path)
            text = path.read_text()
            back = load_model(path)
            assert type(back) is type(built) and _fields(back) == _fields(built)
            save_model(back, path)
            assert path.read_text() == text


@pytest.mark.parametrize("kind", sorted(_FILE_BYTES))
def test_a_model_file_holds_exactly_its_kinds_keys(tmp_path, kind):
    # every key of the kind's layout must be there, and no other key, such
    # as an old per-step trace, may be
    path = tmp_path / "model.json"
    save_model(_hand_built(kind), path)
    payload = json.loads(path.read_text())
    for key in list(payload)[2:]:  # after format_version and model_kind
        path.write_text(json.dumps({k: v for k, v in payload.items() if k != key}))
        with pytest.raises(ValueError,
                           match=re.escape(f"model.json: missing field '{key}'") + "$"):
            load_model(path)
    path.write_text(json.dumps({**payload, "trace": [-3.5, -2.25]}))
    with pytest.raises(ValueError, match=re.escape(
            f"model.json: unknown key 'trace' in a {kind} model file")):
        load_model(path)


# Where a sweep config and a model file set each float field of the
# dataclasses read from JSON: sweep config keys, and (model kind, key) pairs.
# A float field missing here fails the test below, so none can be added
# without its constructor and both readers refusing a non-number for it.
_FLOAT_FIELD_KEYS = {
    (KernelSpec, "gamma"): (("gemmed.gamma",), (("gemmed", "kernel.gamma"),
                                                ("svm", "kernel.gamma"))),
    (MethodSettings, "gamma"): (("gemmed.gamma", "svm.gamma", "two-stage.gamma"),
                                (("two_stage", "kernel.gamma"),)),
    (MethodSettings, "C"): (("svm.C", "two-stage.C"), (("svm", "C"), ("two_stage", "C"))),
    # training settings, which no model saves
    (GemConfig, "partition_ratio"): (("gem.partition_ratio",), ()),
    (GemConfig, "target_coverage"): (("coverage",), ()),
    (GemConfig, "epsilon_gamma"): (("gem.epsilon_gamma",), ()),
    (GemConfig, "alpha"): (("gem.alpha",), ()),
    **{(HyperParams, name): ((f"gemmed.hyper.{name}",), ())
       for name in ("c", "lambda_cap", "p0", "rate_lambda", "rate_mu", "rate_kappa")},
    # a sweep reads R and ra as grid lists (test_cli's table), and no model saves them
    (RingExperimentConfig, "R"): ((), ()),
    (RingExperimentConfig, "r_a"): ((), ()),
}
# A valid instance of each class, which the constructor path changes one field of.
_FLOAT_FIELD_BASES = {KernelSpec: KernelSpec("rbf", 0.1), HyperParams: HyperParams(),
                      GemConfig: GemConfig(), MethodSettings: MethodSettings(),
                      RingExperimentConfig: RingExperimentConfig(R=40.0, r_a=0.2)}


@pytest.mark.parametrize("cls", list(_FLOAT_FIELD_BASES), ids=lambda cls: cls.__name__)
def test_every_float_field_refuses_a_non_number_on_both_paths(tmp_path, capsys, cls):
    # both JSON readers, and the constructor they call
    floats = [f for f in dataclasses.fields(cls) if "float" in str(f.type)]
    assert [f.name for f in floats] == [name for c, name in _FLOAT_FIELD_KEYS if c is cls]
    for f, bad in itertools.product(floats, (True, "1", 10**400, None)):
        if bad is None and "None" in f.type:  # None means unset there
            continue
        shown = "an integer too large for a float" if bad == 10**400 else repr(bad)
        refusal = f"{f.name} must lie in .*, got {re.escape(shown)}"
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            dataclasses.replace(_FLOAT_FIELD_BASES[cls], **{f.name: bad})
        # the readers' nulls are in the tables, as a sweep's null coverage means unset
        sweep_keys, model_keys = ((), ()) if bad is None else _FLOAT_FIELD_KEYS[cls, f.name]
        for key in sweep_keys:
            config = _put({"R": [40.0], "ra": [0.2], "seeds": [1], "methods": ["svm"]},
                          key, bad)
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps(config))
            out = tmp_path / "sweep.csv"
            assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
            where = (f"key '{key}'" if "." not in key
                     else f"section '{key.rpartition('.')[0]}'")
            assert re.search(f"sweep config {re.escape(where)}: {refusal}\n",
                             capsys.readouterr().err)
            assert not out.exists()
        for kind, key in model_keys:
            path = tmp_path / "model.json"
            path.write_text(json.dumps(_put(json.loads(_FILE_BYTES[kind]), key, bad)))
            # a settings object's dataclass refuses the value naming the
            # object; a model refuses its own field, C say, alike
            outer, _, inner = key.partition(".")
            needle = (f"field '{outer}': {refusal}" if inner
                      else key + refusal.removeprefix(f.name))
            with pytest.raises(ValueError, match=f"model.json: {needle}$"):
                load_model(path)


def test_a_json_int_in_a_settings_object_is_held_as_a_float(tmp_path):
    # 10**20 lies beyond int64, so NumPy would not compute with it as an int
    path = tmp_path / "model.json"
    for value in (1, 10**20):
        path.write_text(json.dumps(_put(json.loads(_FILE_BYTES["gemmed"]), "kernel.gamma",
                                        value)))
        gamma = load_model(path).kernel.gamma
        assert type(gamma) is float and gamma == value


# A value out of a settings dataclass's range, as a sweep config key and,
# where a model file saves the field inside the dataclass's object, as that
# key; a model file's k and C are fields of its own (gemmed-k-zero above).
@pytest.mark.parametrize("sweep_key,bad,refusal,model_key", [
    pytest.param("gemmed.hyper.steps", -1, "steps must be at least 0, got -1", None,
                 id="HyperParams-steps"),
    pytest.param("gemmed.hyper.c", -1, "c must lie in (0, inf), got -1", None,
                 id="HyperParams-c"),
    pytest.param("gem.k", 0, "k must be at least 1, got 0", None, id="GemConfig-k"),
    pytest.param("gem.alpha", 2, "alpha must lie in (0, 1), got 2", None,
                 id="GemConfig-alpha"),
    pytest.param("gemmed.gamma", -1, "gamma must lie in (0, inf), got -1",
                 "kernel.gamma", id="KernelSpec-gamma"),
    pytest.param("svm.C", 0, "C must lie in (0, inf), got 0", None,
                 id="MethodSettings-C"),
])
def test_every_settings_dataclass_names_its_object_on_a_range_refusal(
        tmp_path, capsys, monkeypatch, sweep_key, bad, refusal, model_key):
    monkeypatch.setattr(cli, "run_cell", lambda *cell, **kwargs: pytest.fail("a cell ran"))
    path = tmp_path / "sweep.json"
    config = {"R": [40.0], "ra": [0.2], "seeds": [1], "methods": ["svm"]}
    path.write_text(json.dumps(_put(config, sweep_key, bad)))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep.csv")]) == 2
    section = sweep_key.rpartition(".")[0]
    assert f"sweep config section '{section}': {refusal}\n" in capsys.readouterr().err
    if model_key is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_put(json.loads(_FILE_BYTES["gemmed"]), model_key, bad)))
        with pytest.raises(ValueError, match=re.escape(
                f"model.json: field '{model_key.partition('.')[0]}': {refusal}") + "$"):
            load_model(path)


# The same for each int field. Each cell's GemConfig.seed and HyperParams.seed
# are its grid seed, so a sweep sets neither; test_cli's sweep table holds seeds.
_INT_FIELD_KEYS = {
    **{(HyperParams, name): ((f"gemmed.hyper.{name}",) if name != "seed" else (), ())
       for name in ("steps", "gibbs_sweeps", "burn_in", "seed")},
    (GemConfig, "k"): (("gem.k",), (("gemmed", "k"), ("two_stage", "k"))),
    (GemConfig, "seed"): ((), ()),
}


@pytest.mark.parametrize("cls", [HyperParams, GemConfig], ids=lambda cls: cls.__name__)
def test_every_int_field_reads_a_whole_number_on_both_paths(tmp_path, capsys, monkeypatch,
                                                            cls):
    ints = [f.name for f in dataclasses.fields(cls) if f.type == "int"]
    assert ints == [name for c, name in _INT_FIELD_KEYS if c is cls]
    cells = []  # the settings each cell would run with
    monkeypatch.setattr(cli, "run_cell", lambda *cell, **kwargs: cells.append(kwargs)
                        or CellResult(*cell, 0.25, None, None))
    # 2 is valid under this schedule for either field, and as a k on the two-row
    # models, whose reference sets hold 2 points
    schedule = {"gibbs_sweeps": 9, "burn_in": 1}
    for name, value in itertools.product(ints, (2.0, 2.5, True, "2", float("inf"), None, [2])):
        sweep_keys, model_keys = _INT_FIELD_KEYS[cls, name]
        for key in sweep_keys:
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps(_put({"R": [40.0], "ra": [0.2], "seeds": [1],
                                             "methods": ["gemmed"],
                                             "gemmed": {"hyper": dict(schedule)}}, key, value)))
            code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep.csv")])
            err = capsys.readouterr().err
            if value == 2.0:
                cell = cells.pop()
                read = getattr(cell["gem_config"] if cls is GemConfig
                               else cell["settings"].hyper, name)
                assert code == 0 and type(read) is int and read == 2
            else:
                assert code == 2
                assert f"sweep config key '{key}' must be a whole number, got {value!r}" in err
        for kind, key in model_keys:
            path = tmp_path / "model.json"
            path.write_text(json.dumps(_put(json.loads(_FILE_BYTES[kind]), key, value)))
            if value == 2.0:
                read = functools.reduce(getattr, key.split("."), load_model(path))
                assert type(read) is int and read == 2
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"model.json: field '{key}' must be a whole number, got {value!r}")):
                    load_model(path)
