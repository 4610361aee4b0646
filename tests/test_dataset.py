import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemmed.dataset import CLASSES, LabeledDataset, class_index


def test_class_index_slots():
    assert class_index(-1) == 0
    assert class_index(1) == 1


def test_basic_construction():
    ds = LabeledDataset(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([-1, 1]))
    assert ds.n == 2
    assert ds.dim == 2
    assert ds.anomaly is None
    assert ds.y.dtype.kind == "i"


def test_single_row_is_promoted_to_2d():
    ds = LabeledDataset(np.array([1.0, 2.0, 3.0]), np.array([1]))
    assert ds.x.shape == (1, 3)


def test_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels"):
        LabeledDataset(np.zeros((2, 1)), np.array([0, 1]))
    with pytest.raises(ValueError, match="labels"):
        LabeledDataset(np.zeros((2, 1)), np.array([1.5, -1.0]))


def test_rejects_shape_mismatch_and_nonfinite():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([1, -1]))
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset(np.array([[np.nan, 0.0]]), np.array([1]))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((0, 2)), np.array([]))


def test_anomaly_flags_validated():
    with pytest.raises(ValueError, match="anomaly"):
        LabeledDataset(np.zeros((2, 1)), np.array([1, -1]), np.array([True]))
    with pytest.raises(ValueError, match="anomaly flags must be 0 or 1"):
        LabeledDataset(np.zeros((2, 1)), np.array([1, -1]), [0.5, 1.0])


def test_class_indices_and_subset():
    ds = LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([-1, 1, 1, -1]),
                        np.array([0, 1, 0, 1], dtype=bool))
    assert list(ds.class_indices(-1)) == [0, 3]
    assert list(ds.class_indices(1)) == [1, 2]
    sub = ds.subset([1, 3])
    assert sub.n == 2
    assert list(sub.y) == [1, -1]
    assert list(sub.anomaly) == [True, True]


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 3)) * 1e3
    y = rng.choice(CLASSES, size=7)
    flags = rng.random(7) < 0.5
    ds = LabeledDataset(x, y, flags)
    path = tmp_path / "train.csv"
    ds.to_csv(path)
    back = LabeledDataset.from_csv(path)
    # repr-based float formatting must round-trip float64 exactly
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.anomaly, ds.anomaly)


def test_csv_round_trip_without_flags(tmp_path):
    ds = LabeledDataset(np.array([[1.0], [2.0]]), np.array([1, -1]))
    path = tmp_path / "plain.csv"
    ds.to_csv(path)
    back = LabeledDataset.from_csv(path)
    assert back.anomaly is None
    assert np.array_equal(back.x, ds.x)


def test_csv_header_written(tmp_path):
    ds = LabeledDataset(np.zeros((1, 2)), np.array([1]), np.array([False]))
    path = tmp_path / "h.csv"
    ds.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "y,x1,x2,is_anomaly"


@pytest.mark.parametrize("text,msg", [
    ("", "empty"),
    ("a,b\n1,2\n", "first column"),
    ("y\n1\n", "no feature columns"),
    ("y,x2,x1\n1,0,0\n", "feature columns"),
    ("y,x1\n", "no data rows"),
    ("y,x1\n1\n", "expected 2 fields"),
    ("\n\ny,x1\n\n1,0\n\n\n1\n", r"bad\.csv:8: bad row; expected 2 fields, got 1"),
    ("y,x1\n1,0\n\n1.5,0\n", r"bad\.csv:4: bad or missing 'y' value"),
    ("y,x1\n1,0\n-1,abc\n", r"bad\.csv:3: non-finite or non-numeric 'x1'"),
    ("y,x1,is_anomaly\n1,0,1\n-1,2,0.5\n", "bad or missing 'is_anomaly'"),
    ("\n\n", "empty"),
])
def test_from_csv_rejects_malformed(tmp_path, text, msg):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=msg):
        LabeledDataset.from_csv(path)


def test_from_csv_reports_csv_module_errors_by_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("y,x1\n1,0\n1," + "1" * 200_000 + "\n")
    with pytest.raises(ValueError, match=r"big\.csv:3: field larger than"):
        LabeledDataset.from_csv(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 10_000))
def test_round_trip_property(tmp_path_factory, n, p, seed):
    rng = np.random.default_rng(seed)
    ds = LabeledDataset(rng.normal(scale=100.0, size=(n, p)),
                        rng.choice(CLASSES, size=n),
                        rng.random(n) < 0.3)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    ds.to_csv(path)
    back = LabeledDataset.from_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.anomaly, ds.anomaly)
