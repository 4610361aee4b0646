import csv
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemmed import dataset
from gemmed.dataset import CLASSES, LabeledDataset, check_array, check_real, class_index, \
    feature_columns, read_csv, write_csv


def test_class_index_slots():
    assert class_index(-1) == 0
    assert class_index(1) == 1
    for labels in ([1, -1, -1, 1], [1.0, -1.0, -1.0, 1.0]):
        slots = class_index(np.array(labels))
        assert slots.dtype.kind == "i" and slots.tolist() == [1, 0, 0, 1]
    assert class_index(np.array([], dtype=int)).shape == (0,)


# check_real: each end is tested at exactly the endpoint, open or closed
@pytest.mark.parametrize("value,interval,accepted", [
    pytest.param(0.0, "(0, 1]", False, id="open-low-end"),
    pytest.param(5e-324, "(0, 1]", True, id="just-inside-open-low-end"),
    pytest.param(1.0, "(0, 1]", True, id="closed-high-end"),
    pytest.param(0.0, "[0, 1)", True, id="closed-low-end"),
    pytest.param(-5e-324, "[0, 1)", False, id="just-outside-closed-low-end"),
    pytest.param(1.0, "[0, 1)", False, id="open-high-end"),
    pytest.param(np.nextafter(1.0, 2.0), "[0, 1]", False, id="just-outside-closed-high-end"),
    pytest.param(1.7976931348623157e308, "(0, inf)", True, id="largest-float"),
    pytest.param(np.inf, "(0, inf)", False, id="inf"),
    pytest.param(np.inf, "[0, 1]", False, id="inf-above-closed-end"),
    pytest.param(-np.inf, "[0, inf)", False, id="minus-inf"),
    pytest.param(np.nan, "[0, inf)", False, id="nan"),
    # a NumPy scalar is a number, except a NumPy bool
    pytest.param(np.float64(0.5), "(0, 1)", True, id="np-float64"),
    pytest.param(np.int64(3), "(0, inf)", True, id="np-int64"),
    pytest.param(np.True_, "(0, inf)", False, id="np-bool"),
    pytest.param(np.array(0.5), "(0, 1)", False, id="np-0d-array"),
    pytest.param(True, "(0, inf)", False, id="bool-true"),
    pytest.param(False, "[0, 1)", False, id="bool-false"),
    # an int is a number while a float holds it
    pytest.param(3, "(0, inf)", True, id="int"),
    pytest.param(10**308, "(0, inf)", True, id="int-1e308"),
    pytest.param(10**400, "(0, inf)", False, id="int-beyond-float"),
    pytest.param(None, "(0, inf)", False, id="None"),
    pytest.param("1", "(0, inf)", False, id="string"),
    pytest.param([1.0], "(0, inf)", False, id="list"),
])
def test_check_real(value, interval, accepted):
    if accepted:  # and held as a float, whatever number type it came as
        x = check_real("width", value, interval)
        assert type(x) is float and x == float(value)
    else:
        too_large = type(value) is int and value == 10**400
        shown = "an integer too large for a float" if too_large else repr(value)
        with pytest.raises(ValueError, match=re.escape(
                f"width must lie in {interval}, got {shown}") + "$"):
            check_real("width", value, interval)


# check_array: what a JSON array or a NumPy array may hold, and its shape
@pytest.mark.parametrize("value,shape,refusal", [
    pytest.param([[1, 2.5]], (None, 2), None, id="list-of-numbers"),
    pytest.param(np.arange(3), (3,), None, id="int-array"),
    pytest.param([np.float64(0.5), np.int64(1)], (2,), None, id="numpy-scalars"),
    pytest.param([], (None,), None, id="empty-any-length"),
    pytest.param(np.array([True, False]), (2,), "hold only numbers", id="bool-array"),
    pytest.param(np.array(["0.5", "1"]), (2,), "hold only numbers", id="text-array"),
    pytest.param(np.array([0.5, 1.0], dtype=object), (2,), "hold only numbers", id="object-array"),
    pytest.param(np.True_, (), "hold only numbers", id="numpy-bool"),
    pytest.param([[True, 2.0]], (1, 2), "hold only numbers", id="bool-in-list"),
    pytest.param(["0.5", 1.0], (2,), "hold only numbers", id="text-in-list"),
    pytest.param([None, 1.0], (2,), "hold only numbers", id="None-in-list"),
    pytest.param([[1.0], [1.0, 2.0]], (2, None), "hold only numbers", id="ragged"),
    pytest.param([10**400], (1,), "hold only numbers", id="int-beyond-float"),
    pytest.param([[1.0, np.inf]], (1, 2), "be finite", id="inf"),
    pytest.param([1.0, 2.0], (None, None), "be a vector", id="one-axis-short"),
    pytest.param([1.0, 2.0], (3,), "be a vector", id="wrong-length"),
])
def test_check_array(value, shape, refusal):
    if refusal is None:  # and held as floats
        array = check_array("v", value, shape, "be a vector")
        assert array.dtype == float and array.tolist() == np.asarray(value, float).tolist()
    else:
        with pytest.raises(ValueError, match=f"^v must {refusal}$"):
            check_array("v", value, shape, "be a vector")


def test_basic_construction():
    ds = LabeledDataset(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([-1, 1]))
    assert ds.n == 2
    assert ds.dim == 2
    assert ds.anomaly is None
    assert ds.y.dtype.kind == "i"


def test_a_1d_x_is_refused_not_promoted():
    # x is a matrix wherever a dataset or a model comes from, as in a model file
    with pytest.raises(ValueError, match=re.escape(
            "x must be a matrix with at least one row and one column") + "$"):
        LabeledDataset(np.array([1.0, 2.0, 3.0]), np.array([1]))


def test_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels"):
        LabeledDataset(np.zeros((2, 1)), np.array([0, 1]))
    with pytest.raises(ValueError, match="labels"):
        LabeledDataset(np.zeros((2, 1)), np.array([1.5, -1.0]))


def test_rejects_shape_mismatch_and_nonfinite():
    with pytest.raises(ValueError, match="^y must hold one entry per row of x$"):
        LabeledDataset(np.zeros((3, 2)), np.array([1, -1]))
    with pytest.raises(ValueError, match="^x must be finite$"):
        LabeledDataset(np.array([[np.nan, 0.0]]), np.array([1]))
    for empty in (np.zeros((0, 2)), np.zeros((2, 0))):
        with pytest.raises(ValueError, match="^x must be a matrix with at least one row"):
            LabeledDataset(empty, np.array([]))


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
    *((f"y,x1\n1,0\n{v},0\n", r"bad\.csv:3: bad or missing 'y' value; expected -1 or 1")
      for v in ("-1.9", "inf", "nan")),
    ("y,x1,is_anomaly\n1,0,1\n-1,2,inf\n", r"bad\.csv:3: bad or missing 'is_anomaly'"),
    *((text, r"bad\.csv:3: non-finite or non-numeric 'x2' value")
      for text in ("y,x1,x2\n1,0,0\n-1,1,nan\n", "x1,x2\n0,0\n1,inf\n",
                   "x1,x2\n0,0\n1,-inf\n")),
    # predict's labels and detect's calls, as evaluate reads them
    *((f"label\n1\n{v}\n", r"bad\.csv:3: bad or missing 'label' value; expected -1 or 1")
      for v in ("1.5", "-1.9", "yes", "inf", "nan", "0.5", "2", "0")),
    *((f"score,call\n1.0,1\n2.0,{v}\n",
       r"bad\.csv:3: bad or missing 'call' value; expected 0 or 1")
      for v in ("1.5", "-1.9", "yes", "inf", "nan", "0.5", "2")),
])
def test_from_csv_rejects_malformed(tmp_path, text, msg):
    # a header in HEADERS picks its reader; any other is LabeledDataset.from_csv's
    path = tmp_path / "bad.csv"
    path.write_text(text)
    header = next(filter(None, text.splitlines()), "")
    with pytest.raises(ValueError, match=msg):
        read_csv(path, COLUMNS[HEADERS.get(header, "labeled")])


def test_from_csv_reports_csv_module_errors_by_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("y,x1\n1,0\n1," + "1" * 200_000 + "\n")
    with pytest.raises(ValueError, match=r"big\.csv:3: field larger than"):
        LabeledDataset.from_csv(path)


def test_from_csv_refuses_an_overlong_finite_field(tmp_path):
    # float() reads it as 0.0, but the csv module refuses the field
    path = tmp_path / "long.csv"
    path.write_text("y,x1\n1,0\n1,0." + "0" * 200_000 + "1\n")
    with pytest.raises(ValueError, match=r"long\.csv:3: field larger than"):
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


def _pick(name):
    def columns(header):
        if name not in header:
            raise ValueError(f"expected a '{name}' column")
        return [name]
    return columns


COLUMNS = {"labeled": dataset._labeled_columns, "features": feature_columns,
           "label": _pick("label"), "call": _pick("call")}
# header -> the reader it is meant for; the test also tries the others
HEADERS = {"y,x1": "labeled", "y,x1,x2": "labeled",
           "y,x1,is_anomaly": "labeled", "x1,x2": "features",
           "x1": "features", "label": "label", "score,call": "call",
           "call,label": "label", "y,x2": "labeled", " y,x1": "labeled",
           "y,x1 ": "labeled"}
EXACT = {"y": ["-1", "1", "-1.0", " 1", "1e0"], "label": ["-1", "1"],
         "is_anomaly": ["0", "1", "-0", "0.0 "], "call": ["0", "1"]}
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.3g}"),
    st.sampled_from(["0", "-0", "1.", ".5", "+2", "1E5", "001", "5e-324"]),
)
PADDED = st.tuples(st.sampled_from(["", "", " ", "\t"]), NUMBERS,
                   st.sampled_from(["", "", " ", "\t"])).map("".join)
ODD_FIELDS = st.sampled_from([
    "", " ", "  ", "\t", "nan", "NaN", "-nan", "inf", "-inf", "Infinity",
    "+infinity", "1_0", "1__0", "0x10", "1e400", "-1e400", "1e-400", "abc",
    '"1"', '"1,0"', '""', "1 2", "1e", ".", "\x0c1", "1\x0b", "\x1c1",
    "1\x1f", "1\x00", "\u00a01", "\uff11", "1\x85", "True", "0.5", "2",
    "1.5", "-1.5",
])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """(text, reader kind): a header and rows drawn to hit every branch
    of read_csv, most of them valid."""
    header = draw(st.sampled_from(sorted(HEADERS)))
    kind = draw(st.sampled_from([HEADERS[header]] * 12 + sorted(COLUMNS)))
    names = header.split(",")
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["row"] * 9 + ["blank", "space", "odd",
                                                    "short", "long"]))
        if shape == "blank":
            lines.append("")
            continue
        if shape == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
            continue
        row = [draw(st.sampled_from(EXACT[name])) if name in EXACT
               else draw(PADDED) for name in names]
        if shape == "odd":
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_FIELDS)
        elif shape == "short":
            row = row[:-1]
        elif shape == "long":
            row.append(draw(PADDED))
        lines.append(",".join(row))
    lines[:0] = [""] * draw(st.integers(0, 2))
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return (text if draw(st.sampled_from([True] * 30 + [False])) else ""), kind


def _outcome(read, path, columns):
    try:
        names, table = read(path, columns)
    except ValueError as exc:
        return ("error", str(exc))
    return ("table", names, table.dtype, table.shape, table.tobytes())


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(drawn=csv_texts())
def test_read_csv_matches_the_row_loop(tmp_path_factory, drawn):
    text, kind = drawn
    path = tmp_path_factory.mktemp("rd") / "d.csv"
    path.write_text(text, newline="")
    columns = COLUMNS[kind]
    assert _outcome(read_csv, path, columns) == \
        _outcome(dataset._read_rows, path, columns)


def test_read_csv_parses_a_valid_file_in_one_pass(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\r\ny,x1,x2\r\n1,0.5,-2\r\n\r\n-1, 3 ,1e-3\r1,4,5\n",
                    newline="")
    with mock.patch.object(dataset, "_read_rows",
                           side_effect=AssertionError("row loop ran")):
        names, table = read_csv(path, feature_columns)
    assert names == ["y", "x1", "x2"]
    assert table.tolist() == [[1, 0.5, -2], [-1, 3, 1e-3], [1, 4, 5]]


def test_read_csv_reads_a_refused_file_row_by_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('y,x1\n1,"2"\n')
    with mock.patch.object(dataset, "_read_rows",
                           wraps=dataset._read_rows) as rows:
        names, table = read_csv(path, feature_columns)
    rows.assert_called_once()
    assert table.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("rows", [
    [["1", "0.5"], ["-1", "", "x"]], [["a"], ["b"]], [], [["1e-05", "nan"]],
])
def test_write_csv_matches_csv_writer(tmp_path, rows):
    header = ["h1", "h2"]
    write_csv(tmp_path / "fast.csv", header, iter(rows))
    with (tmp_path / "ref.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
