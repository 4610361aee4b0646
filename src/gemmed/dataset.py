"""Labeled sample container and CSV input/output.

The on-disk format is a plain CSV with header ``y,x1,...,xp`` and an
optional trailing ``is_anomaly`` column (training files only). Labels
are restricted to {-1, +1}. read_csv reads every CSV file the CLI takes,
and write_csv writes every CSV file the package writes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain
from numbers import Integral, Real
from pathlib import Path

import numpy as np

CLASSES = (-1, 1)

# Values a column of this name must hold; read_csv wants others finite.
EXACT_VALUES = {"y": (-1.0, 1.0), "label": (-1.0, 1.0),
                "is_anomaly": (0.0, 1.0), "call": (0.0, 1.0)}


def class_index(labels) -> np.ndarray:
    """Per-class array slot of each label: 0 for -1, 1 for +1.

    Labels may be int or float; a scalar label gives a 0-d array.
    """
    return (np.asarray(labels).astype(int) + 1) // 2


def check_integers(config, **minimums) -> None:
    """Refuse a config whose named fields are not integers of at least
    their minimums; a bool is not an integer here. The fields then hold ints."""
    for name, minimum in minimums.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
        object.__setattr__(config, name, int(value))


def check_real(name: str, value, interval: str) -> float:
    """value as a float, refused unless it is a real number a float holds
    inside the interval, written as the message prints it: '(0, 1]', '[0, inf)'.

    A bool, None, a string or an int beyond float range is not such a
    number, and NaN lies in no interval.
    """
    lo, hi = map(float, interval[1:-1].split(", "))
    x, too_large = math.nan, False
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond about 1.8e308
            too_large = True
    inside = ((lo < x if interval[0] == "(" else lo <= x)
              and (x < hi if interval[-1] == ")" else x <= hi))
    if not inside:
        shown = "an integer too large for a float" if too_large else repr(value)
        raise ValueError(f"{name} must lie in {interval}, got {shown}")
    return x


def check_reals(config, **intervals) -> None:
    """check_real on each named field of config, which then holds the float,
    so that an int field (from JSON, say) computes as a float does."""
    for name, interval in intervals.items():
        object.__setattr__(config, name, check_real(name, getattr(config, name), interval))


def check_array(name: str, value, shape: tuple, what: str) -> np.ndarray:
    """value as a float array, refused unless it holds only finite real
    numbers in the given shape, where None is any length; a wrong shape is
    refused as f"{name} must {what}". np.asarray would read True as 1 and
    "0.1" as 0.1, so each element of a regular nested list is checked too."""
    try:
        if getattr(value, "dtype", np.dtype(float)).kind not in "iuf":
            raise TypeError  # an array of bools, text or objects
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # text, ragged rows, huge ints
        raise ValueError(f"{name} must hold only numbers") from None
    elements = [] if isinstance(value, np.ndarray) else [value] if array.ndim == 0 else value
    for _ in range(array.ndim - 1):
        elements = chain.from_iterable(elements)
    if not all(issubclass(t, Real) and not issubclass(t, bool) for t in set(map(type, elements))):
        raise ValueError(f"{name} must hold only numbers")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    if array.ndim != len(shape) or not all(
            want in (None, size) for size, want in zip(array.shape, shape)):
        raise ValueError(f"{name} must {what}")
    return array


def check_rows(model, *names) -> None:
    """check_array on each named field of model, which then holds the float
    array, one entry per row of its x."""
    for name in names:
        object.__setattr__(model, name, check_array(
            name, getattr(model, name), (len(model.x),), "hold one entry per row of x"))


def check_type(name: str, value, types, what: str):
    """value itself, refused unless it is an instance of types, which what
    names: 'a KernelSpec'."""
    if not isinstance(value, types):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def read_csv(path, columns) -> tuple[list[str], np.ndarray]:
    """Read the columns ``columns(header)`` names as float64.

    columns raises ValueError for a header it does not accept. Blank rows
    are skipped; each field read equals its ``float()``. ValueError names
    the file, and for a bad row its physical line: text not UTF-8, no
    header, no data rows, a row not as wide as the header, a value not
    finite or not in EXACT_VALUES. The file is read once. Its text is
    parsed in one vectorized pass; a text that fails it is parsed row by
    row from the same text, not re-read, which finds and names the error.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    return _parse_text(text, columns) or _read_rows(path, text, columns)


# np.loadtxt strips \x1c-\x1f around a number, which float() rejects;
# str.splitlines breaks lines at \x0b-\x0c and \x1c-\x1e, which csv does
# not; a quote or NUL needs the csv module.
_ROW_LOOP_CHARS = '"\x00\x0b\x0c\x1c\x1d\x1e\x1f'


def _parse_text(text: str, columns) -> tuple[list[str], np.ndarray] | None:
    """read_csv's result for a text it accepts, from one np.loadtxt call.

    None where the text might need the csv module, loadtxt refuses it, or
    a check fails; _read_rows then decides. On ASCII text free of
    _ROW_LOOP_CHARS a line holds one csv row of unquoted fields, and
    float() reads every field loadtxt accepts to the same bits.
    """
    if not text.isascii() or any(c in text for c in _ROW_LOOP_CHARS):
        return None
    lines = list(filter(None, text.splitlines()))
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    try:
        names = columns(header)
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(lines) - 1, len(header)):
        return None
    if names != header:
        table = table[:, [header.index(c) for c in names]]
    return (names, table) if _valid_cells(names, table).all() else None


def _valid_cells(names: list[str], table: np.ndarray) -> np.ndarray:
    """Mask of the cells that are finite, or in EXACT_VALUES for their column."""
    ok = np.isfinite(table)
    for j, name in enumerate(names):
        if name in EXACT_VALUES:
            ok[:, j] = np.isin(table[:, j], EXACT_VALUES[name])
    return ok


def _read_rows(path: Path, text: str, columns) -> tuple[list[str], np.ndarray]:
    """read_csv on path's text, one csv row at a time, numbered by physical line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(filter(None, reader), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        try:
            names = columns(header)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        picks = None if names == header else [header.index(c) for c in names]
        rows, lines = [], []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: bad row; expected "
                                 f"{len(header)} fields, got {len(row)}")
            fields = row if picks is None else [row[j] for j in picks]
            try:
                rows.append(list(map(float, fields)))
            except ValueError:   # NaN marks the fields the check below names
                rows.append(list(map(_float_or_nan, fields)))
            lines.append(reader.line_num)
    except csv.Error as exc:   # e.g. a field over csv.field_size_limit()
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.array(rows)
    ok = _valid_cells(names, table)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        where, name = f"{path}:{lines[i]}", names[j]
        if name not in EXACT_VALUES:
            raise ValueError(f"{where}: non-finite or non-numeric '{name}' value")
        expected = " or ".join(f"{v:g}" for v in EXACT_VALUES[name])
        raise ValueError(f"{where}: bad or missing '{name}' value; expected {expected}")
    return names, table


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows of str cells in one write.

    The bytes are those of ``csv.writer``'s default dialect: cells joined
    by ",", every row ended by CR LF. So no cell may hold a comma, quote
    or line break, and no row may be one empty cell. Format floats with
    repr of ``.tolist()`` values, which round-trips float64 exactly.
    """
    lines = [",".join(header), *map(",".join, rows), ""]
    with Path(path).open("w", newline="") as fh:
        fh.write("\r\n".join(lines))


def feature_columns(header: list[str]) -> list[str]:
    """Accept a ``y,x1..xp[,is_anomaly]`` or ``x1..xp`` header; return it."""
    start = int(header[0] == "y")
    p = len(header) - start - int(start and header[-1] == "is_anomaly")
    if p < 1:
        raise ValueError("no feature columns found")
    if header[start:start + p] != [f"x{j + 1}" for j in range(p)]:
        raise ValueError(f"feature columns must be named x1..x{p}")
    return header


def features(names: list[str], table: np.ndarray) -> np.ndarray:
    """The x1..xp block of a table read with feature_columns, C-contiguous."""
    start = int(names[0] == "y")
    stop = len(names) - int(names[-1] == "is_anomaly")
    return np.ascontiguousarray(table[:, start:stop])


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with labels in {-1, +1} and optional anomaly flags.

    Attributes
    ----------
    x : ndarray of shape (n, p)
        Feature rows, float64.
    y : ndarray of shape (n,)
        Labels, each -1 or +1.
    anomaly : ndarray of shape (n,) or None
        Ground-truth anomaly flags when known (synthetic training data).
    """

    x: np.ndarray
    y: np.ndarray
    anomaly: np.ndarray | None = None

    def __post_init__(self):
        matrix = "be a matrix with at least one row and one column"
        object.__setattr__(self, "x", check_array("x", self.x, (None, None), matrix))
        if not self.x.size:
            raise ValueError(f"x must {matrix}")
        check_rows(self, "y")
        if not np.isin(self.y, CLASSES).all():
            raise ValueError("labels must be -1 or +1")
        anomaly = self.anomaly
        if anomaly is not None:
            anomaly = np.asarray(anomaly)
            if (anomaly.shape != (self.n,)
                    or not ((anomaly == 0) | (anomaly == 1)).all()):
                raise ValueError("anomaly flags must be 0 or 1, one per row")
            anomaly = anomaly.astype(bool)
        object.__setattr__(self, "y", self.y.astype(int))
        object.__setattr__(self, "anomaly", anomaly)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.y == label)

    def subset(self, idx) -> "LabeledDataset":
        flags = None if self.anomaly is None else self.anomaly[idx]
        return LabeledDataset(self.x[idx], self.y[idx], flags)

    def to_csv(self, path) -> None:
        """Write ``y,x1..xp[,is_anomaly]`` rows; flags only when present."""
        header = ["y"] + [f"x{j + 1}" for j in range(self.dim)]
        cols = [map(str, self.y.tolist())]
        cols += [map(repr, col) for col in self.x.T.tolist()]
        if self.anomaly is not None:
            header.append("is_anomaly")
            cols.append(map(str, self.anomaly.astype(int).tolist()))
        write_csv(path, header, zip(*cols))

    @classmethod
    def from_csv(cls, path) -> "LabeledDataset":
        """Read a ``y,x1..xp[,is_anomaly]`` file with read_csv."""
        names, table = read_csv(path, _labeled_columns)
        flags = table[:, -1] if names[-1] == "is_anomaly" else None
        return cls(features(names, table), table[:, 0], flags)


def _labeled_columns(header: list[str]) -> list[str]:
    if header[0] != "y":
        raise ValueError("first column must be 'y'")
    return feature_columns(header)
