"""Monthly series preprocessing and sliding-window normal equations.

The forecasting pipeline all runs on first differences scaled into
[-HALF_WIDTH, HALF_WIDTH]. Sliding windows of m consecutive scaled
differences predict the next one; stacking the windows gives X w ~= y and
the normal equations A = X^T X, b = X^T y. `preprocess` makes the
differencing, split and scaling decisions for the pipeline and for every
command-line entry point.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass
from datetime import date

import numpy as np

HALF_WIDTH = 0.25
SINGULAR_FLOOR = 1e-300
PINV_RCOND = 1e-10


def add_months(day: date, count: int) -> date:
    months = day.year * 12 + (day.month - 1) + count
    return date(months // 12, months % 12 + 1, day.day)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly spaced monthly observations."""

    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or len(dates) != values.size:
            raise ValueError(f"{len(dates)} dates but {values.size} values")
        if len(dates) < 2:
            raise ValueError("need at least two observations")
        for prev, cur in zip(dates, dates[1:]):
            month_gap = (cur.year - prev.year) * 12 + (cur.month - prev.month)
            if month_gap != 1 or cur.day != prev.day:
                raise ValueError(f"dates {prev} and {cur} are not one month apart")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def difference(series: TimeSeries) -> TimeSeries:
    """First differences; entry t is value[t+1] - value[t], dated at t+1."""
    return TimeSeries(series.dates[1:], np.diff(series.values))


def invert_difference(diffs: TimeSeries, anchor: float) -> TimeSeries:
    """Cumulative sums starting from (but not including) the anchor value."""
    return TimeSeries(diffs.dates, anchor + np.cumsum(diffs.values))


@dataclass(frozen=True)
class Scaler:
    """Maps differences into [-HALF_WIDTH, HALF_WIDTH] by the training max."""

    max_abs: float

    def apply(self, values):
        return np.asarray(values, dtype=float) * (HALF_WIDTH / self.max_abs)

    def invert(self, values):
        return np.asarray(values, dtype=float) * (self.max_abs / HALF_WIDTH)


def fit_scaler(values) -> Scaler:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot fit a scaler to an empty sample")
    max_abs = float(np.max(np.abs(values)))
    if max_abs == 0.0:
        raise ValueError("all-zero sample leaves the scale undefined")
    return Scaler(max_abs=max_abs)


@dataclass(frozen=True)
class WindowSystem:
    """Rows of X are m consecutive values; y holds the value that follows."""

    X: np.ndarray
    y: np.ndarray
    window: int


def build_windows(values, window: int) -> WindowSystem:
    values = np.asarray(values, dtype=float)
    if window < 1:
        raise ValueError("window must be at least 1")
    count = values.size - window
    if count < 1:
        raise ValueError(f"need more than {window} values, got {values.size}")
    X = np.empty((count, window))
    for i in range(count):
        X[i] = values[i:i + window]
    y = values[window:].copy()
    return WindowSystem(X=X, y=y, window=window)


@dataclass(frozen=True)
class NormalSystem:
    A: np.ndarray
    b: np.ndarray


def normal_equations(system: WindowSystem) -> NormalSystem:
    A = system.X.T @ system.X
    A = (A + A.T) / 2.0  # force exact symmetry
    b = system.X.T @ system.y
    return NormalSystem(A=A, b=b)


def solve_classical(system: NormalSystem) -> np.ndarray:
    """Minimum-norm least-squares solution of A w = b via the pseudoinverse."""
    return np.linalg.pinv(system.A, rcond=PINV_RCOND, hermitian=True) @ system.b


def condition_number(matrix: np.ndarray) -> float:
    """Ratio of extreme singular values of a real or complex matrix; +inf
    for numerically singular input."""
    sigma = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    if sigma[-1] <= SINGULAR_FLOOR:
        return math.inf
    return float(sigma[0] / sigma[-1])


def predict_next(weights, window) -> float:
    weights = np.asarray(weights, dtype=float)
    window = np.asarray(window, dtype=float)
    if weights.shape != window.shape:
        raise ValueError(f"weights shape {weights.shape} != window {window.shape}")
    return float(weights @ window)


def split_mask(dates, split_date: date) -> np.ndarray:
    """True for dates strictly before the split (the training region)."""
    return np.array([d < split_date for d in dates])


@dataclass(frozen=True)
class Preprocessed:
    """A series, its scaled first differences, and where the split falls.

    `train` is True for the differences dated before the split; the scaler
    was fitted to those alone.
    """

    series: TimeSeries
    split_date: date
    scaler: Scaler
    scaled: TimeSeries
    train: np.ndarray

    def windows(self, window: int) -> tuple[WindowSystem, np.ndarray]:
        """Sliding windows over the scaled differences, and the mask of the
        rows whose label is dated before the split."""
        windows = build_windows(self.scaled.values, window)
        train_rows = self.train[window:]
        if not train_rows.any():
            raise ValueError("window %d leaves no training rows before %s"
                             % (window, self.split_date))
        return windows, train_rows

    def to_units(self, scaled_preds, window: int):
        """Dates, actual values and predictions in original units, one per
        window row.

        Row j predicts the step from series value j + window to the next
        one, so its prediction is that previous actual value plus the
        unscaled difference.
        """
        predicted = (self.series.values[window:-1]
                     + self.scaler.invert(scaled_preds))
        return (self.series.dates[window + 1:],
                self.series.values[window + 1:], predicted)


def preprocess(series: TimeSeries, split_date: date) -> Preprocessed:
    """Difference the series and scale it by its largest pre-split change."""
    diffs = difference(series)
    train = split_mask(diffs.dates, split_date)
    if not train.any():
        raise ValueError("no observations before the split date %s"
                         % split_date)
    scaler = fit_scaler(diffs.values[train])
    return Preprocessed(series=series, split_date=split_date, scaler=scaler,
                        scaled=TimeSeries(diffs.dates,
                                          scaler.apply(diffs.values)),
                        train=train)


def read_series_csv(path, value_column: str | None = None) -> TimeSeries:
    """Load a Date,<value> CSV with ISO dates; errors carry line numbers."""
    dates, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0].strip() != "Date":
            raise ValueError(f"{path}: expected a 'Date,<value>' header")
        if value_column is None:
            col = 1
        else:
            try:
                col = header.index(value_column)
            except ValueError:
                raise ValueError(f"{path}: no column {value_column!r}") from None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                dates.append(date.fromisoformat(row[0].strip()))
                values.append(float(row[col]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not dates:
        raise ValueError(f"{path}: no data rows")
    return TimeSeries(tuple(dates), np.array(values))


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Open a temp file next to `path` for writing; when the block finishes
    without error, rename it over `path`."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline=newline) as fh:
        yield fh
    os.replace(tmp, path)


def write_csv(path, header, rows) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(path, series: TimeSeries) -> None:
    write_csv(path, ("Date", "Sales"),
              [(d.isoformat(), "%.2f" % v) for d, v in zip(series.dates, series.values)])


def write_scaled_csv(path, scaled: TimeSeries) -> None:
    """Date,Value rows with every value at full precision."""
    write_csv(path, ("Date", "Value"),
              [(d.isoformat(), repr(float(v)))
               for d, v in zip(scaled.dates, scaled.values)])


def write_predictions_csv(path, dates, actual, predicted) -> None:
    write_csv(path, ("Date", "Actual", "Predicted"),
              [(d.isoformat(), "%.2f" % a, "%.2f" % p)
               for d, a, p in zip(dates, actual, predicted)])


def write_trace_csv(path, trace, label: str) -> None:
    """One row per trace entry: its index and value."""
    write_csv(path, ("iteration", label),
              [(i, repr(float(v))) for i, v in enumerate(trace)])
