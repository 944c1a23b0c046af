"""CSV ingestion, window datasets, normalization and the evaluation metrics.

Input CSV format: header ``timestamp,open,high,low,close,volume``, UTF-8
with or without a byte-order mark, lines ending in ``\n``, ``\r\n`` or
``\r``.  Every other line that is not blank or whitespace-only is a row of
six comma-separated fields: an integer epoch-second timestamp, then five
numbers with a ``.`` decimal separator.  Numbers are ASCII (no ``_``
separators, no non-ASCII digits); a field may be padded with whitespace and
wrapped in ``"``, but may not hold a line break.  ``#`` starts no comment: a
``#`` line is a malformed row.  Every malformed row is rejected with its
line number.  Rows must be strictly increasing in time; any other spacing
than the declared interval is a gap — the series is split at gaps and the
longest contiguous segment is kept, with one warning per file that counts
the gaps and names the first.  Duplicate or decreasing timestamps are
rejected outright with the offending line number.

Dataset construction slides a length-L window over the valid (post warm-up)
feature rows; the target is the next close.  The split is chronological and
the per-column z-score statistics are fitted on training rows only, so no
information from validation or test rows leaks into the transform.
``Dataset.windows`` is a read-only (N, L, F) view over the normalized rows;
callers copy it before writing.
"""

from __future__ import annotations

import contextlib
import csv
import logging
import operator
import os
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .indicators import (
    FeatureMatrix,
    IndicatorParams,
    OhlcvSeries,
    build_features,
    raw_features,
)

logger = logging.getLogger("fastforecast.data")

INTERVALS = {"hourly": 3600, "daily": 86400}

CSV_HEADER = ["timestamp", "open", "high", "low", "close", "volume"]


def parse_interval(value) -> int:
    if isinstance(value, str):
        if value not in INTERVALS:
            raise DataError(f"unknown interval '{value}' (use hourly/daily or seconds)")
        return INTERVALS[value]
    if isinstance(value, bool) or not float(value).is_integer():
        raise DataError(f"interval must be a whole number of seconds, got {value!r}")
    iv = int(value)
    if iv <= 0:
        raise DataError("interval must be positive")
    return iv


# one record per data row: the epoch-second timestamp, then the five candle columns
_ROW_DTYPE = np.dtype([("timestamp", "<i8")] + [(name, "<f8") for name in CSV_HEADER[1:]])


def load_csv(path, interval) -> OhlcvSeries:
    """Parse an OHLCV CSV into a gap-free series.

    Keeps the longest contiguous segment when the file contains gaps; raises
    :class:`DataError` (with the line number) for malformed rows, fields over
    ``csv.field_size_limit()``, timestamps outside the int64 range, duplicate
    or decreasing timestamps, text that is not UTF-8, and empty files.  A
    UTF-8 byte-order mark is skipped.
    """
    interval = parse_interval(interval)
    try:
        # universal newlines: "\r\n" and a lone "\r" end a line, as for csv.reader
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not text:
        raise DataError(f"{path}: empty file")
    head, *body = text.split("\n")
    try:
        header = next(csv.reader([head]))
    except csv.Error as exc:
        raise DataError(f"{path}:1: {exc}") from None
    if [h.strip().lower() for h in header] != CSV_HEADER:
        raise DataError(f"{path}: header {header} != {CSV_HEADER}")
    rows = list(filter(str.strip, body))  # blank and whitespace-only lines are skipped
    if not rows:
        raise DataError(f"{path}: no data rows")
    if _numpy_is_laxer(text, rows):
        _check_rows(path)
    try:
        with warnings.catch_warnings():
            # older numpy parses "1.0" into an int64 column with only a warning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(rows, dtype=_ROW_DTYPE, delimiter=",", comments=None,
                               quotechar='"', ndmin=1)
    except (ValueError, DeprecationWarning):
        _check_rows(path)
        raise DataError(f"{path}: rows could not be parsed") from None

    # split into contiguous segments at gaps; reject non-increasing stamps.
    # The comparison catches a step back that np.diff wraps round to +interval.
    ts = table["timestamp"]
    breaks = np.flatnonzero((np.diff(ts) != interval) | (ts[1:] <= ts[:-1])) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(ts)]))
    best = int(np.argmax(ends - starts))
    keep = slice(starts[best], ends[best])
    if len(breaks):
        lines = _data_line_numbers(body)
        for i in breaks:
            delta = int(ts[i]) - int(ts[i - 1])
            if delta <= 0:
                kind = "duplicate" if delta == 0 else "decreasing"
                raise DataError(f"{path}:{lines[i]}: {kind} timestamp {ts[i]}")
        first = breaks[0]
        logger.warning("%s: %d gap(s), the first at line %d (%ds, expected %ds); "
                       "kept the longest contiguous segment, %d of %d rows",
                       path, len(breaks), lines[first], int(ts[first]) - int(ts[first - 1]),
                       interval, ends[best] - starts[best], len(ts))

    try:
        return OhlcvSeries(interval, *(table[name][keep] for name in _ROW_DTYPE.names))
    except DataError as exc:
        if exc.row is not None:  # a value rule: name the row's line
            path = f"{path}:{_data_line_numbers(body)[keep.start + exc.row]}"
        raise DataError(f"{path}: {exc}") from None


def _numpy_is_laxer(text, rows) -> bool:
    """Whether ``rows`` may hold what numpy parses but the CSV contract
    rejects: a field over ``csv.field_size_limit()``, or a quote left open at
    the end of a line, which numpy closes on a later line."""
    if max(map(len, rows)) > csv.field_size_limit():
        return True
    if '"' not in text:
        return False
    quotes = np.fromiter(map(operator.methodcaller("count", '"'), rows), dtype=np.int64,
                         count=len(rows))
    return bool(np.any(quotes % 2))


def _data_line_numbers(body) -> np.ndarray:
    """File line number of each data row, given the lines after the header."""
    kept = np.fromiter(map(bool, map(str.strip, body)), dtype=bool, count=len(body))
    return np.flatnonzero(kept) + 2


def _check_rows(path) -> None:
    """Raise the :class:`DataError` of the first malformed data row of
    ``path``, naming its line; return if there is none.

    :func:`load_csv` calls this only when its one parse has failed, or may
    have accepted a row that the contract rejects.  numpy's row numbers do
    not count skipped lines, so this re-reads the file to name the line.
    The rules are those of that parse, plus csv's field size limit: six
    fields, an int64 timestamp, ASCII numbers with no ``_`` separators, no
    line break inside a quoted field.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        next(fh)  # the header, already checked
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                row = next(csv.reader([line]))
            except csv.Error as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if len(row) != 6:
                raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            values = []
            for kind, field in zip((int, float, float, float, float, float), row):
                if "\n" in field or "\r" in field:
                    raise DataError(f"{path}:{lineno}: line break inside a quoted field")
                number = field.strip()
                if not number.isascii() or "_" in number:
                    raise DataError(f"{path}:{lineno}: {field!r} is not a plain ASCII number")
                try:
                    values.append(kind(number))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
            if not -2**63 <= values[0] < 2**63:
                raise DataError(f"{path}:{lineno}: timestamp {values[0]} outside the int64 range")


# ---------------------------------------------------------------------------
# normalization and datasets
# ---------------------------------------------------------------------------

@dataclass
class ColumnStats:
    """Per-column affine statistics; the target uses the close column's pair."""

    columns: tuple
    mean: np.ndarray
    std: np.ndarray
    target_index: int

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean

    def normalize_target(self, y):
        return (np.asarray(y) - self.mean[self.target_index]) / self.std[self.target_index]

    def denormalize_target(self, y):
        return np.asarray(y) * self.std[self.target_index] + self.mean[self.target_index]

    def to_dict(self) -> dict:
        return {"columns": list(self.columns), "mean": self.mean.tolist(),
                "std": self.std.tolist(), "target_index": self.target_index}

    @staticmethod
    def from_dict(d: dict) -> "ColumnStats":
        unknown = set(d) - {"columns", "mean", "std", "target_index"}
        if unknown:
            raise DataError(f"unknown statistics fields {sorted(unknown)}")
        columns, target = tuple(d["columns"]), d["target_index"]
        if "close" not in columns or type(target) is not int or target != columns.index("close"):
            raise DataError(f"target_index {target!r} is not the index of 'close' in {columns}")
        stats = ColumnStats(columns, np.asarray(d["mean"], dtype=np.float64),
                            np.asarray(d["std"], dtype=np.float64), target)
        n = len(columns)
        if stats.mean.shape != (n,) or stats.std.shape != (n,):
            raise DataError(f"statistics do not match their {n} columns")
        if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()
                and (stats.std > 0).all()):
            raise DataError("statistics need a finite mean and a finite, positive std")
        return stats


@dataclass
class SplitRanges:
    train: range
    validation: range
    test: range

    def named(self) -> dict:
        return {"train": self.train, "validation": self.validation, "test": self.test}


@dataclass
class Dataset:
    """Sliding windows (normalized) with chronological train/val/test ranges."""

    windows: np.ndarray  # (N, L, F) normalized, a read-only view: copy before writing
    targets: np.ndarray  # (N,) normalized next close
    raw_targets: np.ndarray  # (N,) price-scale next close
    target_times: np.ndarray  # (N,) epoch seconds of the predicted candle
    columns: tuple
    split: SplitRanges
    norm: ColumnStats

    def windows_for(self, split_name: str):
        r = self.split.named()[split_name]
        return self.windows[r.start:r.stop], self.targets[r.start:r.stop]

    @property
    def window_length(self) -> int:
        return self.windows.shape[1]

    @property
    def n_features(self) -> int:
        return self.windows.shape[2]


SPLIT_FRACTIONS = (0.70, 0.15, 0.15)


def make_dataset(series: OhlcvSeries, params: IndicatorParams | None, window: int,
                 split_fractions=SPLIT_FRACTIONS,
                 norm: ColumnStats | None = None) -> Dataset:
    """Build normalized sliding windows with a chronological split; the
    features are the indicators of ``params``, or the raw OHLCV columns when
    it is None.  The statistics are fitted on the training rows unless
    ``norm`` is given."""
    if window < 1:
        raise DataError("window length must be >= 1")
    if len(split_fractions) != 3 or abs(sum(split_fractions) - 1.0) > 1e-9 \
            or not all(0.0 <= f <= 1.0 for f in split_fractions):
        raise DataError("split fractions must be three values in [0, 1] summing to 1")
    fm: FeatureMatrix = raw_features(series) if params is None else build_features(series, params)
    valid = fm.values[fm.warmup:]
    times = series.timestamps[fm.warmup:]
    close_idx = fm.columns.index("close")
    n_windows = len(valid) - window
    if n_windows < 1:
        raise DataError(
            f"need at least warm-up + window + 1 = {fm.warmup + window + 1} rows, "
            f"got {len(series)}")

    # validation/test may come out empty for very short series; training
    # always gets at least one window
    n_train = max(1, int(np.floor(split_fractions[0] * n_windows)))
    n_val = min(int(np.floor(split_fractions[1] * n_windows)), n_windows - n_train)
    split = SplitRanges(range(0, n_train), range(n_train, n_train + n_val),
                        range(n_train + n_val, n_windows))

    if norm is None:
        # statistics from rows visible to training only: feature rows of train
        # windows plus their targets, i.e. valid rows [0, n_train + window)
        train_rows = valid[:n_train + window]
        mean = train_rows.mean(axis=0)
        std = train_rows.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)  # constant columns map to 0
        norm = ColumnStats(fm.columns, mean, std, close_idx)
    elif tuple(norm.columns) != tuple(fm.columns):
        raise DataError(f"fitted statistics cover columns {list(norm.columns)}, "
                        f"the dataset has {list(fm.columns)}")

    normalized = norm.normalize(valid)
    windows = np.moveaxis(sliding_window_view(normalized, window, axis=0)[:n_windows], -1, 1)
    raw_targets = valid[window:window + n_windows, close_idx].copy()
    targets = norm.normalize_target(raw_targets)
    target_times = times[window:window + n_windows].copy()
    return Dataset(windows, targets, raw_targets, target_times, fm.columns, split, norm)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _pair(y, y_hat):
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise DataError(f"metric inputs must be equal-length vectors, got {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise DataError("metric inputs are empty")
    return y, y_hat


def mse(y, y_hat) -> float:
    y, y_hat = _pair(y, y_hat)
    d = y - y_hat
    return float(np.mean(d * d))


def rmse(y, y_hat) -> float:
    return float(np.sqrt(mse(y, y_hat)))


def r_square(y, y_hat) -> float:
    """1 - Var(y - y_hat)/Var(y), population variances.

    This is the variance-ratio form, which matches the conventional
    coefficient of determination only when the residuals have zero mean.
    """
    y, y_hat = _pair(y, y_hat)
    if y.size < 2:
        raise DataError("r_square needs at least two points")
    var_y = float(np.var(y))
    if var_y == 0.0:
        raise DataError("r_square undefined for constant y")
    return 1.0 - float(np.var(y - y_hat)) / var_y


def msle(y, y_hat) -> float:
    """Mean of (log(y+1) - log(y_hat+1))^2; needs all values > -1."""
    y, y_hat = _pair(y, y_hat)
    if np.any(y <= -1.0) or np.any(y_hat <= -1.0):
        raise DataError("msle requires all values > -1")
    d = np.log1p(y) - np.log1p(y_hat)
    return float(np.mean(d * d))


@dataclass
class MetricSet:
    mse: float
    rmse: float
    r_square: float
    msle: float

    def to_dict(self) -> dict:
        # fixed emission order: MSE, RMSE, R-Square, MSLE
        return {"MSE": self.mse, "RMSE": self.rmse,
                "R-Square": self.r_square, "MSLE": self.msle}


def evaluate_metrics(y, y_hat) -> MetricSet:
    return MetricSet(mse(y, y_hat), rmse(y, y_hat), r_square(y, y_hat), msle(y, y_hat))


# ---------------------------------------------------------------------------
# atomic artifact writes
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def atomic_write(path, mode: str, **open_kwargs):
    """Open a temporary file next to ``path`` for writing.

    When the block finishes, the file is flushed, fsynced and renamed over
    ``path`` in one step (``os.replace``).  When the block raises, the
    temporary file is removed and any earlier file at ``path`` is left as it
    was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """Write a header line and rows as UTF-8 CSV, atomically."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


PREDICTION_HEADER = ["timestamp", "actual", "predicted"]


def write_predictions(path, timestamps, actual, predicted) -> None:
    write_csv(path, PREDICTION_HEADER,
              ([int(ts), repr(float(a)), repr(float(p))]
               for ts, a, p in zip(timestamps, actual, predicted)))
