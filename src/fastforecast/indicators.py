"""Technical indicators over OHLCV candle series.

Five indicators feed the forecasting model: simple and exponential moving
averages, Bollinger Bands, the relative strength index and the commodity
channel index.  Each indicator returns a full-length array whose warm-up
entries (before its first complete window) are zeros and must never be
read; ``IndicatorParams.warmup`` is the largest of those offsets.  No NaN
sentinel enters the numeric path.

Conventions (documented so the test oracles agree):
  * EMA is seeded with the n-period SMA at index n-1, then
    ``ema[i] = (p[i] - ema[i-1]) * k + ema[i-1]`` with ``k = 2/(n+1)``.
  * Bollinger bands use the population standard deviation (divide by n).
  * RSI uses plain n-period means of gains and losses; zero average loss
    maps to 100, zero average gain to 0.
  * CCI outputs 0 where the mean absolute deviation is 0 (flat window).

Bollinger, RSI and CCI are reductions over a sliding-window view of the
series and are bitwise equal to the per-row definitions above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, check_field


@dataclass(frozen=True)
class OhlcvSeries:
    """Time-ordered candles with a fixed interval between timestamps.

    Timestamps are epoch seconds, strictly increasing with constant spacing
    equal to ``interval``; every value is finite, the high and low bound the
    open and close, and no volume is negative.  A row that breaks a value
    rule raises a DataError whose ``row`` is its index.
    """

    interval: int
    timestamps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        n = len(self.timestamps)
        for name in ("open", "high", "low", "close", "volume"):
            if len(getattr(self, name)) != n:
                raise DataError(f"column '{name}' length differs from timestamps")
        if self.interval <= 0:
            raise DataError("interval must be positive")
        if n >= 2:
            ts = np.asarray(self.timestamps)
            # the order comparison first: np.diff wraps round in int64, so a
            # step back across the int64 range can look like one interval
            if not (np.all(ts[1:] > ts[:-1]) and np.all(np.diff(ts) == self.interval)):
                raise DataError("timestamps must increase by exactly one interval")
        columns = (self.open, self.high, self.low, self.close, self.volume)
        rules = {"non-finite value in candle data":
                 ~np.logical_and.reduce([np.isfinite(a) for a in columns]),
                 "candle violates high/low envelope":
                 (self.high < np.maximum(self.open, self.close))
                 | (self.low > np.minimum(self.open, self.close)),
                 "negative volume": self.volume < 0}
        bad = np.logical_or.reduce(list(rules.values()))
        if bad.any():  # the first offending row, by the first rule it breaks
            row = int(np.argmax(bad))
            raise DataError(next(rule for rule, broken in rules.items() if broken[row]), row)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class IndicatorParams:
    """Window lengths for the five indicators (conventional defaults)."""

    sma_n: int = 14
    ema_n: int = 14
    bb_n: int = 20
    bb_k: float = 2.0
    rsi_n: int = 14
    cci_n: int = 20

    def __post_init__(self):
        for name in ("sma_n", "ema_n", "rsi_n"):
            check_field(name, getattr(self, name), int, 1)
        for name in ("bb_n", "cci_n"):  # a deviation needs at least 2 points
            check_field(name, getattr(self, name), int, 2)
        check_field("bb_k", self.bb_k, float, above=0)

    @property
    def warmup(self) -> int:
        return max(self.sma_n - 1, self.ema_n - 1, self.bb_n - 1,
                   self.rsi_n, self.cci_n - 1)


def _check_window(prices: np.ndarray, n: int, needed: int) -> None:
    if n < 1:
        raise DataError("window must be >= 1")
    if len(prices) < needed:
        raise DataError(f"need at least {needed} points, got {len(prices)}")


def sma(prices: np.ndarray, n: int) -> np.ndarray:
    """n-period simple moving average; valid from index n-1."""
    prices = np.asarray(prices, dtype=np.float64)
    _check_window(prices, n, n)
    out = np.zeros_like(prices)
    out[n - 1:] = np.convolve(prices, np.ones(n), mode="valid") / n
    return out


def ema(prices: np.ndarray, n: int) -> np.ndarray:
    """n-period exponential moving average, SMA-seeded, k = 2/(n+1)."""
    prices = np.asarray(prices, dtype=np.float64)
    _check_window(prices, n, n)
    k = 2.0 / (n + 1.0)
    out = np.zeros_like(prices)
    # the recurrence on Python floats, the same IEEE operations per element;
    # a memoryview yields them one at a time, with no list of the prices
    out[n - 1:] = np.fromiter(
        itertools.accumulate(memoryview(prices[n:]), lambda e, p: (p - e) * k + e,
                             initial=float(prices[:n].mean())),
        dtype=np.float64, count=len(prices) - n + 1)
    return out


def bollinger(prices: np.ndarray, n: int,
              k: float = 2.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mid, upper, lower): middle band = SMA(n), outer bands at k population
    standard deviations; valid from index n-1."""
    prices = np.asarray(prices, dtype=np.float64)
    if n < 2:
        raise DataError("bollinger needs n >= 2")
    _check_window(prices, n, n)
    mid = sma(prices, n)
    windows = sliding_window_view(prices, n)
    # two-pass population std: immune to cancellation at large price scales
    dev = windows - windows.mean(axis=1, keepdims=True)
    width = np.zeros_like(prices)
    width[n - 1:] = k * np.sqrt((dev * dev).mean(axis=1))
    return mid, mid + width, mid - width


def rsi(prices: np.ndarray, n: int) -> np.ndarray:
    """Relative strength index in [0, 100]; valid from index n."""
    prices = np.asarray(prices, dtype=np.float64)
    _check_window(prices, n, n + 1)
    deltas = np.diff(prices)
    gains = np.maximum(deltas, 0.0)
    losses = np.maximum(-deltas, 0.0)
    avg_gain = sliding_window_view(gains, n).mean(axis=1)
    avg_loss = sliding_window_view(losses, n).mean(axis=1)
    out = np.zeros_like(prices)
    # the quotient's inf/nan where avg_loss == 0 is discarded by np.where
    with np.errstate(divide="ignore", invalid="ignore"):
        out[n:] = np.where(avg_loss == 0.0, 100.0, np.where(
            avg_gain == 0.0, 0.0, 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)))
    return out


def typical_price(high: np.ndarray, low: np.ndarray, close: np.ndarray) -> np.ndarray:
    return (np.asarray(high, dtype=np.float64) + np.asarray(low, dtype=np.float64)
            + np.asarray(close, dtype=np.float64)) / 3.0


def cci(series: OhlcvSeries, n: int) -> np.ndarray:
    """Commodity channel index over the typical price; valid from index n-1,
    0 where the window is flat."""
    if n < 2:
        raise DataError("cci needs n >= 2")
    tp = typical_price(series.high, series.low, series.close)
    _check_window(tp, n, n)
    windows = sliding_window_view(tp, n)
    ma = windows.mean(axis=1)
    dev = np.abs(windows - ma[:, None]).mean(axis=1)
    out = np.zeros_like(tp)
    # the quotient's inf/nan on flat windows (dev == 0) is discarded by np.where
    with np.errstate(divide="ignore", invalid="ignore"):
        out[n - 1:] = np.where(dev == 0.0, 0.0, (tp[n - 1:] - ma) / (0.015 * dev))
    return out


FEATURE_COLUMNS = ("close", "sma", "ema", "bb_mid", "bb_upper", "bb_lower", "rsi", "cci")
RAW_COLUMNS = ("open", "high", "low", "close", "volume")


@dataclass
class FeatureMatrix:
    """Per-timestep model inputs with a validity offset for warm-up rows."""

    columns: tuple
    values: np.ndarray
    warmup: int


def build_features(series: OhlcvSeries, params: IndicatorParams) -> FeatureMatrix:
    """Assemble the eight-column feature matrix from close prices and candles."""
    warm = params.warmup
    if len(series) <= warm:
        raise DataError(f"series of {len(series)} rows shorter than warm-up {warm}")
    close = np.asarray(series.close, dtype=np.float64)
    values = np.column_stack([
        close, sma(close, params.sma_n), ema(close, params.ema_n),
        *bollinger(close, params.bb_n, params.bb_k),
        rsi(close, params.rsi_n), cci(series, params.cci_n),
    ])
    return FeatureMatrix(FEATURE_COLUMNS, values, warm)


def raw_features(series: OhlcvSeries) -> FeatureMatrix:
    """OHLCV columns only (the indicator-free model input); no warm-up."""
    values = np.column_stack([
        series.open, series.high, series.low, series.close, series.volume,
    ]).astype(np.float64)
    return FeatureMatrix(RAW_COLUMNS, values, 0)
