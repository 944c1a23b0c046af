"""Indicator tests: hand-computed cases, brute-force oracles, invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastforecast.errors import DataError
from fastforecast.indicators import (
    FEATURE_COLUMNS,
    IndicatorParams,
    OhlcvSeries,
    bollinger,
    build_features,
    cci,
    ema,
    raw_features,
    rsi,
    sma,
    typical_price,
)


def make_series(close, interval=3600, spread=0.0, volume=1000.0):
    """Candles around a close path; open is the previous close."""
    close = np.asarray(close, dtype=np.float64)
    opn = np.concatenate([[close[0]], close[:-1]])
    high = np.maximum(opn, close) + spread
    low = np.minimum(opn, close) - spread
    ts = np.arange(len(close), dtype=np.int64) * interval
    vol = np.full(len(close), volume)
    return OhlcvSeries(interval, ts, opn, high, low, close, vol)


def random_walk(n, seed, start=100.0, step=1.0):
    rng = np.random.default_rng(seed)
    return start + np.cumsum(rng.standard_normal(n) * step)


# --- brute-force oracles: written independently of the library internals ---

def valid(values, start):
    """An indicator's values from its first valid index ``start`` on, after
    checking that the warm-up entries before it are zero-filled."""
    np.testing.assert_array_equal(values[:start], 0.0)
    return values[start:]


def sma_oracle(prices, n, i):
    return float(np.sum(prices[i - n + 1:i + 1]) / n)


def ema_oracle(prices, n):
    """Second, independent coding of the recurrence."""
    k = 2.0 / (n + 1.0)
    vals = [float(np.mean(prices[:n]))]
    for p in prices[n:]:
        vals.append(vals[-1] + k * (float(p) - vals[-1]))
    return np.array(vals)


def bollinger_oracle(prices, n, k, i):
    w = prices[i - n + 1:i + 1]
    mean = float(np.sum(w)) / n
    var = float(np.sum((w - mean) ** 2)) / n
    std = var ** 0.5
    return mean, mean + k * std, mean - k * std


def rsi_oracle(prices, n, i):
    gains, losses = [], []
    for j in range(i - n + 1, i + 1):
        d = prices[j] - prices[j - 1]
        gains.append(max(d, 0.0))
        losses.append(max(-d, 0.0))
    ag, al = float(np.mean(gains)), float(np.mean(losses))
    if al == 0.0:
        return 100.0
    if ag == 0.0:
        return 0.0
    return 100.0 - 100.0 / (1.0 + ag / al)


def cci_oracle(high, low, close, n, i):
    tp = (high + low + close) / 3.0
    w = tp[i - n + 1:i + 1]
    ma = float(np.mean(w))
    dev = float(np.mean(np.abs(w - ma)))
    if dev == 0.0:
        return 0.0
    return (tp[i] - ma) / (0.015 * dev)


class TestSma:
    def test_three_point_mean(self):
        out = sma([1.0, 2.0, 3.0], 3)
        np.testing.assert_array_equal(out[:2], 0.0)
        assert out[2] == pytest.approx(2.0)

    def test_constant_series(self):
        out = sma([5.0, 5.0, 5.0, 5.0], 2)
        np.testing.assert_array_equal(valid(out, 1), [5.0, 5.0, 5.0])

    def test_matches_resummation_oracle(self):
        prices = random_walk(100, seed=7)
        out = sma(prices, 14)
        for i in range(13, 100):
            assert out[i] == pytest.approx(sma_oracle(prices, 14, i), abs=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            sma([1.0, 2.0], 3)


class TestEma:
    def test_n1_is_identity(self):
        prices = np.array([3.0, 1.0, 4.0, 1.5])
        out = ema(prices, 1)
        np.testing.assert_array_equal(out[:0], 0.0)
        np.testing.assert_allclose(out, prices, atol=1e-15)

    def test_constant_fixed_point(self):
        out = ema(np.full(20, 7.25), 5)
        np.testing.assert_allclose(valid(out, 4), np.full(16, 7.25), atol=1e-15)

    def test_hand_recurrence(self):
        # seed = mean(10, 11) = 10.5; then 11.5 and 12.5 by the k=2/3 recurrence
        out = ema([10.0, 11.0, 12.0, 13.0], 2)
        np.testing.assert_array_equal(out[:1], 0.0)
        np.testing.assert_allclose(out[1:], [10.5, 11.5, 12.5], atol=1e-12)

    def test_matches_independent_recurrence(self):
        prices = random_walk(200, seed=11)
        out = ema(prices, 14)
        np.testing.assert_allclose(valid(out, 13), ema_oracle(prices, 14), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 14])
    def test_matches_per_row_numpy_loop_bitwise(self, n):
        """The same operations per element as a loop over numpy float64
        scalars in the array itself, byte for byte."""
        prices = random_walk(600, seed=n)
        k = 2.0 / (n + 1.0)
        expect = np.zeros_like(prices)
        expect[n - 1] = prices[:n].mean()
        for i in range(n, len(prices)):
            expect[i] = (prices[i] - expect[i - 1]) * k + expect[i - 1]
        assert ema(prices, n).tobytes() == expect.tobytes()


class TestBollinger:
    def test_constant_series_bands_collapse(self):
        mid, upper, lower = bollinger(np.full(10, 4.0), 5, 2.0)
        np.testing.assert_array_equal(valid(mid, 4), valid(upper, 4))
        np.testing.assert_array_equal(valid(mid, 4), valid(lower, 4))

    def test_two_point_window(self):
        mid, upper, lower = bollinger([1.0, 3.0], 2, 2.0)
        assert mid[1] == pytest.approx(2.0)
        assert upper[1] == pytest.approx(4.0)
        assert lower[1] == pytest.approx(0.0)

    def test_matches_two_pass_oracle(self):
        prices = random_walk(300, seed=13, start=40000.0, step=120.0)
        mid, upper, lower = bollinger(prices, 20, 2.0)
        for i in range(19, 300, 7):
            m, u, low = bollinger_oracle(prices, 20, 2.0, i)
            assert mid[i] == pytest.approx(m, abs=1e-10)
            assert upper[i] == pytest.approx(u, abs=1e-10)
            assert lower[i] == pytest.approx(low, abs=1e-10)

    def test_band_ordering(self):
        prices = random_walk(200, seed=17)
        mid, upper, lower = bollinger(prices, 20, 2.0)
        assert np.all(valid(lower, 19) <= valid(mid, 19))
        assert np.all(valid(mid, 19) <= valid(upper, 19))


class TestRsi:
    def test_strictly_increasing_is_100(self):
        out = rsi(np.arange(1.0, 30.0), 14)
        np.testing.assert_array_equal(valid(out, 14), np.full(len(valid(out, 14)), 100.0))

    def test_strictly_decreasing_is_0(self):
        out = rsi(np.arange(30.0, 1.0, -1.0), 14)
        np.testing.assert_array_equal(valid(out, 14), np.zeros(len(valid(out, 14))))

    def test_alternating_deltas_give_50(self):
        prices = 10.0 + np.cumsum(np.tile([1.0, -1.0], 10))
        prices = np.concatenate([[10.0], prices])
        out = rsi(prices, 14)
        np.testing.assert_allclose(valid(out, 14), 50.0, atol=1e-12)

    def test_matches_direct_oracle(self):
        prices = random_walk(250, seed=19)
        out = rsi(prices, 14)
        for i in range(14, 250, 5):
            assert out[i] == pytest.approx(rsi_oracle(prices, 14, i), abs=1e-10)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_bounds_hold_for_random_walks(self, seed):
        prices = random_walk(60, seed=seed)
        out = rsi(prices, 14)
        assert np.all(valid(out, 14) >= 0.0)
        assert np.all(valid(out, 14) <= 100.0)


class TestCci:
    def test_constant_candles_zero(self):
        series = make_series(np.full(30, 25.0))
        out = cci(series, 20)
        np.testing.assert_array_equal(valid(out, 19), np.zeros(len(valid(out, 19))))

    def test_zero_when_tp_equals_window_mean(self):
        # symmetric window: last typical price equals the window mean
        close = np.array([10.0, 12.0, 14.0, 12.0, 10.0, 12.0])
        series = make_series(close)
        tp = typical_price(series.high, series.low, series.close)
        n = 5
        i = len(close) - 1
        window = tp[i - n + 1:i + 1]
        if abs(tp[i] - window.mean()) < 1e-12:
            out = cci(series, n)
            assert out[i] == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(23)
        close = random_walk(200, seed=29)
        series = make_series(close, spread=0.5)
        out = cci(series, 20)
        for i in range(19, 200, 4):
            expect = cci_oracle(series.high, series.low, series.close, 20, i)
            assert out[i] == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("close", [np.full(40, 25.0), np.arange(1.0, 41.0),
                                   np.arange(40.0, 0.0, -1.0)],
                         ids=["constant", "rising", "falling"])
def test_masked_quotients_raise_no_warnings(close):
    """Zero average loss or gain and flat windows produce no numpy warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rsi(close, 14)
        cci(make_series(close), 20)
        bollinger(close, 20, 2.0)


class TestBuildFeatures:
    def test_constant_series_columns(self):
        series = make_series(np.full(60, 20.0))
        fm = build_features(series, IndicatorParams())
        vals = fm.values[fm.warmup:]
        cols = dict(zip(fm.columns, vals.T))
        np.testing.assert_array_equal(cols["close"], 20.0 * np.ones(len(vals)))
        np.testing.assert_array_equal(cols["sma"], cols["close"])
        np.testing.assert_array_equal(cols["ema"], cols["close"])
        np.testing.assert_array_equal(cols["bb_mid"], cols["bb_upper"])
        np.testing.assert_array_equal(cols["rsi"], np.full(len(vals), 100.0))
        np.testing.assert_array_equal(cols["cci"], np.zeros(len(vals)))

    def test_warmup_is_max_of_individual_warmups(self):
        p = IndicatorParams(sma_n=5, ema_n=9, bb_n=12, rsi_n=14, cci_n=3)
        series = make_series(random_walk(80, seed=31))
        fm = build_features(series, p)
        assert fm.warmup == max(5 - 1, 9 - 1, 12 - 1, 14, 3 - 1)

    def test_columns_equal_individual_ops(self):
        params = IndicatorParams()
        close = random_walk(120, seed=37)
        series = make_series(close, spread=0.3)
        fm = build_features(series, params)
        w = fm.warmup
        np.testing.assert_array_equal(fm.values[w:, 0], close[w:])
        np.testing.assert_array_equal(fm.values[w:, 1], sma(close, params.sma_n)[w:])
        np.testing.assert_array_equal(fm.values[w:, 2], ema(close, params.ema_n)[w:])
        mid, upper, lower = bollinger(close, params.bb_n, params.bb_k)
        np.testing.assert_array_equal(fm.values[w:, 3], mid[w:])
        np.testing.assert_array_equal(fm.values[w:, 4], upper[w:])
        np.testing.assert_array_equal(fm.values[w:, 5], lower[w:])
        np.testing.assert_array_equal(fm.values[w:, 6], rsi(close, params.rsi_n)[w:])
        np.testing.assert_array_equal(fm.values[w:, 7], cci(series, params.cci_n)[w:])
        assert fm.columns == FEATURE_COLUMNS

    def test_too_short_series_rejected(self):
        series = make_series(np.full(10, 5.0))
        with pytest.raises(DataError):
            build_features(series, IndicatorParams())

    def test_step_back_across_the_int64_range_rejected(self):
        """The int64 difference of these two timestamps wraps round to exactly
        one interval, although the second is far before the first."""
        ts = np.array([2**63 - 1, -2**63 + 3599], dtype=np.int64)
        with np.errstate(over="ignore"):
            assert np.diff(ts)[0] == 3600
        prices = np.full(2, 5.0)
        with pytest.raises(DataError, match="exactly one interval"):
            OhlcvSeries(3600, ts, prices, prices, prices, prices, np.ones(2))

    def test_raw_features_have_no_warmup(self):
        series = make_series(random_walk(30, seed=41))
        fm = raw_features(series)
        assert fm.warmup == 0
        assert fm.columns == ("open", "high", "low", "close", "volume")
        assert fm.values.shape == (30, 5)


class TestShiftEquivariance:
    """Dropping the first t rows then recomputing matches recompute-then-drop.

    Window-local indicators match exactly.  The SMA-seeded EMA is only
    asymptotically shift-equivariant: the seed difference decays by (1-k)
    per step, so it is compared after a burn-in that drives the decay far
    below the tolerance.
    """

    @pytest.mark.parametrize("t", [1, 5, 17])
    def test_window_local_indicators(self, t):
        close = random_walk(160, seed=43)
        series = make_series(close, spread=0.2)
        n = 14
        full_sma = sma(close, n)[t:]
        drop_sma = sma(close[t:], n)
        np.testing.assert_allclose(full_sma[n - 1:], drop_sma[n - 1:], atol=1e-12)

        full_rsi = rsi(close, n)[t:]
        drop_rsi = rsi(close[t:], n)
        np.testing.assert_allclose(full_rsi[n:], drop_rsi[n:], atol=1e-12)

        bb_full = bollinger(close, 20)[1][t:]
        bb_drop = bollinger(close[t:], 20)[1]
        np.testing.assert_allclose(bb_full[19:], bb_drop[19:], atol=1e-12)

        dropped = make_series(close[t:], spread=0.2)
        # rebuild candle columns identically on the suffix
        dropped = OhlcvSeries(series.interval, series.timestamps[t:] - series.timestamps[t],
                              series.open[t:], series.high[t:], series.low[t:],
                              series.close[t:], series.volume[t:])
        cci_full = cci(series, 20)[t:]
        cci_drop = cci(dropped, 20)
        np.testing.assert_allclose(cci_full[19:], cci_drop[19:], atol=1e-12)

    def test_ema_seed_difference_decays(self):
        close = random_walk(600, seed=47)
        n, t = 14, 3
        full = ema(close, n)[t:]
        drop = ema(close[t:], n)
        # (13/15)^400 is far below any representable difference
        np.testing.assert_allclose(full[400:], drop[400:], atol=1e-9)
