"""Dataset pipeline and metric tests."""

import csv
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastforecast.data import (
    evaluate_metrics,
    load_csv,
    make_dataset,
    mse,
    msle,
    parse_interval,
    r_square,
    rmse,
    write_predictions,
)
from fastforecast.errors import DataError
from fastforecast.indicators import IndicatorParams, build_features

import sys
sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from test_indicators import make_series, random_walk


def write_csv(path, rows, header="timestamp,open,high,low,close,volume"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def candle_rows(n, interval=3600, start_ts=1_600_000_000, seed=0):
    close = random_walk(n, seed=seed, start=100.0)
    rows = []
    prev = close[0]
    for i, c in enumerate(close):
        high = max(prev, c) + 0.5
        low = min(prev, c) - 0.5
        rows.append((start_ts + i * interval, round(prev, 4), round(high, 4),
                     round(low, 4), round(c, 4), 1000 + i))
        prev = c
    return rows


class TestLoadCsv:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_csv(path, candle_rows(3))
        series = load_csv(path, "hourly")
        assert len(series) == 3
        assert series.interval == 3600

    def test_duplicate_timestamp_rejected_with_line(self, tmp_path):
        rows = candle_rows(4)
        rows[2] = (rows[1][0],) + rows[2][1:]
        path = tmp_path / "dup.csv"
        write_csv(path, rows)
        with pytest.raises(DataError, match=r"dup\.csv:4.*duplicate"):
            load_csv(path, "hourly")

    def test_gap_keeps_longest_segment_with_one_warning(self, tmp_path, caplog):
        rows = candle_rows(10)
        shifted = [(ts + 7200, o, h, low, c, v) for ts, o, h, low, c, v in rows[4:]]
        path = tmp_path / "gap.csv"
        write_csv(path, rows[:4] + shifted)
        with caplog.at_level(logging.WARNING, logger="fastforecast.data"):
            series = load_csv(path, "hourly")
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert len(series) == 6  # the longer post-gap segment

    def test_malformed_row_names_line(self, tmp_path):
        rows = candle_rows(3)
        path = tmp_path / "bad.csv"
        write_csv(path, rows)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not,a,number,at,all,x\n")
        with pytest.raises(DataError, match=r"bad\.csv:5"):
            load_csv(path, "hourly")

    @pytest.mark.parametrize("start, line", [(2**63, 2), (2**63 - 3 * 3600, 5),
                                             (-2**63 - 200 * 3600, 2)],
                             ids=["above", "crossing", "below"])
    def test_timestamp_outside_int64_names_line(self, tmp_path, start, line):
        path = tmp_path / "far.csv"
        write_csv(path, candle_rows(200, start_ts=start))
        with pytest.raises(DataError, match=rf"far\.csv:{line}: timestamp .* int64"):
            load_csv(path, "hourly")

    def test_field_over_the_csv_limit_names_line(self, tmp_path):
        path = tmp_path / "long.csv"
        write_csv(path, candle_rows(3))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("1" * (csv.field_size_limit() + 1) + ",1,1,1,1,1\n")
        with pytest.raises(DataError, match=r"long\.csv:5: field larger than field limit"):
            load_csv(path, "hourly")

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(path, candle_rows(5))
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, with_bom = load_csv(path, "hourly"), load_csv(marked, "hourly")
        for field in ("timestamps", "open", "high", "low", "close", "volume"):
            assert np.array_equal(getattr(with_bom, field), getattr(plain, field)), field

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, "hourly")

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        write_csv(path, [])
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "hourly")

    def test_interval_parsing(self):
        assert parse_interval("hourly") == 3600
        assert parse_interval("daily") == 86400
        assert parse_interval(900) == 900
        with pytest.raises(DataError):
            parse_interval("weekly")


class TestMakeDataset:
    def _series(self, n, seed=3):
        return make_series(random_walk(n, seed=seed), interval=3600, spread=0.4)

    def test_exact_minimum_yields_one_window(self):
        params = IndicatorParams()
        window = 8
        n = params.warmup + window + 1
        ds = make_dataset(self._series(n), params, window)
        assert len(ds.windows) == 1
        assert len(ds.split.train) == 1
        assert len(ds.split.validation) == 0 and len(ds.split.test) == 0

    def test_window_count_matches_enumeration_oracle(self):
        params = IndicatorParams()
        series = self._series(160)
        window = 12
        ds = make_dataset(series, params, window)
        valid_rows = len(series) - params.warmup
        count = sum(1 for s in range(valid_rows) if s + window < valid_rows)
        assert len(ds.windows) == count == valid_rows - window

    def test_normalize_denormalize_roundtrip(self):
        ds = make_dataset(self._series(140), IndicatorParams(), 10)
        raw = np.exp(np.random.default_rng(0).standard_normal((5, ds.n_features)))
        np.testing.assert_allclose(ds.norm.denormalize(ds.norm.normalize(raw)), raw,
                                   atol=1e-12)
        y = np.array([123.4, 99.1])
        np.testing.assert_allclose(ds.norm.denormalize_target(ds.norm.normalize_target(y)),
                                   y, atol=1e-12)

    def test_split_is_chronological_and_disjoint(self):
        ds = make_dataset(self._series(200), IndicatorParams(), 10)
        s = ds.split
        assert s.train.stop == s.validation.start
        assert s.validation.stop == s.test.start
        assert s.test.stop == len(ds.windows)
        n = len(ds.windows)
        assert s.train.start == 0 and len(s.train) == int(np.floor(0.7 * n))

    @pytest.mark.parametrize("fractions", [(1.2, -0.1, -0.1), (0.5, 0.6, -0.1)])
    def test_fractions_outside_unit_interval_rejected(self, fractions):
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            make_dataset(self._series(200), IndicatorParams(), 10, split_fractions=fractions)

    def test_windows_are_a_read_only_view_of_the_normalized_rows(self):
        params = IndicatorParams()
        series = self._series(140)
        window = 10
        ds = make_dataset(series, params, window)
        rows = ds.norm.normalize(build_features(series, params).values[params.warmup:])
        for s in (0, 7, len(ds.windows) - 1):
            np.testing.assert_array_equal(ds.windows[s], rows[s:s + window])
        assert not ds.windows.flags.writeable
        with pytest.raises(ValueError):
            ds.windows[0, 0, 0] = 1.0
        assert np.shares_memory(ds.windows[0], ds.windows[1])

    def test_norm_fitted_on_train_rows_only(self):
        """Shifting only the test-era rows must not change the statistics."""
        params = IndicatorParams()
        window = 10
        close = random_walk(200, seed=5)
        ds1 = make_dataset(make_series(close), params, window)
        n_train = ds1.split.train.stop
        # rows beyond the training horizon in the valid-row indexing
        boundary = params.warmup + n_train + window
        bumped = close.copy()
        bumped[boundary + window:] += 500.0
        ds2 = make_dataset(make_series(bumped), params, window)
        np.testing.assert_array_equal(ds1.norm.mean, ds2.norm.mean)
        np.testing.assert_array_equal(ds1.norm.std, ds2.norm.std)

    def test_targets_are_next_close(self):
        params = IndicatorParams()
        close = random_walk(120, seed=7)
        series = make_series(close)
        window = 9
        ds = make_dataset(series, params, window)
        w = params.warmup
        for s in (0, 5, len(ds.windows) - 1):
            assert ds.raw_targets[s] == pytest.approx(close[w + s + window])
            assert ds.target_times[s] == series.timestamps[w + s + window]

    def test_too_short_series(self):
        with pytest.raises(DataError):
            make_dataset(self._series(25), IndicatorParams(), 10)

    def test_raw_feature_mode(self):
        ds = make_dataset(self._series(80), None, 10)
        assert ds.columns == ("open", "high", "low", "close", "volume")
        assert ds.n_features == 5


class TestMetrics:
    def test_mse_trivials(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_mse_matches_direct_summation(self, rng):
        y = rng.standard_normal(50)
        y_hat = rng.standard_normal(50)
        direct = sum((a - b) ** 2 for a, b in zip(y, y_hat)) / 50
        assert mse(y, y_hat) == pytest.approx(direct, abs=1e-12)

    def test_rmse_trivials(self):
        assert rmse([5.0, 5.0], [5.0, 5.0]) == 0.0
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_rmse_squared_is_mse(self, rng):
        y = rng.standard_normal(30)
        y_hat = rng.standard_normal(30)
        assert rmse(y, y_hat) ** 2 == pytest.approx(mse(y, y_hat), abs=1e-12)

    def test_r_square_trivials(self, rng):
        y = rng.standard_normal(20)
        assert r_square(y, y) == pytest.approx(1.0)
        const = np.full(20, y.mean())
        assert r_square(y, const) == pytest.approx(0.0, abs=1e-12)

    def test_r_square_matches_two_pass_variance_oracle(self, rng):
        y = rng.standard_normal(40) * 3 + 1
        y_hat = y + rng.standard_normal(40)
        resid = y - y_hat
        var = lambda a: float(np.sum((a - np.sum(a) / len(a)) ** 2) / len(a))
        expect = 1.0 - var(resid) / var(y)
        assert r_square(y, y_hat) == pytest.approx(expect, abs=1e-10)

    def test_r_square_constant_y_rejected(self):
        with pytest.raises(DataError):
            r_square([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_msle_trivials(self):
        assert msle([4.0, 9.0], [4.0, 9.0]) == 0.0
        assert msle([np.e - 1.0], [0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_msle_matches_direct_oracle(self, rng):
        y = np.abs(rng.standard_normal(25)) + 0.5
        y_hat = np.abs(rng.standard_normal(25)) + 0.5
        direct = np.mean([(np.log(a + 1) - np.log(b + 1)) ** 2 for a, b in zip(y, y_hat)])
        assert msle(y, y_hat) == pytest.approx(direct, abs=1e-12)

    def test_msle_domain(self):
        with pytest.raises(DataError):
            msle([-1.5], [1.0])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=30)
    def test_msle_nonnegative_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        y = np.abs(rng.standard_normal(10)) + 0.1
        y_hat = np.abs(rng.standard_normal(10)) + 0.1
        assert msle(y, y_hat) >= 0.0
        assert msle(y, y) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(DataError):
            mse([], [])


class TestPredictionCsvRoundTrip:
    def test_metrics_recomputed_from_csv_agree(self, tmp_path, rng):
        times = np.arange(40, dtype=np.int64) * 3600
        actual = np.abs(rng.standard_normal(40)) * 100 + 50
        predicted = actual + rng.standard_normal(40)
        path = tmp_path / "pred.csv"
        write_predictions(path, times, actual, predicted)
        t2, a2, p2 = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        np.testing.assert_array_equal(t2, times)
        direct = evaluate_metrics(actual, predicted)
        roundtrip = evaluate_metrics(a2, p2)
        for key, value in direct.to_dict().items():
            assert roundtrip.to_dict()[key] == pytest.approx(value, abs=1e-10)

    def test_metric_emission_order(self):
        ms = evaluate_metrics(np.array([1.0, 2.0, 4.0]), np.array([1.1, 2.2, 3.6]))
        assert list(ms.to_dict().keys()) == ["MSE", "RMSE", "R-Square", "MSLE"]


def _artifact_writers():
    """Every artifact writer, each as a function of the target path."""
    import dataclasses

    from fastforecast import data
    from fastforecast.cli import _write_json
    from fastforecast.favor import PROBE_COLUMNS, ProbeRow
    from fastforecast.model import ModelSpec, build, save_checkpoint

    model = build(ModelSpec(variant="bilstm_only", window=4, n_features=2,
                            bilstm_hidden=2, fc_widths=(2, 1), seed=0))
    norm = data.ColumnStats(("open", "close"), np.zeros(2), np.ones(2), 1)
    probe_rows = [ProbeRow("favor", 8 * i, 4, 16, 0, 1000 * i, 64 * i) for i in (1, 2)]
    return {
        "json": lambda path: _write_json(path, {"rows": 3, "columns": ["a", "b"]}),
        "losses": lambda path: data.write_csv(path, ["epoch", "train_loss", "val_loss"],
                                              [[0, 0.5, 0.75], [1, 0.25, 0.5]]),
        "predictions": lambda path: write_predictions(path, [0, 3600], [1.0, 2.0], [1.5, 2.5]),
        "probe": lambda path: data.write_csv(path, PROBE_COLUMNS,
                                             map(dataclasses.astuple, probe_rows)),
        "checkpoint": lambda path: save_checkpoint(model, norm, path),
    }


class _FailsOnSecondWrite:
    """A writable file whose second ``write`` raises, as on a full disk."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("injected: no space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.mark.parametrize("writer", ["json", "losses", "predictions", "probe", "checkpoint"])
def test_interrupted_write_leaves_the_old_file(writer, tmp_path, monkeypatch):
    """A write that fails midway keeps the earlier artifact byte-identical
    and leaves no temporary file behind."""
    import builtins

    write = _artifact_writers()[writer]
    path = tmp_path / "artifact"
    path.write_bytes(b"earlier artifact\n")
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FailsOnSecondWrite(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="injected"):
        write(path)
    monkeypatch.undo()
    assert path.read_bytes() == b"earlier artifact\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
