"""Dataset pipeline and metric tests."""

import contextlib
import csv
import logging
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastforecast.data import (
    CSV_HEADER,
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
from fastforecast.indicators import IndicatorParams, OhlcvSeries, build_features

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
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"{path}: 1 gap(s), the first at line 6 (10800s, expected 3600s); "
                            "kept the longest contiguous segment, 6 of 10 rows"]
        assert len(series) == 6  # the longer post-gap segment

    def test_many_gaps_log_one_warning(self, tmp_path, caplog):
        """Every row a gap apart: one warning for the file, not one per gap."""
        rows = [(ts + 3600 * k, *rest) for k, (ts, *rest) in enumerate(candle_rows(9))]
        path = tmp_path / "gaps.csv"
        write_csv(path, rows)
        with caplog.at_level(logging.WARNING, logger="fastforecast.data"):
            series = load_csv(path, "hourly")
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"{path}: 8 gap(s), the first at line 3 (7200s, expected 3600s); "
                            "kept the longest contiguous segment, 1 of 9 rows"]
        assert len(series) == 1

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

    @pytest.mark.parametrize("field", ["1_600_007_200", "1600007200.0", "\u0661600007200"],
                             ids=["underscores", "int-via-float", "arabic-indic-digit"])
    def test_timestamp_outside_the_ascii_integer_contract_names_line(self, tmp_path, field):
        rows = candle_rows(4)
        rows[2] = (field,) + rows[2][1:]
        path = tmp_path / "digits.csv"
        write_csv(path, rows)
        with pytest.raises(DataError, match=r"digits\.csv:4: "):
            load_csv(path, "hourly")

    @pytest.mark.parametrize("field", ["1_00.5", "\u0661\u0660\u0660.5"],
                             ids=["underscores", "arabic-indic-digits"])
    def test_price_outside_the_ascii_contract_names_line(self, tmp_path, field):
        rows = candle_rows(4)
        rows[1] = rows[1][:5] + (field,)
        path = tmp_path / "digits.csv"
        write_csv(path, rows)
        with pytest.raises(DataError, match=r"digits\.csv:3: .* not a plain ASCII number"):
            load_csv(path, "hourly")

    @pytest.mark.parametrize("line", ["# a comment", "#1600000000,1,1,1,1,1"])
    def test_hash_prefixed_row_is_data_and_rejected_with_line(self, tmp_path, line):
        rows = [",".join(map(str, row)) for row in candle_rows(4)]
        path = tmp_path / "hash.csv"
        write_csv(path, [(row,) for row in rows[:2] + [line] + rows[2:]])
        with pytest.raises(DataError, match=r"hash\.csv:4: "):
            load_csv(path, "hourly")

    def test_whitespace_only_lines_are_skipped_and_counted(self, tmp_path):
        rows = [",".join(map(str, row)) for row in candle_rows(5)]
        lines = [rows[0], "   ", "", "\t", rows[1], " \t ", rows[2], "\u00a0", rows[3], rows[4]]
        path = tmp_path / "blank.csv"
        write_csv(path, [(line,) for line in lines])
        series = load_csv(path, "hourly")
        assert len(series) == 5
        # a repeated stamp after them is reported on its own file line
        write_csv(path, [(line,) for line in lines + ["   ", rows[4]]])
        with pytest.raises(DataError, match=r"blank\.csv:13: duplicate"):
            load_csv(path, "hourly")

    def test_quoted_fields_parse_as_plain_ones(self, tmp_path):
        rows = candle_rows(4)
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        write_csv(plain, rows)
        write_csv(quoted, [tuple(f'" {x} "' for x in row) for row in rows])
        a, b = load_csv(plain, "hourly"), load_csv(quoted, "hourly")
        for field in ("timestamps", "open", "high", "low", "close", "volume"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_line_break_inside_a_quoted_field_names_line(self, tmp_path):
        rows = candle_rows(4)
        rows[2] = rows[2][:5] + ('"1\n"',)
        path = tmp_path / "quote.csv"
        write_csv(path, rows)
        with pytest.raises(DataError, match=r"quote\.csv:4: line break inside a quoted field"):
            load_csv(path, "hourly")

    def test_long_price_field_over_the_csv_limit_names_line(self, tmp_path):
        """A price that numpy would parse is still held to csv's field limit."""
        path = tmp_path / "long.csv"
        rows = candle_rows(3)
        write_csv(path, rows)
        with open(path, "a", encoding="utf-8") as fh:
            padded = "0" * csv.field_size_limit() + str(rows[2][1])
            fh.write(f"{rows[2][0] + 3600},{padded},{rows[2][2]},{rows[2][3]},1,1\n")
        with pytest.raises(DataError, match=r"long\.csv:5: field larger than field limit"):
            load_csv(path, "hourly")

    @pytest.mark.parametrize("body", ["", "\n\n", "  \n\t\n"], ids=["none", "blank", "whitespace"])
    def test_no_data_rows_raises_without_a_numpy_warning(self, tmp_path, body):
        path = tmp_path / "header.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + body, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                load_csv(path, "hourly")

    def test_interval_parsing(self):
        assert parse_interval("hourly") == 3600
        assert parse_interval("daily") == 86400
        assert parse_interval(900) == 900
        with pytest.raises(DataError):
            parse_interval("weekly")
        assert parse_interval(3600.0) == 3600
        for truncated in (True, 3600.5):
            with pytest.raises(DataError, match="whole number of seconds"):
                parse_interval(truncated)


def reference_load_csv(path, interval) -> OhlcvSeries:
    """Reference for load_csv: the per-row parser it replaced (csv.reader,
    then int/float per field, then a list of row tuples)."""
    interval = parse_interval(interval)
    logger = logging.getLogger("fastforecast.data")
    rows = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if [h.strip().lower() for h in header] != CSV_HEADER:
                raise DataError(f"{path}: header {header} != {CSV_HEADER}")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 6:
                    raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
                try:
                    ts = int(row[0])
                    vals = [float(x) for x in row[1:]]
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if not -2**63 <= ts < 2**63:
                    raise DataError(f"{path}:{lineno}: timestamp {ts} outside the int64 range")
                rows.append((lineno, ts, vals))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")

    segments = [[rows[0]]]
    gaps = []  # (line, delta) of each gap
    for prev, cur in zip(rows, rows[1:]):
        delta = cur[1] - prev[1]
        if delta <= 0:
            kind = "duplicate" if delta == 0 else "decreasing"
            raise DataError(f"{path}:{cur[0]}: {kind} timestamp {cur[1]}")
        if delta != interval:
            gaps.append((cur[0], delta))
            segments.append([])
        segments[-1].append(cur)

    best = max(segments, key=len)
    if gaps:
        logger.warning("%s: %d gap(s), the first at line %d (%ds, expected %ds); "
                       "kept the longest contiguous segment, %d of %d rows",
                       path, len(gaps), *gaps[0], interval, len(best), len(rows))
    ts = np.array([r[1] for r in best], dtype=np.int64)
    cols = np.array([r[2] for r in best], dtype=np.float64)
    try:
        return OhlcvSeries(interval, ts, cols[:, 0], cols[:, 1], cols[:, 2],
                           cols[:, 3], cols[:, 4])
    except DataError as exc:
        raise DataError(f"{path}:{best[exc.row][0]}: {exc}") from None


@contextlib.contextmanager
def logged_warnings():
    """Collect the messages of the warnings logged to ``fastforecast.data``."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("fastforecast.data")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def load_both(path):
    """(outcome, gap warnings) of load_csv and of the reference; an outcome
    is the series or the DataError message."""
    results = []
    for loader in (load_csv, reference_load_csv):
        with logged_warnings() as messages:
            try:
                outcome = loader(path, "hourly")
            except DataError as exc:
                outcome = str(exc)
        results.append((outcome, messages))
    return results


def number_text(draw, value):
    """``value`` written as repr, exponent or short text, maybe padded or quoted."""
    text = draw(st.sampled_from([repr, "{:.17e}".format, "{:.6g}".format, "{:E}".format]))(value)
    text = draw(st.sampled_from(["", " ", "\t", "  "])) + text + draw(st.sampled_from(["", " "]))
    return f'"{text}"' if draw(st.booleans()) else text


BAD_ROWS = ["short", "long", "unparsable", "duplicate", "decreasing", "above_int64",
            "below_int64", "non_finite", "envelope", "negative_volume"]


@st.composite
def csv_files(draw):
    """(bytes of a CSV file, (row index, kind) of the injected bad row or None)."""
    n = draw(st.integers(1, 30))
    ts = draw(st.integers(-2**40, 2**40))
    price = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)
    spread = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    rows = []
    for _ in range(n):
        ts += 3600 * draw(st.sampled_from([1, 1, 1, 1, 1, 2, 5]))  # some gaps
        o, c = draw(price), draw(price)
        # a 1% margin keeps the envelope through 6-digit rounding
        h, low = max(o, c) * 1.01 + draw(spread), min(o, c) * 0.99 - draw(spread)
        fields = [str(ts)] + [number_text(draw, x) for x in (o, h, low, c, draw(spread))]
        rows.append(fields)
    bad = draw(st.none() | st.tuples(st.integers(0, n - 1), st.sampled_from(BAD_ROWS)))
    if bad is not None:
        i, kind = bad
        if kind == "short":
            rows[i] = rows[i][:5]
        elif kind == "long":
            rows[i] = rows[i] + ["1"]
        elif kind == "unparsable":
            rows[i][draw(st.integers(0, 5))] = draw(st.sampled_from(["abc", "1.2.3", "", "1e"]))
        elif kind == "duplicate" and i > 0:
            rows[i][0] = rows[i - 1][0]
        elif kind == "decreasing" and i > 0:
            rows[i][0] = str(int(rows[i - 1][0]) - 3600)
        elif kind == "above_int64":
            rows[i][0] = str(2**63 + draw(st.integers(0, 10)))
        elif kind == "below_int64":
            rows[i][0] = str(-2**63 - 1 - draw(st.integers(0, 10)))
        elif kind == "non_finite":
            rows[i][draw(st.integers(1, 5))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        elif kind == "envelope":
            rows[i][2], rows[i][3] = rows[i][3], rows[i][2]  # high and low swapped
        elif kind == "negative_volume":
            rows[i][5] = "-1.5"
    lines = [",".join(CSV_HEADER)]
    for fields in rows:
        lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)))
        lines.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8"), bad


@given(csv_files())
@settings(deadline=None, max_examples=150)
def test_load_csv_matches_the_per_row_reference(case):
    """Same series bit for bit, same gap warnings and the same error message
    as the per-row parser, on files with gaps, blank and whitespace-only
    lines, CRLF, a BOM, quoted and padded fields and one bad row, malformed or
    breaking a value rule."""
    blob, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.csv"
        path.write_bytes(blob)
        (got, got_warnings), (want, want_warnings) = load_both(path)
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for field in ("timestamps", "open", "high", "low", "close", "volume"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


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
