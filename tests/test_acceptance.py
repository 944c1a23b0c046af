"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Budgets are asserted with wall clocks; all randomness is seeded,
so the suite is deterministic.
"""

import time

import numpy as np
import pytest

import fastforecast.model as ff_model
from fastforecast.data import (
    evaluate_metrics,
    make_dataset,
    mse,
    msle,
    r_square,
    rmse,
    write_predictions,
)
from fastforecast.favor import (
    FavorConfig,
    complexity_probe,
    draw_features,
    loglog_slope,
)
from fastforecast.indicators import IndicatorParams, bollinger, cci, ema, rsi, sma
from fastforecast.model import (
    ModelSpec,
    TrainHyperparams,
    build,
    predict_series,
    train,
)
from fastforecast.tensor import GradTape, Tensor

import sys
sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from conftest import check_gradients, rel_err, scaled_dot_attention
from reference import exact_bidirectional, exact_unidirectional, mul, softmax_attention, tsum
from test_favor import causal_favor_node, favor_node, kernel_shapes
from test_fused_kernels import block_arrays, block_pair, fused_feed_forward, fused_layer_norm
from test_indicators import make_series, random_walk, valid
from test_lstm import bilstm_forward, lstm_forward
from test_tensor import PRIMITIVE_CASES


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


class TestCriterion1KernelApproximation:
    def test_favor_tracks_exact_attention(self):
        start = time.monotonic()
        medians = {}
        for r in (16, 256, 1024):
            errs = []
            for seed in range(20):
                rng = np.random.default_rng(1000 + seed)
                q = unit_rows(rng.standard_normal((64, 16)))
                k = unit_rows(rng.standard_normal((64, 16)))
                v = rng.standard_normal((64, 16))
                exact = exact_bidirectional(Tensor(q), Tensor(k), Tensor(v)).data
                omega = draw_features(r, 16, [seed])[0]
                approx = favor_node(Tensor(q), Tensor(k), Tensor(v), omega).data
                errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
            medians[r] = float(np.median(errs))
        elapsed = time.monotonic() - start
        assert medians[256] <= 0.05, medians
        assert medians[1024] < medians[16], medians
        assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
        report(1, f"median rel Frobenius error at r=256 is {medians[256]:.4f} <= 0.05; "
                  f"err(r=1024)={medians[1024]:.4f} < err(r=16)={medians[16]:.4f} "
                  f"({elapsed:.1f}s)")


def fastest(rows):
    """Each length's fastest rep: host noise only ever adds time, so the
    minimum is the steadiest estimate of what a length costs."""
    best = {}
    for row in rows:
        if row.L not in best or row.wall_ns < best[row.L].wall_ns:
            best[row.L] = row
    return list(best.values())


class TestCriterion2ComplexityScaling:
    def test_time_slopes_and_memory_shape(self):
        start = time.monotonic()
        lengths = [256, 512, 1024, 2048]
        favor_rows = complexity_probe("favor", lengths, d_k=32, r=128, reps=5)
        exact_rows = complexity_probe("exact", lengths, d_k=32, r=128, reps=5)
        favor_slope = loglog_slope(fastest(favor_rows))
        exact_slope = loglog_slope(fastest(exact_rows))
        lxl_hits = [length for length in lengths
                    if (length, length) in kernel_shapes("favor", length, 32, 128)]
        elapsed = time.monotonic() - start
        assert favor_slope <= 1.25, favor_slope
        assert exact_slope >= 1.8, exact_slope
        assert not lxl_hits, f"favor allocated LxL at {lxl_hits}"
        assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"
        report(2, f"log-log time slopes: favor {favor_slope:.2f} <= 1.25, "
                  f"exact {exact_slope:.2f} >= 1.8; no LxL buffer in favor "
                  f"({elapsed:.1f}s)")


class TestCriterion3GradientIntegrity:
    def test_all_gradient_checks(self, monkeypatch):
        start = time.monotonic()
        # every reference primitive at 1e-6
        for name, build_fn, arrays in PRIMITIVE_CASES:
            check_gradients(build_fn, [a.copy() for a in arrays], tol=1e-6)

        rng = np.random.default_rng(7)
        sq = lambda out: tsum(mul(out, out))

        # both attention kernel families
        q, k, v = (rng.standard_normal((5, 3)) for _ in range(3))
        for kernel in (scaled_dot_attention, exact_bidirectional, exact_unidirectional):
            check_gradients(lambda a, b, c: sq(kernel(a, b, c)), [q, k, v], tol=1e-6)
        omega = draw_features(8, 3, [1])[0]
        for kernel in (favor_node, causal_favor_node):
            check_gradients(lambda a, b, c: sq(kernel(a, b, c, omega)),
                            [unit_rows(q), unit_rows(k), v], tol=1e-5)

        # the encoder block's layer norm and feed-forward stages, each one node
        # through reference.stage_node, on their own draws so the checks below
        # see the same inputs as before
        block_rng = np.random.default_rng(8)
        x = block_rng.standard_normal((5, 4))
        check_gradients(lambda *t: sq(fused_layer_norm(*t)),
                        [x, 1.0 + 0.5 * block_rng.standard_normal((1, 4)),
                         block_rng.standard_normal((1, 4))], tol=1e-6)
        check_gradients(lambda *t: sq(fused_feed_forward(*t)),
                        [x, 0.5 * block_rng.standard_normal((4, 6)),
                         block_rng.standard_normal((1, 6)),
                         0.5 * block_rng.standard_normal((6, 4)),
                         block_rng.standard_normal((1, 4))], tol=1e-6)
        # the whole block node, exact attention with dropout, two windows of
        # three rows run as two chunks
        monkeypatch.setattr(ff_model, "CHUNK_ROWS", 3)
        fused_block, _ = block_pair("softmax", 3, heads=2, dropout=0.25)
        check_gradients(lambda *t: sq(fused_block(*t)),
                        block_arrays(np.random.default_rng(9), 6, 4), tol=1e-6)

        # LSTM / BiLSTM stacks over 5 timesteps
        from test_lstm import random_weights
        xs = rng.standard_normal((5, 2)) * 0.5
        w1, w2 = random_weights(2, 3, seed=2), random_weights(2, 3, seed=3)

        def lstm_loss(xs_t, *flat):
            return sq(lstm_forward(xs_t, flat))

        def bilstm_loss(xs_t, *flat):
            return sq(bilstm_forward(xs_t, flat[:2], flat[2:]))

        flat1 = [t.data for t in w1]  # each a direction's (W, b) arrays
        flat2 = [t.data for t in w2]
        check_gradients(lstm_loss, [xs] + flat1, tol=1e-5)
        check_gradients(bilstm_loss, [xs] + flat1 + flat2, tol=1e-5)

        # tiny end-to-end model at 1e-4
        from fastforecast.model import _batch_loss
        spec = ModelSpec(variant="performer_bilstm", window=8, n_features=8,
                         d_model=8, blocks=1, heads=2,
                         favor=FavorConfig(r=16, d_k=4, seed=4),
                         bilstm_hidden=4, fc_widths=(4, 1), dropout=0.0, seed=5)
        model = build(spec)
        windows = rng.standard_normal((2, 8, 8)) * 0.5
        targets = rng.standard_normal(2)
        with GradTape() as tape:
            for p in model.params.values():
                tape.watch(p)
            loss = _batch_loss(model, windows, targets, None)
        tape.backward(loss)
        h = 1e-5
        worst = 0.0
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = _batch_loss(model, windows, targets, None).item()
                flat[i] = orig - h
                fmi = _batch_loss(model, windows, targets, None).item()
                flat[i] = orig
                numeric[i] = (fp - fmi) / (2 * h)
            err = rel_err(p.grad.reshape(-1), numeric)
            worst = max(worst, err)
            assert err <= 1e-4, f"{name}: {err:.2e}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
        report(3, f"all primitives <= 1e-6, attention kernels, layer norm, feed-forward, "
                  f"the encoder block and recurrent stacks pass, "
                  f"end-to-end worst rel err {worst:.2e} <= 1e-4 ({elapsed:.1f}s)")


class TestCriterion4ExactFormEquivalence:
    def test_equivalence_and_causality(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            length = int(rng.integers(2, 16))
            q, k, v = (rng.standard_normal((length, 6)) for _ in range(3))
            a = softmax_attention(Tensor(q), Tensor(k), Tensor(v)).data
            b = exact_bidirectional(Tensor(q), Tensor(k), Tensor(v)).data
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-12, worst

        for trial in range(10):
            q, k, v = (rng.standard_normal((12, 4)) for _ in range(3))
            full = exact_unidirectional(Tensor(q), Tensor(k), Tensor(v)).data
            for t in (1, 3, 7, 11):
                prefix = exact_unidirectional(Tensor(q[:t]), Tensor(k[:t]),
                                              Tensor(v[:t])).data
                np.testing.assert_allclose(full[:t], prefix, atol=1e-12)
        report(4, f"matrix form matches softmax form (max |diff| {worst:.1e} <= 1e-12 "
                  f"on 50 instances); causal prefix recomputation exact")


class TestCriterion5IndicatorOracles:
    def test_brute_force_agreement_on_1000_points(self):
        from test_indicators import (
            bollinger_oracle,
            cci_oracle,
            ema_oracle,
            rsi_oracle,
            sma_oracle,
        )
        prices = random_walk(1000, seed=13, start=30000.0, step=80.0)
        series = make_series(prices, spread=25.0)

        s = sma(prices, 14)
        for i in range(13, 1000):
            assert abs(s[i] - sma_oracle(prices, 14, i)) <= 1e-9
        e = ema(prices, 14)
        np.testing.assert_allclose(valid(e, 13), ema_oracle(prices, 14), atol=1e-9)
        mid, upper, lower = bollinger(prices, 20, 2.0)
        for i in range(19, 1000):
            m, u, low = bollinger_oracle(prices, 20, 2.0, i)
            assert abs(mid[i] - m) <= 1e-9
            assert abs(upper[i] - u) <= 1e-9
            assert abs(lower[i] - low) <= 1e-9
        r = rsi(prices, 14)
        for i in range(14, 1000):
            assert abs(r[i] - rsi_oracle(prices, 14, i)) <= 1e-9
        c = cci(series, 20)
        for i in range(19, 1000):
            expect = cci_oracle(series.high, series.low, series.close, 20, i)
            assert abs(c[i] - expect) <= 1e-9

        assert np.all(valid(r, 14) >= 0.0) and np.all(valid(r, 14) <= 100.0)
        assert np.all(valid(lower, 19) <= valid(mid, 19))
        assert np.all(valid(mid, 19) <= valid(upper, 19))
        report(5, "SMA/EMA/Bollinger/RSI/CCI match brute-force recomputation "
                  "<= 1e-9 on 1000 points; RSI in [0,100]; bands ordered")


class TestCriterion6MetricIdentities:
    def test_identities_and_csv_roundtrip(self, tmp_path):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-15)
        y = np.array([2.0, 4.0, 7.0])
        assert r_square(y, y) == 1.0
        assert r_square(y, np.full(3, y.mean())) == pytest.approx(0.0, abs=1e-15)
        assert msle([np.e - 1.0], [0.0]) == pytest.approx(1.0, abs=1e-15)

        rng = np.random.default_rng(17)
        a = rng.standard_normal(64) * 10 + 200
        b = a + rng.standard_normal(64)
        assert rmse(a, b) ** 2 == pytest.approx(mse(a, b), abs=1e-12)

        times = np.arange(64, dtype=np.int64)
        path = tmp_path / "pred.csv"
        write_predictions(path, times, a, b)
        _, a2, b2 = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        direct = evaluate_metrics(a, b).to_dict()
        rt = evaluate_metrics(a2, b2).to_dict()
        for key in direct:
            assert abs(direct[key] - rt[key]) <= 1e-10, key
        report(6, "metric trivial identities exact; rmse^2 = mse <= 1e-12; "
                  "CSV round-trip agreement <= 1e-10")


def synthetic_series(n=5000, seed=0):
    """Sine plus AR(1) noise, wrapped into candles."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    ar = np.zeros(n)
    for i in range(1, n):
        ar[i] = 0.8 * ar[i - 1] + rng.standard_normal() * 0.3
    close = 100.0 + 12.0 * np.sin(2 * np.pi * t / 240.0) + ar
    return make_series(close, spread=0.2)


def smoke_spec(variant, seed):
    favor = None
    if variant == "performer_bilstm":
        favor = FavorConfig(r=32, d_k=8, seed=seed + 1)
    return ModelSpec(variant=variant, window=16, n_features=8, d_model=16,
                     blocks=1, heads=2, favor=favor, bilstm_hidden=8,
                     fc_widths=(8, 1), dropout=0.0, seed=seed)


class TestCriterion7TrainingSmoke:
    def test_synthetic_forecasting_quality(self):
        start = time.monotonic()
        hp = TrainHyperparams(epochs=4, batch=64, lr=2e-3, grad_clip=1.0)
        results = {}
        for seed in (0, 1, 2):
            ds = make_dataset(synthetic_series(seed=seed), IndicatorParams(), 16)
            per_variant = {}
            for variant in ("performer_bilstm", "transformer_mh"):
                model = build(smoke_spec(variant, seed))
                train(model, ds, hp)
                pred = predict_series(model, ds, "test")
                m = evaluate_metrics(pred.actual, pred.predicted)
                per_variant[variant] = m
            results[seed] = per_variant
        elapsed = time.monotonic() - start

        r2 = [results[s]["performer_bilstm"].r_square for s in results]
        good = sum(1 for v in r2 if v >= 0.95)
        assert good >= 2, f"test R^2 by seed: {r2}"
        assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s"

        ordering = sum(
            1 for s in results
            if results[s]["performer_bilstm"].rmse <= results[s]["transformer_mh"].rmse)
        echo = "holds" if ordering >= 2 else "does not hold"
        lines = "; ".join(
            f"seed {s}: R2={results[s]['performer_bilstm'].r_square:.4f}, "
            f"RMSE pb={results[s]['performer_bilstm'].rmse:.3f} vs "
            f"mh={results[s]['transformer_mh'].rmse:.3f}" for s in results)
        report(7, f"performer_bilstm test R^2 >= 0.95 in {good}/3 seeds; "
                  f"RMSE ordering vs transformer_mh {echo} in {ordering}/3 seeds "
                  f"(qualitative echo, not gated). {lines} ({elapsed:.1f}s)")


class TestCriterion8Determinism:
    def test_train_report_bytes_reproduce(self, tmp_path):
        from test_cli import make_config
        from test_data import candle_rows, write_csv
        from fastforecast.cli import main

        csv_path = tmp_path / "data.csv"
        write_csv(csv_path, candle_rows(140, seed=23))
        config = make_config(tmp_path, csv_path, variant="performer_bilstm",
                             dropout=0.1)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(config), "--out", str(out2)]) == 0
        r1 = (out1 / "train_report.json").read_bytes()
        r2 = (out2 / "train_report.json").read_bytes()
        assert r1 == r2
        assert (out1 / "checkpoint.ffck").read_bytes() == (out2 / "checkpoint.ffck").read_bytes()
        report(8, "identical (config, seed) reproduced TrainReport JSON and "
                  "checkpoint byte-identically")
