"""The three benchmark workloads: seeded inputs, set-up, one operation, checks.

Every workload generates synthetic hourly candles from the run's seed (a
sine of period 240 plus AR(1) noise, the series of acceptance criterion 7)
and hands only those inputs to the library's public functions.  One
*operation* is the unit the timed loop repeats; ``items`` is what it counts
per operation (training windows, inference windows or CSV rows).
"""

from __future__ import annotations

import math
import time

import numpy as np

import fastforecast.data as ff_data
import fastforecast.favor as ff_favor
import fastforecast.indicators as ff_ind
import fastforecast.model as ff_model
from fastforecast.errors import DataError, DivergenceError, FiniteError

# errors the library raises for bad numerics or bad data; an operation that
# raises one of these counts as failed instead of aborting the run
PROGRAM_ERRORS = (FiniteError, DivergenceError, DataError)

# README model config, shared by the model workloads
README_MODEL = {"d_model": 64, "blocks": 2, "heads": 4, "r": 128,
                "bilstm_hidden": 64, "fc_widths": [64, 1], "dropout": 0.1}
TINY_MODEL = {"d_model": 16, "blocks": 1, "heads": 2, "r": 16,
              "bilstm_hidden": 8, "fc_widths": [8, 1], "dropout": 0.1}

CONFIGS = {
    "train_w64": {"variants": ["performer_bilstm"], "window": 64, "batch": 32,
                  "epochs": 2, "lr": 1e-3, "grad_clip": 1.0,
                  "windows": {"train": 32, "validation": 16, "test": 16},
                  **README_MODEL},
    # both sides of the paper's comparison on the same windows, in one
    # operation: FAVOR+ (performer) and exact softmax (transformer_mh)
    "infer_w512": {"variants": ["performer", "transformer_mh"], "window": 512, "batch": 32,
                   "windows": {"train": 16, "validation": 16, "test": 32},
                   **README_MODEL},
    "prepare_long": {"rows": 30000, "window": 64},
}

# same code paths at a size that runs in about a second (smoke check)
TINY = {
    "train_w64": {"window": 16, "batch": 8,
                  "windows": {"train": 24, "validation": 8, "test": 8}, **TINY_MODEL},
    "infer_w512": {"window": 32, "batch": 8,
                   "windows": {"train": 8, "validation": 8, "test": 16}, **TINY_MODEL},
    "prepare_long": {"rows": 600},
}

MODEL_SEED = 0
FAVOR_SEED = 1
INDICATORS = ff_ind.IndicatorParams()
HOURLY = 3600
START_TS = 1_600_000_000
WARMUP_WINDOWS = 4
ALONE_WINDOWS = 3  # windows re-predicted one at a time by the batch check
ALONE_TOL = 1e-9


def config_for(name: str, tiny: bool) -> dict:
    cfg = dict(CONFIGS[name])
    if tiny:
        cfg.update(TINY[name])
    return cfg


def candle_columns(n: int, seed: int) -> dict:
    """Sine plus AR(1) noise wrapped into valid OHLCV candles."""
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal(n) * 0.3
    ar = np.zeros(n)
    for i in range(1, n):
        ar[i] = 0.8 * ar[i - 1] + shocks[i]
    t = np.arange(n)
    close = 100.0 + 12.0 * np.sin(2 * np.pi * t / 240.0) + ar
    open_ = np.concatenate([close[:1], close[:-1]])
    return {"timestamp": START_TS + HOURLY * t, "open": open_,
            "high": np.maximum(open_, close) + 0.2,
            "low": np.minimum(open_, close) - 0.2,
            "close": close, "volume": rng.uniform(1.0, 2.0, n)}


def series_from(cols: dict) -> ff_ind.OhlcvSeries:
    return ff_ind.OhlcvSeries(HOURLY, cols["timestamp"], cols["open"], cols["high"],
                              cols["low"], cols["close"], cols["volume"])


def write_csv(path, cols: dict) -> None:
    names = ff_data.CSV_HEADER
    lines = [",".join(names)]
    lines.extend(",".join([str(int(row[0]))] + [repr(float(v)) for v in row[1:]])
                 for row in zip(*(cols[k].tolist() for k in names)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def guard_hits() -> int:
    d = ff_favor.DIAGNOSTICS
    return d.exp_clamped + d.denom_floored


class Check:
    """Named pass/fail results of the output checks of one run."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def __call__(self, name: str, ok) -> bool:
        self.results.append((name, bool(ok)))
        return bool(ok)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


# ---------------------------------------------------------------------------
# model workloads
# ---------------------------------------------------------------------------

class ModelWorkload:
    """Shared set-up and checks of the workloads that run models.

    Every variant in the config gets its own model, built from the same
    seeds over the same dataset.
    """

    def __init__(self, cfg: dict, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.first = None  # output of the first operation, for determinism

    def spec(self, variant: str, n_features: int) -> ff_model.ModelSpec:
        c = self.cfg
        favor = None
        if variant in ff_model.FAVOR_VARIANTS:
            favor = ff_favor.FavorConfig(r=c["r"], d_k=c["d_model"] // c["heads"],
                                         seed=FAVOR_SEED)
        return ff_model.ModelSpec(
            variant=variant, window=c["window"], n_features=n_features,
            d_model=c["d_model"], blocks=c["blocks"], heads=c["heads"], favor=favor,
            bilstm_hidden=c["bilstm_hidden"], fc_widths=tuple(c["fc_widths"]),
            dropout=c["dropout"], seed=MODEL_SEED)

    def setup(self, tmpdir) -> None:
        counts = self.cfg["windows"]
        total = sum(counts.values())
        rows = INDICATORS.warmup + self.cfg["window"] + total
        series = series_from(candle_columns(rows, self.seed))
        fractions = tuple(counts[k] / total for k in ("train", "validation", "test"))
        ds = ff_data.make_dataset(series, INDICATORS, self.cfg["window"], fractions)
        got = {k: len(r) for k, r in ds.split.named().items()}
        if got != counts:
            raise RuntimeError(f"split sizes {got} != configured {counts}")
        self.dataset = ds
        self.models = {v: ff_model.build(self.spec(v, ds.n_features))
                       for v in self.cfg["variants"]}
        for model in self.models.values():
            model.forward_batch(ds.windows[:WARMUP_WINDOWS])

    def check_predictions(self, check: Check, out: dict) -> None:
        n = len(self.dataset.split.test)
        for variant, pred in out["preds"].items():
            check(f"{variant}: one prediction per window",
                  len(pred.predicted) == n == len(pred.actual))
            check(f"{variant}: predictions finite", np.all(np.isfinite(pred.predicted)))
            if self.first is not None:
                check(f"{variant}: test predictions repeat exactly",
                      np.array_equal(pred.predicted, self.first["preds"][variant].predicted))
        if self.first is None:
            self.first = out

    def final_checks(self, check: Check, last) -> None:
        """Windows predicted alone match their in-batch predictions."""
        r = self.dataset.split.test
        picks = np.random.default_rng(self.seed).choice(len(r), ALONE_WINDOWS, replace=False)
        for variant, model in self.models.items():
            pred = last["preds"][variant]
            for i in picks:
                alone = model.forward_batch(self.dataset.windows[r.start + i][None]).data[0, 0]
                alone = float(self.dataset.norm.denormalize_target(alone))
                check(f"{variant}: window alone matches in-batch prediction",
                      abs(alone - pred.predicted[i]) <= ALONE_TOL)


class TrainW64(ModelWorkload):
    """train() then predict_series() on the test split, from the same weights."""

    item = "training window"

    def setup(self, tmpdir) -> None:
        super().setup(tmpdir)
        [(self.variant, self.model)] = self.models.items()
        self.initial_state = self.model.state_arrays()

    def op(self) -> dict:
        c = self.cfg
        hp = ff_model.TrainHyperparams(epochs=c["epochs"], batch=c["batch"], lr=c["lr"],
                                       grad_clip=c["grad_clip"])
        self.model.load_state_arrays({k: v.copy() for k, v in self.initial_state.items()})
        self.model.set_favor_generation(0)
        t0 = time.perf_counter()
        report = ff_model.train(self.model, self.dataset, hp)
        t1 = time.perf_counter()
        pred = ff_model.predict_series(self.model, self.dataset, "test", batch=c["batch"])
        t2 = time.perf_counter()
        train_windows = c["windows"]["train"] * c["epochs"]
        return {"seconds": t2 - t0, "items": train_windows, "item_seconds": t1 - t0,
                "train_windows_per_s": train_windows / (t1 - t0),
                "infer_windows_per_s": len(pred.predicted) / (t2 - t1),
                "val_rmse": report.metrics.rmse if report.metrics else math.nan,
                "report": report, "preds": {self.variant: pred}}

    def check(self, check: Check, out: dict) -> None:
        report = out["report"]
        losses = report.train_losses + report.val_losses
        check("losses finite", all(math.isfinite(v) for v in losses))
        check("training loss fell", report.train_losses[-1] < report.train_losses[0])
        check("validation RMSE finite", math.isfinite(out["val_rmse"]))
        if self.first is not None:
            check("validation RMSE repeats exactly", out["val_rmse"] == self.first["val_rmse"])
        self.check_predictions(check, out)


class Infer(ModelWorkload):
    """predict_series() over the test split, with each variant in turn."""

    item = "inference window"

    def op(self) -> dict:
        out = {"seconds": 0.0, "items": 0, "preds": {}}
        for variant, model in self.models.items():
            t0 = time.perf_counter()
            pred = ff_model.predict_series(model, self.dataset, "test",
                                           batch=self.cfg["batch"])
            seconds = time.perf_counter() - t0
            out["seconds"] += seconds
            out["items"] += len(pred.predicted)
            out[f"{variant}_windows_per_s"] = len(pred.predicted) / seconds
            out["preds"][variant] = pred
        out["item_seconds"] = out["seconds"]
        return out

    def check(self, check: Check, out: dict) -> None:
        self.check_predictions(check, out)


# ---------------------------------------------------------------------------
# data preparation workload
# ---------------------------------------------------------------------------

class PrepareLong:
    """load_csv() and make_dataset() on a long hourly CSV."""

    item = "CSV row"

    def __init__(self, cfg: dict, seed: int):
        self.cfg = cfg
        self.seed = seed

    def setup(self, tmpdir) -> None:
        self.cols = candle_columns(self.cfg["rows"], self.seed)
        self.path = tmpdir / "candles.csv"
        write_csv(self.path, self.cols)

    def op(self) -> dict:
        t0 = time.perf_counter()
        series = ff_data.load_csv(self.path, "hourly")
        ds = ff_data.make_dataset(series, INDICATORS, self.cfg["window"])
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "items": len(series), "item_seconds": seconds,
                "prepare_rows_per_s": len(series) / seconds, "series": series, "dataset": ds}

    def check(self, check: Check, out: dict) -> None:
        series, ds = out["series"], out["dataset"]
        rows, window, warm = self.cfg["rows"], self.cfg["window"], INDICATORS.warmup
        check("every CSV row parsed", len(series) == rows)
        check("timestamps parsed exactly",
              np.array_equal(series.timestamps, self.cols["timestamp"]))
        check("one window per valid row", len(ds.windows) == rows - warm - window)
        check("windows finite", np.all(np.isfinite(ds.windows)))
        check("targets are the next closes",
              np.array_equal(ds.raw_targets, self.cols["close"][warm + window:]))
        # the SMA column of the first window, denormalized, against numpy
        close = self.cols["close"]
        n = INDICATORS.sma_n
        want = np.convolve(close, np.ones(n) / n, mode="valid")[warm - n + 1:warm - n + 1 + window]
        got = ds.norm.denormalize(ds.windows[0])[:, ds.columns.index("sma")]
        check("SMA column matches numpy", np.allclose(got, want, rtol=1e-9, atol=0.0))
        # release the window stack before the next operation
        del out["series"], out["dataset"]

    def final_checks(self, check: Check, last) -> None:
        pass


WORKLOADS = {
    "train_w64": TrainW64,
    "infer_w512": Infer,
    "prepare_long": PrepareLong,
}

# metrics that apply to only some workloads, so they go in the detail line
# rather than the result (which must carry the same metrics for every workload)
DETAIL_METRICS = {
    "train_w64": ("train_windows_per_s", "infer_windows_per_s", "val_rmse"),
    "infer_w512": ("performer_windows_per_s", "transformer_mh_windows_per_s"),
    "prepare_long": ("prepare_rows_per_s",),
}
DETAIL_UNITS = {"train_windows_per_s": "windows/s", "infer_windows_per_s": "windows/s",
                "performer_windows_per_s": "windows/s",
                "transformer_mh_windows_per_s": "windows/s",
                "prepare_rows_per_s": "rows/s", "val_rmse": "price",
                "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "failed/attempted"}
