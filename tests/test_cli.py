"""End-to-end CLI tests on a small synthetic fixture."""

import csv
import dataclasses
import json
import os
import resource
import struct
import subprocess
from pathlib import Path

import numpy as np
import pytest

import fastforecast
from fastforecast.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, load_config, main
from fastforecast.errors import ConfigError
from fastforecast.favor import FavorConfig
from fastforecast.indicators import IndicatorParams
from fastforecast.model import ModelSpec, TrainHyperparams

import sys
sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from test_data import candle_rows, write_csv


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "ohlcv.csv"
    write_csv(path, candle_rows(140, seed=21))
    return path


def run_cli(*args, env=os.environ, **kwargs):
    """The CLI in a fresh interpreter, with ``env``, that imports this
    checkout's package."""
    src = str(Path(fastforecast.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": src}, timeout=120, **kwargs)


def make_config(tmp_path, csv_path, variant="bilstm_only", **model_kw):
    model = {"variant": variant, "window": 8, "d_model": 8, "blocks": 1,
             "heads": 2, "bilstm_hidden": 4, "fc_widths": [4, 1], "dropout": 0.0}
    model.update(model_kw)
    if variant in ("performer", "performer_bilstm"):
        model.setdefault("favor", {"r": 16, "seed": 9})
    cfg = {
        "data": {"path": str(csv_path), "interval": "hourly"},
        "model": model,
        "train": {"epochs": 2, "batch": 16, "lr": 0.001, "grad_clip": 1.0},
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path, fixture_csv):
        path = make_config(tmp_path, fixture_csv)
        raw = json.loads(path.read_text())
        raw["surprise"] = 1
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="surprise"):
            load_config(path)

    def test_nested_unknown_keys_rejected(self, tmp_path, fixture_csv):
        path = make_config(tmp_path, fixture_csv)
        raw = json.loads(path.read_text())
        raw["model"]["huh"] = 2
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_defaults_filled_and_roundtrip_stable(self, tmp_path, fixture_csv):
        path = make_config(tmp_path, fixture_csv)
        cfg1 = load_config(path)
        cfg2 = load_config(path)
        assert cfg1 == cfg2
        assert cfg1["train"].epochs == 2
        assert cfg1["split"] == (0.70, 0.15, 0.15)

    def test_seed_override(self, tmp_path, fixture_csv):
        path = make_config(tmp_path, fixture_csv)
        assert load_config(path, seed_override=99)["model"].seed == 99

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def test_cli_import_applies_ff_threads_to_unset_blas_variables():
    """Importing the CLI, as the console script does, sets FF_THREADS into
    each BLAS variable not already set, before numpy loads."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    script = ("import os, fastforecast.cli; "
              "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])")
    proc = run_cli("-c", script, env={**env, "FF_THREADS": "3", "MKL_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "1"]


class TestPrepare:
    def test_writes_manifest_and_exits_zero(self, tmp_path, fixture_csv, capsys):
        config = make_config(tmp_path, fixture_csv)
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rows"] == 140
        assert sum(manifest["windows"].values()) == len_windows_oracle(140, 19, 8)
        assert "windows" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, fixture_csv, capsys):
        config = make_config(tmp_path, tmp_path / "missing.csv")
        code = main(["prepare", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert "missing.csv" in capsys.readouterr().err

    def test_interval_shorter_than_the_candles_exits_two_in_two_lines(self, tmp_path,
                                                                        fixture_csv):
        """data.interval 2 on hourly candles: every row starts a segment.  One
        gap warning and the error, where each of the 139 gaps logged a line."""
        config = make_config(tmp_path, fixture_csv)
        raw = json.loads(config.read_text())
        raw["data"]["interval"] = 2
        config.write_text(json.dumps(raw))
        proc = run_cli("-m", "fastforecast.cli", "prepare", "--config", str(config),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == EXIT_INPUT, proc.stderr
        assert len(proc.stderr.splitlines()) <= 2, proc.stderr
        assert "139 gap(s)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_config_exits_four(self, tmp_path, fixture_csv, capsys):
        config = make_config(tmp_path, fixture_csv)
        raw = json.loads(config.read_text())
        raw["model"]["variant"] = "quantum"
        config.write_text(json.dumps(raw))
        assert main(["prepare", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        # a model that train rejects: d_model 8 is not divisible by 3 heads
        config = make_config(tmp_path, fixture_csv, variant="transformer_mh", heads=3)
        assert main(["prepare", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "not divisible" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()


INTEGRAL_FLOATS = [
    ("prepare", ("model", "window"), 8.0),
    ("train", ("model", "window"), 8.0),
    ("train", ("model", "heads"), 2.0),
    ("train", ("model", "bilstm_hidden"), 4.0),
    ("train", ("model", "fc_widths"), [4.0, 1]),
    ("train", ("model", "favor", "r"), 16.0),
    ("train", ("train", "epochs"), 2.0),
    ("train", ("indicators", "bb_n"), 20.0),
    ("train", ("seed",), 5.0),
    ("train", ("data", "interval"), 3600.0),
]


@pytest.mark.parametrize("command,keys,value", INTEGRAL_FLOATS,
                         ids=[f"{c}-{'.'.join(k)}" for c, k, _ in INTEGRAL_FLOATS])
def test_integral_float_for_integer_exits_four(tmp_path, fixture_csv, command, keys, value):
    """JSON Schema's integer type admits 16.0; the config check does not."""
    config = make_config(tmp_path, fixture_csv, variant="performer_bilstm")
    raw = json.loads(config.read_text())
    section = raw
    for key in keys[:-1]:
        section = section.setdefault(key, {})
    section[keys[-1]] = value
    config.write_text(json.dumps(raw))
    proc = run_cli("-m", "fastforecast.cli", command, "--config", str(config),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ")


NON_FINITE = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}


def config_leaves(node, keys=()):
    """The key path of every scalar in a parsed config; list items by index."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield keys
        return
    for key, child in items:
        yield from config_leaves(child, keys + (key,))


# the dataclass fields that load_config derives, so a config may not set them
DERIVED_KEYS = [("model", "n_features"), ("model", "seed"), ("model", "favor", "d_k")]


def config_keys():
    """The key path of every config key that holds no object: data's two
    keys, split, seed, and each field of a section's dataclass that
    load_config does not derive."""
    sections = {("indicators",): IndicatorParams, ("model",): ModelSpec,
                ("model", "favor"): FavorConfig, ("train",): TrainHyperparams}
    keys = {("data", "path"), ("data", "interval"), ("split",), ("seed",)}
    for section, cls in sections.items():
        keys |= {section + (field.name,) for field in dataclasses.fields(cls)}
    return keys - set(DERIVED_KEYS) - {("model", "favor")}


def full_config(tmp_path, csv_path):
    """A performer_bilstm config that sets every key, and its path."""
    config = make_config(tmp_path, csv_path, variant="performer_bilstm",
                         favor={"r": 16, "seed": 9, "causal": False, "redraw_interval": 2})
    raw = json.loads(config.read_text())
    raw["indicators"] = {"sma_n": 14, "ema_n": 14, "bb_n": 20, "bb_k": 2.0,
                         "rsi_n": 14, "cci_n": 20}
    raw["split"] = [0.7, 0.15, 0.15]
    return config, raw


DELETE = object()


def edited(raw, keys, value):
    """A copy of config ``raw`` with the entry at ``keys`` set to ``value``,
    or deleted when ``value`` is DELETE."""
    edit = json.loads(json.dumps(raw))
    section = edit
    for key in keys[:-1]:
        section = section[key]
    if value is DELETE:
        del section[keys[-1]]
    else:
        section[keys[-1]] = value
    return edit


@pytest.mark.parametrize("literal", NON_FINITE)
def test_non_finite_literal_in_any_config_leaf_is_config_error(tmp_path, fixture_csv, literal):
    """Python's json reads NaN, Infinity and -Infinity; the config load does not.
    The config sets every key, and each leaf is edited in turn."""
    config, raw = full_config(tmp_path, fixture_csv)
    leaves = list(config_leaves(raw))
    assert {keys[:-1] if isinstance(keys[-1], int) else keys
            for keys in leaves} == config_keys()
    for keys in leaves:
        config.write_text(json.dumps(edited(raw, keys, NON_FINITE[literal])))
        with pytest.raises(ConfigError, match=f"non-finite number {literal} "):
            load_config(config)


PROBES = [True, False, None, -1, 0, 2, 1.5, "x", [], {}]
SECTIONS = [(), ("data",), ("indicators",), ("model",), ("model", "favor"), ("train",)]


def sweep_edits(raw):
    """(name, config) for each edit of the config sweep: each leaf (a scalar,
    a list item or a whole list) set to each probe value, each key deleted,
    an unknown key added to each section, and each derived key set."""
    leaves = list(config_leaves(raw))
    leaves += sorted({keys[:-1] for keys in leaves if isinstance(keys[-1], int)})
    for keys in leaves:
        name = ".".join(map(str, keys))
        for value in PROBES:
            yield f"{name}={json.dumps(value)}", edited(raw, keys, value)
        if not isinstance(keys[-1], int):
            yield f"del {name}", edited(raw, keys, DELETE)
    for section in SECTIONS:
        yield ".".join(section + ("zzz",)), edited(raw, section + ("zzz",), 1)
    for keys in DERIVED_KEYS:
        yield ".".join(keys), edited(raw, keys, 8)


def test_config_sweep_loads_or_is_config_error(tmp_path, fixture_csv):
    """Every edit of the sweep either loads or raises ConfigError; a derived
    key is always rejected."""
    config, raw = full_config(tmp_path, fixture_csv)
    outcomes = {}
    for name, edit in sweep_edits(raw):
        config.write_text(json.dumps(edit))
        try:
            load_config(config)
            outcomes[name] = "ok"
        except ConfigError:
            outcomes[name] = "ConfigError"
        except Exception as exc:  # noqa: BLE001 - any other type is the failure
            outcomes[name] = type(exc).__name__
    # 31 leaves (29 scalars, five of them list items, and the two lists), of
    # which 26 are keys that can be deleted: the 342 edits, plus 3 derived keys
    assert len(outcomes) == 31 * len(PROBES) + 26 + len(SECTIONS) + len(DERIVED_KEYS)
    assert {k: v for k, v in outcomes.items() if v not in ("ok", "ConfigError")} == {}
    assert all(outcomes[".".join(keys)] == "ConfigError" for keys in DERIVED_KEYS)
    assert all(outcomes[".".join(s + ("zzz",))] == "ConfigError" for s in SECTIONS)


def test_config_sweep_through_prepare(tmp_path, fixture_csv, capsys):
    """A sample of the sweep through ``prepare``: a documented exit code
    and at most one line on stderr."""
    config, raw = full_config(tmp_path, fixture_csv)
    for name, edit in list(sweep_edits(raw))[::17]:
        config.write_text(json.dumps(edit))
        code = main(["prepare", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG), name
        assert len(err.splitlines()) == (code != EXIT_OK), (name, err)


def limit_memory():
    """Cap the address space at 4 GiB, so that a huge allocation fails fast."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


# each ended ``train`` with a traceback: a MemoryError for the first two, numpy's
# "Maximum allowed dimension exceeded" for the next two, and a TypeError from
# np.sqrt on a Python int for the last
HUGE_WIDTHS = [(("model", "d_model"), 10**6), (("model", "bilstm_hidden"), 10**6),
               (("model", "d_model"), 10**20), (("model", "fc_widths", 0), 10**20),
               (("model", "bilstm_hidden"), 10**20)]


@pytest.mark.parametrize("keys,value", HUGE_WIDTHS,
                         ids=[f"{'.'.join(map(str, k[1:]))}-{v:.0e}" for k, v in HUGE_WIDTHS])
def test_width_too_large_for_memory_exits_four(tmp_path, fixture_csv, keys, value):
    config = make_config(tmp_path, fixture_csv, variant="performer_bilstm")
    config.write_text(json.dumps(edited(json.loads(config.read_text()), keys, value)))
    proc = run_cli("-m", "fastforecast.cli", "train", "--config", str(config),
                   "--out", str(tmp_path / "out"), preexec_fn=limit_memory)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out").exists()


# each width is below numpy's largest extent, but makes an array whose byte
# size numpy cannot represent: ``train`` exited 1 with numpy's ValueError
# traceback for each, and ``prepare`` exited 0
UNREPRESENTABLE = {
    "fc_widths": ("bilstm_only", {"fc_widths": [10**18, 1]}, "model.fc_widths[0] "),
    "d_model-heads": ("transformer_mh", {"d_model": 2**62, "heads": 2**62}, "model.d_model "),
    "bilstm_hidden": ("bilstm_only", {"bilstm_hidden": 2**61}, "model.bilstm_hidden "),
    "favor.r": ("performer", {"favor": {"r": 2**60, "seed": 9}}, "model.favor.r "),
}


@pytest.mark.parametrize("command", ["prepare", "train", "evaluate"])
@pytest.mark.parametrize("variant,model_kw,field", UNREPRESENTABLE.values(),
                         ids=UNREPRESENTABLE)
def test_width_too_large_for_numpy_exits_four(tmp_path, command, variant, model_kw, field):
    """One config error line naming the field, before the CSV (which is
    missing) or the checkpoint is read or anything is written."""
    config = make_config(tmp_path, tmp_path / "missing.csv", variant, **model_kw)
    extra = ["--checkpoint", str(tmp_path / "missing.ffck")] if command == "evaluate" else []
    proc = run_cli("-m", "fastforecast.cli", command, "--config", str(config),
                   "--out", str(tmp_path / "out"), *extra, preexec_fn=limit_memory)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith(f"config error: {config}: {field}"), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out").exists()


# before the check, each of these exited 3, 0 (clipping silently off) or 2
NON_FINITE_CONFIGS = [
    ("train", ("indicators", "bb_k"), float("nan")),
    ("train", ("train", "lr"), float("inf")),
    ("train", ("train", "grad_clip"), float("nan")),
    ("prepare", ("split",), [float("nan"), 0.15, 0.15]),
]


@pytest.mark.parametrize("command,keys,value", NON_FINITE_CONFIGS,
                         ids=[f"{c}-{'.'.join(k)}" for c, k, _ in NON_FINITE_CONFIGS])
def test_non_finite_config_value_exits_four(tmp_path, fixture_csv, command, keys, value):
    config = make_config(tmp_path, fixture_csv, variant="performer_bilstm")
    raw = json.loads(config.read_text())
    section = raw
    for key in keys[:-1]:
        section = section.setdefault(key, {})
    section[keys[-1]] = value
    config.write_text(json.dumps(raw))
    proc = run_cli("-m", "fastforecast.cli", command, "--config", str(config),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out").exists()


# json reads 1e400 as infinity and a 400-digit integer as an int no float can
# hold.  Before the check, with 1e400 each of these prepared at exit 0 (bb_k
# with a numpy RuntimeWarning on stderr) and trained at exit 0 (grad_clip:
# clipping silently off) or 3 (lr, bb_k); with the integer, grad_clip trained
# at exit 0 and the others ended in an OverflowError traceback (exit 1)
OVERFLOWING_NUMBERS = [("train", "grad_clip"), ("train", "lr"), ("indicators", "bb_k")]


@pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400], ids=["1e400", "10**400"])
@pytest.mark.parametrize("command", ["prepare", "train"])
@pytest.mark.parametrize("section,key", OVERFLOWING_NUMBERS,
                         ids=[f"{s}.{k}" for s, k in OVERFLOWING_NUMBERS])
def test_number_too_large_for_a_float_exits_four(tmp_path, fixture_csv, command, section, key,
                                                  literal):
    config = make_config(tmp_path, fixture_csv, variant="performer_bilstm")
    raw = json.loads(config.read_text())
    raw.setdefault(section, {})[key] = "OVERFLOW"
    config.write_text(json.dumps(raw).replace('"OVERFLOW"', literal))
    proc = run_cli("-m", "fastforecast.cli", command, "--config", str(config),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert f"{key} must be a finite number" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make", [lambda v: TrainHyperparams(grad_clip=v),
                                  lambda v: TrainHyperparams(lr=v),
                                  lambda v: IndicatorParams(bb_k=v)],
                         ids=["grad_clip", "lr", "bb_k"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10**400],
                         ids=["inf", "-inf", "nan", "10**400"])
def test_non_finite_float_field_is_config_error(make, value):
    with pytest.raises(ConfigError, match="must be a finite number"):
        make(value)


def len_windows_oracle(rows, warmup, window):
    return rows - warmup - window


class TestTrainEvaluate:
    @pytest.mark.parametrize("variant", ["bilstm_only", "performer_bilstm"])
    def test_train_then_evaluate(self, tmp_path, fixture_csv, variant, capsys):
        config = make_config(tmp_path, fixture_csv, variant=variant)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert (out / "checkpoint.ffck").exists()
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["train_losses"]) == 2
        losses = (out / "losses.csv").read_text().strip().splitlines()
        assert losses[0] == "epoch,train_loss,val_loss"
        assert len(losses) == 3

        code = main(["evaluate", "--config", str(config),
                     "--checkpoint", str(out / "checkpoint.ffck"),
                     "--split", "test", "--out", str(out)])
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics_test.json").read_text())
        assert list(metrics) == ["MSE", "RMSE", "R-Square", "MSLE"]
        pred_lines = (out / "predictions_test.csv").read_text().strip().splitlines()
        assert pred_lines[0] == "timestamp,actual,predicted"

    def test_metrics_json_matches_prediction_csv(self, tmp_path, fixture_csv):
        config = make_config(tmp_path, fixture_csv)
        out = tmp_path / "run"
        main(["train", "--config", str(config), "--out", str(out)])
        main(["evaluate", "--config", str(config),
              "--checkpoint", str(out / "checkpoint.ffck"),
              "--split", "val", "--out", str(out)])
        metrics = json.loads((out / "metrics_val.json").read_text())
        _, actual, predicted = np.loadtxt(out / "predictions_val.csv", delimiter=",",
                                          skiprows=1, unpack=True)
        # independent recomputation from the emitted CSV
        d = actual - predicted
        assert metrics["MSE"] == pytest.approx(float(np.mean(d * d)), abs=1e-10)
        assert metrics["RMSE"] == pytest.approx(float(np.sqrt(np.mean(d * d))), abs=1e-10)
        assert metrics["R-Square"] == pytest.approx(
            1.0 - float(np.var(d)) / float(np.var(actual)), abs=1e-10)
        log_d = np.log1p(actual) - np.log1p(predicted)
        assert metrics["MSLE"] == pytest.approx(float(np.mean(log_d * log_d)), abs=1e-10)

    @pytest.mark.parametrize("variant", ["bilstm_only", "transformer_mh_no_indicators",
                                         "performer_bilstm", "performer_causal"])
    def test_evaluate_val_reproduces_train_report_metrics(self, tmp_path, fixture_csv,
                                                          variant):
        kw = {}
        if variant == "performer_causal":
            variant, kw = "performer", {"favor": {"r": 16, "seed": 9, "causal": True}}
        config = make_config(tmp_path, fixture_csv, variant=variant, **kw)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert main(["evaluate", "--config", str(config),
                     "--checkpoint", str(out / "checkpoint.ffck"),
                     "--split", "val", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "train_report.json").read_text())
        assert json.loads((out / "metrics_val.json").read_text()) == report["metrics"]

    def test_rerun_is_byte_identical(self, tmp_path, fixture_csv):
        config = make_config(tmp_path, fixture_csv, variant="performer_bilstm",
                             dropout=0.1)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["train", "--config", str(config), "--out", str(out1)])
        main(["train", "--config", str(config), "--out", str(out2)])
        for name in ("train_report.json", "losses.csv", "checkpoint.ffck"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path, fixture_csv):
        from fastforecast.model import build, load_checkpoint

        config = make_config(tmp_path, fixture_csv)
        raw = json.loads(config.read_text())
        raw["train"]["epochs"] = 0
        config.write_text(json.dumps(raw))
        out = tmp_path / "zero"
        assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
        model, _ = load_checkpoint(out / "checkpoint.ffck")
        fresh = build(model.spec)
        for name in fresh.params:
            assert np.array_equal(fresh.params[name].data, model.params[name].data)

    def test_divergence_exits_three(self, tmp_path, fixture_csv):
        """An absurd learning rate overflows the parameters; training aborts
        with the divergence exit code and one stderr line, no numpy warning
        before it, instead of writing NaN artifacts."""
        for variant in ("bilstm_only", "performer"):
            config = make_config(tmp_path, fixture_csv, variant=variant)
            raw = json.loads(config.read_text())
            raw["train"] = {"epochs": 3, "batch": 16, "lr": 1e200, "grad_clip": 0.0}
            config.write_text(json.dumps(raw))
            out = tmp_path / f"diverged_{variant}"
            result = run_cli("-m", "fastforecast.cli", "train", "--config", str(config),
                             "--out", str(out))
            assert result.returncode == 3, variant
            assert len(result.stderr.splitlines()) == 1, result.stderr
            assert "diverged" in result.stderr
            assert not (out / "checkpoint.ffck").exists()

    def test_train_without_validation_windows_names_the_train_split(self, tmp_path, capsys):
        """33 rows give 4/0/2 windows: the best epoch and the metrics come from
        the training split, and were printed as validation metrics."""
        path = tmp_path / "short.csv"
        write_csv(path, candle_rows(33, seed=2))
        config = make_config(tmp_path, path)
        out = tmp_path / "run"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == EXIT_OK
        windows = json.loads((out / "manifest.json").read_text())["windows"]
        assert windows == {"train": 4, "validation": 0, "test": 2}
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "train MSE: " in printed and "validation MSE" not in printed
        report = json.loads((out / "train_report.json").read_text())
        assert report["metrics"] is not None

    def test_overfit_single_window_reaches_tiny_mse(self, tmp_path):
        """Memorization through the CLI: a dataset with one training window
        drives train MSE below 1e-6."""
        path = tmp_path / "short.csv"
        write_csv(path, candle_rows(28, seed=2))
        config = make_config(tmp_path, path, variant="bilstm_only",
                             bilstm_hidden=8, fc_widths=[8, 1])
        raw = json.loads(config.read_text())
        raw["train"] = {"epochs": 300, "batch": 1, "lr": 0.003, "grad_clip": 0.0}
        config.write_text(json.dumps(raw))
        out = tmp_path / "overfit"
        assert main(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "train_report.json").read_text())
        assert min(report["train_losses"]) <= 1e-6


# a version 1 checkpoint, the untrained performer_bilstm of make_config over
# candle_rows(140, seed=21), and its test-split metrics and predictions, as
# version 1 code wrote them
V1_DIR = Path(__file__).parent / "data" / "v1"


def read_header(blob):
    """A checkpoint's binary version and its JSON header."""
    version, length = struct.unpack_from("<II", blob, 4)
    return version, json.loads(blob[12:12 + length])


def replace_header(blob, new):
    """A checkpoint whose JSON header is the bytes ``new``."""
    length = struct.unpack_from("<I", blob, 8)[0]
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + length:]


def edit_header(blob, edit):
    """A checkpoint whose JSON header is passed through ``edit``."""
    _, header = read_header(blob)
    edit(header)
    return replace_header(blob, json.dumps(header).encode())


# valid JSON nested past the parser's recursion limit: a config or header
# holding it ended in a RecursionError traceback (exit 1)
NESTED_TOO_DEEP = b"[" * 200_000 + b"]" * 200_000


def set_header_field(path, value):
    """A corruption that sets the header entry at ``path``, a tuple of keys
    and list indices."""
    def edit(header):
        section = header
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
    return lambda blob: edit_header(blob, edit)


def on_v1(corrupt):
    """The corruption applied to the version 1 fixture instead."""
    return lambda blob: corrupt((V1_DIR / "checkpoint.ffck").read_bytes())


MALFORMED_CHECKPOINTS = {
    "bad_magic": lambda b: b"NOPE" + b[4:],
    "bad_version": lambda b: b[:4] + struct.pack("<I", 99) + b[8:],
    "cut_to_6_bytes": lambda b: b[:6],
    "cut_in_header": lambda b: b[:20],
    "non_utf8_header": lambda b: b[:12] + b"\xff" + b[13:],
    "bad_json": lambda b: b[:12] + b"[" + b[13:],
    "header_nested_too_deep": lambda b: replace_header(b, NESTED_TOO_DEEP),
    "missing_key": lambda b: edit_header(b, lambda h: h.pop("norm")),
    "unknown_spec_field": lambda b: edit_header(b, lambda h: h["spec"].update(colour=1)),
    "cut_in_parameters": lambda b: b[:-8],
    "trailing_bytes": lambda b: b + b"\x00" * 4,
    "nan_parameter": lambda b: b[:-8] + struct.pack("<d", float("nan")),
    "zero_bilstm_hidden": lambda b: edit_header(b, lambda h: h["spec"].update(bilstm_hidden=0)),
    "zero_std": set_header_field(("norm", "std", 0), 0.0),
    "nan_std": set_header_field(("norm", "std", 0), float("nan")),
    "negative_std": set_header_field(("norm", "std", 0), -1.0),
    "infinite_mean": set_header_field(("norm", "mean", 0), float("inf")),
    # each of these loaded at exit 0 and gave other numbers, or ran another kernel
    "target_index_not_close": set_header_field(("norm", "target_index"), 1),
    "target_index_bool": set_header_field(("norm", "target_index"), True),
    "favor_generation_bool": set_header_field(("favor_generation",), True),
    "causal_string": set_header_field(("spec", "favor", "causal"), "false"),
    "causal_int": set_header_field(("spec", "favor", "causal"), 1),
    "redraw_interval_float": set_header_field(("spec", "favor", "redraw_interval"), 2.5),
    "favor_seed_bool": set_header_field(("spec", "favor", "seed"), True),
    # these loaded at exit 0 with the same numbers, a wrong type taken as read
    "spec_seed_null": set_header_field(("spec", "seed"), None),
    "spec_seed_bool": set_header_field(("spec", "seed"), True),
    "dropout_bool": set_header_field(("spec", "dropout"), False),
    # the copies of the binary version and of spec.seed that version 1 headers
    # carry were never read
    "header_version_other": on_v1(set_header_field(("version",), 7)),
    "header_seed_other": on_v1(set_header_field(("seed",), 99)),
    # each of these loaded at exit 0; the reversed list read each buffer under
    # another parameter's name and gave other predictions
    "unknown_header_field": set_header_field(("colour",), 1),
    "unknown_norm_field": set_header_field(("norm", "colour"), 1),
    "unknown_params_entry_field": set_header_field(("params", 0, "colour"), 1),
    "params_reversed": lambda b: edit_header(b, lambda h: h["params"].reverse()),
    "v1_unknown_header_field": on_v1(set_header_field(("colour",), 1)),
    "v1_unknown_norm_field": on_v1(set_header_field(("norm", "colour"), 1)),
    "v1_unknown_params_entry_field": on_v1(set_header_field(("params", 0, "colour"), 1)),
    # version 2 says each fact once: the version 1 copies are unknown fields
    "v2_header_seed": set_header_field(("seed",), 5),
    # each of these loaded at exit 0 with the field's default: a missing
    # favor.r read as 128 instead of 16 and gave other predictions
    "spec_favor_r_missing": lambda b: edit_header(b, lambda h: h["spec"]["favor"].pop("r")),
    "spec_dropout_missing": lambda b: edit_header(b, lambda h: h["spec"].pop("dropout")),
    "spec_seed_missing": lambda b: edit_header(b, lambda h: h["spec"].pop("seed")),
}


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    csv_path = tmp / "ohlcv.csv"
    write_csv(csv_path, candle_rows(140, seed=21))
    # a FAVOR+ variant, so that the header has every field
    config = make_config(tmp, csv_path, variant="performer_bilstm")
    assert main(["train", "--config", str(config), "--out", str(tmp / "run")]) == EXIT_OK
    return config, (tmp / "run" / "checkpoint.ffck").read_bytes()


@pytest.mark.parametrize("corrupt", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS)
def test_malformed_checkpoint_exits_four(trained_run, corrupt, tmp_path):
    config, blob = trained_run
    bad = tmp_path / "bad.ffck"
    bad.write_bytes(corrupt(blob))
    proc = run_cli("-m", "fastforecast.cli", "evaluate", "--config", str(config),
                   "--checkpoint", str(bad), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ")


@pytest.mark.parametrize("variant", ["bilstm_only", "transformer_mh",
                                     "transformer_mh_no_indicators"])
def test_evaluate_with_another_variant_exits_four(trained_run, tmp_path, variant):
    """A config naming another variant than the checkpoint's exited 0 with
    the checkpoint model's metrics, or 2 for columns its statistics lack."""
    config, blob = trained_run
    raw = json.loads(config.read_text())
    other = make_config(tmp_path, raw["data"]["path"], variant=variant)
    checkpoint = tmp_path / "checkpoint.ffck"
    checkpoint.write_bytes(blob)
    proc = run_cli("-m", "fastforecast.cli", "evaluate", "--config", str(other),
                   "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert f"'{variant}'" in proc.stderr and "'performer_bilstm'" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, args, key, values", [
    (lambda m: m.update(bilstm_hidden=32), [], "model.bilstm_hidden", ("4", "32")),
    (lambda m: m.update(fc_widths=[16, 8, 1]), [], "model.fc_widths", ("(4, 1)", "(16, 8, 1)")),
    (lambda m: m.update(dropout=0.5), [], "model.dropout", ("0.0", "0.5")),
    (lambda m: m["favor"].update(r=32), [], "model.favor.r", ("16", "32")),
    (lambda m: None, ["--seed", "99"], "model.seed", ("5", "99")),
], ids=["bilstm_hidden", "fc_widths", "dropout", "favor.r", "seed"])
def test_evaluate_with_another_model_field_exits_four(trained_run, tmp_path, edit, args, key,
                                                      values):
    """A config whose model section differs from the checkpoint's spec in one
    field exited 0 with the checkpoint model's metrics.  The check runs before
    the data CSV is read: its path here does not exist."""
    config, blob = trained_run
    raw = json.loads(config.read_text())
    edit(raw["model"])
    raw["data"]["path"] = str(tmp_path / "missing.csv")
    other = tmp_path / "config.json"
    other.write_text(json.dumps(raw))
    checkpoint = tmp_path / "checkpoint.ffck"
    checkpoint.write_bytes(blob)
    proc = run_cli("-m", "fastforecast.cli", "evaluate", "--config", str(other),
                   "--checkpoint", str(checkpoint), *args, "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert f"{key} is {values[0]} in the checkpoint, but {values[1]} in the config" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model_kw", [{"heads": 3}, {"fc_widths": [4, 2]}],
                         ids=["heads-3", "fc_widths-4-2"])
def test_evaluate_rejects_model_section_train_rejects(trained_run, tmp_path, model_kw):
    """``evaluate`` builds the config's model section as ``train`` does."""
    config, blob = trained_run
    raw = json.loads(config.read_text())
    raw["model"].update(model_kw)
    bad_config = tmp_path / "config.json"
    bad_config.write_text(json.dumps(raw))
    checkpoint = tmp_path / "checkpoint.ffck"
    checkpoint.write_bytes(blob)
    proc = run_cli("-m", "fastforecast.cli", "evaluate", "--config", str(bad_config),
                   "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out").exists()


def test_version_1_checkpoint_evaluates_as_before(tmp_path, fixture_csv):
    """``evaluate`` on the version 1 fixture writes the metrics and
    predictions that version 1 code wrote from it, byte for byte."""
    config = make_config(tmp_path, fixture_csv, variant="performer_bilstm")
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(config), "--checkpoint",
                 str(V1_DIR / "checkpoint.ffck"), "--split", "test", "--out", str(out)]) == EXIT_OK
    for name in ("metrics_test.json", "predictions_test.csv"):
        assert (out / name).read_bytes() == (V1_DIR / name).read_bytes(), name


@pytest.mark.parametrize("field", ["n_features", "bilstm_hidden"])
def test_non_finite_spec_width_exits_four(trained_run, field, tmp_path):
    """A NaN width reached rng.uniform and died with an OverflowError traceback."""
    config, blob = trained_run
    bad = tmp_path / "bad.ffck"
    bad.write_bytes(set_header_field(("spec", field), float("nan"))(blob))
    proc = run_cli("-m", "fastforecast.cli", "evaluate", "--config", str(config),
                   "--checkpoint", str(bad), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert "non-finite number NaN" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


class TestBench:
    def test_bench_writes_csv_with_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--lengths", "32,64", "--dk", "8", "--r", "16",
                     "--reps", "2", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == "mode,L,d_k,r,rep,wall_ns,peak_bytes_estimate"
        assert len(lines) == 1 + 2 * 2 * 2  # |L| * modes * reps
        assert "slope" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [["--lengths", "32,abc"], ["--lengths", "0,32"],
                                     ["--lengths=-4,32"], ["--dk", "-1"], ["--seed", "-1"],
                                     ["--r", "0"], ["--dk", "0"]],
                             ids=["not-int", "zero", "negative", "dk", "seed", "r-zero",
                                  "dk-zero"])
    def test_bad_argument_exits_four(self, tmp_path, bad):
        proc = run_cli("-m", "fastforecast.cli", "bench", "--lengths", "8,16", "--dk", "4",
                       "--r", "8", "--reps", "1", *bad, "--out", str(tmp_path / "bench"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: ")
        assert not (tmp_path / "bench").exists()

    def test_r_too_large_for_numpy_exits_four(self, tmp_path):
        """r·d_k below numpy's largest extent, but not its byte size: one line
        naming r, where numpy's ValueError ended the probe with a traceback."""
        proc = run_cli("-m", "fastforecast.cli", "bench", "--lengths", "8,16", "--dk", "4",
                       "--r", str(2**60), "--reps", "1", "--out", str(tmp_path / "bench"),
                       preexec_fn=limit_memory)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("config error: r makes a "), proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert not (tmp_path / "bench").exists()

    def test_reps_below_one_exits_four_naming_reps(self, tmp_path):
        proc = run_cli("-m", "fastforecast.cli", "bench", "--lengths", "8,16", "--dk", "4",
                       "--r", "8", "--reps", "0", "--out", str(tmp_path / "bench"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: ")
        assert "reps" in proc.stderr
        assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("command", ["prepare", "train"])
def test_negative_seed_override_exits_four(tmp_path, fixture_csv, command):
    """The schema's minimum of 0 holds for --seed as it does for the config."""
    config = make_config(tmp_path, fixture_csv)
    proc = run_cli("-m", "fastforecast.cli", command, "--config", str(config),
                   "--seed", "-1", "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: --seed -1")
    assert not (tmp_path / "out").exists()


def _not_utf8_config(tmp_path, config):
    config.write_bytes(config.read_bytes().replace(b'"hourly"', b'"hourly\xff"'))
    return [], EXIT_CONFIG, "not UTF-8"


def _config_nested_too_deep(tmp_path, config):
    config.write_bytes(NESTED_TOO_DEEP)
    return [], EXIT_CONFIG, f"{config}: JSON nested too deeply"


def _not_utf8_csv(tmp_path, config):
    csv_path = Path(json.loads(config.read_text())["data"]["path"])
    csv_path.write_bytes(csv_path.read_bytes() + b"\xff\xfe\n")
    return [], EXIT_INPUT, f"{csv_path}: not UTF-8"


def _csv_is_directory(tmp_path, config):
    make_config(tmp_path, tmp_path)  # rewrites the config with the directory as data
    return [], EXIT_INPUT, "Is a directory"


def _out_below_file(tmp_path, config):
    (tmp_path / "taken").write_text("")
    return ["--out", str(tmp_path / "taken" / "out")], EXIT_INPUT, "Not a directory"


def _csv_field_too_long(tmp_path, config):
    csv_path = Path(json.loads(config.read_text())["data"]["path"])
    with open(csv_path, "a", encoding="utf-8") as fh:
        fh.write("1" * (csv.field_size_limit() + 1) + ",1,1,1,1,1\n")
    lines = len(csv_path.read_text(encoding="utf-8").splitlines())
    return [], EXIT_INPUT, f"{csv_path}:{lines}: field larger than field limit"


UNREADABLE_INPUTS = {"config-not-utf8": _not_utf8_config,
                     "config-nested-too-deep": _config_nested_too_deep,
                     "csv-not-utf8": _not_utf8_csv,
                     "csv-is-directory": _csv_is_directory, "out-below-file": _out_below_file,
                     "csv-field-too-long": _csv_field_too_long}


@pytest.mark.parametrize("spoil", UNREADABLE_INPUTS.values(), ids=UNREADABLE_INPUTS)
def test_unreadable_input_or_output_exits_with_its_code(tmp_path, fixture_csv, spoil):
    """Undecodable or unreadable inputs and unwritable outputs: a one-line
    error and the documented exit code, never a traceback."""
    config = make_config(tmp_path, fixture_csv)
    args, code, message = spoil(tmp_path, config)
    proc = run_cli("-m", "fastforecast.cli", "prepare", "--config", str(config),
                   "--out", str(tmp_path / "out"), *args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_timestamp_outside_int64_exits_two(tmp_path):
    """A timestamp numpy cannot hold is an input error naming its line."""
    csv_path = tmp_path / "far.csv"
    write_csv(csv_path, candle_rows(200, start_ts=2**63))
    config = make_config(tmp_path, csv_path)
    proc = run_cli("-m", "fastforecast.cli", "prepare", "--config", str(config),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {csv_path}:2: timestamp")
    assert not (tmp_path / "out").exists()


def _bad_value(column, value):
    """A row edit that sets ``column`` (1 open .. 5 volume) to ``value``, or to
    the value of the column that ``value`` names."""
    def edit(row):
        row[column] = row[value] if isinstance(value, int) else value
    return edit


# one per value rule of OhlcvSeries; each exited 2 without a line number
BAD_CANDLES = {"nan-close": (_bad_value(4, "nan"), "non-finite value in candle data"),
               "inf-volume": (_bad_value(5, "inf"), "non-finite value in candle data"),
               "minus-inf-open": (_bad_value(1, "-inf"), "non-finite value in candle data"),
               "high-below-open-close": (_bad_value(2, 3), "candle violates high/low envelope"),
               "low-above-open-close": (_bad_value(3, 2), "candle violates high/low envelope"),
               "negative-volume": (_bad_value(5, -1.0), "negative volume")}


@pytest.mark.parametrize("edit,message", BAD_CANDLES.values(), ids=BAD_CANDLES)
def test_candle_rejected_for_its_values_names_its_line(tmp_path, edit, message, capsys):
    """Row 100 of a 140-row file, after a gap at row 10 and a blank line:
    line 103, counted in the file, not in the kept segment."""
    rows = [list(row) for row in candle_rows(140, seed=21)]
    for row in rows[10:]:
        row[0] += 3600  # a gap: the longest segment starts at row 10
    edit(rows[100])
    csv_path = tmp_path / "bad.csv"
    write_csv(csv_path, rows[:50] + [[""]] + rows[50:])
    config = make_config(tmp_path, csv_path)
    assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "out")]) \
        == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {csv_path}:103: {message}\n"
    assert not (tmp_path / "out").exists()
