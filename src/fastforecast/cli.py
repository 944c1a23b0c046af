"""Command-line front end: prepare, train, evaluate, bench.

Every command but ``bench`` is driven by a JSON config.  ``load_config``
rejects unknown keys and builds each section's dataclass, which checks the
type and range of every field it holds, so ``prepare`` and ``evaluate``
reject what ``train`` rejects.  Outputs are reproducible: re-running a
command with the same config and seed overwrites its artifacts with
byte-identical content.

Exit codes: 0 success, 2 input error (a missing, unreadable or undecodable
input, or an output that cannot be written), 3 numeric divergence, 4 config
error (also a model too large for the machine's memory).

The FF_THREADS environment variable caps BLAS/OpenMP worker threads: this
module applies it as it loads, before its own imports load numpy, and a
thread variable already set in the environment is left as it is.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys


def _cap_threads() -> None:
    """Honour FF_THREADS before any numpy/BLAS initialisation."""
    cap = os.environ.get("FF_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, cap)


_cap_threads()

import numpy as np  # noqa: E402

from .data import (INTERVALS, SPLIT_FRACTIONS, atomic_write, evaluate_metrics,  # noqa: E402
                   load_csv, make_dataset, write_csv, write_predictions)
from .errors import (ConfigError, DataError, DivergenceError, FiniteError,  # noqa: E402
                     check_field, check_keys)
from .favor import PROBE_COLUMNS, FavorConfig, complexity_probe, loglog_slope  # noqa: E402
from .indicators import FEATURE_COLUMNS, RAW_COLUMNS, IndicatorParams  # noqa: E402
from .model import (VARIANTS, ModelSpec, TrainHyperparams, build, load_checkpoint,  # noqa: E402
                    predict_series, read_json, save_checkpoint, stages_of, train)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_CONFIG = 4

SPLIT_NAMES = {"train": "train", "val": "validation", "test": "test"}


def _fields(cls, *derived) -> list:
    """The fields of dataclass ``cls`` other than the ``derived`` ones."""
    return [f.name for f in dataclasses.fields(cls) if f.name not in derived]


def _checked(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ConfigError it raises starts with a field
    name, and gets the key path of that field's ``section`` in front."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from None


def load_config(path, seed_override=None) -> dict:
    """Parse an experiment config and build each section's dataclass, which
    holds every rule on its fields and every default.  This function checks
    the keys, ``data``, ``split`` and ``seed``, and derives what a config may
    not set: ``model.n_features`` from the variant's columns, ``model.seed``
    from ``seed``, and ``model.favor.d_k`` from ``d_model`` and ``heads``."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = read_json(fh.read())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if seed_override is not None and seed_override < 0:  # the config's minimum
        raise ConfigError(f"--seed {seed_override}: must be >= 0")
    try:
        check_keys("config", raw, ("data", "indicators", "model", "train", "split", "seed"),
                   ("data", "model"))
        data = check_keys("data", raw["data"], ("path", "interval"), ("path", "interval"))
        if not isinstance(data["path"], str):
            raise ConfigError(f"data.path must be a string, got {data['path']!r}")
        interval = data["interval"]
        if not (isinstance(interval, str) and interval in INTERVALS):
            check_field(f"data.interval (or one of {', '.join(INTERVALS)})", interval, int, 1)
        split = raw.get("split", list(SPLIT_FRACTIONS))
        if not isinstance(split, list) or len(split) != 3:
            raise ConfigError(f"split must be a list of three numbers, got {split!r}")
        for i, fraction in enumerate(split):
            check_field(f"split[{i}]", fraction, float, above=0)
        if abs(sum(split) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions sum to {sum(split)}, expected 1")
        seed = raw.get("seed", ModelSpec.seed)
        check_field("seed", seed, int, 0)
        seed = seed if seed_override is None else seed_override

        model = dict(check_keys("model", raw["model"], _fields(ModelSpec, "n_features", "seed"),
                                ("variant", "window")))
        stages = _checked("model", stages_of, model["variant"])
        if stages.attention == "favor":
            favor = check_keys("model.favor", model.get("favor", {}), _fields(FavorConfig, "d_k"))
            sizes = {k: model.get(k, getattr(ModelSpec, k)) for k in ("d_model", "heads")}
            for name, value in sizes.items():  # d_k derives from them, so they are checked first
                check_field(f"model.{name}", value, int, 1)
            model["favor"] = _checked("model.favor", FavorConfig, **{
                "seed": seed + 1, **favor, "d_k": sizes["d_model"] // sizes["heads"]})
        elif "favor" in model:
            raise ConfigError(f"model.variant '{model['variant']}' does not take a favor config")
        columns = FEATURE_COLUMNS if stages.indicators else RAW_COLUMNS
        return {
            "data": data,
            "indicators": _checked("indicators", IndicatorParams, **check_keys(
                "indicators", raw.get("indicators", {}), _fields(IndicatorParams))),
            "model": _checked("model", ModelSpec, **model, n_features=len(columns), seed=seed),
            "train": _checked("train", TrainHyperparams, **check_keys(
                "train", raw.get("train", {}), _fields(TrainHyperparams))),
            "split": tuple(split),
        }
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build_dataset(cfg, norm=None):
    params = cfg["indicators"] if VARIANTS[cfg["model"].variant].indicators else None
    series = load_csv(cfg["data"]["path"], cfg["data"]["interval"])
    dataset = make_dataset(series, params, cfg["model"].window, cfg["split"], norm=norm)
    return series, dataset


def _write_json(path, payload, sort: bool = True) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort)
        fh.write("\n")


def cmd_prepare(args) -> int:
    cfg = load_config(args.config, args.seed)
    series, dataset = _build_dataset(cfg)
    os.makedirs(args.out, exist_ok=True)
    warmup = len(series) - (len(dataset.windows) + dataset.window_length)
    manifest = {
        "rows": len(series),
        "interval": series.interval,
        "warmup": warmup,
        "window_length": dataset.window_length,
        "n_features": dataset.n_features,
        "columns": list(dataset.columns),
        "windows": {name: len(r) for name, r in dataset.split.named().items()},
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    print(f"rows: {manifest['rows']}  warmup: {manifest['warmup']}")
    for name, count in manifest["windows"].items():
        print(f"{name} windows: {count}")
    print(f"manifest written to {os.path.join(args.out, 'manifest.json')}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    _, dataset = _build_dataset(cfg)
    model = build(cfg["model"])
    report = train(model, dataset, cfg["train"])

    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(model, dataset.norm, os.path.join(args.out, "checkpoint.ffck"))
    _write_json(os.path.join(args.out, "train_report.json"), report.to_dict())
    # one row per epoch: the training and validation loss, as ``repr`` floats
    write_csv(os.path.join(args.out, "losses.csv"), ["epoch", "train_loss", "val_loss"],
              ([epoch, repr(tl), repr(vl)] for epoch, (tl, vl)
               in enumerate(zip(report.train_losses, report.val_losses))))

    print(f"parameters: {report.parameter_count}")
    print(f"best epoch: {report.best_epoch}")
    if report.metrics:
        split = "validation" if len(dataset.split.validation) else "train"  # as train() picks
        for name, value in report.metrics.to_dict().items():
            print(f"{split} {name}: {value:.6g}")
    print(f"checkpoint written to {os.path.join(args.out, 'checkpoint.ffck')}")
    return EXIT_OK


def _same_fields(checkpoint, config, path: str) -> None:
    """Raise ConfigError naming the first field, in field order, where the checkpoint's
    dataclass and the config's differ (a nested one field by field), and both values."""
    for key in (f.name for f in dataclasses.fields(checkpoint)):
        a, b = getattr(checkpoint, key), getattr(config, key)
        if a != b and dataclasses.is_dataclass(a):
            _same_fields(a, b, f"{path}.{key}")
        elif a != b:
            raise ConfigError(f"{path}.{key} is {a!r} in the checkpoint, but {b!r} in the config")


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.seed)
    model, norm = load_checkpoint(args.checkpoint)
    # the weights fit the checkpoint's spec: a config that names another is not run
    _same_fields(model.spec, cfg["model"], f"{args.checkpoint}: model")
    # the weights assume the statistics fitted at training time, not a fresh fit
    _, dataset = _build_dataset(cfg, norm)
    pred = predict_series(model, dataset, SPLIT_NAMES[args.split])
    metrics = evaluate_metrics(pred.actual, pred.predicted)

    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, f"metrics_{args.split}.json")
    _write_json(metrics_path, metrics.to_dict(), sort=False)  # fixed column order
    csv_path = os.path.join(args.out, f"predictions_{args.split}.csv")
    write_predictions(csv_path, pred.timestamps, pred.actual, pred.predicted)
    for name, value in metrics.to_dict().items():
        print(f"{name}: {value:.6g}")
    print(f"predictions written to {csv_path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        lengths = [int(x) for x in args.lengths.split(",")]
    except ValueError:
        raise ConfigError(f"--lengths {args.lengths}: expected comma-separated integers") from None
    r = FavorConfig.r if args.r is None else args.r
    rows = []
    slopes = {}
    for mode in ("exact", "favor"):
        mode_rows = complexity_probe(mode, lengths, args.dk, r, args.reps,
                                     seed=args.seed or 0)
        rows.extend(mode_rows)
        slopes[mode] = loglog_slope(mode_rows)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bench.csv")
    write_csv(path, PROBE_COLUMNS, map(dataclasses.astuple, rows))
    for mode, slope in slopes.items():
        print(f"{mode} log-log time slope: {slope:.3f}")
    print(f"bench table written to {path}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastforecast",
        description="Close-price forecasting with linear-attention models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("prepare", help="ingest the CSV and summarise the dataset")
    common(p)
    p = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p)
    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=sorted(SPLIT_NAMES), default="test")
    p = sub.add_parser("bench", help="time exact vs linear attention over L")
    common(p, config=False)
    p.add_argument("--lengths", default="256,512,1024,2048",
                   help="comma-separated sequence lengths")
    p.add_argument("--dk", type=int, default=32, help="query/key width")
    p.add_argument("--r", type=int, help="random-feature count (default: FavorConfig.r)")
    p.add_argument("--reps", type=int, default=3, help="repetitions per length")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handler = {"prepare": cmd_prepare, "train": cmd_train,
               "evaluate": cmd_evaluate, "bench": cmd_bench}[args.command]
    try:
        # an overflow is reported once, as the FiniteError check_finite raises
        # for it, not also as numpy's RuntimeWarnings on the way there
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return handler(args)
    except (OSError, DataError) as exc:  # missing, unreadable or unwritable paths too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DivergenceError, FiniteError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
