"""Command-line front end: prepare, train, evaluate, bench.

Every command is driven by a JSON config checked against CONFIG_SCHEMA
(unknown keys are rejected).  Outputs are reproducible: re-running a
command with the same config and seed overwrites its artifacts with
byte-identical content.

Exit codes: 0 success, 2 input error (a missing, unreadable or undecodable
input, or an output that cannot be written), 3 numeric divergence, 4 config
error.

The FF_THREADS environment variable caps BLAS/OpenMP worker threads; it is
applied before numpy is imported, which is why all numeric imports here
live inside functions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["data", "model"],
    "properties": {
        "data": {
            "type": "object",
            "additionalProperties": False,
            "required": ["path", "interval"],
            "properties": {
                "path": {"type": "string"},
                "interval": {
                    "oneOf": [{"enum": ["hourly", "daily"]},
                              {"type": "integer", "minimum": 1}],
                },
            },
        },
        "indicators": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sma_n": {"type": "integer", "minimum": 1},
                "ema_n": {"type": "integer", "minimum": 1},
                "bb_n": {"type": "integer", "minimum": 2},
                "bb_k": {"type": "number", "exclusiveMinimum": 0},
                "rsi_n": {"type": "integer", "minimum": 1},
                "cci_n": {"type": "integer", "minimum": 2},
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["variant", "window"],
            "properties": {
                "variant": {"type": "string"},
                "window": {"type": "integer", "minimum": 1},
                "d_model": {"type": "integer", "minimum": 1},
                "blocks": {"type": "integer", "minimum": 1},
                "heads": {"type": "integer", "minimum": 1},
                "favor": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "r": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer", "minimum": 0},
                        "causal": {"type": "boolean"},
                        "redraw_interval": {"type": ["integer", "null"], "minimum": 1},
                    },
                },
                "bilstm_hidden": {"type": "integer", "minimum": 1},
                "fc_widths": {"type": "array", "items": {"type": "integer", "minimum": 1},
                              "minItems": 1},
                "dropout": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epochs": {"type": "integer", "minimum": 0},
                "batch": {"type": "integer", "minimum": 1},
                "lr": {"type": "number", "minimum": 0},
                "grad_clip": {"type": "number", "minimum": 0},
            },
        },
        "split": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 3,
            "maxItems": 3,
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_CONFIG = 4

SPLIT_NAMES = {"train": "train", "val": "validation", "test": "test"}


def _cap_threads() -> None:
    """Honour FF_THREADS before any numpy/BLAS initialisation."""
    cap = os.environ.get("FF_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, cap)


def _defaults(cls) -> dict:
    """The field defaults a dataclass declares."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def load_config(path, seed_override=None) -> dict:
    """Parse, schema-check and default-fill an experiment config from the
    dataclass defaults (ModelSpec, FavorConfig, TrainHyperparams)."""
    import jsonschema

    from .data import SPLIT_FRACTIONS
    from .errors import ConfigError
    from .favor import FavorConfig
    from .model import VARIANTS, ModelSpec, TrainHyperparams, reject_non_finite

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=reject_non_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    # JSON Schema's "integer" admits 16.0, which would reach range() and crash
    base = jsonschema.Draft202012Validator
    strict = jsonschema.validators.extend(base, type_checker=base.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)))
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA, cls=strict)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"{path}: {exc.message}") from None

    variant = raw["model"]["variant"]
    if variant not in VARIANTS:
        raise ConfigError(f"{path}: unknown variant '{variant}' (one of {', '.join(VARIANTS)})")
    model = {**_defaults(ModelSpec), **raw["model"]}
    seed = model.pop("seed")  # the config sets it at the top level
    cfg = {"data": dict(raw["data"]),
           "indicators": dict(raw.get("indicators", {})),
           "model": model,
           "train": {**_defaults(TrainHyperparams), **raw.get("train", {})},
           "split": list(raw.get("split", SPLIT_FRACTIONS)),
           "seed": int(raw.get("seed", seed))}
    if seed_override is not None:
        if seed_override < 0:  # the schema's minimum, which an override bypasses
            raise ConfigError(f"--seed {seed_override}: must be >= 0")
        cfg["seed"] = int(seed_override)
    if VARIANTS[variant].attention == "favor":
        model["favor"] = {**_defaults(FavorConfig), "seed": cfg["seed"] + 1,
                          **(model["favor"] or {}), "d_k": model["d_model"] // model["heads"]}
    elif model["favor"] is not None:
        raise ConfigError(f"variant '{variant}' does not take a favor config")
    total = sum(cfg["split"])
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"split fractions sum to {total}, expected 1")
    return cfg


def _build_dataset(cfg, norm=None):
    from .data import load_csv, make_dataset
    from .indicators import IndicatorParams
    from .model import VARIANTS

    params = IndicatorParams(**cfg["indicators"])  # checked for every variant
    indicators = VARIANTS[cfg["model"]["variant"]].indicators
    series = load_csv(cfg["data"]["path"], cfg["data"]["interval"])
    dataset = make_dataset(series, params if indicators else None, cfg["model"]["window"],
                           tuple(cfg["split"]), norm=norm)
    return series, dataset


def _model_spec(cfg, dataset):
    """The ModelSpec that ``train`` builds; an invalid one raises ConfigError."""
    from .model import ModelSpec

    return ModelSpec.from_dict({**cfg["model"], "n_features": dataset.n_features,
                                "seed": cfg["seed"]})


def _write_json(path, payload, sort: bool = True) -> None:
    from .data import atomic_write

    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort)
        fh.write("\n")


def cmd_prepare(args) -> int:
    cfg = load_config(args.config, args.seed)
    series, dataset = _build_dataset(cfg)
    _model_spec(cfg, dataset)  # reject a model that train would reject
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
    from .data import write_csv
    from .model import TrainHyperparams, build, save_checkpoint, train

    cfg = load_config(args.config, args.seed)
    _, dataset = _build_dataset(cfg)
    model = build(_model_spec(cfg, dataset))
    report = train(model, dataset, TrainHyperparams(**cfg["train"]))

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
        for name, value in report.metrics.to_dict().items():
            print(f"validation {name}: {value:.6g}")
    print(f"checkpoint written to {os.path.join(args.out, 'checkpoint.ffck')}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .data import evaluate_metrics, write_predictions
    from .model import load_checkpoint, predict_series

    cfg = load_config(args.config, args.seed)
    model, norm = load_checkpoint(args.checkpoint)
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
    from .data import write_csv
    from .errors import ConfigError
    from .favor import PROBE_COLUMNS, FavorConfig, complexity_probe, loglog_slope

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
    _cap_threads()
    args = make_parser().parse_args(argv)
    from .errors import ConfigError, DataError, DivergenceError, FiniteError

    handler = {"prepare": cmd_prepare, "train": cmd_train,
               "evaluate": cmd_evaluate, "bench": cmd_bench}[args.command]
    try:
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


if __name__ == "__main__":
    sys.exit(main())
