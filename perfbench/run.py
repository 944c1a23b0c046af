"""Benchmark entry point: one workload, one seed, one process, one caller.

    python3 perfbench/run.py --workload train_w64 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout, never from an installed copy.  The closed loop repeats the
workload's operation until ``--seconds`` have passed, then checks outputs.
The last line of stdout is the result JSON; the line before it, starting
with ``detail``, carries the per-workload metrics, config and environment.

Every operation and set-up is timed right after ``probe.Probe`` and
scaled to the reference speed (see probe.py); the detail line also carries
the raw figures.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
repeats the untraced loop, then runs the operation twice more with every
layer's entry points wrapped, and reports the per-layer metrics; their
counters must repeat exactly across the two traced operations.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy loads
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"  # spans and temporary inputs; never committed
# set-ups before the timed loop and again after the output checks; setup_s is
# the median of all of them (each scaled to the reference speed), so it
# samples the machine at both ends of a run
SETUP_REPEATS = 3


def import_library():
    """Import fastforecast from this checkout's src/ or exit non-zero."""
    src = ROOT / "src"
    if not (src / "fastforecast" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src}/fastforecast not found; run from a checkout of the repo")
    sys.path.insert(0, str(src))
    import fastforecast

    if Path(fastforecast.__file__).resolve().parent != (src / "fastforecast").resolve():
        sys.exit(f"perfbench: imported {fastforecast.__file__}, not the checkout's copy")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_PIN, "machine": platform.machine()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_loop(workload, seconds: float, check, tally: dict, probe) -> list[dict]:
    """Closed loop: the next operation starts when the previous one returns.

    Each operation's output carries ``scale``, the reference-speed factor
    from the probe run just before it.
    """
    from probe import scale
    from workloads import PROGRAM_ERRORS

    outs = []
    start = time.perf_counter()
    while not outs or time.perf_counter() - start < seconds:
        tally["attempted"] += 1
        probe_s = probe()
        try:
            out = workload.op()
        except PROGRAM_ERRORS as exc:
            tally["failed"] += 1
            print(f"perfbench: operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            if time.perf_counter() - start >= seconds:
                break
            continue
        out["items_per_s"] = out["items"] / out["item_seconds"]
        out["probe_s"], out["scale"] = probe_s, scale(probe_s)
        check_op(workload, check, tally, out)
        outs.append(out)
    return outs


def check_op(workload, check, tally: dict, out: dict) -> None:
    """Run the workload's output checks; any failure fails the operation."""
    before = len(check.failed)
    workload.check(check, out)
    if len(check.failed) > before:
        tally["failed"] += 1


def layer_metrics(tracer) -> dict:
    """Self times and exact counters of one traced operation."""
    self_s = tracer.self_seconds()
    calls, counts = tracer.calls, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {name: (self_s.get(span, 0.0), "s") for name, span in SELF_TIMES.items()}
    m.update({
        "data.rows": (counts["data.rows"], "count"),
        "model.forward_calls": (calls["model.forward"], "count"),
        "attention.multi_head_calls": (calls["attention.multi_head"], "count"),
        "favor.kernel_calls": (calls["favor.kernel"], "count"),
        "favor.guard_hits": (counts["favor.guard_hits"], "count"),
        "lstm.cell_calls": (calls["lstm.cell"], "count"),
        "tensor.tape_nodes_per_step": (ratio(counts["tensor.tape_nodes"],
                                             calls["tensor.backward"]), "count"),
        "tensor.forward_bytes_per_window": (ratio(counts["tensor.forward_bytes"],
                                                  counts["model.forward_windows"]), "bytes"),
    })
    return m


SELF_TIMES = {
    "indicators.build_features_s": "indicators.build_features",
    "data.load_csv_s": "data.load_csv",
    "data.make_dataset_s": "data.make_dataset",
    "model.forward_s": "model.forward",
    "model.train_s": "model.train",
    "attention.multi_head_s": "attention.multi_head",
    "favor.kernel_s": "favor.kernel",
    "lstm.bilstm_s": "lstm.bilstm",
    "tensor.backward_s": "tensor.backward",
}
COUNT_METRICS = ("data.rows", "model.forward_calls", "attention.multi_head_calls",
                 "favor.kernel_calls", "favor.guard_hits", "lstm.cell_calls",
                 "tensor.tape_nodes_per_step", "tensor.forward_bytes_per_window")


def observers():
    """Exact counters taken inside the wrapped calls."""
    from fastforecast import tensor

    def forward(counts, call, model, windows, *args, **kwargs):
        with tensor.track_allocations() as log:
            out = call(model, windows, *args, **kwargs)
        counts["tensor.forward_bytes"] += log.total_bytes
        counts["model.forward_windows"] += len(windows)
        return out

    def backward(counts, call, tape, *args, **kwargs):
        counts["tensor.tape_nodes"] += len(tape)
        return call(tape, *args, **kwargs)

    def load_csv(counts, call, *args, **kwargs):
        series = call(*args, **kwargs)
        counts["data.rows"] += len(series)
        return series

    return {"model.forward": forward, "tensor.backward": backward,
            "data.load_csv": load_csv}


def traced_ops(workload, check, tally, spans_path) -> tuple[dict, float, dict]:
    """Two traced operations: (per-layer metrics, mean op seconds, last output)."""
    from tracing import Tracer
    from workloads import guard_hits

    per_op, outs = [], []
    for _ in range(2):
        tally["attempted"] += 1
        hits = guard_hits()
        with Tracer(observers()) as tracer:
            with tracer.span("op"):
                out = workload.op()
        tracer.counts["favor.guard_hits"] += guard_hits() - hits
        check_op(workload, check, tally, out)
        per_op.append(layer_metrics(tracer))
        outs.append(out)
    tracer.write(spans_path)

    tally["attempted"] += 1
    counts = [{k: m[k] for k in COUNT_METRICS} for m in per_op]
    if not check("per-layer counts repeat exactly", counts[0] == counts[1]):
        tally["failed"] += 1
    layers = {k: (statistics.mean(m[k][0] for m in per_op), unit)
              for k, (_, unit) in per_op[0].items()}
    for k in COUNT_METRICS:
        layers[k] = per_op[-1][k]
    return layers, statistics.mean(o["item_seconds"] for o in outs), outs[-1]


def timed_setup(workload, tmpdir, probe) -> tuple[float, float]:
    """(set-up seconds at the reference speed, raw set-up seconds)."""
    from probe import scale

    probe_s = probe()
    t0 = time.perf_counter()
    workload.setup(tmpdir)
    seconds = time.perf_counter() - t0
    return seconds * scale(probe_s), seconds


def run(args) -> dict:
    import workloads as wl
    from probe import Probe

    probe = Probe()
    cfg = wl.config_for(args.workload, args.tiny)
    workload = wl.WORKLOADS[args.workload](cfg, args.seed)
    check = wl.Check()
    tally = {"attempted": 0, "failed": 0}
    tmpdir = WORKDIR / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        hits = wl.guard_hits()
        setups = [timed_setup(workload, tmpdir, probe) for _ in range(SETUP_REPEATS)]
        outs = timed_loop(workload, args.seconds, check, tally, probe)
        if not outs:
            sys.exit("perfbench: every operation failed")
        untraced_op_s = statistics.median(o["item_seconds"] for o in outs)

        layers = None
        last = outs[-1]
        if args.trace:
            spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            layers, traced_op_s, last = traced_ops(workload, check, tally, spans_path)
            layers["trace.overhead_pct"] = (100.0 * (traced_op_s / untraced_op_s - 1.0), "%")

        final = wl.Check()
        final("favor guard rails never fired", wl.guard_hits() == hits)
        workload.final_checks(final, last)
        tally["attempted"] += len(final.results)
        tally["failed"] += len(final.failed)
        check.results.extend(final.results)
        setups += [timed_setup(workload, tmpdir, probe) for _ in range(SETUP_REPEATS)]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    def median_rate(name, scaled=True):
        """Median over operations of a rate, at the reference speed if scaled."""
        return statistics.median(o[name] / (o["scale"] if scaled else 1.0) for o in outs)

    detail = {}
    for name in wl.DETAIL_METRICS[args.workload]:
        unit = wl.DETAIL_UNITS[name]
        detail[name] = (median_rate(name, scaled=unit.endswith("/s")), unit)
    end_to_end = {"setup_s": (statistics.median(s for s, _ in setups), "s"),
                  "items_per_s": (median_rate("items_per_s"), "items/s"),
                  "peak_rss_mb": (peak_rss_mb(), "MB")}
    detail.update(end_to_end)
    detail["raw_setup_s"] = (statistics.median(raw for _, raw in setups), "s")
    detail["raw_items_per_s"] = (median_rate("items_per_s", scaled=False), "items/s")
    detail["probe_s"] = (statistics.median(o["probe_s"] for o in outs), "s")
    detail["error_rate"] = (tally["failed"] / tally["attempted"], wl.DETAIL_UNITS["error_rate"])
    return {"tally": tally, "check": check, "ops": len(outs), "config": cfg,
            "item": workload.item, "op_seconds": [o["seconds"] for o in outs],
            "end_to_end": end_to_end, "detail": detail, "layers": layers}


def declare_check(metrics: dict, key: str) -> None:
    """Fail unless the metrics are exactly the ones BENCHMARK.json declares."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench[key]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        sys.exit(f"perfbench: metrics {produced} differ from BENCHMARK.json {key} {declared}")


def as_metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark sizes")
    args = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = run(args)
    check = result["check"]
    for name in check.failed:
        print(f"perfbench: check failed: {name}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "tiny": args.tiny, "config": result["config"], "item": result["item"],
              "ops": result["ops"],
              "op_seconds": result["op_seconds"], "checks": len(check.results),
              "failed_checks": check.failed, "metrics": as_metrics(result["detail"]),
              "environment": environment()}
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = result["layers"] if args.trace else result["end_to_end"]
    declare_check(metrics, "per_layer" if args.trace else "end_to_end")
    tally = result["tally"]
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": as_metrics(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
