"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads train_w64,prepare_long --seeds 1-10 \
        [--trace 0|1|0,1] [--seconds N] [--out summary.json]

Runs ``perfbench/run.py`` once per (trace mode, workload, seed), one after
another, and prints for every metric the median, the quartiles and the
quartile spread as a share of the median (``statistics.quantiles(n=4)``),
the figures BENCHMARK.json's bounds are set from.  ``--out`` writes the
summary with each workload's config, its reason from BENCHMARK.json and the
environment of the first run; perfbench/baseline.json is such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return {"wall_s": wall, "result": json.loads(lines[-1]), "detail": detail}


def summarise(values: list[float], unit: str) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "unit": unit,
            "spread": (q3 - q1) / med if med else None, "values": values}


def summarise_runs(runs: list[dict], source: str) -> dict:
    first = runs[0][source]["metrics"]
    return {name: summarise([r[source]["metrics"][name]["value"] for r in runs],
                            first[name]["unit"])
            for name in first}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seeds_arg)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", type=lambda s: [int(t) for t in s.split(",")])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    why = {w["name"]: w["why"] for w in bench["workloads"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for trace in args.trace:
        key = "per_layer" if trace else "end_to_end"
        for workload in args.workloads.split(","):
            runs = [run_once(workload, seed, args.seconds, trace) for seed in args.seeds]
            detail = runs[0]["detail"]
            summary.setdefault("environment", detail["environment"])
            entry = summary["workloads"].setdefault(workload, {
                "why": why[workload], "config": detail["config"], "item": detail["item"]})
            entry[key] = summarise_runs(runs, "result")
            if not trace:
                entry["detail"] = summarise_runs(runs, "detail")
            entry[f"{key}_correct"] = all(r["result"]["correct"] for r in runs)
            entry[f"{key}_wall_s"] = summarise([r["wall_s"] for r in runs], "s")
            print(f"{workload} --trace {trace}: correct={entry[f'{key}_correct']} "
                  f"wall median {entry[f'{key}_wall_s']['median']:.1f}s", flush=True)
            for name, s in entry[key].items():
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {name:34s} median {s['median']:<14.6g} {s['unit']:<8s} "
                      f"spread {spread}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
