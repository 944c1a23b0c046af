"""Smoke check of the benchmark at tiny sizes, in about fifteen seconds.

    python3 perfbench/smoke.py

For every workload and both trace modes, runs ``perfbench/run.py --tiny``
and asserts that it exits 0, that its last line is the result object with
exactly the metrics and units BENCHMARK.json declares, and that the detail
line names each per-workload metric with its unit.  Failed output checks
are printed, not asserted: at tiny size they report on the program, not on
the benchmark's output format.  Then runs it in a directory holding only
BENCHMARK.json and perfbench/, where it must exit non-zero without printing
a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_output(workload: str, trace: int, bench: dict, detail_metrics) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert isinstance(result["correct"], bool), where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and result["correct"] == (result["failed"] == 0), where
    declared = bench["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}, f"{where}: {got}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name}"
    assert lines[-2].startswith("detail "), where
    detail = json.loads(lines[-2].removeprefix("detail "))["metrics"]
    for name, unit in detail_metrics.items():
        assert detail.get(name, {}).get("unit") == unit, f"{where}: detail {name}"
    failed = json.loads(lines[-2].removeprefix("detail "))["failed_checks"]
    note = f"; {result['failed']} failed: {sorted(set(failed))}" if result["failed"] else ""
    print(f"ok  {where}: {len(got)} metrics{note}")


def check_needs_source() -> None:
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "prepare_long", 0)
        assert proc.returncode != 0, "ran without the library's source"
        assert "correct" not in proc.stdout, "printed a result without the library's source"
        print("ok  fails without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        names = workloads.DETAIL_METRICS[w["name"]] + ("setup_s", "peak_rss_mb", "error_rate")
        detail = {n: workloads.DETAIL_UNITS[n] for n in names}
        for trace in (0, 1):
            check_output(w["name"], trace, bench, detail)
    check_needs_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
