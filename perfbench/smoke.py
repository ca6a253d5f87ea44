#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on shrunk workloads.

    python3 perfbench/smoke.py

Runs every workload for a few epochs with ``--trace 0`` and ``--trace 1``
and checks that each run exits 0, reports correct outputs and emits exactly
the metrics ``BENCHMARK.json`` declares. Then checks that the benchmark
refuses to run, without printing a result, in a directory holding only
``BENCHMARK.json`` and ``perfbench/``. Takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# enough epochs that every history fills and distrust updates run
SMOKE_EPOCHS = {"identification": 3, "mnist_shaped": 6, "many_sources": 6}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace),
        "--epochs", str(SMOKE_EPOCHS[workload]),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no result line; stderr {proc.stderr[-1000:]}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{label}: {proc.stdout[-1500:]}")
            if set(result["metrics"]) != declared[trace]:
                failures.append(
                    f"{label}: metrics {sorted(result['metrics'])} != declared "
                    f"{sorted(declared[trace])}"
                )
            print(f"{label}: exit {proc.returncode}, {result['attempted']} runs")

    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "identification", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory: exit {proc.returncode}")

    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
