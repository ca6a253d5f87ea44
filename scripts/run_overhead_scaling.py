#!/usr/bin/env python3
"""Measure per-step bookkeeping cost across source-count and history grids
and fit it against h * |S|."""

import argparse
import csv
import gc
import math
import time
from pathlib import Path

import numpy as np

from lossadapt.rng import child_rng
from lossadapt.trust import LapParams, SourceRegistry


def _overhead_workload(n_sources, history_length, n_steps, seed):
    rng = child_rng(seed, n_sources, history_length)
    histories = {
        s: list(rng.normal(1.0, 0.1, history_length)) for s in range(n_sources)
    }
    registry = SourceRegistry.from_histories(
        histories, params=LapParams(history_length=history_length)
    )
    losses = rng.normal(1.0, 0.1, n_steps)
    sources = [int(v) for v in rng.integers(0, n_sources, n_steps)]
    return registry, losses, sources


def _time_overhead_pass(registry, losses, sources) -> float:
    record = registry.record_loss
    depression = registry.depression
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for s, value in zip(sources, losses):
            record(s, value)
            depression(s)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()
    return elapsed / len(sources)


def overhead_scaling_table(
    source_grid=(5, 10, 20, 40),
    history_grid=(25, 50, 100),
    *,
    n_steps: int = 200,
    repeats: int = 5,
    seed: int = 0,
) -> list[tuple[int, int, float]]:
    """Seconds per optimizer step spent in the trust machinery, for every
    grid cell of source count and history length.

    Each pass times ``n_steps`` calls of record_loss (including the distrust
    update and reference-statistic pass) plus the depression lookup on a
    prefilled registry, which is the work the wrapper adds on top of a plain
    optimizer, with garbage collection paused. Every cell gets one untimed
    warm-up pass, then ``repeats`` timed passes interleaved round-robin
    across cells, so a transient load spike degrades one pass everywhere
    instead of one cell's every pass; the per-cell minimum then discards it.
    """
    cells = [(s, h) for s in source_grid for h in history_grid]
    workloads = {
        cell: _overhead_workload(cell[0], cell[1], n_steps, seed)
        for cell in cells
    }
    best = {cell: math.inf for cell in cells}
    for cell in cells:
        _time_overhead_pass(*workloads[cell])
    for _ in range(repeats):
        for cell in cells:
            best[cell] = min(best[cell], _time_overhead_pass(*workloads[cell]))
    return [(s, h, best[(s, h)]) for s, h in cells]


def fit_overhead_linear(table) -> tuple[float, float, float]:
    """Least-squares fit overhead ~ slope * (h*|S|) + intercept; returns
    (slope, intercept, r_squared)."""
    x = np.array([s * h for s, h, _ in table], dtype=np.float64)
    y = np.array([t for _, _, t in table], dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(intercept), r2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/overhead/overhead.csv")
    ap.add_argument("--sources", type=int, nargs="+", default=[5, 10, 20, 40])
    ap.add_argument("--history", type=int, nargs="+", default=[25, 50, 100])
    ap.add_argument("--repeats", type=int, default=9)
    args = ap.parse_args()

    table = overhead_scaling_table(
        source_grid=tuple(args.sources),
        history_grid=tuple(args.history),
        repeats=args.repeats,
    )
    slope, intercept, r2 = fit_overhead_linear(table)

    print(f"{'|S|':>5} {'h':>5} {'h*|S|':>7} {'us/step':>9}")
    for s, h, t in table:
        print(f"{s:5d} {h:5d} {s * h:7d} {t * 1e6:9.2f}")
    print(
        f"fit: {slope * 1e9:.2f} ns per history cell + "
        f"{intercept * 1e6:.2f} us base, R^2 {r2:.4f}"
    )

    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_sources", "history_length", "seconds_per_step"])
        for s, h, t in table:
            writer.writerow([s, h, f"{t:.10g}"])
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
