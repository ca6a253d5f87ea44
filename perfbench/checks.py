"""Output checks and quality metrics, read from the files a run wrote.

Everything here parses ``metrics.csv`` and ``trace_seed<N>.csv`` as a user
would receive them, never the in-memory results, so the figures cover the
writers too.
"""

from __future__ import annotations

import csv
import hashlib
import statistics
from pathlib import Path

FLAG_SCALE = 0.5  # a source counts as flagged below this gradient scale
SPLITS = ("train", "val", "test")


def file_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the run wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def _check_metrics(path: Path, epochs: int, seeds: list[int], problems) -> float:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = epochs * len(SPLITS) * len(seeds)
    if len(rows) != want:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {want}")
    final = {}
    for row in rows:
        if row["split"] == "test" and int(row["epoch"]) == epochs - 1:
            final[int(row["seed"])] = float(row["accuracy"])
    if sorted(final) != sorted(seeds):
        problems.append(f"metrics.csv has final test rows for {sorted(final)}")
        return 0.0
    return statistics.fmean(final.values())


def _check_trace(path: Path, steps: int, n_sources: int, n_corrupt: int, problems):
    """Flag F1 and median detection step of one seed's trace."""
    first_below: dict[int, int] = {}
    final_scale: dict[int, float] = {}
    corrupt: set[int] = set()
    rows = 0
    bad_distrust = bad_scale = bad_step = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for step, source, distrust, scale, is_corrupt in reader:
            step, source = int(step), int(source)
            d, g = float(distrust), float(scale)
            if step != rows // n_sources:
                bad_step += 1
            rows += 1
            if d < 0.0 or not d.is_integer():
                bad_distrust += 1
            if not 0.0 < g <= 1.0:
                bad_scale += 1
            if is_corrupt == "1":
                corrupt.add(source)
            if g < FLAG_SCALE and source not in first_below:
                first_below[source] = step
            final_scale[source] = g
    name = path.name
    if rows != steps * n_sources:
        problems.append(f"{name} has {rows} rows, expected {steps} x {n_sources}")
    for count, what in (
        (bad_step, "rows out of step order"),
        (bad_distrust, "distrust values that are not whole numbers >= 0"),
        (bad_scale, "gradient scales outside (0, 1]"),
    ):
        if count:
            problems.append(f"{name} has {count} {what}")
    if len(corrupt) != n_corrupt:
        problems.append(f"{name} marks {len(corrupt)} sources corrupt, expected {n_corrupt}")
    flagged = {s for s, g in final_scale.items() if g < FLAG_SCALE}
    denom = len(flagged) + len(corrupt)
    f1 = 2.0 * len(flagged & corrupt) / denom if denom else 1.0
    detect = statistics.median(first_below.get(s, steps) for s in corrupt) if corrupt else 0.0
    return f1, float(detect), rows


def check_outputs(out_dir: Path, config: dict, steps: int) -> tuple[list[str], dict]:
    """Check one run's files against the config it ran; returns the problems
    found and the quality figures and exact output counts."""
    problems: list[str] = []
    epochs = config["training"]["epochs"]
    seeds = config["seeds"]
    sources = config["sources"]
    accuracy = _check_metrics(out_dir / "metrics.csv", epochs, seeds, problems)
    f1s, detects, rows, size = [], [], 0, 0
    for seed in seeds:
        path = out_dir / f"trace_seed{seed}.csv"
        f1, detect, n = _check_trace(
            path, steps, sources["n_sources"], sources["n_corrupt"], problems
        )
        f1s.append(f1)
        detects.append(detect)
        rows += n
        size += path.stat().st_size
    return problems, {
        "test_accuracy": accuracy,
        "flag_f1": statistics.fmean(f1s),
        "detect_steps": statistics.fmean(detects),
        "trace_rows": rows,
        "trace_bytes": size,
    }
