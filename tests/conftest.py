"""Shared pytest hooks and test oracles.

test_acceptance.py appends its one-line verdicts here; printing them from a
terminal-summary hook keeps them visible under pytest's fd-level capture,
where even direct writes to the underlying stdout would be swallowed.

The oracles rebuild what a run recorded without the package's own readers:
a trace's distrust and scale matrices by a plain forward fill of its log,
a run's planned step count from its prepared plan, a training set's
sources from an assignment vector, and a registry's loss history from its
ring buffer. :func:`full_registry` writes the state a registry reaches
once its histories fill, and the overhead harness times the trust
bookkeeping on such registries (criterion 8).
"""

import csv
import gc
import gzip
import math
import struct
import time
from pathlib import Path

import numpy as np

from lossadapt.experiment import prepare_run
from lossadapt.rng import child_rng
from lossadapt.trust import LapParams, SourceRegistry, depression_value

VERDICT_LINES: list[str] = []

# ``sources`` overrides under which no batch of a 2-feature chunk_shuffle
# config with 2 of 5 sources corrupt and 4 chunks is shuffled, so it loads
# and runs although 4 chunks exceed the features of an input
UNSHUFFLED_CHUNK_CASES = {
    "chunks-fit": {"n_chunks": 2},
    "no-corrupt-source": {"n_corrupt": 0},
    "rate-0": {"corruption_rate": 0.0},
    "flip-at-0": {"reliability_flip_step": 0},
    "corrupt-excluded": {"exclude_corrupt_from_training": True},
}


def file_dataset_sections(tmp_path: Path) -> dict:
    """``dataset`` config sections, by kind, for data files written under
    ``tmp_path``: ``idx_files`` reads a gzipped IDX image/label pair of 48
    training and another of 12 test images, and ``csv`` reads the 48 training
    rows from one CSV file and has no test file. Images are 2x2 bytes in
    three classes; class ``c`` is brighter at pixel ``c``."""
    rng = np.random.default_rng(0)
    sections = {"idx_files": {"kind": "idx_files"}, "csv": {"kind": "csv"}}
    for split, n in (("train", 48), ("test", 12)):
        y = np.arange(n, dtype=np.uint8) % 3
        x = rng.integers(0, 150, (n, 4), dtype=np.uint8)
        x[np.arange(n), y] += 100
        images = tmp_path / f"{split}-images.idx.gz"
        labels = tmp_path / f"{split}-labels.idx.gz"
        images.write_bytes(gzip.compress(
            struct.pack(">IIII", 0x00000803, n, 2, 2) + x.tobytes()
        ))
        labels.write_bytes(gzip.compress(
            struct.pack(">II", 0x00000801, n) + y.tobytes()
        ))
        sections["idx_files"][f"{split}_images"] = str(images)
        sections["idx_files"][f"{split}_labels"] = str(labels)
        if split == "train":
            table = tmp_path / "train.csv"
            with open(table, "w", newline="") as fh:
                csv.writer(fh).writerows(np.column_stack([x, y]).tolist())
            sections["csv"]["path"] = str(table)
    return sections


def replay(trace):
    """Every source's level after every step, replayed one event at a time."""
    row = [0] * len(trace.source_ids)
    rows = []
    for column, level in zip(trace.column.tolist(), trace.level.tolist()):
        row[column] = level
        rows.append(list(row))
    return rows


def scale_rows(trace):
    """Every source's gradient scale at every step, cell by cell from
    :func:`replay`: 1 - depression from ``depressed_from`` on, 1.0 before."""
    strength = trace.depression_strength
    return [
        [1.0 - depression_value(d, strength) if step >= trace.depressed_from
         else 1.0 for d in row]
        for step, row in enumerate(replay(trace))
    ]


def planned_steps(config, seed=0):
    """The optimizer steps a full run of ``config`` at ``seed`` takes."""
    return config.training.epochs * prepare_run(config, seed).steps_per_epoch


def assignment_dealing(n_items, n_sources, rng, n_corrupt=0):
    """Each source's items and the corrupt source ids, dealt through an
    assignment vector: the i-th index of ``rng.permutation(n_items)`` is
    assigned source ``i % n_sources``, and a source's items are the indices
    assigned to it (``np.flatnonzero``); then ``n_corrupt`` sources are
    drawn with ``rng.choice``."""
    perm = rng.permutation(n_items)
    assignment = np.empty(n_items, dtype=np.int64)
    assignment[perm] = np.arange(n_items) % n_sources
    items = [np.flatnonzero(assignment == s) for s in range(n_sources)]
    corrupt = frozenset(
        int(s) for s in rng.choice(n_sources, size=n_corrupt, replace=False)
    )
    return items, corrupt


def registry_history(registry, source):
    """The losses ``registry`` holds for ``source``, oldest to newest, read
    from its ring buffer."""
    row = registry.source_ids.index(source)
    losses = registry._losses[row].tolist()
    nxt = registry._next[row]
    return (losses[nxt:] + losses[:nxt])[len(losses) - registry._counts[row]:]


def full_registry(histories, params, distrust=None):
    """A registry whose histories hold exactly ``history_length`` losses
    each, as a run leaves them when its last buffer fills: every history
    oldest first from slot 0 (``_next`` at 0), every count full,
    ``all_full`` latched, and the ``distrust`` levels (0 where not given)
    written with their weights."""
    registry = SourceRegistry(sorted(histories), params=params)
    h = params.history_length
    for source, losses in histories.items():
        assert len(losses) == h, (source, len(losses), h)
        row = registry.source_ids.index(source)
        registry._losses[row] = losses
        registry._counts[row] = h
    registry.all_full = True
    for source, level in (distrust or {}).items():
        registry._set_level(registry.source_ids.index(source), float(level))
    return registry


# -- overhead harness (criterion 8) -----------------------------------------


def _overhead_workload(n_sources, history_length, n_steps, seed):
    rng = child_rng(seed, n_sources, history_length)
    histories = {
        s: list(rng.normal(1.0, 0.1, history_length)) for s in range(n_sources)
    }
    registry = full_registry(
        histories, LapParams(history_length=history_length)
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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
