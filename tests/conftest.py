"""Shared pytest hooks and test oracles.

test_acceptance.py appends its one-line verdicts here; printing them from a
terminal-summary hook keeps them visible under pytest's fd-level capture,
where even direct writes to the underlying stdout would be swallowed.

The oracles rebuild what a run recorded without the package's own readers:
a trace's distrust and scale matrices by a plain forward fill of its log,
a run's planned step count from its prepared plan, and a registry's loss
history from its ring buffer.
"""

import csv
import gzip
import importlib.util
import struct
from pathlib import Path

import numpy as np

from lossadapt.experiment import prepare_run
from lossadapt.trust import depression_value

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

VERDICT_LINES: list[str] = []


def load_script(name: str):
    """Import ``scripts/<name>.py`` by path; the scripts are not a package."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def registry_history(registry, source):
    """The losses ``registry`` holds for ``source``, oldest to newest, read
    from its ring buffer."""
    row = registry.source_ids.index(source)
    losses = registry._losses[row].tolist()
    nxt = registry._next[row]
    return (losses[nxt:] + losses[:nxt])[len(losses) - registry._counts[row]:]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
