"""Shared pytest hooks.

test_acceptance.py appends its one-line verdicts here; printing them from a
terminal-summary hook keeps them visible under pytest's fd-level capture,
where even direct writes to the underlying stdout would be swallowed.
"""

import csv
import gzip
import importlib.util
import struct
from pathlib import Path

import numpy as np

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
