"""Shared pytest hooks.

test_acceptance.py appends its one-line verdicts here; printing them from a
terminal-summary hook keeps them visible under pytest's fd-level capture,
where even direct writes to the underlying stdout would be swallowed.
"""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

VERDICT_LINES: list[str] = []


def load_script(name: str):
    """Import ``scripts/<name>.py`` by path; the scripts are not a package."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
