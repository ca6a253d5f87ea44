"""Every experiment script starts and prints its usage.

Each runs in a child process with this checkout's ``src/`` first on
PYTHONPATH, so a moved or renamed import fails here rather than at the
next experiment.
"""

import os
import subprocess
import sys

import pytest

from conftest import SCRIPTS

SRC = SCRIPTS.parent / "src"


@pytest.mark.parametrize(
    "script", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name
)
def test_help_exits_cleanly(script):
    inherited = os.environ.get("PYTHONPATH")
    path = str(SRC) + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
