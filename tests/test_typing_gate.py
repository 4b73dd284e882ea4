"""The strict typing gate, runnable locally when mypy is installed.

CI runs the same gate directly (`typecheck-mypy`); this test keeps a
local `pytest` run aligned with it instead of silently diverging.  The
gate's scope (the ``packages`` list) and strictness flags live in
``[tool.mypy]`` in pyproject.toml.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_mypy_strict_gate():
    pytest.importorskip("mypy", reason="mypy not installed; CI runs it")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, \
        f"mypy --strict gate failed:\n{proc.stdout}\n{proc.stderr}"
