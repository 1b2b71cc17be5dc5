"""Every demo script runs against the package, warnings as errors, and
prints something."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], capture_output=True, text=True, env=env, cwd=REPO
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
