"""Every demo script runs against the package, warnings as errors, and
prints something."""

from __future__ import annotations

import pytest
import support

DEMOS = sorted((support.REPO / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = support.run([*support.PYTHON, str(demo)])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
