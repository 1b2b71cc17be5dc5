"""What the tests share: one way to run the CLI, a demo or any other child
interpreter, and the universe of weak orders the exhaustive tests walk.

Every child interpreter runs with warnings as errors, and ``run`` gives it
a timeout; a child that ``start`` opens is ended with one.  This is a
plain module that the tests import; pytest does not collect it."""

from __future__ import annotations

import os
import subprocess
import sys
from collections.abc import Iterator, Sequence
from pathlib import Path

from hypothesis import strategies as st

from rankops import WeakOrder, engine_ground, enumerate_weak_orders, from_tiers

REPO = Path(__file__).resolve().parents[1]
PYTHON = (sys.executable, "-W", "error")
CLI = (*PYTHON, "-m", "rankops")


def env(**changes: str | None) -> dict[str, str]:
    """``os.environ`` with the package's ``src`` first on ``PYTHONPATH``,
    without ``PYTHONUNBUFFERED`` and with ``changes`` applied; a change to
    None removes that variable.  A child's stdout is buffered, as a user's
    is by default, so a fault that shows only then is not hidden."""
    result = dict(os.environ)
    result.pop("PYTHONUNBUFFERED", None)
    result["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), result.get("PYTHONPATH"))))
    for key, value in changes.items():
        if value is None:
            result.pop(key, None)
        else:
            result[key] = value
    return result


# ``run`` has a parameter named ``env``, which hides this function.
_default_env = env


def run(
    argv: Sequence[str],
    *,
    input: str | bytes | None = None,
    text: bool = True,
    env: dict[str, str] | None = None,
    cwd: Path | str = REPO,
    timeout: float = 60,
) -> subprocess.CompletedProcess:
    """Run ``argv`` to its end, or fail after ``timeout`` seconds, with
    stdout and stderr captured; without ``env`` the child gets ``env()``."""
    return subprocess.run(
        argv,
        input=input,
        capture_output=True,
        text=text,
        env=_default_env() if env is None else env,
        cwd=cwd,
        timeout=timeout,
    )


def start(argv: Sequence[str], *, cwd: Path | str = REPO) -> subprocess.Popen:
    """Start ``argv`` with ``env()`` and a pipe on each standard stream, for
    a test that acts on the child while it runs.  Use it as a context
    manager, and end the child with ``communicate(timeout=...)``."""
    return subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_default_env(),
        cwd=cwd,
    )


def orders_up_to(max_n: int) -> Iterator[WeakOrder]:
    """Every weak order on the engine's ground set x1..xn, for n = 1..max_n."""
    for n in range(1, max_n + 1):
        yield from enumerate_weak_orders(engine_ground(n))


@st.composite
def weak_orders(draw, min_n: int = 1, max_n: int = 7) -> WeakOrder:
    n = draw(st.integers(min_n, max_n))
    labels = [f"x{i}" for i in range(1, n + 1)]
    keys = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, set[str]] = {}
    for label, key in zip(labels, keys):
        groups.setdefault(key, set()).add(label)
    return from_tiers([groups[k] for k in sorted(groups)])
