"""Shared fixtures."""

import os
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from bellpart import triangles
from bellpart.triangles import Family

ROOT = Path(__file__).resolve().parents[1]
# the environment of every fresh interpreter a test starts: bellpart from src/
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code argv...`` in a fresh interpreter under ``ENV``, with
    its stdout and stderr as text.  The one fresh-interpreter runner of the
    tests, as ``make_golden.run`` is the one in-process runner."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=ENV, timeout=60
    )


# seconds any test may run: a search that never ends, such as an R or J
# search of dobinski._enclose reached through any route, then fails fast,
# not at the CI job's timeout
WALL_BOUND_S = 120


class WallBoundExceeded(BaseException):
    """A test ran past ``WALL_BOUND_S``.  A direct ``BaseException``, which
    neither Hypothesis (it reruns and shrinks on an ``Exception``, with no
    timer left) nor ``cli.main`` (it makes an ``Exception`` exit 3) catches,
    so the test fails at the bound through either."""


def _expire(signum, frame):
    raise WallBoundExceeded(f"test ran past its {WALL_BOUND_S} s wall bound")


# one handler for the session (SIGALRM: POSIX, as CI is)
signal.signal(signal.SIGALRM, _expire)


@pytest.fixture(autouse=True)
def wall_bound():
    """Arm the SIGALRM timer for ``WALL_BOUND_S`` around each test."""
    signal.setitimer(signal.ITIMER_REAL, WALL_BOUND_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)


@pytest.fixture
def wrong_cell(monkeypatch):
    """``wrong_cell(family, n, k, value)`` makes cell (n, k) of the family's
    rows read ``value`` wherever a row is built; each call adds one cell, so
    two calls can change two cells of one row.  ``family`` is a ``Family``
    walked by ``_weighted_walk``, ``Family.TYPE_D`` for the rows that
    ``_d_from`` builds, or ``"U"`` for the U(n,k) = 2^(n-k) S(n,k) walk that
    every type-D row is built from.

    Each seam hands out a changed copy of row n, and a walk builds row n + 1
    from the true row, so only the cells named are wrong.  ``triangles``
    keeps no row between calls, so no wrong row outlives the test.
    """
    wrong: dict = {}  # family -> {(n, k): value}

    def changed(family, row):
        cells = wrong.get(family, {})
        n = len(row) - 1
        if all(m != n for m, _ in cells):
            return row
        return [cells.get((n, k), value) for k, value in enumerate(row)]

    weighted_walk, u_walk, d_from = triangles._weighted_walk, triangles._u_walk, triangles._d_from
    monkeypatch.setattr(
        triangles,
        "_weighted_walk",
        lambda family, *args: map(partial(changed, family), weighted_walk(family, *args)),
    )
    monkeypatch.setattr(triangles, "_u_walk", lambda *one: map(partial(changed, "U"), u_walk(*one)))
    monkeypatch.setattr(triangles, "_d_from", lambda *args: changed(Family.TYPE_D, d_from(*args)))

    def patch(family, n, k, value):
        wrong.setdefault(family, {})[n, k] = value

    return patch
