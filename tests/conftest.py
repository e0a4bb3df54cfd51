"""Shared fixtures."""

from functools import partial

import pytest

from bellpart import triangles
from bellpart.triangles import Family


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
