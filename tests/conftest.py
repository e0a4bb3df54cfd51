"""Shared fixtures."""

import pytest

from bellpart import triangles


@pytest.fixture
def wrong_cell(monkeypatch):
    """``wrong_cell(family, n, k, value)`` makes cell (n, k) of the family's
    recurrence rows read ``value`` wherever a row is walked.  ``family`` is a
    ``Family`` walked by ``_weighted_walk``, or ``"U"`` for the U(n,k) =
    2^(n-k) S(n,k) walk that builds the type-D rows read in order.

    The patched walk yields a changed copy of row n and builds row n + 1 from
    the true row, so only that one cell is wrong.  The random-access windows
    start empty and are dropped with the patch, so no wrong row outlives the
    test.
    """
    weighted_walk, u_walk = triangles._weighted_walk, triangles._u_walk
    monkeypatch.setattr(triangles, "_rows_classical", [])
    monkeypatch.setattr(triangles, "_rows_b", [])

    def patch(family, n, k, value):
        def changed(walk):
            for row in walk:
                if len(row) == n + 1:
                    row = list(row)
                    row[k] = value
                yield row

        def wrong_walk(walked, row, *one):
            if walked is not family:
                return weighted_walk(walked, row, *one)
            return changed(weighted_walk(walked, row, *one))

        if family == "U":
            monkeypatch.setattr(triangles, "_u_walk", lambda *one: changed(u_walk(*one)))
        else:
            monkeypatch.setattr(triangles, "_weighted_walk", wrong_walk)

    return patch
