"""Shared fixtures."""

import pytest

from bellpart import triangles


@pytest.fixture
def wrong_cell(monkeypatch):
    """``wrong_cell(family, n, k, value)`` makes cell (n, k) of the family's
    recurrence rows read ``value`` wherever a row is walked.

    The patched walk yields a changed copy of row n and builds row n + 1 from
    the true row, so only that one cell is wrong.  The random-access windows
    start empty and are dropped with the patch, so no wrong row outlives the
    test.
    """
    walk = triangles._weighted_walk
    monkeypatch.setattr(triangles, "_rows_classical", [])
    monkeypatch.setattr(triangles, "_rows_b", [])

    def patch(family, n, k, value):
        def changed(row):
            row = list(row)
            row[k] = value
            return row

        def wrong_walk(walked, row, *one):
            if walked is not family:
                return walk(walked, row, *one)
            return (changed(r) if len(r) == n + 1 else r for r in walk(walked, row, *one))

        monkeypatch.setattr(triangles, "_weighted_walk", wrong_walk)

    return patch
