"""Exact computation of the classical, type-B and type-D Stirling triangles
of the second kind, the matching Bell sequences, and an identity checker.

Number families:

* ``stirling2(n, k)``  -- classical second-kind Stirling numbers
* ``stirling_b(n, k)`` -- type-B analogue, recurrence
  ``S_B(n,k) = S_B(n-1,k-1) + (2k+1) S_B(n-1,k)``
* ``stirling_d(n, k)`` -- type-D analogue; each row is built in one pass as
  ``S_D(n,k) = S_B(n,k) - n 2^(n-1-k) S(n-1,k)``, uncached
* ``bell_a / bell_b / bell_d`` -- the corresponding row sums.

Everything is exact big-integer arithmetic; out-of-range (k > n, k < 0)
arguments return 0 so identity sums can run over uniform index ranges.
``stirling_row(family, n)`` serves a whole row at once.  Rows and Bell
numbers exist for n >= 0 only; a negative n raises ValueError.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional


class Family(Enum):
    CLASSICAL = "classical"
    TYPE_B = "b"
    TYPE_D = "d"


# weight kinds of extend_weighted_rows
WEIGHT_CLASSICAL = 0
WEIGHT_ODD = 1


def extend_weighted_rows(rows: list[list[int]], kind: int, n_max: int) -> list[list[int]]:
    """Extend ``rows`` in place until it holds rows 0..n_max.

    Row n is a list of n + 1 ints, built from row n - 1 by the weighted
    recurrence ``T(n, k) = T(n-1, k-1) + w(k) T(n-1, k)`` with w(k) = k for
    ``WEIGHT_CLASSICAL`` and w(k) = 2k + 1 for ``WEIGHT_ODD`` (type B).
    ``rows`` must either be empty or hold a valid prefix of the triangle.
    """
    if not rows:
        rows.append([1])
    while len(rows) <= n_max:
        n = len(rows)
        prev = rows[n - 1]
        row = [0] * (n + 1)
        if kind == WEIGHT_CLASSICAL:
            row[0] = 0
            for k in range(1, n):
                row[k] = prev[k - 1] + k * prev[k]
        else:
            row[0] = prev[0]
            for k in range(1, n):
                row[k] = prev[k - 1] + (2 * k + 1) * prev[k]
        row[n] = 1
        rows.append(row)
    return rows


# Row caches, extended bottom-up on demand.  Compute-then-publish under a
# lock so concurrent readers never observe a half-built row.
_lock = threading.Lock()
_rows_classical: list[list[int]] = []
_rows_b: list[list[int]] = []


def _classical_rows(n: int) -> list[list[int]]:
    if len(_rows_classical) <= n:
        with _lock:
            extend_weighted_rows(_rows_classical, WEIGHT_CLASSICAL, n)
    return _rows_classical


def _b_rows(n: int) -> list[list[int]]:
    if len(_rows_b) <= n:
        with _lock:
            extend_weighted_rows(_rows_b, WEIGHT_ODD, n)
    return _rows_b


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 outside the triangle."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return _classical_rows(n)[n][k]


def stirling_b(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return _b_rows(n)[n][k]


def _d_row(n: int) -> list[int]:
    """Row n of the type-D triangle as a new list, built in one pass.

    Cell k < n is S_B(n,k) - n 2^(n-1-k) S(n-1,k); the last cell is 1.
    """
    if n == 0:
        return [1]
    prev = _classical_rows(n - 1)[n - 1]
    row = [b - n * (s << (n - 1 - k)) for k, (b, s) in enumerate(zip(_b_rows(n)[n], prev))]
    row.append(1)
    if min(row) < 0:
        k = next(k for k, value in enumerate(row) if value < 0)
        raise AssertionError(f"stirling_d underflow at (n={n}, k={k})")
    return row


def stirling_d(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return _d_row(n)[k]


def _check_row(n: int) -> None:
    """Rows exist for n >= 0 only; a negative n would index the cache from its end."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def bell_a(n: int) -> int:
    return sum(stirling_row(Family.CLASSICAL, n))


def bell_b(n: int) -> int:
    return sum(stirling_row(Family.TYPE_B, n))


def bell_d(n: int) -> int:
    return sum(stirling_row(Family.TYPE_D, n))


_STIRLING_FN = {
    Family.CLASSICAL: stirling2,
    Family.TYPE_B: stirling_b,
    Family.TYPE_D: stirling_d,
}

_BELL_FN = {
    Family.CLASSICAL: bell_a,
    Family.TYPE_B: bell_b,
    Family.TYPE_D: bell_d,
}


def stirling(family: Family, n: int, k: int) -> int:
    return _STIRLING_FN[family](n, k)


def stirling_row(family: Family, n: int) -> list[int]:
    """Row n of the family's triangle, ``[S(n, 0), ..., S(n, n)]``.

    The list is a new copy, so callers may change it without touching the
    cache.
    """
    _check_row(n)
    if family is Family.CLASSICAL:
        return list(_classical_rows(n)[n])
    if family is Family.TYPE_B:
        return list(_b_rows(n)[n])
    return _d_row(n)


def bell(family: Family, n: int) -> int:
    return _BELL_FN[family](n)


@dataclass(frozen=True)
class Triangle:
    """Lower-triangular table of one Stirling family, rows 0..max_row."""

    family: Family
    max_row: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, family: Family, max_row: int) -> "Triangle":
        _check_row(max_row)
        rows = tuple(tuple(stirling_row(family, r)) for r in range(max_row + 1))
        return cls(family, max_row, rows)

    def row(self, r: int) -> list[int]:
        return list(self.rows[r])

    def row_sum(self, r: int) -> int:
        return sum(self.row(r))


# ---------------------------------------------------------------------------
# Identity verification


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    n_max: int
    status: bool
    first_failure: Optional[tuple[int, Optional[int], int, int]] = None
    # per-n (n, common value) pairs for scalar identities; None for the
    # per-(n,k) ones
    values: Optional[tuple[tuple[int, int], ...]] = None


def _weighted_classical_sum(n: int) -> int:
    """sum_k 2^(n-k) S(n,k)."""
    return sum((1 << (n - k)) * s for k, s in enumerate(_classical_rows(n)[n]))


def single_positive_zero_block_formula(n: int) -> int:
    """Closed formula n * sum_k 2^(n-1-k) S(n-1,k) for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * _weighted_classical_sum(n - 1)


def d_recurrence_terms(n: int) -> tuple[list[int], list[int]]:
    """The two summand groups whose total is bell_d(n + 1).

    Returns (unsigned_groups, bell_groups) where
    unsigned_groups[i-1] = C(n,i) * sum_k 2^(n-i-k) S(n-i,k) for i = 1..n and
    bell_groups[k]       = 2^k C(n,k) D(n-k)                 for k = 0..n.
    """
    unsigned = [binomial(n, i) * _weighted_classical_sum(n - i) for i in range(1, n + 1)]
    bells = [(1 << k) * binomial(n, k) * bell_d(n - k) for k in range(n + 1)]
    return unsigned, bells


def _b_binomial_sum(n: int) -> int:
    """sum_k 2^k C(n,k) B(n-k)."""
    return sum((1 << k) * binomial(n, k) * bell_b(n - k) for k in range(n + 1))


def _b_from_classical(n: int) -> tuple[list[int], list[int]]:
    classical = _classical_rows(n)
    rhs = [
        sum((1 << (i - k)) * binomial(n, i) * classical[i][k] for i in range(k, n + 1))
        for k in range(n + 1)
    ]
    return stirling_row(Family.TYPE_B, n), rhs


def _d_from_b(n: int) -> tuple[list[int], list[int]]:
    b_row = stirling_row(Family.TYPE_B, n)
    prev = stirling_row(Family.CLASSICAL, n - 1) if n else []
    rhs = [b - n * (1 << (n - 1 - k)) * s for k, (b, s) in enumerate(zip(b_row, prev))]
    return stirling_row(Family.TYPE_D, n), rhs + [b_row[n]]


class _Identity(NamedTuple):
    sides: Callable[[int], tuple]  # n -> (lhs, rhs): whole rows if ``rows``, else ints
    rows: bool = False
    first_n: int = 0
    # A recurrence for n + 1 is checked for n < n_max; it reports its
    # values at n + 1 and a failure at the base index n.
    shift: int = 0


_IDENTITIES = {
    "B_FROM_CLASSICAL": _Identity(_b_from_classical, rows=True),
    "D_FROM_B": _Identity(_d_from_b, rows=True),
    "B_BELL_REC": _Identity(lambda n: (bell_b(n + 1), bell_b(n) + _b_binomial_sum(n)), shift=1),
    "ODD_WEIGHT_SUM": _Identity(
        lambda n: (
            sum((2 * k + 1) * s for k, s in enumerate(stirling_row(Family.TYPE_B, n))),
            _b_binomial_sum(n),
        )
    ),
    "D_BELL_REC": _Identity(
        lambda n: (bell_d(n + 1), sum(map(sum, d_recurrence_terms(n)))), shift=1
    ),
    "ZERO_BLOCK_DEFECT": _Identity(
        lambda n: (bell_b(n) - bell_d(n), single_positive_zero_block_formula(n)), first_n=1
    ),
    "THM_4_7": _Identity(
        lambda n: (
            sum(binomial(n, i) * _weighted_classical_sum(n - i) for i in range(1, n + 1)),
            bell_b(n) - _weighted_classical_sum(n),
        )
    ),
}

IDENTITY_IDS = tuple(_IDENTITIES)


def verify_identity(identity_id: str, n_max: int) -> IdentityReport:
    """Check one identity exactly for every n (and k where applicable) up to n_max.

    Both sides are counts, so a left side that differs from the right side
    or is negative fails.
    """
    if identity_id not in _IDENTITIES:
        raise ValueError(f"unknown identity: {identity_id}")
    _check_row(n_max)
    identity = _IDENTITIES[identity_id]

    failure: Optional[tuple[int, Optional[int], int, int]] = None
    values: list[tuple[int, int]] = []
    for n in range(identity.first_n, n_max + 1 - identity.shift):
        lhs, rhs = identity.sides(n)
        if identity.rows:
            failure = next(
                ((n, k, l, r) for k, (l, r) in enumerate(zip(lhs, rhs)) if l != r or l < 0),
                None,
            )
        else:
            values.append((n + identity.shift, rhs))
            if lhs != rhs or lhs < 0:
                failure = (n, None, lhs, rhs)
        if failure:
            break

    return IdentityReport(
        identity_id=identity_id,
        n_max=n_max,
        status=failure is None,
        first_failure=failure,
        values=None if identity.rows else tuple(values),
    )
