"""Exact computation of the classical, type-B and type-D Stirling triangles
of the second kind, the matching Bell sequences, and an identity checker.

Number families, each selected by a ``Family``:

* ``stirling2(n, k)``  -- classical second-kind Stirling numbers
* ``stirling_b(n, k)`` -- type-B analogue, recurrence
  ``S_B(n,k) = S_B(n-1,k-1) + (2k+1) S_B(n-1,k)``
* ``stirling_d(n, k)`` -- type-D analogue; each row is built in one pass as
  ``S_D(n,k) = S_B(n,k) - n U(n-1,k)``, anew on each read, where
  ``U(m,k) = 2^(m-k) S(m,k)`` walks by its own recurrence.  Every D row,
  read in order (``rows``, ``verify``) or at random, is ``_d_from`` of one
  item of ``_b_and_u_rows``: n, B row n and U row n - 1 from those two walks.
* ``bell_a / bell_b / bell_d`` -- the corresponding row sums, each the n-th
  term of ``bells(family)``, which ``table bell*`` and ``dobinski`` read too.
  It runs the Bell recurrence X(n+1) = d X(n) + sum_k C(n,k) c^(n-k) X(k),
  (c, d) = (1, 0) classical and (2, 1) type B, as one in-place array of
  additions alone (Aitken's, on the terms c^(m-k) X(k) scaled to a common
  m that grows by a fixed step, so the sum comes out shifted up by a known
  amount), and gives D(n) = B(n) - n W(n-1), W the (2, 0) sequence.  No
  Stirling row is built for a Bell number.

Everything is exact big-integer arithmetic.  For n >= 0, a k outside 0..n
reads 0, so identity sums can run over uniform index ranges.
``rows(family, Decimal(1))`` walks the same row steps in ``decimal.Decimal``,
for ``table``: a Decimal prints in time linear in its digits, where int -> str
takes quadratic time.  Each such row is built in ``_exact_context()``, a
context of the largest precision that traps ``Inexact`` and ``Rounded``, so a
cell that would be rounded raises instead; the caller's context is never
changed.  ``decimal`` is imported by that walk alone, not with the module.
Random access (``stirling_row``, ``stirling*``) walks from row 0 on every
read and keeps nothing between reads; a type-D read takes item n of
``_b_and_u_rows`` and builds that one D row.  ``rows(family)`` walks rows
0, 1, 2, ... in order.
Rows, cells and Bell numbers exist for n >= 0 only: a negative n raises
ValueError, whatever k is.  Every family argument, here and in ``series`` and
``partitions``, is read through ``_lookup``, so a value that is not a
``Family``, such as ``"b"``, ``None`` or ``[]``, raises ValueError; every
size argument, in the same three modules, is read through ``_size``, so a
negative one raises ValueError naming the argument and its value, and one
that is not an integer, such as ``2.5`` or ``"3"``, raises TypeError.
"""

from enum import Enum
from itertools import accumulate, chain, count, islice, repeat, starmap, zip_longest
from operator import add, index, mul, sub
from typing import Iterator, NamedTuple, Optional


class Family(Enum):
    CLASSICAL = "classical"
    TYPE_B = "b"
    TYPE_D = "d"


# (a, b) of the weight w(k) = a + b k in each walked family's row step
_WEIGHTS = {Family.CLASSICAL: (0, 1), Family.TYPE_B: (1, 2)}


def _lookup(table: dict, family: Family):
    """``table[family]``, the one check of a family argument: a key the table
    lacks, such as ``"b"``, or an unhashable value such as ``[]`` raises
    ValueError."""
    try:
        return table[family]
    except (KeyError, TypeError):
        raise ValueError(f"not a family: {family!r}") from None


def _size(value: int, name: str = "n") -> int:
    """``value``, the one check of a size argument (a row n, a bound n_max,
    an order, a column k, a pair count): a value that is not an integer,
    such as ``2.5``, ``2.0`` or ``"3"``, raises TypeError, and a negative
    one ValueError."""
    if index(value) < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _walk(row: list, a, b) -> Iterator[list]:
    """``row``, then each next row by ``T(n,k) = T(n-1,k-1) + (a + b k) T(n-1,k)``
    with 0 outside row n - 1.  a and b are ints, and the cells are of ``row``'s
    type: ints, or Decimals, which an int multiplies as the Decimal of the
    same value would."""
    step = lambda prev, _: list(map(add, [0, *prev], map(mul, count(a, b), [*prev, 0])))
    return accumulate(repeat(None), step, initial=row)


def _weighted_walk(family: Family, row: list) -> Iterator[list]:
    """``row``, then each next row by ``T(n,k) = T(n-1,k-1) + w(k) T(n-1,k)``:
    w(k) = k classical, 2k + 1 type B, an int; the cells are of ``row``'s
    type.  An unknown family raises at the call, before any row is handed out."""
    return _walk(row, *_lookup(_WEIGHTS, family))


def extend_weighted_rows(rows: list[list[int]], family: Family, n_max: int) -> list[list[int]]:
    """Extend ``rows`` (empty or a valid prefix) to rows 0..n_max from ``_weighted_walk``,
    which starts at the last row held, or at row 0, and hands it back first."""
    n_max = _size(n_max, "n_max")
    walk = _weighted_walk(family, rows.pop() if rows else [1])
    rows.extend(islice(walk, max(1, n_max + 1 - len(rows))))
    return rows


# Empty, and never written: random access keeps no rows.  The names stay for
# their one reader, perfbench/traced_cli.py, which sums the rows they hold.
_rows_classical: tuple = ()
_rows_b: tuple = ()


def _u_row(row: list[int]) -> list[int]:
    """U(m,k) = 2^(m-k) S(m,k) for k = 0..m, shifted from classical row m: the
    reference ``verify`` checks the U walk against."""
    m = len(row) - 1
    return [s << (m - k) for k, s in enumerate(row)]


def _d_from(n: int, b_row: list, u_prev: list, one=1) -> list:
    """Type-D row n as a new list, from B row n and U row n - 1 (empty for
    n = 0): cell k < n is S_B(n,k) - n U(n-1,k) = S_B(n,k) - n 2^(n-1-k) S(n-1,k),
    the last is ``one``, not S_B(n,n), so a wrong B diagonal cell leaves the
    D row alone.  The cells are ints, or from Decimal rows and
    ``one = Decimal(1)`` Decimals."""
    row = list(map(sub, b_row, map(mul, repeat(n), u_prev)))
    row.append(one)
    if min(row) < 0:
        k = next(k for k, value in enumerate(row) if value < 0)
        raise AssertionError(f"stirling_d underflow at (n={n}, k={k})")
    return row


def _u_walk(one=1) -> Iterator[list]:
    """U rows 0, 1, ... from ``[one]``: U(m,k) = 2^(m-k) S(m,k) walks by
    U(m,k) = U(m-1,k-1) + 2k U(m-1,k)."""
    return _walk([one], 0, 2)


def _b_and_u_rows(one=1) -> Iterator[tuple[int, list, list]]:
    """(n, B row n, U row n - 1) for n = 0, 1, ...: one B walk, and the U walk
    one row behind it, with an empty U row at n = 0.  Every D row is
    ``_d_from`` of one of these items."""
    return zip(count(), _weighted_walk(Family.TYPE_B, [one]), chain([[]], _u_walk(one)))


def _cell(family: Family, n: int, k: int) -> int:
    """Cell (n, k) of the family's triangle: 0 for an integer k outside 0..n,
    for a negative n the ValueError of ``_size``, whatever k is, and for a k
    that is not an integer, such as ``5.0``, TypeError."""
    _size(n)
    if not 0 <= index(k) <= n:
        return 0
    return stirling_row(family, n)[k]


def stirling2(n: int, k: int) -> int:
    return _cell(Family.CLASSICAL, n, k)


def stirling_b(n: int, k: int) -> int:
    return _cell(Family.TYPE_B, n, k)


def stirling_d(n: int, k: int) -> int:
    return _cell(Family.TYPE_D, n, k)


def rows(family: Family, one=1) -> Iterator[list]:
    """Rows 0, 1, 2, ... of the family's triangle, holding only what the next
    row needs: the row before, or for type D B row n and U row n - 1.  The
    next classical or B row is built from the one handed out, so change a row
    only after drawing the next.

    The cells are multiples of ``one``: ints, or with ``one = Decimal(1)``
    Decimals, each row built in ``_exact_context()``, so a cell that would be
    rounded raises whatever the caller's context.  Any other ``one`` raises
    ValueError at the call: a float walk would round, a Fraction walk leave
    the ints, and neither would say so.  ``decimal`` is imported only for a
    ``one`` that is not an int."""
    if type(one) is not int:
        import decimal
    if (type(one) is not int and type(one) is not decimal.Decimal) or str(one) != "1":
        raise ValueError(f"one must be 1 or Decimal(1), not {one!r}")
    if family is Family.TYPE_D:
        walk = starmap(lambda n, b, u: _d_from(n, b, u, one), _b_and_u_rows(one))
    else:
        walk = _weighted_walk(family, [one])
    return walk if type(one) is int else _exact_rows(walk)


def _exact_context():
    """The context each Decimal row is built in: no precision or exponent
    limit in reach, and a cell that would be rounded raises instead."""
    import decimal

    return decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[
            decimal.InvalidOperation,
            decimal.DivisionByZero,
            decimal.Overflow,
            decimal.Inexact,
            decimal.Rounded,
        ],
    )


def _exact_rows(walk: Iterator[list]) -> Iterator[list]:
    """The rows of ``walk``, each built in ``_exact_context()``; the
    caller's context is back in place while it holds a row."""
    import decimal

    exact = _exact_context()
    while True:
        with decimal.localcontext(exact):
            row = next(walk)
        yield row


# (log2 c, d) of each Bell recurrence X(n+1) = d X(n) + sum_k C(n,k) c^(n-k) X(k);
# W(m) = sum_k 2^(m-k) S(m,k) is the sequence of c = 2, d = 0
_BELL_REC = {Family.CLASSICAL: (0, 0), Family.TYPE_B: (1, 1)}

# rows by which _bell_walk's scale m grows each time row n reaches it: a larger
# step lengthens every held cell by up to log2(c) bits a row, a smaller one
# shifts the whole row more often; bell_b(1000) times alike from 32 to 512
_BELL_RESCALE_ROWS = 64


def _bell_walk(shift: int, d: int) -> Iterator[int]:
    """X(0) = 1, X(1), ... from Aitken's array of additions alone, run on the
    scaled terms Z(k) = c^(m-k) X(k), c = 2^shift: a(n,0) = Z(n),
    a(n,j) = a(n,j-1) + a(n-1,j-1), whose last cell
    a(n,n) = c^(m-n) sum_k C(n,k) c^(n-k) X(k) is shifted down exactly.
    Row n overwrites row n - 1 in place.  When n reaches m, m grows by
    ``_BELL_RESCALE_ROWS`` and each held cell, linear in the Z(k), is shifted
    up by shift * ``_BELL_RESCALE_ROWS`` bits in place, so no second row is
    ever held."""
    x, row, m = 1, [], 0
    for n in count():
        yield x
        if n == m:
            m += _BELL_RESCALE_ROWS
            up = shift * _BELL_RESCALE_ROWS
            for j, cell in enumerate(row):
                row[j] = cell << up
        down = shift * (m - n)
        acc = x << down
        for j, prev in enumerate(row):
            row[j] = acc
            acc += prev
        row.append(acc)
        x = d * x + (acc >> down)


def bells(family: Family) -> Iterator[int]:
    """The family's Bell numbers X(0), X(1), X(2), ... from its Bell
    recurrence, holding one array row and no Stirling row."""
    if family is Family.TYPE_D:
        # D(n) = B(n) - n W(n-1), and D(0) = B(0)
        w_before = chain([0], _bell_walk(1, 0))
        return map(lambda n, b, w: b - n * w, count(), bells(Family.TYPE_B), w_before)
    return _bell_walk(*_lookup(_BELL_REC, family))


def _nth_bell(family: Family, n: int) -> int:
    return next(islice(bells(family), _size(n), None))


def bell_a(n: int) -> int:
    return _nth_bell(Family.CLASSICAL, n)


def bell_b(n: int) -> int:
    return _nth_bell(Family.TYPE_B, n)


def bell_d(n: int) -> int:
    return _nth_bell(Family.TYPE_D, n)


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
    return _lookup(_STIRLING_FN, family)(n, k)


def stirling_row(family: Family, n: int) -> list[int]:
    """Row n of the family's triangle, ``[S(n, 0), ..., S(n, n)]``.

    The list is a new one, walked from row 0 for this read, so callers may
    change it freely.  Type D builds one D row, from item n of
    ``_b_and_u_rows``.
    """
    _size(n)
    if family is Family.TYPE_D:
        return _d_from(*next(islice(_b_and_u_rows(), n, None)))
    return next(islice(_weighted_walk(family, [1]), n, None))


def bell(family: Family, n: int) -> int:
    return _lookup(_BELL_FN, family)(n)


# ---------------------------------------------------------------------------
# Identity verification


class IdentityReport(NamedTuple):
    identity_id: str
    n_max: int
    status: bool
    # (n, k, lhs, rhs) of the first failure: k is None for scalar identities,
    # and a cell that one side of a row identity lacks reads None
    first_failure: Optional[tuple[int, Optional[int], Optional[int], Optional[int]]] = None
    # per-n (n, common value) pairs for scalar identities; None for the
    # per-(n,k) ones
    values: Optional[tuple[tuple[int, int], ...]] = None


def _pascal() -> Iterator[list[int]]:
    """Rows of C(n, i): Pascal's rule is the row step with w(k) = 1."""
    return _walk([1], 1, 0)


def _sums(family: Family) -> Iterator[int]:
    """The family's Bell numbers as the row sums of ``rows(family)``."""
    return map(sum, rows(family))


def _w() -> Iterator[int]:
    """W(m) = sum_k U(m,k), U shifted from the classical rows."""
    return map(sum, map(_u_row, rows(Family.CLASSICAL)))


def _binomial_sum(pascal_row: list[int], x: list[int], shift: int) -> int:
    """sum_k c^k C(n,k) x(n-k), c = 2^shift, from Pascal row n."""
    n = len(pascal_row) - 1
    return sum((c * x[n - k]) << (shift * k) for k, c in enumerate(pascal_row))


# Each identity is a generator of (lhs, rhs) for each n up to n_max, from
# walks it starts for the call.  W and the right sides of B_FROM_CLASSICAL
# and D_FROM_B shift classical rows into U by ``_u_row``, never reading the
# U walk that the D rows are built from.


def _b_from_classical(n_max: int) -> Iterator[tuple]:
    # S_B(n,k) = sum_i C(n,i) U(i,k): the one identity that holds rows, U rows
    # 0..n_max, each shifted once from a classical row
    u_rows = list(map(_u_row, extend_weighted_rows([], Family.CLASSICAL, n_max)))
    for n, b, pascal in zip(range(n_max + 1), rows(Family.TYPE_B), _pascal()):
        rhs = [0] * (n + 1)
        for c, u in zip(pascal, u_rows):
            rhs[: len(u)] = map(add, rhs, map(mul, repeat(c), u))
        yield b, rhs


def _d_from_b(n_max: int) -> Iterator[tuple]:
    # S_D(n,k) = S_B(n,k) - n U(n-1,k) for k < n, then S_B(n,n)
    classical_before = chain([[]], rows(Family.CLASSICAL))
    for (n, b, u), row in zip(islice(_b_and_u_rows(), n_max + 1), classical_before):
        yield _d_from(n, b, u), [*map(sub, b, map(mul, repeat(n), _u_row(row))), b[n]]


def _b_bell_rec(n_max: int) -> Iterator[tuple]:
    # B(n+1) = B(n) + sum_k 2^k C(n,k) B(n-k)
    b = list(islice(_sums(Family.TYPE_B), n_max + 1))
    for n, pascal in zip(range(n_max), _pascal()):
        yield b[n + 1], b[n] + _binomial_sum(pascal, b, 1)


def _odd_weight_sum(n_max: int) -> Iterator[tuple]:
    # sum_k (2k+1) S_B(n,k) = sum_k 2^k C(n,k) B(n-k)
    b = []
    for row, pascal in zip(islice(rows(Family.TYPE_B), n_max + 1), _pascal()):
        b.append(sum(row))
        yield sum((2 * k + 1) * s for k, s in enumerate(row)), _binomial_sum(pascal, b, 1)


def _d_bell_rec(n_max: int) -> Iterator[tuple]:
    # D(n+1) = sum_(i>=1) C(n,i) W(n-i) + sum_k 2^k C(n,k) D(n-k)
    d, w = list(islice(_sums(Family.TYPE_D), n_max + 1)), []
    for n, w_n, pascal in zip(range(n_max), _w(), _pascal()):
        w.append(w_n)
        yield d[n + 1], _binomial_sum(pascal, w, 0) - w_n + _binomial_sum(pascal, d, 1)


def _zero_block_defect(n_max: int) -> Iterator[tuple]:
    # n W(n-1), the closed form of B(n) - D(n); 0 at n = 0
    w_before = chain([0], _w())
    for (n, b, u), w in zip(islice(_b_and_u_rows(), n_max + 1), w_before):
        yield sum(b) - sum(_d_from(n, b, u)), n * w


def _thm_4_7(n_max: int) -> Iterator[tuple]:
    # sum_(i>=1) C(n,i) W(n-i) = B(n) - W(n)
    w = []
    for w_n, b, pascal in zip(islice(_w(), n_max + 1), _sums(Family.TYPE_B), _pascal()):
        w.append(w_n)
        yield _binomial_sum(pascal, w, 0) - w_n, b - w_n


# id -> generator of (lhs, rhs) for each n: whole rows (lists) or ints
_IDENTITIES = {
    "B_FROM_CLASSICAL": _b_from_classical,
    "D_FROM_B": _d_from_b,
    "B_BELL_REC": _b_bell_rec,
    "ODD_WEIGHT_SUM": _odd_weight_sum,
    "D_BELL_REC": _d_bell_rec,
    "ZERO_BLOCK_DEFECT": _zero_block_defect,
    "THM_4_7": _thm_4_7,
}

# A recurrence for n + 1 is checked for n < n_max; it reports its values at
# n + 1 and a failure at the base index n.
_RECURRENCES = {"B_BELL_REC", "D_BELL_REC"}

IDENTITY_IDS = tuple(_IDENTITIES)


def verify_identity(identity_id: str, n_max: int) -> IdentityReport:
    """Check one identity exactly for every n (and k where applicable) up to n_max.

    Both sides are counts, so a left side that differs from the right side
    or is negative fails.  Each identity walks, for this call alone, the
    rows it reads up to n_max, holding one row of each walk at a time, and
    the sequences B(n), D(n) and W(m) = sum_k 2^(m-k) S(m,k) as row sums;
    B_FROM_CLASSICAL alone holds rows, U rows 0..n_max.

    The D rows are those ``rows(TYPE_D)`` yields, from the B rows and the U
    walk, and D_FROM_B and ZERO_BLOCK_DEFECT compare them with the classical
    rows, so a wrong classical or U cell fails both.  A wrong B cell moves
    both sides of those two alike; B_FROM_CLASSICAL and the Bell identities
    see it.
    """
    if identity_id not in _IDENTITIES:
        raise ValueError(f"unknown identity: {identity_id}")
    shift = identity_id in _RECURRENCES

    failure: Optional[tuple[int, Optional[int], Optional[int], Optional[int]]] = None
    values: Optional[list[tuple[int, int]]] = []
    for n, (lhs, rhs) in enumerate(_IDENTITIES[identity_id](_size(n_max, "n_max"))):
        if isinstance(lhs, list):
            values = None
            # a cell that one side lacks reads None, and fails
            cells = enumerate(zip_longest(lhs, rhs))
            failure = next(((n, k, l, r) for k, (l, r) in cells if l != r or l < 0), None)
        else:
            values.append((n + shift, rhs))
            if lhs != rhs or lhs < 0:
                failure = (n, None, lhs, rhs)
        if failure:
            break

    return IdentityReport(
        identity_id=identity_id,
        n_max=n_max,
        status=failure is None,
        first_failure=failure,
        values=None if values is None else tuple(values),
    )
