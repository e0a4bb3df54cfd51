"""Random-input properties that tie the recurrence rows to the other routes,
and exact ties that no CLI check runs yet: the explicit formula of each
triangle, the type-D row recurrence and Touchard's congruences."""

import math
from collections import deque
from fractions import Fraction
from itertools import pairwise

from hypothesis import given, settings
from hypothesis import strategies as st

from bellpart import dobinski, triangles
from bellpart.dobinski import dobinski_a, dobinski_b, dobinski_d
from bellpart.partitions import count_one_pass, line_groups
from bellpart.series import egf_triangle
from bellpart.triangles import Family, bell, bell_a, bell_b, bell_d, bells, rows, stirling_row


@given(st.sampled_from(Family), st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_row_matches_egf_triangle(family, n):
    # the generating function shares no code with the row recurrences
    assert stirling_row(family, n) == egf_triangle(family, n)[n]


@given(st.sampled_from(Family), st.integers(0, 120))
@settings(max_examples=25, deadline=None)
def test_bell_recurrence_matches_row_sum(family, n):
    # bell reads the Bell recurrence; the row comes from the row walk
    assert bell(family, n) == sum(stirling_row(family, n))


@given(st.sampled_from(Family), st.integers(0, 6), st.booleans(), st.data())
@settings(max_examples=25, deadline=None)
def test_enumeration_matches_row(family, n, as_json, data):
    # the enumeration route walks partitions; the row comes from the row walk
    k = data.draw(st.integers(0, n), label="k")
    row = stirling_row(family, n)
    lines = [line for group in line_groups(n, family, as_json, k) for line in group]
    assert len(lines) == len(set(lines)) == row[k]
    assert count_one_pass(n)[family] == row


@given(st.integers(0, 80))
@settings(max_examples=25, deadline=None)
def test_d_row_between_zero_and_b_row(n):
    d_row = stirling_row(Family.TYPE_D, n)
    b_row = stirling_row(Family.TYPE_B, n)
    assert all(0 <= d <= b for d, b in zip(d_row, b_row, strict=True))


# (family, name of its Dobinski numerator num_F(n, r), q)
EXPLICIT = (
    (Family.CLASSICAL, "_num_a", 1),
    (Family.TYPE_B, "_num_b", 2),
    (Family.TYPE_D, "_num_d", 2),
)


def explicit_formula_failure(n_max):
    """The first (family, n, k) with n <= n_max where the explicit formula
    q^k k! S_F(n,k) = sum_j (-1)^(k-j) C(k,j) num_F(n,j) fails, the division
    by q^k k! being exact, or None.  The numerators are read from
    ``bellpart.dobinski`` at the call, so that a changed one is seen."""
    for family, name, q in EXPLICIT:
        num = getattr(dobinski, name)
        for n, row in zip(range(n_max + 1), rows(family)):
            nums = [num(n, j) for j in range(n + 1)]
            for k, cell in enumerate(row):
                total = sum((-1) ** (k - j) * math.comb(k, j) * nums[j] for j in range(k + 1))
                if divmod(total, q**k * math.factorial(k)) != (cell, 0):
                    return family, n, k
    return None


def test_rows_match_explicit_formula():
    # ties each Dobinski numerator to every cell, not to a rounded row sum
    assert explicit_formula_failure(40) is None


def d_row_rec_failure(n_max):
    """The first n < n_max where D row n + 1 breaks
    S_D(n+1,k) = S_D(n,k-1) + 2k S_D(n,k) + S_B(n,k) - 2^(n-k) S(n,k),
    cells outside row n reading 0, or None.  The rows are the ones
    ``rows`` streams, so the printed D rows are checked against B rows
    by a step that does not build them."""
    walks = zip(
        range(n_max),
        rows(Family.CLASSICAL),
        rows(Family.TYPE_B),
        pairwise(rows(Family.TYPE_D)),
    )
    for n, s_row, b_row, (d_row, d_next) in walks:
        u_row = [s << (n - k) for k, s in enumerate(s_row)]
        terms = zip([0, *d_row], [*d_row, 0], [*b_row, 0], [*u_row, 0])
        if d_next != [left + 2 * k * d + b - u for k, (left, d, b, u) in enumerate(terms)]:
            return n
    return None


def test_d_rows_match_row_recurrence():
    # 400 covers the D rows the benchmark's stream workload prints
    assert d_row_rec_failure(400) is None


TOUCHARD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
TOUCHARD_NAMES = (*(family.value for family in Family), "w")


def touchard_failure(n_max):
    """The first (name, p, n), in order of n + p <= n_max, where X(n+p) is
    not X(n) + X(n+1) mod an odd prime p <= 31, for X the ``bells`` of each
    family and W = ``_bell_walk(1, 0)``, and D(n+p) not D(n) + D(n+1) + W(n),
    or None.  The values are streamed; the last 32 of each are held."""
    window = deque(maxlen=TOUCHARD_PRIMES[-1] + 1)  # window[i]: the values at m - i
    streams = zip(*map(bells, Family), triangles._bell_walk(1, 0))
    for m, values in zip(range(n_max + 1), streams):
        window.appendleft(values)
        for p in (p for p in TOUCHARD_PRIMES if p <= m):
            base, after = window[p], window[p - 1]
            extra = (0, 0, base[-1], 0)  # W(n) in the type-D line
            for name, x, x0, x1, w in zip(TOUCHARD_NAMES, values, base, after, extra):
                if (x - x0 - x1 - w) % p:
                    return name, p, m - p
    return None


def test_bells_satisfy_touchard_congruences():
    # reads what table bell* prints and no Stirling row
    assert touchard_failure(1000) is None


@given(
    st.sampled_from([(dobinski_a, bell_a), (dobinski_b, bell_b), (dobinski_d, bell_d)]),
    st.integers(0, 120),
    st.fractions(min_value=Fraction(1, 2**64), max_value=1, max_denominator=2**64),
)
@settings(max_examples=30, deadline=None)
def test_dobinski_contains_exact_value(fns, n, width):
    enclose, exact = fns
    interval = enclose(n, width)
    assert interval.width <= width
    assert interval.contains(exact(n))
