"""Random-input properties that tie the recurrence rows to the other routes."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bellpart.dobinski import dobinski_a, dobinski_b, dobinski_d
from bellpart.partitions import canonicalize, count_one_pass, enum_signed, line_groups
from bellpart.series import egf_triangle
from bellpart.triangles import Family, bell, bell_a, bell_b, bell_d, stirling_row


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
    assert count_one_pass(n)[0][family] == row


@given(st.integers(0, 80))
@settings(max_examples=25, deadline=None)
def test_d_row_between_zero_and_b_row(n):
    d_row = stirling_row(Family.TYPE_D, n)
    b_row = stirling_row(Family.TYPE_B, n)
    assert all(0 <= d <= b for d, b in zip(d_row, b_row, strict=True))


@given(st.integers(0, 60))
@settings(max_examples=25, deadline=None)
def test_classical_row_matches_inclusion_exclusion(n):
    # S(n, k) = (1/k!) sum_j (-1)^j C(k, j) (k - j)^n, with 0^0 = 1
    expected = [
        sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
        // math.factorial(k)
        for k in range(n + 1)
    ]
    assert stirling_row(Family.CLASSICAL, n) == expected


@given(st.integers(0, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_canonicalize_undoes_shuffle_and_sign_flip(n, data):
    partitions = list(enum_signed(n, Family.TYPE_B))
    p = data.draw(st.sampled_from(partitions))
    zero = [0, *p.zero_support, *(-i for i in p.zero_support)]
    blocks = [zero] + [list(b) for rep in p.pairs for b in (rep, [-x for x in rep])]
    # x -> -x maps a signed partition onto itself, block for block
    flipped = [[-x for x in b] for b in blocks]
    shuffled = [data.draw(st.permutations(b)) for b in data.draw(st.permutations(flipped))]
    assert canonicalize(n, shuffled) == p


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
