"""Rigorous rational-interval evaluation of the explicit Bell-number formulas

    A(n) = e^(-1)   * sum_r r^n / r!
    B(n) = e^(-1/2) * sum_r (2r+1)^n / (2^r r!)
    D(n) = e^(-1/2) * sum_r [(2r+1)^n - n (2r)^(n-1)] / (2^r r!)

Every endpoint is an exact Fraction; no floating point anywhere.  The
infinite sum is enclosed by a partial sum plus a geometric tail bound, the
e^(-c) factor by consecutive partial sums of its alternating Taylor series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))


def exp_neg_bounds(v: Fraction, terms: int) -> Interval:
    """Enclosure of e^(-v) for 0 < v <= 1 from the alternating Taylor series.

    Consecutive partial sums of sum_j (-v)^j / j! bracket the limit, so the
    last two bracket e^(-v).
    """
    v = Fraction(v)
    if not 0 < v <= 1:
        raise ValueError("v must satisfy 0 < v <= 1")
    if terms < 2:
        raise ValueError("terms must be >= 2")
    s = Fraction(0)
    prev = Fraction(0)
    term = Fraction(1)
    for j in range(terms + 1):
        prev = s
        s += term
        term *= -v / (j + 1)
    return Interval(min(prev, s), max(prev, s))


def _term_a(n: int, r: int) -> Fraction:
    return Fraction(r**n, factorial(r))


def _term_b(n: int, r: int) -> Fraction:
    return Fraction((2 * r + 1) ** n, (1 << r) * factorial(r))


def _term_d(n: int, r: int) -> Fraction:
    if n == 0:
        num = 1
    else:
        # 0^0 = 1 at (r=0, n=1): the unique convention giving D(1) = 1
        num = (2 * r + 1) ** n - n * (2 * r) ** (n - 1)
    if num < 0:
        raise AssertionError(f"negative summand at (n={n}, r={r})")
    return Fraction(num, (1 << r) * factorial(r))


def _enclose(term, tail_term, n: int, width_target: Fraction, c: Fraction) -> Interval:
    """e^(-c) * sum_r term(n, r), enclosed to the requested width.

    For r >= max(n, 7) consecutive terms of ``tail_term`` decay by at least
    a factor 2, so the tail after R is within [0, 2 * tail_term(n, R+1)].
    ``tail_term`` must dominate ``term`` termwise.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    width_target = Fraction(width_target)
    if width_target <= 0:
        raise ValueError("width_target must be > 0")
    r_stop = max(n, 7) + 4
    e_terms = 16
    partial = sum((term(n, r) for r in range(r_stop + 1)), Fraction(0))
    last = r_stop
    while True:
        tail = 2 * tail_term(n, last + 1)
        enclosure = Interval(partial, partial + tail) * exp_neg_bounds(c, e_terms)
        if enclosure.width <= width_target:
            return enclosure
        partial += sum((term(n, r) for r in range(last + 1, 2 * last + 1)), Fraction(0))
        last = 2 * last
        e_terms += 8


def dobinski_a(n: int, width_target) -> Interval:
    """Interval of width <= width_target containing e^(-1) sum_r r^n/r!."""
    return _enclose(_term_a, _term_a, n, width_target, Fraction(1))


def dobinski_b(n: int, width_target) -> Interval:
    """Interval containing e^(-1/2) sum_r (2r+1)^n/(2^r r!)."""
    return _enclose(_term_b, _term_b, n, width_target, Fraction(1, 2))


def dobinski_d(n: int, width_target) -> Interval:
    """Interval containing e^(-1/2) sum_r [(2r+1)^n - n(2r)^(n-1)]/(2^r r!).

    Each summand is nonnegative (asserted per term) and dominated by the
    type-B summand, which supplies the tail bound.
    """
    return _enclose(_term_d, _term_b, n, width_target, Fraction(1, 2))
