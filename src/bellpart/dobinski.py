"""Rigorous rational-interval evaluation of the explicit Bell-number formulas

    A(n) = e^(-1)   * sum_r r^n / r!
    B(n) = e^(-1/2) * sum_r (2r+1)^n / (2^r r!)
    D(n) = e^(-1/2) * sum_r [(2r+1)^n - n (2r)^(n-1)] / (2^r r!)

Every endpoint is an exact Fraction; no floating point anywhere.  The sum
is enclosed by one integer partial sum over q^R R! (q = 1 for A, 2 for B
and D) plus a geometric tail bound, e^(-1/q) by one bracket of integer
Taylor partial sums over q^J J!.  R and J follow directly from the width
target, so the work is polynomial in n.
"""

from collections import namedtuple
from functools import partial
from itertools import islice
from operator import index
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # fractions is imported where a Fraction is built
    from fractions import Fraction


class Interval(namedtuple("Interval", "lo hi")):
    __slots__ = ()

    def __new__(cls, lo: "Fraction", hi: "Fraction"):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    @classmethod
    def _make(cls, iterable) -> "Interval":
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def width(self) -> "Fraction":
        return self.hi - self.lo

    @property
    def midpoint(self) -> "Fraction":
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi


def _partial_sums(num, q: int):
    """Yield (r, s, den) with den = q^r r! and s / den the partial sum
    sum_(i <= r) num(i) / (q^i i!), one Horner step per r."""
    r, s, den = 0, num(0), 1
    while True:
        yield r, s, den
        r += 1
        s, den = s * q * r + num(r), den * q * r


def exp_neg_bounds(v: "Fraction", terms: int) -> Interval:
    """Enclosure of e^(-v) for 0 < v <= 1 from the alternating Taylor series.

    Consecutive partial sums of sum_j (-v)^j / j! bracket the limit, so the
    last two bracket e^(-v).  The bracket's width is v^terms / terms!.
    """
    from fractions import Fraction

    v = Fraction(v)
    if not 0 < v <= 1:
        raise ValueError("v must satisfy 0 < v <= 1")
    if index(terms) < 2:
        raise ValueError("terms must be >= 2")
    sums = _partial_sums(lambda j: (-v.numerator) ** j, v.denominator)
    (_, s0, d0), (_, s1, d1) = islice(sums, terms - 1, terms + 1)
    return Interval(*sorted((Fraction(s0, d0), Fraction(s1, d1))))


def _num_a(n: int, r: int) -> int:
    return r**n


def _num_b(n: int, r: int) -> int:
    return (2 * r + 1) ** n


def _num_d(n: int, r: int) -> int:
    # 0^0 = 1 at (r=0, n=1): the unique convention giving D(1) = 1
    num = (2 * r + 1) ** n - n * (2 * r) ** (n - 1) if n else 1
    if num < 0:
        raise AssertionError(f"negative summand at (n={n}, r={r})")
    return num


def _width(width_target) -> "Fraction":
    """``width_target`` as a Fraction, the one check of a width: a width
    that is not > 0 raises ValueError."""
    from fractions import Fraction

    width = Fraction(width_target)
    if width <= 0:
        raise ValueError("width_target must be > 0")
    return width


def _enclose(num, tail_num, q: int, n: int, width_target) -> Interval:
    """e^(-1/q) * sum_r num(n, r) / (q^r r!), enclosed to the requested width.

    For r >= max(n, 7) consecutive terms of ``tail_num`` decay by at least
    a factor 2, so the tail after R is within [0, T] with
    T = 2 * tail_num(n, R+1) / (q^(R+1) (R+1)!).  ``tail_num`` must
    dominate ``num`` termwise.  The searches for R and J each stop at a
    bound computed once, with an AssertionError, should that decay fail.
    """
    from fractions import Fraction

    if index(n) < 0:
        raise ValueError("n must be >= 0")
    width = _width(width_target)
    # R is the first r >= r0 = max(n, 7) with T <= width / 2.  From r0 on T
    # at least halves each step, so R - r0 is at most the bit length of
    # floor(T(r0) / (width / 2)); past that many steps the decay has failed
    r0 = max(n, 7)
    for steps, (r, s, den) in enumerate(islice(_partial_sums(partial(num, n), q), r0, None)):
        tail, tail_den = 2 * tail_num(n, r + 1), den * q * (r + 1)
        if 2 * tail * width.denominator <= width.numerator * tail_den:
            break
        if not steps:
            halvings = (2 * tail * width.denominator // (width.numerator * tail_den)).bit_length()
        if steps >= halvings:
            raise AssertionError(f"R search past its bound {r0 + halvings} at (n={n}, width={width})")
    upper = Fraction(s * q * (r + 1) + tail, tail_den)  # P + T
    # J is the least J >= 2 with (P + T) * c^J / J! <= width / 2, c = 1/q,
    # that is with scale = q^J J! = J! / c^J >= need.  scale starts at 2 q^2
    # and grows by q J >= 3 a step, so J <= j_cap = 2 + bit_length(floor(need) + 1)
    scale, need = 2 * q * q, 2 * upper / width
    j_cap = 2 + (int(need) + 1).bit_length()
    for terms in range(2, j_cap + 1):
        if scale >= need:
            break
        scale *= q * (terms + 1)
    else:
        raise AssertionError(f"J search past its bound {j_cap} at (n={n}, width={width})")
    e = exp_neg_bounds(Fraction(1, q), terms)
    # Every factor is nonnegative, so the product is [P e.lo, (P + T) e.hi].
    # With e.hi <= 1 its width P (e.hi - e.lo) + T e.hi is at most
    # (P + T) c^J / J! + T <= width / 2 + width / 2.
    return Interval(Fraction(s, den) * e.lo, upper * e.hi)


def dobinski_a(n: int, width_target) -> Interval:
    """Interval of width <= width_target containing e^(-1) sum_r r^n/r!."""
    return _enclose(_num_a, _num_a, 1, n, width_target)


def dobinski_b(n: int, width_target) -> Interval:
    """Interval containing e^(-1/2) sum_r (2r+1)^n/(2^r r!)."""
    return _enclose(_num_b, _num_b, 2, n, width_target)


def dobinski_d(n: int, width_target) -> Interval:
    """Interval containing e^(-1/2) sum_r [(2r+1)^n - n(2r)^(n-1)]/(2^r r!).

    Each summand is nonnegative (asserted per term) and dominated by the
    type-B summand, which supplies the tail bound.
    """
    return _enclose(_num_d, _num_b, 2, n, width_target)
