"""Exponential generating functions of the three Bell families, in integers.

A series truncated at order N is the list [a_0, ..., a_N] of its EGF
coefficients a_n = n! * [x^n].  Every series built here has integer EGF
coefficients, so no rationals are needed: the product of two series is the
binomial convolution

    c_n = sum_(i=0..n) C(n, i) a_i b_(n-i),

and exp(f) for f_0 = 0 follows from g' = f'g as

    g_0 = 1,  g_m = sum_(j=1..m) C(m-1, j-1) f_j g_(m-j).

The generating functions are

    A(x) = exp(e^x - 1)
    B(x) = exp((e^(2x) - 1)/2 + x)
    D(x) = exp((e^(2x) - 1)/2) * (e^x - x)

built from the integer sequences e^x - 1 = [0, 1, 1, ...],
(e^(2x) - 1)/2 = [0, 1, 2, 4, ...] and e^x - x = [1, 0, 1, 1, ...].
"""

from __future__ import annotations

from math import comb

from bellpart.triangles import Family


class IntegralityError(RuntimeError):
    """An EGF coefficient expected to divide exactly did not (a series bug)."""


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two series of the same order."""
    return [sum(comb(n, i) * a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _exp(f: list[int]) -> list[int]:
    """exp(f) for a series with f_0 = 0."""
    if f[0] != 0:
        raise ValueError("exp requires a zero constant term")
    g = [1]
    for m in range(1, len(f)):
        g.append(sum(comb(m - 1, j - 1) * f[j] * g[m - j] for j in range(1, m + 1)))
    return g


def _divide_exactly(a: list[int], d: int, label: str) -> list[int]:
    """a / d coefficientwise; a remainder means a series bug."""
    out = []
    for n, c in enumerate(a):
        q, r = divmod(c, d)
        if r:
            raise IntegralityError(f"{label}: coefficient {c} at n={n} not divisible by {d}")
        out.append(q)
    return out


def _half_exp_2x_minus_1(order: int) -> list[int]:
    """(e^(2x) - 1)/2, whose EGF coefficients are 2^(n-1) for n >= 1."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return [0] + [1 << (n - 1) for n in range(1, order + 1)]


def _exp_minus_x(order: int) -> list[int]:
    """e^x - x."""
    return ([1, 0] + [1] * order)[: order + 1]


def egf_coefficients(family: Family, order: int) -> list[int]:
    """n! * [x^n] of the family's Bell EGF for n = 0..order."""
    half = _half_exp_2x_minus_1(order)  # also rejects order < 0
    if family is Family.CLASSICAL:
        return _exp([0] + [1] * order)
    if family is Family.TYPE_B:
        # adding x raises entry 1 from 1 to 2
        return _exp([h + (n == 1) for n, h in enumerate(half)])
    if family is Family.TYPE_D:
        return _mul(_exp(half), _exp_minus_x(order))
    raise ValueError(f"not a family: {family!r}")


def egf_stirling_d_column(k: int, order: int) -> list[int]:
    """n! * [x^n] of (e^x - x) ((e^(2x) - 1)/2)^k / k!; equals S_D(n,k)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    half = _half_exp_2x_minus_1(order)  # also rejects order < 0
    # P_j = half^j / j!, one exact division per step
    power = [1] + [0] * order
    for j in range(1, k + 1):
        power = _divide_exactly(_mul(power, half), j, f"stirling-d column k={k}")
    return _mul(_exp_minus_x(order), power)
