"""Exponential generating functions of the three Stirling triangles, in integers.

A series truncated at order N is the list [a_0, ..., a_N] of its EGF
coefficients a_n = n! * [x^n]; in a bivariate series in x and t, a_m is a
polynomial in t, the list [c_0, ..., c_m] of its t^k coefficients.  Every
series here has integer coefficients, so no rationals are needed.  Each
triangle is the bivariate EGF P(x) exp(t f(x)) = sum S(n,k) t^k x^n / n!
(Flajolet & Sedgewick, Analytic Combinatorics, ch. III):

    classical:  P = 1,        f = e^x - 1
    type B:     P = e^x,      f = h = (e^(2x) - 1)/2
    type D:     P = e^x - x,  f = h

so column k is P f^k / k!, and t = 1 gives the Bell EGFs, among them the
paper's D(x) = exp((e^(2x) - 1)/2) (e^x - x).  The product with P and
exp(t f) share one binomial convolution, ``_conv``, whose row n is
sum_(i=0..n) C(n, i) a_i g_(n-i).  The product takes a = P; exp(t f) for
f_0 = 0 follows from g' = t f' g as

    g_0 = [1],  g_m = t sum_(i=0..m-1) C(m-1, i) f_(i+1) g_(m-1-i),

the convolution with a = f' = (f_1, f_2, ...) shifted by one power of t;
for f = e^x - 1 it is the classical "block holding element m" recurrence
S(m,k) = sum_j C(m-1, j-1) S(m-j, k-1).
"""

from math import comb

from bellpart.triangles import Family, _lookup, _size


def _half_exp_2x_minus_1(n: int) -> int:
    """n! * [x^n] of (e^(2x) - 1)/2: 0, then 2^(n-1)."""
    return (1 << n) >> 1


# (P, f) of each family's P * exp(t f), as n -> n! * [x^n]
_EGFS = {
    Family.CLASSICAL: (lambda n: int(n == 0), lambda n: int(n > 0)),
    Family.TYPE_B: (lambda n: 1, _half_exp_2x_minus_1),
    Family.TYPE_D: (lambda n: int(n != 1), _half_exp_2x_minus_1),
}


def _conv(a: list[int], g: list[list[int]], n: int) -> list[int]:
    """Row n of the binomial convolution sum_i C(n, i) a_i g_(n-i), a
    polynomial in t of degree n at most."""
    row = [0] * (n + 1)
    for i in range(n + 1):
        c = comb(n, i) * a[i]
        if c:
            row[: n - i + 1] = [r + c * v for r, v in zip(row, g[n - i])]
    return row


def _mul(a: list[int], g: list[list[int]]) -> list[list[int]]:
    """Product of a series and a bivariate series of the same order."""
    return [_conv(a, g, n) for n in range(len(g))]


def _exp(f: list[int]) -> list[list[int]]:
    """exp(t f) for a series with f_0 = 0."""
    if f[0] != 0:
        raise ValueError("exp requires a zero constant term")
    g, df = [[1]], f[1:]
    for m in range(1, len(f)):
        g.append([0, *_conv(df, g, m - 1)])
    return g


def egf_triangle(family: Family, order: int) -> list[list[int]]:
    """Rows 0..order of the family's Stirling triangle, from its bivariate EGF."""
    prefactor, f = _lookup(_EGFS, family)
    sizes = range(_size(order, "order") + 1)
    return _mul([prefactor(n) for n in sizes], _exp([f(n) for n in sizes]))


def egf_coefficients(family: Family, order: int) -> list[int]:
    """n! * [x^n] of the family's Bell EGF for n = 0..order: the row sums."""
    return [sum(row) for row in egf_triangle(family, order)]


def egf_stirling_d_column(k: int, order: int) -> list[int]:
    """n! * [x^n] of (e^x - x) ((e^(2x) - 1)/2)^k / k!; equals S_D(n,k)."""
    _size(k, "k")
    return [row[k] if k < len(row) else 0 for row in egf_triangle(Family.TYPE_D, order)]
