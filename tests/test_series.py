"""Integer EGF arithmetic and generating-function coefficient checks."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpart.series import (
    _EGFS,
    _exp,
    _half_exp_2x_minus_1,
    _mul,
    egf_coefficients,
    egf_stirling_d_column,
    egf_triangle,
)
from bellpart.triangles import Family, bell_a, bell_b, bell_d, rows

EXP_X = [1, 1, 1, 1]  # e^x: every EGF coefficient is 1
X = [0, 1, 0, 0]
EXP_TX = [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]]  # exp(t x): coefficient m is t^m


def _convolve(a, b):
    """Product of two series of the same order, by plain binomial convolution."""
    return [sum(math.comb(n, i) * a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


class TestArithmetic:
    def test_exp_minus_x(self):
        prefactor, _ = _EGFS[Family.TYPE_D]
        assert [prefactor(n) for n in range(5)] == [1, 0, 1, 1, 1]

    def test_mul_identity(self):
        g = _exp([0, 3, -1, 4, 1, 5, 9])
        assert _mul([1, 0, 0, 0, 0, 0, 0], g) == g

    def test_exp_times_exp_is_exp2x(self):
        # e^x exp(t x) = exp((1 + t) x): row n is (1 + t)^n
        product = _mul(EXP_X, EXP_TX)
        assert product == [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1]]
        assert [sum(row) for row in product] == [1, 2, 4, 8]

    def test_x_squared(self):
        # x exp(t x): its t^1 column is x * x
        product = _mul(X, EXP_TX)
        assert product == [[0], [1, 0], [0, 2, 0], [0, 0, 3, 0]]
        assert [row[1] if len(row) > 1 else 0 for row in product] == _convolve(X, X)

    def test_half_exp_2x_minus_1(self):
        half = [_half_exp_2x_minus_1(n) for n in range(6)]
        assert half == [0, 1, 2, 4, 8, 16]
        # twice it, plus 1, is e^x * e^x
        doubled = [2 * h for h in half[:4]]
        doubled[0] += 1
        assert doubled == _convolve(EXP_X, EXP_X)


class TestExp:
    def test_exp_zero(self):
        assert _exp([0] * 4) == [[1], [0, 0], [0, 0, 0], [0, 0, 0, 0]]

    def test_exp_x(self):
        assert _exp(X) == EXP_TX

    def test_exp_requires_zero_constant(self):
        # the recurrence never reads f_0, so a nonzero one would be dropped
        with pytest.raises(ValueError):
            _exp([1, 0, 0, 0])

    def test_classical_bell_coefficient(self):
        # exp(t (e^x - 1)): row 6 is S(6, k), summing to the Bell number 203
        row = _exp([0] + [1] * 6)[6]
        assert row == [0, 1, 31, 90, 65, 15, 1]
        assert sum(row) == 203

    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=5))
    @settings(max_examples=50)
    def test_exp_homomorphism(self, tail):
        # exp(t f) = sum_k t^k f^k / k!, so column k times k! is f^k
        order = 6
        f = ([0] + tail + [0] * order)[: order + 1]
        g = _exp(f)
        power = [1] + [0] * order
        for k in range(order + 1):
            column = [row[k] if k < len(row) else 0 for row in g]
            assert [c * math.factorial(k) for c in column] == power
            power = _convolve(power, f)


class TestBellEgfs:
    def test_classical(self):
        assert egf_coefficients(Family.CLASSICAL, 0) == [1]
        assert egf_coefficients(Family.CLASSICAL, 7) == [bell_a(n) for n in range(8)]

    def test_type_b(self):
        values = egf_coefficients(Family.TYPE_B, 8)
        assert values == [bell_b(n) for n in range(9)]
        assert values[-1] == 219920

    def test_type_d(self):
        assert egf_coefficients(Family.TYPE_D, 5) == [1, 1, 4, 15, 72, 403]

    def test_match_exact_to_25(self):
        for family, fn in (
            (Family.CLASSICAL, bell_a),
            (Family.TYPE_B, bell_b),
            (Family.TYPE_D, bell_d),
        ):
            assert egf_coefficients(family, 25) == [fn(n) for n in range(26)]

    def test_d_decomposition(self):
        # D(x) = B(x) - x * H(x) with H = exp((e^(2x)-1)/2); in EGF
        # coefficients D(n) = B(n) - n * H(n-1)
        order = 12
        h = [sum(row) for row in _exp([_half_exp_2x_minus_1(n) for n in range(order + 1)])]
        d = egf_coefficients(Family.TYPE_D, order)
        b = egf_coefficients(Family.TYPE_B, order)
        assert d == [b[0]] + [b[n] - n * h[n - 1] for n in range(1, order + 1)]

    @pytest.mark.parametrize("family", ["b", "d", None])
    def test_non_family_rejected(self, family):
        # a value that is not a Family must not fall through to type D
        for call in (egf_coefficients, egf_triangle):
            with pytest.raises(ValueError):
                call(family, 4)

    @pytest.mark.parametrize("family", list(Family))
    def test_negative_order_rejected(self, family):
        with pytest.raises(ValueError):
            egf_coefficients(family, -1)


class TestStirlingDColumns:
    def test_examples(self):
        assert egf_stirling_d_column(2, 5)[5] == 190
        assert egf_stirling_d_column(0, 1)[1] == 0
        assert egf_stirling_d_column(3, 7)[7] == 7371

    def test_matches_triangle(self):
        triangle = list(itertools.islice(rows(Family.TYPE_D), 13))
        for k in range(6):
            assert egf_stirling_d_column(k, 12) == [
                row[k] if k < len(row) else 0 for row in triangle
            ]

    def test_column_sums(self):
        order = 10
        cols = [egf_stirling_d_column(k, order) for k in range(order + 1)]
        for n in range(order + 1):
            assert sum(cols[k][n] for k in range(n + 1)) == bell_d(n)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            egf_stirling_d_column(-1, 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            egf_stirling_d_column(2, -1)

