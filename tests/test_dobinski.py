"""Interval enclosures of the explicit Bell-number formulas."""

import signal
from fractions import Fraction

import pytest

from bellpart import dobinski
from bellpart.dobinski import (
    Interval,
    _num_b,
    _num_d,
    dobinski_a,
    dobinski_b,
    dobinski_d,
    exp_neg_bounds,
)
from bellpart.triangles import bell_a, bell_b, bell_d

F = Fraction
HALF = F(1, 2)

# seconds a test here may run: an R or J search of _enclose that never ends
# then fails fast, not at the CI job's timeout
WALL_BOUND_S = 120


@pytest.fixture(autouse=True)
def wall_bound():
    """Fail the test with TimeoutError once it runs past ``WALL_BOUND_S``
    (SIGALRM: POSIX, as CI is)."""

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {WALL_BOUND_S} s wall bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WALL_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(F(2), F(1))

    def test_make_and_replace_enforce_ordering(self):
        with pytest.raises(ValueError):
            Interval._make((F(2), F(1)))
        with pytest.raises(ValueError):
            Interval(F(1), F(2))._replace(lo=F(3))
        assert Interval._make((F(1), F(2))) == Interval(F(1), F(2))
        assert Interval(F(1), F(2))._replace(hi=F(3)) == Interval(F(1), F(3))

    def test_contains(self):
        assert Interval(F(1), F(2)).contains(F(3, 2))
        assert not Interval(F(1), F(2)).contains(F(3))


class TestExpNegBounds:
    def test_brackets_e_inverse(self):
        iv = exp_neg_bounds(F(1), 12)
        # e^-1 = 0.36787944117144233...
        assert iv.contains(F(36787944117144232, 10**17))
        assert iv.width < F(1, 10**7)

    def test_brackets_e_half_inverse(self):
        iv = exp_neg_bounds(HALF, 12)
        # e^-0.5 = 0.6065306597126334...
        assert iv.contains(F(6065306597126334, 10**16))
        assert iv.width < F(1, 10**9)

    def test_tiny_argument(self):
        v = F(1, 10**6)
        iv = exp_neg_bounds(v, 4)
        assert iv.contains(1 - v + v**2 / 2 - v**3 / 6 + v**4 / 24)

    def test_more_terms_never_widen(self):
        prev = exp_neg_bounds(HALF, 4)
        for terms in range(5, 20):
            cur = exp_neg_bounds(HALF, terms)
            assert cur.width <= prev.width
            prev = cur

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            exp_neg_bounds(F(0), 5)
        with pytest.raises(ValueError):
            exp_neg_bounds(F(3, 2), 5)
        with pytest.raises(ValueError):
            exp_neg_bounds(F(1), 1)
        # the term count is read through operator.index, as a size is, so a
        # float fails at the check and not inside islice
        for terms in (2.5, 3.0):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                exp_neg_bounds(F(1), terms)


class TestEnclosures:
    def test_a_examples(self):
        assert dobinski_a(0, HALF).contains(1)
        iv = dobinski_a(6, HALF)
        assert iv.width <= HALF and iv.contains(203)
        assert dobinski_a(8, HALF).contains(4140)

    def test_b_examples(self):
        assert dobinski_b(0, HALF).contains(1)
        iv = dobinski_b(5, HALF)
        assert iv.width <= HALF and iv.contains(648)
        assert dobinski_b(7, HALF).contains(28640)

    def test_d_examples(self):
        assert dobinski_d(0, HALF).contains(1)
        assert dobinski_d(1, HALF).contains(1)
        iv = dobinski_d(7, HALF)
        assert iv.width <= HALF and iv.contains(17867)

    @pytest.mark.parametrize(
        "enclose,exact",
        [(dobinski_a, bell_a), (dobinski_b, bell_b), (dobinski_d, bell_d)],
    )
    def test_containment_and_recovery_to_25(self, enclose, exact):
        for n in range(26):
            iv = enclose(n, HALF)
            value = exact(n)
            assert iv.width <= HALF
            assert iv.contains(value)
            assert round(iv.midpoint) == value

    @pytest.mark.parametrize("n", [62, 100, 200, 300])
    @pytest.mark.parametrize(
        "enclose,exact",
        [(dobinski_a, bell_a), (dobinski_b, bell_b), (dobinski_d, bell_d)],
    )
    def test_containment_and_recovery_at_scale(self, enclose, exact, n):
        iv = enclose(n, HALF)
        value = exact(n)
        assert iv.width <= HALF
        assert iv.contains(value)
        assert round(iv.midpoint) == value

    @pytest.mark.parametrize("enclose", [dobinski_a, dobinski_b, dobinski_d])
    def test_one_e_bracket_linear_order(self, enclose, monkeypatch):
        # the work is polynomial in n: one e^(-c) bracket of O(n) terms
        calls = []

        def recording(v, terms):
            calls.append(terms)
            return exp_neg_bounds(v, terms)

        monkeypatch.setattr(dobinski, "exp_neg_bounds", recording)
        for n in (0, 10, 100, 300):
            calls.clear()
            enclose(n, HALF)
            assert len(calls) == 1 and calls[0] <= n + 8, (n, calls)

    def test_tighter_width_honored(self):
        target = F(1, 10**6)
        iv = dobinski_d(10, target)
        assert iv.width <= target
        assert iv.contains(bell_d(10))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            dobinski_a(3, F(0))


class TestDTerms:
    # numerators over the shared denominator 2^r r!
    def test_nonnegative(self):
        for n in range(26):
            for r in range(30):
                assert _num_d(n, r) >= 0

    def test_dominated_by_b_terms(self):
        for n in range(15):
            for r in range(20):
                assert _num_d(n, r) <= _num_b(n, r)

    def test_n1_r0_vanishes(self):
        # 0^0 = 1 convention: (2*0+1)^1 - 1*(2*0)^0 = 0
        assert _num_d(1, 0) == 0


@pytest.mark.parametrize("enclose", [dobinski_a, dobinski_b, dobinski_d])
@pytest.mark.parametrize("n", [-1, -2])
def test_negative_n_raises_value_error(enclose, n):
    with pytest.raises(ValueError, match="n must be >= 0"):
        enclose(n, HALF)


@pytest.mark.parametrize(
    "enclose, n", [(dobinski_a, 3.0), (dobinski_b, 2.5), (dobinski_d, "3"), (dobinski_a, -1.0)]
)
def test_non_integer_n_raises_type_error(enclose, n):
    # n is read through operator.index at the check, as triangles._size reads
    # a size, so it fails there and not inside the Fraction arithmetic
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        enclose(n, HALF)
