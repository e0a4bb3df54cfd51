"""Recurrence values against the published tables, plus identity suites."""

import decimal
import fractions
import math
import random
import sys
import threading
import tracemalloc
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpart import triangles
from bellpart.partitions import (
    count_by_pairs,
    count_one_pass,
    count_single_positive_zero_block,
    enum_classical,
    enum_signed,
    line_groups,
)
from bellpart.series import egf_coefficients, egf_stirling_d_column, egf_triangle
from bellpart.triangles import (
    Family,
    bell_a,
    bell_b,
    bell_d,
    bell,
    bells,
    extend_weighted_rows,
    rows,
    stirling,
    stirling2,
    stirling_b,
    stirling_d,
    stirling_row,
    verify_identity,
)

# rows 0..7 of the three published triangles
TABLE_CLASSICAL = [
    [1],
    [0, 1],
    [0, 1, 1],
    [0, 1, 3, 1],
    [0, 1, 7, 6, 1],
    [0, 1, 15, 25, 10, 1],
    [0, 1, 31, 90, 65, 15, 1],
    [0, 1, 63, 301, 350, 140, 21, 1],
]
TABLE_B = [
    [1],
    [1, 1],
    [1, 4, 1],
    [1, 13, 9, 1],
    [1, 40, 58, 16, 1],
    [1, 121, 330, 170, 25, 1],
    [1, 364, 1771, 1520, 395, 36, 1],
    [1, 1093, 9219, 12411, 5075, 791, 49, 1],
]
TABLE_D = [
    [1],
    [0, 1],
    [1, 2, 1],
    [1, 7, 6, 1],
    [1, 24, 34, 12, 1],
    [1, 81, 190, 110, 20, 1],
    [1, 268, 1051, 920, 275, 30, 1],
    [1, 869, 5747, 7371, 3255, 581, 42, 1],
]
BELL_A = [1, 1, 2, 5, 15, 52, 203, 877]
BELL_B = [1, 2, 6, 24, 116, 648, 4088, 28640]
BELL_D = [1, 1, 4, 15, 72, 403, 2546, 17867]


@pytest.mark.parametrize(
    "fn,table",
    [(stirling2, TABLE_CLASSICAL), (stirling_b, TABLE_B), (stirling_d, TABLE_D)],
)
def test_triangle_tables(fn, table):
    for n, row in enumerate(table):
        assert [fn(n, k) for k in range(n + 1)] == row


@pytest.mark.parametrize(
    "fn,values", [(bell_a, BELL_A), (bell_b, BELL_B), (bell_d, BELL_D)]
)
def test_bell_tables(fn, values):
    assert [fn(n) for n in range(8)] == values


def test_bell_values_at_8():
    # next terms past the published tables, from the recurrences
    assert bell_a(8) == 4140
    assert bell_b(8) == 219920
    assert bell_d(8) == 137528
    assert [next(islice(bells(f), 8, None)) for f in Family] == [4140, 219920, 137528]


@pytest.mark.parametrize("family", Family)
def test_bells_equal_row_sums(family):
    # the Bell recurrence shares no code with the row walk
    assert list(islice(bells(family), 301)) == [sum(row) for row in islice(rows(family), 301)]


@pytest.mark.parametrize("step", [1, 2, 3, 5])
@pytest.mark.parametrize("family", Family)
def test_bells_across_rescales(family, step, monkeypatch):
    # a small step crosses the n = m boundary of the scaled walk often, and
    # step 1 rescales the held row before every row
    monkeypatch.setattr(triangles, "_BELL_RESCALE_ROWS", step)
    assert list(islice(bells(family), 41)) == [sum(row) for row in islice(rows(family), 41)]


def test_out_of_range_is_zero():
    for fn in (stirling2, stirling_b, stirling_d):
        assert fn(3, 5) == 0
        assert fn(3, -1) == 0
        assert fn(0, 3) == 0


@pytest.mark.parametrize("k", [-1, 0, 3])
@pytest.mark.parametrize("n", [-1, -2])
def test_cell_negative_n_raises(n, k):
    # a cell of a row that does not exist is an error, not a 0
    for fn in (stirling2, stirling_b, stirling_d, *(partial(stirling, f) for f in Family)):
        with pytest.raises(ValueError, match="n must be >= 0"):
            fn(n, k)


@pytest.mark.parametrize("fn", [bell_a, bell_b, bell_d])
@pytest.mark.parametrize("n", [-1, -2])
def test_bell_negative_n_raises(fn, n):
    fn(5)  # after a valid call, a negative n must still raise
    with pytest.raises(ValueError):
        fn(n)


def test_spot_values():
    assert stirling2(5, 3) == 25
    assert stirling2(7, 4) == 350
    assert stirling2(3, 0) == 0
    assert stirling_b(3, 1) == 13
    assert stirling_b(0, 0) == 1
    assert stirling_b(6, 3) == 1520
    assert stirling_d(4, 2) == 34
    assert stirling_d(1, 0) == 0
    assert stirling_d(5, 3) == 110


def test_row_sums_match_bell():
    for n in range(31):
        assert sum(stirling2(n, k) for k in range(n + 1)) == bell_a(n)
        assert sum(stirling_b(n, k) for k in range(n + 1)) == bell_b(n)
        assert sum(stirling_d(n, k) for k in range(n + 1)) == bell_d(n)
    # a whole row read at random, walked from row 0
    assert sum(stirling_row(Family.TYPE_D, 300)) == bell_d(300)


def test_diagonal_and_bounds():
    for n in range(31):
        assert stirling2(n, n) == stirling_b(n, n) == stirling_d(n, n) == 1
        for k in range(n + 1):
            assert 0 <= stirling_d(n, k) <= stirling_b(n, k)


def test_bell_d_monotone():
    for n in range(1, 30):
        assert bell_d(n + 1) > bell_d(n)


def test_bell_a_alt_recurrence():
    for n in range(20):
        assert bell_a(n + 1) == sum(math.comb(n, k) * bell_a(k) for k in range(n + 1))


def test_triangle_build():
    rows = [stirling_row(Family.TYPE_D, r) for r in range(8)]
    assert rows[4] == TABLE_D[4]
    assert sum(rows[7]) == 17867
    assert rows[0] == [1]
    for r in range(8):
        assert rows[r][r] == 1


def test_triangle_build_negative_max_row_raises():
    with pytest.raises(ValueError):
        stirling_row(Family.TYPE_B, -1)


def test_pure_rows_basic():
    rows = extend_weighted_rows([], Family.TYPE_B, 3)
    assert rows == [[1], [1, 1], [1, 4, 1], [1, 13, 9, 1]]
    # a prefix already past n_max is returned unchanged
    assert extend_weighted_rows(rows, Family.TYPE_B, 1) is rows
    assert rows == [[1], [1, 1], [1, 4, 1], [1, 13, 9, 1]]


def test_pure_rows_incremental_extension():
    rows = extend_weighted_rows([], Family.CLASSICAL, 2)
    extend_weighted_rows(rows, Family.CLASSICAL, 5)
    assert rows[5] == [0, 1, 15, 25, 10, 1]


@pytest.mark.parametrize("family", list(Family))
def test_stirling_row_matches_cells(family):
    for n in range(41):
        assert stirling_row(family, n) == [stirling(family, n, k) for k in range(n + 1)]
    with pytest.raises(ValueError):
        stirling_row(family, -1)
    # the in-order walk, which builds its rows apart from any random read
    for n, row in zip(range(301), triangles.rows(family)):
        assert row == stirling_row(family, n)


@pytest.mark.parametrize("family", [Family.TYPE_B, Family.TYPE_D])
def test_decimal_rows_exact_in_default_context(family):
    # S_B(60, 2) has 42 digits, past the default precision of 28; the walk
    # builds each Decimal row in its own exact context, whatever the caller's
    with decimal.localcontext(decimal.Context()):
        walk = zip(range(61), rows(family, decimal.Decimal(1)), rows(family))
        for n, row, int_row in walk:
            assert row == int_row


@pytest.mark.parametrize("family", list(Family))
def test_rows_one_is_exact(family):
    # a float walk rounds 54 of the 61 cells of B row 60, silently
    for one in (1.0, fractions.Fraction(1), True, decimal.Decimal("1.0"), 2):
        with pytest.raises(ValueError):
            rows(family, one)  # at the call, before any row
    for one in (1, decimal.Decimal(1)):
        for n, row in zip(range(61), rows(family, one)):
            assert row == stirling_row(family, n)
            assert all(type(cell) is type(one) for cell in row)


@pytest.mark.parametrize("family", list(Family))
def test_stirling_row_is_a_copy(family):
    n = 12
    cells = [stirling(family, n, k) for k in range(n + 1)]
    total = bell(family, n)
    row = stirling_row(family, n)
    row[3] += 1
    row.append(7)
    assert [stirling(family, n, k) for k in range(n + 1)] == cells
    assert bell(family, n) == total
    assert stirling_row(family, n) == cells


def test_concurrent_random_reads():
    # 8 threads read rows at random n at once; a read shares no state with
    # another, so each gets the row the in-order walk yields
    true_rows = {family: list(islice(triangles.rows(family), 151)) for family in Family}
    reads = [
        [(rng.choice(list(Family)), rng.randint(0, 150)) for _ in range(12)]
        for rng in map(random.Random, range(8))
    ]
    results = [[] for _ in reads]
    start = threading.Barrier(len(reads))

    def reader(mine, out):
        start.wait(timeout=30)
        out.extend(stirling_row(family, n) for family, n in mine)

    threads = [threading.Thread(target=reader, args=pair) for pair in zip(reads, results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for mine, out in zip(reads, results):
        assert out == [true_rows[family][n] for family, n in mine]


@pytest.mark.parametrize("family", ["b", "d", None, pytest.param([], id="unhashable")])
def test_non_family_raises(family):
    # every module reads a family through triangles._lookup
    for call in (
        lambda: stirling_row(family, 3),
        lambda: triangles.rows(family),  # at the call, before any row
        lambda: triangles.rows(family, decimal.Decimal(1)),
        lambda: stirling(family, 2, 1),
        lambda: bell(family, 3),
        lambda: bells(family),
        lambda: egf_triangle(family, 3),
        lambda: next(enum_signed(3, family)),
        lambda: count_by_pairs(3, family),
    ):
        with pytest.raises(ValueError, match="not a family"):
            call()


def test_negative_size_raises():
    # every module reads a size through triangles._size, so -1 raises the
    # one error wherever it enters, a row bound's and a pair count's too,
    # and names the argument it entered by
    for name, call in (
        *(("n", lambda f=f: stirling_row(f, -1)) for f in Family),
        *(("n", lambda f=f: stirling(f, -1, 0)) for f in Family),
        ("n", lambda: stirling2(-1, 0)),
        ("n", lambda: stirling_b(-1, 1)),
        ("n", lambda: stirling_d(-1, -1)),
        *(("n", lambda f=f: bell(f, -1)) for f in Family),
        ("n", lambda: bell_a(-1)),
        ("n", lambda: bell_b(-1)),
        ("n", lambda: bell_d(-1)),
        ("n_max", lambda: verify_identity("THM_4_7", -1)),
        ("order", lambda: egf_triangle(Family.TYPE_B, -1)),
        ("order", lambda: egf_coefficients(Family.CLASSICAL, -1)),
        ("k", lambda: egf_stirling_d_column(-1, 3)),
        ("n", lambda: next(enum_classical(-1))),
        ("n", lambda: next(enum_signed(-1, Family.TYPE_B))),
        ("n", lambda: next(line_groups(-1, Family.TYPE_B, False, None))),
        ("n", lambda: count_one_pass(-1)),
        ("n", lambda: count_by_pairs(-1, Family.TYPE_D)),
        ("n", lambda: count_single_positive_zero_block(-1)),
        ("n_max", lambda: extend_weighted_rows([], Family.TYPE_B, -1)),
        ("pairs", lambda: next(line_groups(3, Family.TYPE_B, False, -1))),
    ):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got -1$") as exc:
            call()
        assert exc.type is ValueError


@pytest.mark.parametrize(
    "call, kind",
    [
        (lambda: bell_a(2.5), "float"),
        (lambda: stirling2(2.0, 1), "float"),
        (lambda: stirling2(2.0, 5), "float"),  # a k outside 0..n, checked after n
        (lambda: stirling2(3, 5.0), "float"),  # a column, read through index too
        (lambda: stirling(Family.TYPE_B, 3, 1.0), "float"),
        (lambda: stirling_d(3, -1.0), "float"),
        (lambda: stirling_row(Family.TYPE_B, "3"), "str"),
        (lambda: egf_triangle(Family.TYPE_B, 2.5), "float"),
        (lambda: verify_identity("THM_4_7", 2.5), "float"),
        (lambda: next(line_groups(2.5, Family.TYPE_B, False, None)), "float"),
        (lambda: count_one_pass(2.5), "float"),
        (lambda: count_one_pass("3"), "str"),
        (lambda: count_by_pairs(2.5, Family.TYPE_B), "float"),
    ],
    ids=[
        "bell_a",
        "stirling2",
        "stirling2_outside",
        "stirling2_column_outside",
        "stirling_b_column",
        "stirling_d_column_negative",
        "stirling_row",
        "egf_triangle",
        "verify_identity",
        "line_groups",
        "count_one_pass",
        "count_one_pass_str",
        "count_by_pairs",
    ],
)
def test_non_integer_size_raises(call, kind):
    # _size reads a size through operator.index, so a float or a string
    # fails at the check, not deep inside a walk or a comparison
    with pytest.raises(TypeError, match=rf"^'{kind}' object cannot be interpreted as an integer$"):
        call()


class TestIdentities:
    @pytest.mark.parametrize("ident", triangles.IDENTITY_IDS)
    def test_passes_to_30(self, ident):
        report = verify_identity(ident, 30)
        assert report.status
        assert report.first_failure is None

    @pytest.mark.parametrize("ident", triangles.IDENTITY_IDS)
    def test_negative_n_max_raises(self, ident):
        with pytest.raises(ValueError):
            verify_identity(ident, -1)

    def test_pass_at_150(self):
        n_max = 150
        reports = {ident: verify_identity(ident, n_max) for ident in triangles.IDENTITY_IDS}
        assert all(report.status for report in reports.values())
        for ident, family in (("B_BELL_REC", Family.TYPE_B), ("D_BELL_REC", Family.TYPE_D)):
            walk = islice(rows(family), 1, n_max + 1)
            row_sums = tuple((n, sum(row)) for n, row in enumerate(walk, 1))
            assert reports[ident].values == row_sums

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify_identity("NO_SUCH_IDENTITY", 5)

    def test_odd_weight_sum_worked_values(self):
        report = verify_identity("ODD_WEIGHT_SUM", 3)
        values = dict(report.values)
        assert values[2] == 18
        assert values[3] == 92

    def test_d_bell_rec_reconstructs_table(self):
        report = verify_identity("D_BELL_REC", 5)
        assert dict(report.values) == {1: 1, 2: 4, 3: 15, 4: 72, 5: 403}

    def test_zero_block_defect_nonnegative(self):
        # bells() against the n W(n-1) that verify reads from its own rows
        closed_form = dict(verify_identity("ZERO_BLOCK_DEFECT", 30).values)
        for n in range(31):
            defect = bell_b(n) - bell_d(n)
            assert defect >= 0
            assert defect == closed_form[n]


@pytest.mark.parametrize("ident", [i for i in triangles.IDENTITY_IDS if i != "B_FROM_CLASSICAL"])
def test_verify_holds_no_triangle(ident):
    # every identity but B_FROM_CLASSICAL holds one row of each walk at a
    # time and its Bell sequences: 0.1-0.3 MB at n_max = 200, where holding
    # the whole triangles it reads takes 3-7 MB
    tracemalloc.start()
    try:
        assert verify_identity(ident, 200).status
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


class TestDRecurrenceTerms:
    # the worked expansions of D(n + 1) into C(n,i) W(n-i) for i = 1..n and
    # 2^k C(n,k) D(n-k) for k = 0..n, W(m) = sum_k 2^(m-k) S(m,k)
    @staticmethod
    def expand(n):
        unsigned = [
            math.comb(n, i)
            * sum(2 ** (n - i - k) * stirling2(n - i, k) for k in range(n - i + 1))
            for i in range(1, n + 1)
        ]
        bells = [2**k * math.comb(n, k) * bell_d(n - k) for k in range(n + 1)]
        # the two group sums D_BELL_REC reads, from the helpers it reads them by
        pascal = next(islice(triangles._pascal(), n, None))
        w = list(islice(triangles._w(), n + 1))
        d = list(islice(triangles._sums(Family.TYPE_D), n + 1))
        assert sum(unsigned) == triangles._binomial_sum(pascal, w, 0) - w[n]
        assert sum(bells) == triangles._binomial_sum(pascal, d, 1)
        return unsigned, bells

    def test_d3(self):
        unsigned, bells = self.expand(2)
        assert unsigned == [2, 1]
        assert bells == [4, 4, 4]
        assert sum(unsigned) + sum(bells) == 15 == bell_d(3)

    def test_d4(self):
        unsigned, bells = self.expand(3)
        assert unsigned == [9, 3, 1]
        assert bells == [15, 24, 12, 8]
        assert sum(unsigned) + sum(bells) == 72 == bell_d(4)

    def test_d5(self):
        unsigned, bells = self.expand(4)
        assert unsigned == [44, 18, 4, 1]
        assert bells == [72, 120, 96, 32, 16]
        assert sum(unsigned) + sum(bells) == 403 == bell_d(5)


@given(st.integers(0, 25), st.integers(0, 25))
@settings(max_examples=60)
def test_b_from_classical_pointwise(n, k):
    assert stirling_b(n, k) == sum(
        (1 << (i - k)) * math.comb(n, i) * stirling2(i, k) for i in range(k, n + 1)
    )


class TestIdentityFailures:
    # One B cell is walked wrong; every later B row is still the true one.

    def test_row_identity_reports_first_cell(self, wrong_cell):
        wrong_cell(Family.TYPE_B, 0, 0, 2)
        report = verify_identity("D_FROM_B", 5)
        assert not report.status
        assert report.first_failure == (0, 0, 1, 2)
        assert report.values is None

    def test_recurrence_reports_base_index(self, wrong_cell):
        wrong_cell(Family.TYPE_B, 3, 1, 14)
        report = verify_identity("B_BELL_REC", 5)
        assert not report.status
        assert report.first_failure == (2, None, 25, 24)
        assert report.values == ((1, 2), (2, 6), (3, 24))

    def test_zero_block_defect_from_n0(self, wrong_cell):
        # B(0) read as 2, D(0) still 1: B(0) - D(0) = 1, where 0 W(-1) = 0
        wrong_cell(Family.TYPE_B, 0, 0, 2)
        assert verify_identity("ZERO_BLOCK_DEFECT", 3).first_failure == (0, None, 1, 0)


def test_wrong_classical_cell(wrong_cell):
    # S(4,2) read as 8, not 7; classical row 5 is still built from the true row 4
    wrong_cell(Family.CLASSICAL, 4, 2, 8)
    assert verify_identity("B_FROM_CLASSICAL", 6).first_failure == (4, 2, 58, 62)
    # W(4) = sum_k 2^(4-k) S(4,k) reads 53, not 49: rhs B(4) - W(4) = 116 - 53
    assert verify_identity("THM_4_7", 6).first_failure == (4, None, 67, 63)
    # the D rows are built from the B rows and the U walk, not from the
    # classical rows, so only the right sides move: 5 W(4) = 5 * 53, and
    # S_B(5,2) - 5 2^2 S(4,2) = 330 - 160
    assert verify_identity("ZERO_BLOCK_DEFECT", 6).first_failure == (5, None, 245, 5 * 53)
    assert verify_identity("D_FROM_B", 6).first_failure == (5, 2, 190, 170)


def test_d_underflow_raises(wrong_cell):
    # U(4,1) read as 10^6, not 8: S_B(5,1) - 5 U(4,1) < 0, and a type-D row
    # that underflows must raise, not hand out a negative count
    wrong_cell("U", 4, 1, 10**6)
    with pytest.raises(AssertionError, match=r"^stirling_d underflow at \(n=5, k=1\)$"):
        list(islice(rows(Family.TYPE_D), 6))
