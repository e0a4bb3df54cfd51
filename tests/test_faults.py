"""Which checks see which injected fault.

Every fault runs against one table of CLI checks, each run in-process
through ``make_golden.run``, and pins the exact set of checks that exit 1: a
change that blinds a check fails here, and one that adds detection must
update the table on purpose.  Every fault must fail at least one check.

The row faults are wrong cells of the recurrence rows, injected by the
``wrong_cell`` fixture.  Every other route is compared with these rows, so
each must fail at least two checks.  They also pin the exact set of
identities that fail ``verify_identity(id, 6)``.  ``dobinski`` reads the Bell
numbers from the Bell recurrences, never from a row, so it is pinned as
blind to them.

The enumeration faults are one wrong count of ``partitions.count_one_pass``.
Only ``oracle-check`` reads it, so ``verify`` and ``egf-check`` are pinned as
blind to them.

The seam faults are one wrong value at a seam no row walk reads: the Bell
recurrence, an EGF prefactor, the Dobinski numerators and the e^(-1/q)
bracket.

The ties of ``tests/test_properties.py`` that no CLI check runs yet are
pinned last, each against the fault it is there to see: a wrong Dobinski
numerator, the B cell fault that ``D_FROM_B`` and ``ZERO_BLOCK_DEFECT``
cannot see, and a wrong Bell number far past every CLI check above.
"""

import inspect
import textwrap
from fractions import Fraction

import pytest

from bellpart import dobinski, partitions, series, triangles
from bellpart.triangles import IDENTITY_IDS, Family, verify_identity

from make_golden import run
from test_properties import d_row_rec_failure, explicit_formula_failure, touchard_failure

CHECKS = {
    "verify": ["verify", "all", "--max-n", "6"],
    "oracle-check": ["oracle-check", "6"],
    "egf-check": ["egf-check", "6"],
    **{f"dobinski {f}": ["dobinski", f, "5", "1/2"] for f in "abd"},
}

# the checks that compare whole rows of all three triangles
ROW_CHECKS = {"verify", "oracle-check", "egf-check"}


def _failing_checks(code: int = 1) -> set[str]:
    """The checks that exit ``code``; every other check exits 0."""
    codes = {name: run(*argv)[0] for name, argv in CHECKS.items()}
    assert set(codes.values()) <= {0, code}
    return {name for name, exit in codes.items() if exit == code}


ROW_FAULTS = {
    # S(4,2) read as 8, not 7: every side built from the classical rows moves
    "classical": (
        [(Family.CLASSICAL, 4, 2, 8)],
        {"B_FROM_CLASSICAL", "D_FROM_B", "D_BELL_REC", "ZERO_BLOCK_DEFECT", "THM_4_7"},
        ROW_CHECKS,
    ),
    # S_B(5,2) read as 331, not 330: the D rows are built from the B rows, so
    # both sides of D_FROM_B and ZERO_BLOCK_DEFECT move alike
    "b": (
        [(Family.TYPE_B, 5, 2, 331)],
        {"B_FROM_CLASSICAL", "B_BELL_REC", "ODD_WEIGHT_SUM", "D_BELL_REC", "THM_4_7"},
        ROW_CHECKS,
    ),
    # S_B(5,2) + 1 and S_B(5,3) - 1: row 5 keeps its sum, so the identities of
    # Bell numbers, read as row sums, are blind to it, as D_FROM_B and
    # ZERO_BLOCK_DEFECT are to any B fault
    "b-swap": (
        [(Family.TYPE_B, 5, 2, 331), (Family.TYPE_B, 5, 3, 169)],
        {"B_FROM_CLASSICAL", "ODD_WEIGHT_SUM"},
        ROW_CHECKS,
    ),
    # U(4,2) = 2^2 S(4,2) read as 29, not 28: only the D rows move
    "u": ([("U", 4, 2, 29)], {"D_FROM_B", "D_BELL_REC", "ZERO_BLOCK_DEFECT"}, ROW_CHECKS),
    # S_D(4,2) read as 35, not 34, where _d_from builds the row
    "d": ([(Family.TYPE_D, 4, 2, 35)], {"D_FROM_B", "D_BELL_REC", "ZERO_BLOCK_DEFECT"}, ROW_CHECKS),
}


@pytest.mark.parametrize("fault", ROW_FAULTS)
def test_fault_detection(wrong_cell, fault):
    cells, identities, checks = ROW_FAULTS[fault]
    assert len(checks) >= 2, "every row fault must fail at least two checks"
    for cell in cells:
        wrong_cell(*cell)
    assert {ident for ident in IDENTITY_IDS if not verify_identity(ident, 6).status} == identities
    assert _failing_checks() == checks


def _one_more(family):
    """The k = 2 count of ``family`` at n = 5 read one too high."""

    def change(counts):
        counts[family][2] += 1
        return counts

    return change


# one fault per row that count_one_pass returns
COUNT_FAULTS = {
    # S(5,2) counted as 16, not 15
    "count-classical": (
        _one_more(Family.CLASSICAL),
        "n=5 family=classical: MISMATCH [0, 1, 16, 25, 10, 1] != [0, 1, 15, 25, 10, 1]",
    ),
    # S_B(5,2) counted as 331, not 330
    "count-b": (
        _one_more(Family.TYPE_B),
        "n=5 family=b: MISMATCH [1, 121, 331, 170, 25, 1] != [1, 121, 330, 170, 25, 1]",
    ),
    # S_D(5,2) counted as 191, not 190
    "count": (
        _one_more(Family.TYPE_D),
        "n=5 family=d: MISMATCH [1, 81, 191, 110, 20, 1] != [1, 81, 190, 110, 20, 1]",
    ),
}


@pytest.mark.parametrize("fault", COUNT_FAULTS)
def test_count_fault_detection(monkeypatch, fault):
    change, mismatch = COUNT_FAULTS[fault]
    count_one_pass = partitions.count_one_pass

    def wrong_count(n):
        return change(count_one_pass(n)) if n == 5 else count_one_pass(n)

    monkeypatch.setattr(partitions, "count_one_pass", wrong_count)
    code, out, _ = run("oracle-check", "6")
    assert code == 1 and mismatch in out.splitlines()
    # blind on purpose: neither check enumerates partitions
    assert run("verify", "all", "--max-n", "6")[0] == run("egf-check", "6")[0] == 0


def _wrong_bell(monkeypatch, at=5):
    # B(at) read one too high, B(5) as 649, not 648; D(at) = B(at) - at W(at-1)
    # moves with it
    bell_walk = triangles._bell_walk

    def wrong_walk(shift, d):
        walk = bell_walk(shift, d)
        if (shift, d) != triangles._BELL_REC[Family.TYPE_B]:
            return walk
        return (x + (n == at) for n, x in enumerate(walk))

    monkeypatch.setattr(triangles, "_bell_walk", wrong_walk)


def _wrong_prefactor(monkeypatch):
    # the type-D prefactor e^x - x read as e^x: every D row from n = 1 moves
    _, f = series._EGFS[Family.TYPE_D]
    monkeypatch.setitem(series._EGFS, Family.TYPE_D, (lambda n: 1, f))


def _wrong_numerator(name):
    """The r = 0 summand of ``dobinski.<name>`` at n = 5 read one too high."""

    def inject(monkeypatch):
        num = getattr(dobinski, name)
        monkeypatch.setattr(dobinski, name, lambda n, r: num(n, r) + (n == 5 and r == 0))

    return inject


def _wide_e_bracket(monkeypatch):
    # e^(-1/q) bracketed 1/100 wider on each side: still around e^(-1/q), but
    # every enclosure comes out wider than its width target
    bounds = dobinski.exp_neg_bounds

    def wide(v, terms):
        lo, hi = bounds(v, terms)
        return dobinski.Interval(lo - Fraction(1, 100), hi + Fraction(1, 100))

    monkeypatch.setattr(dobinski, "exp_neg_bounds", wide)


def _enclose_mutant(old, new):
    """``dobinski._enclose`` compiled with its source text ``old`` read as
    ``new``: a mutant that breaks the decay one of its two searches rests on."""

    def inject(monkeypatch):
        source = textwrap.dedent(inspect.getsource(dobinski._enclose))
        assert source.count(old) == 1
        scope = {}
        exec(source.replace(old, new), vars(dobinski), scope)
        monkeypatch.setattr(dobinski, "_enclose", scope["_enclose"])

    return inject


SEAM_FAULTS = {
    # verify and oracle-check read Bell numbers as row sums, never through
    # bells(): blind on purpose
    "bell": (_wrong_bell, {"egf-check", "dobinski b", "dobinski d"}),
    "prefactor": (_wrong_prefactor, {"egf-check"}),
    # _num_b is also the tail bound of dobinski d, which never reads r = 0
    "numerator": (_wrong_numerator("_num_b"), {"dobinski b"}),
    # 0^5 read as 1
    "numerator-a": (_wrong_numerator("_num_a"), {"dobinski a"}),
    "numerator-d": (_wrong_numerator("_num_d"), {"dobinski d"}),
    # each interval still contains its Bell number and rounds to it: only the
    # width check sees this
    "e-bracket": (_wide_e_bracket, {"dobinski a", "dobinski b", "dobinski d"}),
    # the tail bound T no longer falls as R grows: the R search stops at its
    # bound (exit 3), where it would never end
    "r-decay": (
        _enclose_mutant("den * q * (r + 1)", "q * (r + 1)"), {"dobinski a", "dobinski b", "dobinski d"}
    ),
    # scale = q^J J! stays 0 from J = 3: the J search stops at its bound
    "j-decay": (
        _enclose_mutant("scale *= q * (terms + 1)", "scale *= q // (terms + 1)"),
        {"dobinski a", "dobinski b", "dobinski d"},
    ),
}

# the faults whose checks exit 3, with the AssertionError of a search bound
BOUND_FAULTS = {"r-decay", "j-decay"}


@pytest.mark.parametrize("fault", SEAM_FAULTS)
def test_seam_fault_detection(monkeypatch, fault):
    inject, expected = SEAM_FAULTS[fault]
    assert expected, "every fault must fail at least one check"
    inject(monkeypatch)
    assert _failing_checks(3 if fault in BOUND_FAULTS else 1) == expected


def test_bell_fault_egf_lines(monkeypatch):
    _wrong_bell(monkeypatch)
    code, out, _ = run("egf-check", "6")
    assert code == 1
    lines = out.splitlines()
    verdicts = {line.split(":")[0]: line.split()[-1] for line in lines}
    assert verdicts == {
        "bell-classical": "OK",
        "bell-b": "MISMATCH",
        "bell-d": "MISMATCH",
        "egf-check": "FAIL",
    }


def _short_d_rows(monkeypatch):
    # every row _d_from builds loses its last cell: the left side of D_FROM_B
    d_from = triangles._d_from
    monkeypatch.setattr(triangles, "_d_from", lambda *args: d_from(*args)[:-1])


def _short_b_from_classical(monkeypatch):
    # the right side of B_FROM_CLASSICAL loses its last cell
    sides = triangles._IDENTITIES["B_FROM_CLASSICAL"]
    short = lambda n_max: ((lhs, rhs[:-1]) for lhs, rhs in sides(n_max))
    monkeypatch.setitem(triangles._IDENTITIES, "B_FROM_CLASSICAL", short)


SHORT_ROWS = {
    "D_FROM_B": (_short_d_rows, (0, 0, None, 1)),
    "B_FROM_CLASSICAL": (_short_b_from_classical, (0, 0, 1, None)),
}


@pytest.mark.parametrize("ident", SHORT_ROWS)
def test_short_row_fails(monkeypatch, ident):
    # a row identity compares every cell: one that a side lacks reads None
    inject, failure = SHORT_ROWS[ident]
    inject(monkeypatch)
    assert verify_identity(ident, 4).first_failure == failure
    _, _, lhs, rhs = failure
    line = f"{ident}: FAIL at n=0 k=0: lhs={lhs} rhs={rhs}\n"
    assert run("verify", ident, "--max-n", "4")[:2] == (1, line)


def test_explicit_formula_sees_wrong_numerator(monkeypatch):
    _wrong_numerator("_num_b")(monkeypatch)
    assert explicit_formula_failure(40) == (Family.TYPE_B, 5, 0)


def test_d_row_rec_sees_b_fault(wrong_cell):
    # the "b" row fault, which moves both sides of D_FROM_B and
    # ZERO_BLOCK_DEFECT alike: D row 5 is built from the wrong B row 5
    wrong_cell(Family.TYPE_B, 5, 2, 331)
    assert d_row_rec_failure(400) == 4


def test_touchard_sees_wrong_bell(monkeypatch):
    # B(500) + 1 breaks B(500) = B(497) + B(498) mod 3 first
    _wrong_bell(monkeypatch, at=500)
    assert touchard_failure(1000) == ("b", 3, 497)
