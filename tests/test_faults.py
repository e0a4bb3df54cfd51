"""Which checks see which injected fault.

Most faults are one wrong cell of the recurrence rows, injected by the
``wrong_cell`` fixture.  The table pins the exact set of identities that fail
``verify_identity(id, 6)``: a change that blinds an identity fails here, and
one that adds detection must update the table on purpose.  Every such fault
must also make ``oracle-check 6`` and ``egf-check 6``, which compare whole
rows of all three triangles, exit 1.

The enumeration faults are one wrong count of ``partitions.count_one_pass``.
Only ``oracle-check`` reads it, so ``verify`` and ``egf-check`` are pinned as
blind to them.

The seam faults are one wrong value at a seam no row walk reads: the Bell
recurrence, an EGF prefactor and a Dobinski numerator.  Each pins the exact
set of CLI checks that exit 1.
"""

import pytest

from bellpart import dobinski, partitions, series, triangles
from bellpart.cli import main
from bellpart.triangles import IDENTITY_IDS, Family, verify_identity

FAULTS = {
    # S(4,2) read as 8, not 7: every side built from the classical rows moves
    "classical": (
        (Family.CLASSICAL, 4, 2, 8),
        {"B_FROM_CLASSICAL", "D_FROM_B", "D_BELL_REC", "ZERO_BLOCK_DEFECT", "THM_4_7"},
    ),
    # S_B(5,2) read as 331, not 330: the D rows are built from the B rows, so
    # both sides of D_FROM_B and ZERO_BLOCK_DEFECT move alike
    "b": (
        (Family.TYPE_B, 5, 2, 331),
        {"B_FROM_CLASSICAL", "B_BELL_REC", "ODD_WEIGHT_SUM", "D_BELL_REC", "THM_4_7"},
    ),
    # U(4,2) = 2^2 S(4,2) read as 29, not 28: only the D rows move
    "u": (("U", 4, 2, 29), {"D_FROM_B", "D_BELL_REC", "ZERO_BLOCK_DEFECT"}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_detection(capsys, wrong_cell, fault):
    cell, expected = FAULTS[fault]
    wrong_cell(*cell)
    failed = {ident for ident in IDENTITY_IDS if not verify_identity(ident, 6).status}
    assert failed == expected
    assert main(["verify", "all", "--max-n", "6"]) == 1
    assert main(["oracle-check", "6"]) == 1
    assert main(["egf-check", "6"]) == 1
    capsys.readouterr()


def _one_more_d_count(counts, defect):
    counts[Family.TYPE_D][2] += 1
    return counts, defect


def _one_more_defect(counts, defect):
    return counts, defect + 1


COUNT_FAULTS = {
    # S_D(5,2) counted as 191, not 190
    "count": (
        _one_more_d_count,
        "n=5 family=d: MISMATCH [1, 81, 191, 110, 20, 1] != [1, 81, 190, 110, 20, 1]",
    ),
    # B(5) - D(5) counted as 246, not 245
    "defect": (_one_more_defect, "n=5 defect: MISMATCH 246 != 245"),
}


@pytest.mark.parametrize("fault", COUNT_FAULTS)
def test_count_fault_detection(capsys, monkeypatch, fault):
    change, mismatch = COUNT_FAULTS[fault]
    count_one_pass = partitions.count_one_pass

    def wrong_count(n):
        return change(*count_one_pass(n)) if n == 5 else count_one_pass(n)

    monkeypatch.setattr(partitions, "count_one_pass", wrong_count)
    assert main(["oracle-check", "6"]) == 1
    assert mismatch in capsys.readouterr().out.splitlines()
    # blind on purpose: neither check enumerates partitions
    assert main(["verify", "all", "--max-n", "6"]) == 0
    assert main(["egf-check", "6"]) == 0
    capsys.readouterr()


def _wrong_bell(monkeypatch):
    # B(5) read as 649, not 648; D(5) = B(5) - 5 W(4) moves with it
    bell_walk = triangles._bell_walk

    def wrong_walk(shift, d):
        walk = bell_walk(shift, d)
        if (shift, d) != triangles._BELL_REC[Family.TYPE_B]:
            return walk
        return (x + (n == 5) for n, x in enumerate(walk))

    monkeypatch.setattr(triangles, "_bell_walk", wrong_walk)


def _wrong_prefactor(monkeypatch):
    # the type-D prefactor e^x - x read as e^x: every D row from n = 1 moves
    _, f = series._EGFS[Family.TYPE_D]
    monkeypatch.setitem(series._EGFS, Family.TYPE_D, (lambda n: 1, f))


def _wrong_numerator(monkeypatch):
    # the r = 0 summand of B(5) read as 2, not 1
    num_b = dobinski._num_b
    monkeypatch.setattr(dobinski, "_num_b", lambda n, r: num_b(n, r) + (n == 5 and r == 0))


CHECKS = {
    "verify": ["verify", "all", "--max-n", "6"],
    "oracle-check": ["oracle-check", "6"],
    "egf-check": ["egf-check", "6"],
    **{f"dobinski {f}": ["dobinski", f, "5", "1/2"] for f in "abd"},
}

SEAM_FAULTS = {
    # verify and oracle-check read Bell numbers as row sums, never through
    # bells(): blind on purpose
    "bell": (_wrong_bell, {"egf-check", "dobinski b", "dobinski d"}),
    "prefactor": (_wrong_prefactor, {"egf-check"}),
    # _num_b is also the tail bound of dobinski d, which never reads r = 0
    "numerator": (_wrong_numerator, {"dobinski b"}),
}


@pytest.mark.parametrize("fault", SEAM_FAULTS)
def test_seam_fault_detection(capsys, monkeypatch, fault):
    inject, expected = SEAM_FAULTS[fault]
    assert expected, "every fault must fail at least one check"
    inject(monkeypatch)
    codes = {name: main(argv) for name, argv in CHECKS.items()}
    capsys.readouterr()
    assert set(codes.values()) <= {0, 1}
    assert {name for name, code in codes.items() if code == 1} == expected


def test_bell_fault_egf_lines(capsys, monkeypatch):
    _wrong_bell(monkeypatch)
    assert main(["egf-check", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split(":")[0]: line.split()[-1] for line in lines}
    assert verdicts == {
        "bell-classical": "OK",
        "bell-b": "MISMATCH",
        "bell-d": "MISMATCH",
        "egf-check": "FAIL",
    }
