"""Which checks see which injected fault.

Each fault is one wrong cell of the recurrence rows, injected by the
``wrong_cell`` fixture.  The table pins the exact set of identities that fail
``verify_identity(id, 6)``: a change that blinds an identity fails here, and
one that adds detection must update the table on purpose.  Every fault must
also make ``oracle-check 6`` and ``egf-check 6``, which compare whole rows of
all three triangles, exit 1.
"""

import pytest

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
