"""The CLI contract: every case of ``make_golden.CASES`` prints the bytes and
exits with the code that ``tests/golden.json`` records."""

import json

import pytest

from make_golden import CASES, GOLDEN, record

_GOLDEN = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(case):
    want = _GOLDEN.get(case)
    assert want is not None, f"{case!r} is not in {GOLDEN.name}; rerun tests/make_golden.py"
    got = record(case)
    assert got == want, (
        f"{case!r}: exit {got['exit']} len {got['len']} sha256 {got['sha256']}, "
        f"recorded exit {want['exit']} len {want['len']} sha256 {want['sha256']}"
    )
