"""The CLI contract: every case of ``make_golden.CASES`` prints the bytes and
exits with the code that ``tests/golden.json`` records, and each is read by
the parser that ``bellpart.cli.main`` picks for its argv."""

import json

import pytest

from bellpart.cli import _fast_args, build_parser
from make_golden import CASES, GOLDEN, record

_GOLDEN = json.loads(GOLDEN.read_text())


def test_golden_keys_are_cases():
    # a key left by a removed case, a missing one or a reordered record fails
    # here, by name; rerun tests/make_golden.py after a deliberate change
    assert list(_GOLDEN) == CASES


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(case):
    want = _GOLDEN[case]
    got = record(case)
    assert got == want, (
        f"{case!r}: exit {got['exit']} len {got['len']} sha256 {got['sha256']}, "
        f"recorded exit {want['exit']} len {want['len']} sha256 {want['sha256']}"
    )


@pytest.mark.parametrize("case", CASES)
def test_plain_form_covers_every_case_but_usage_errors(case):
    # a usage error is left to argparse; every other case, in the argv forms
    # the benchmark sends, is read without it, to argparse's namespace
    argv = case.split()
    fast = _fast_args(argv)
    if _GOLDEN[case]["exit"] == 2:
        assert fast is None
    else:
        assert fast is not None
        assert vars(fast) == vars(build_parser().parse_args(argv))
