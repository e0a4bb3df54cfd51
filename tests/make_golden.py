"""Regenerate ``tests/golden.json``, the record of the CLI contract.

For each argv of ``CASES`` the record holds the exit code and the length
and sha256 of the UTF-8 bytes that ``bellpart.cli.main`` writes to stdout,
run in-process by ``run``; a usage error exits 2 and writes nothing.
``tests/test_golden.py`` reruns every case against the record.

Run from the repository root, after a deliberate change of output:

    PYTHONPATH=src python tests/make_golden.py

and list every key whose entry changed in CHANGES.md.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bellpart.cli import main
from bellpart.triangles import IDENTITY_IDS

GOLDEN = Path(__file__).with_name("golden.json")

_TABLES = ("stirling", "stirling-b", "stirling-d", "bell", "bell-b", "bell-d")
_TABLE_FORMATS = ("", " --format text", " --format json")  # tsv is the default

# argv joined by single spaces; no argument holds a space
CASES = [
    *(
        f"table {f} --rows {rows}{opt}"
        for f in _TABLES
        for opt in _TABLE_FORMATS
        for rows in (7, 300)
    ),
    *(f"verify all --max-n {n}" for n in (0, 6, 60)),
    # a single identity prints its per-n values
    *(f"verify {ident} --max-n {n}" for ident in IDENTITY_IDS for n in (0, 12)),
    *(f"egf-check {n}" for n in (0, 40, 100)),
    *(f"oracle-check {n}" for n in (0, 7)),
    *(
        f"enumerate {f} {n}{pairs}{opt}"
        for f in ("classical", "b", "d")
        for n in (0, 1, 5, 7)
        for opt in ("", " --format json")
        for pairs in ("", " --pairs 0", " --pairs 2")
    ),
    *(f"dobinski {f} {n} 1/2" for f in ("a", "b", "d") for n in (0, 40)),
    # widths above 1: a width numerator above 1 moves where R stops
    "dobinski a 20 3",
    "dobinski b 24 100",
    # usage errors
    "table stirling-q --rows 3",
    "table bell --rows -1",
    "verify NOT_AN_IDENTITY --max-n 3",
    "verify all --max-n -3",
    "enumerate b 3 --pairs -1",
    *(f"dobinski a 3 {width}" for width in ("zero/half", "0", "-1/2", "1/0")),
    *(f"dobinski {f} {n} 1/2" for f in ("a", "b", "d") for n in (-1, -2)),
]


def run(*argv: str) -> tuple[int, str, str]:
    """``bellpart.cli.main(argv)`` run in-process: its exit code, stdout and
    stderr.  The one CLI runner of the tests."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def record(case: str) -> dict:
    """The exit code and stdout length and sha256 of one case."""
    code, out, _ = run(*case.split())
    data = out.encode()
    return {"exit": code, "len": len(data), "sha256": hashlib.sha256(data).hexdigest()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: record(case) for case in CASES}, indent=1) + "\n")
