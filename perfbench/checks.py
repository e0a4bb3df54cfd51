"""Checks of one bellpart invocation's stdout.

Every expected value comes from perfbench/reference.py, not from bellpart.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import reference
from workloads import BELL_FAMILY

# CLI contract: identity ids in the order `verify all` prints them.
IDENTITY_IDS = (
    "B_FROM_CLASSICAL",
    "D_FROM_B",
    "B_BELL_REC",
    "ODD_WEIGHT_SUM",
    "D_BELL_REC",
    "ZERO_BLOCK_DEFECT",
    "THM_4_7",
)

_TABLE_FAMILY = {
    "stirling": "classical",
    "stirling-b": "b",
    "stirling-d": "d",
    "bell": "classical",
    "bell-b": "b",
    "bell-d": "d",
}


class _Bad(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise _Bad(message)


def _lines(out: bytes) -> list[bytes]:
    _expect(out.endswith(b"\n"), "output does not end with a newline")
    return out[:-1].split(b"\n")


def _check_table(argv, lines, rng):
    family = _TABLE_FAMILY[argv[1]]
    rows = int(argv[3])
    _expect(len(lines) == rows + 1, f"{len(lines)} lines for {rows + 1} rows")
    spot_rows = sorted({0, min(1, rows), rows // 2, rng.randint(0, rows), rows})
    if argv[1].startswith("stirling"):
        for n, line in enumerate(lines):
            cells = line.count(b"\t") + 1
            _expect(cells == n + 1, f"row {n} has {cells} cells")
        for n in spot_rows:
            cells = lines[n].split(b"\t")
            for k in sorted({0, 1 % (n + 1), n // 2, rng.randint(0, n), n}):
                got = reference.residues(int(cells[k]))
                _expect(got == reference.stirling_mod(family, n, k), f"cell ({n},{k}) is wrong")
    else:
        for n, line in enumerate(lines):
            _expect(line.startswith(b"%d\t" % n), f"row {n} is labelled {line[:12]!r}")
        for n in spot_rows:
            value = int(lines[n].split(b"\t")[1])
            _expect(reference.residues(value) == reference.bell_mod(family, n), f"Bell({n}) is wrong")


def _signed_partition_ok(line: bytes, n: int) -> bool:
    """Canonical signed partition of <n> in the `0,±i | p/-p | ...` notation."""
    zero, *pairs = line.decode().split(" | ")
    if not zero.startswith("0"):
        return False
    support = [int(x[1:]) for x in zero.split(",")[1:] if x.startswith("±")]
    if len(support) != zero.count(","):
        return False
    seen = {0, *support, *(-x for x in support)}
    mins = []
    for pair in pairs:
        pos, neg = ([int(x) for x in half.split(",")] for half in pair.split("/"))
        if neg != [-x for x in pos] or pos[0] <= 0:
            return False
        if [abs(x) for x in pos] != sorted(abs(x) for x in pos):
            return False
        mins.append(pos[0])
        seen.update(pos)
        seen.update(neg)
    return mins == sorted(mins) and len(seen) == 2 * n + 1 and seen == set(range(-n, n + 1))


def _check_enumerate(argv, lines, rng):
    family, n = argv[1], int(argv[2])
    expected = reference.small_bell(BELL_FAMILY[family], n)
    _expect(lines[-1] == b"count %d" % expected, f"last line {lines[-1]!r}, expected count {expected}")
    body = lines[:-1]
    _expect(len(body) == expected, f"{len(body)} partition lines for {expected}")
    _expect(len(set(body)) == len(body), "a partition is printed twice")
    for line in rng.sample(body, min(64, len(body))):
        _expect(_signed_partition_ok(line, n), f"not a canonical partition: {line!r}")


def _check_oracle(argv, lines, rng):
    n_max = int(argv[1])
    expected = [
        b"n=%d ok: A=%d B=%d D=%d"
        % (n, *(reference.small_bell(f, n) for f in ("classical", "b", "d")))
        for n in range(n_max + 1)
    ]
    _expect(lines == expected + [b"oracle-check: PASS"], "oracle-check output differs")


def _check_verify(argv, lines, rng):
    max_n = int(argv[3])
    expected = [b"%s: PASS (n <= %d)" % (ident.encode(), max_n) for ident in IDENTITY_IDS]
    _expect(lines == expected, "verify output differs")


def _check_egf(argv, lines, rng):
    order = int(argv[1])
    _expect(len(lines) == 4 and lines[-1] == b"egf-check: PASS", "egf-check verdict missing")
    for line, family in zip(lines, ("classical", "b", "d")):
        label, values, verdict = line.split(b" ")
        _expect(label == b"bell-%s:" % family.encode() and verdict == b"OK", f"bad line {line[:40]!r}")
        got = [int(v) for v in values.split(b",")]
        _expect(len(got) == order + 1, f"bell-{family}: {len(got)} coefficients")
        for n, v in enumerate(got):
            _expect(reference.residues(v) == reference.bell_mod(family, n), f"bell-{family}({n}) is wrong")


def _check_dobinski(argv, lines, rng):
    family, n, width = BELL_FAMILY[argv[1]], int(argv[2]), Fraction(argv[3])
    _expect(len(lines) == 4, f"{len(lines)} lines")
    _expect(lines[0].startswith(b"lo ") and lines[1].startswith(b"hi "), "missing lo/hi")
    _expect(lines[2].startswith(b"rounded ") and lines[3] == b"OK", "missing rounded/OK")
    lo, hi = Fraction(lines[0][3:].decode()), Fraction(lines[1][3:].decode())
    rounded = int(lines[2][8:])
    _expect(lo <= rounded <= hi, "rounded value outside [lo, hi]")
    _expect(hi - lo <= width, "interval wider than the target")
    _expect(reference.residues(rounded) == reference.bell_mod(family, n), f"Bell_{family}({n}) is wrong")


_CHECKS = {
    "table": _check_table,
    "enumerate": _check_enumerate,
    "oracle-check": _check_oracle,
    "verify": _check_verify,
    "egf-check": _check_egf,
    "dobinski": _check_dobinski,
}


def check(argv: list[str], out: bytes, seed: int) -> str | None:
    """None when ``out`` is the right stdout for ``argv``, else why not."""
    # outputs hold integers longer than the default int<->str digit cap
    sys.set_int_max_str_digits(0)
    rng = random.Random(f"check:{seed}:{' '.join(argv)}")
    try:
        _CHECKS[argv[0]](argv, _lines(out), rng)
    except _Bad as exc:
        return str(exc)
    except (ValueError, IndexError) as exc:  # unparsable numbers or lines
        return f"malformed output: {exc!r}"
    return None
