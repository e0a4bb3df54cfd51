"""CLI surface: output formats, exit codes, round-trips."""

import decimal
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellpart import series, triangles
from bellpart.cli import _DOBINSKI_FN, _TABLE_FAMILIES, _fast_args, build_parser, main
from bellpart.triangles import Family, stirling, stirling_b


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_bell_row0(capsys):
    code, out = run(capsys, "table", "bell", "--rows", "0")
    assert code == 0
    assert out == "0\t1\n"


def test_table_bell_b_last_line(capsys):
    code, out = run(capsys, "table", "bell-b", "--rows", "8")
    assert code == 0
    assert out.splitlines()[-1] == "8\t219920"


def test_table_stirling_d_matches_triangle(capsys):
    code, out = run(capsys, "table", "stirling-d", "--rows", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    # round-trip: re-parse the TSV and compare against the in-memory values
    for n, line in enumerate(lines):
        cells = [int(c) for c in line.split("\t")]
        assert cells == [stirling(Family.TYPE_D, n, k) for k in range(n + 1)]


def test_table_json_format(capsys):
    code, out = run(capsys, "table", "stirling-b", "--rows", "3", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[3] == {"n": 3, "cells": [1, 13, 9, 1]}


def _int_table(family, n_max, fmt):
    """The `table` output built from the int rows, as the CLI once printed it."""
    lines = []
    for n, row in zip(range(n_max + 1), triangles.rows(family)):
        if fmt == "json":
            lines.append(json.dumps({"n": n, "cells": row}, separators=(",", ":")))
        else:
            lines.append(("\t" if fmt == "tsv" else " ").join(map(str, row)))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["tsv", "json", "text"])
@pytest.mark.parametrize(
    "name, family",
    [("stirling", Family.CLASSICAL), ("stirling-b", Family.TYPE_B), ("stirling-d", Family.TYPE_D)],
)
def test_decimal_table_bytes_equal_int_rows(capsys, name, family, fmt):
    code, out = run(capsys, "table", name, "--rows", "120", "--format", fmt)
    assert code == 0
    assert out == _int_table(family, 120, fmt)


def test_table_cell_past_precision_exits_3(capsys, monkeypatch):
    # S_B(40, k) has up to 44 digits; a 20-digit context must raise, not round
    small = triangles._exact_context()
    small.prec = 20
    monkeypatch.setattr(triangles, "_exact_context", lambda: small)
    assert main(["table", "stirling-b", "--rows", "40"]) == 3
    captured = capsys.readouterr()
    assert "decimal.Inexact" in captured.err or "decimal.Rounded" in captured.err
    # rows up to the first that needs more digits were printed exactly
    printed = captured.out.splitlines()
    assert 0 < len(printed) < 41
    assert printed == _int_table(Family.TYPE_B, len(printed) - 1, "tsv").splitlines()


def test_table_leaves_decimal_context_unchanged(capsys):
    before = decimal.getcontext()
    state = (before.prec, before.Emax, before.Emin, dict(before.traps), dict(before.flags))
    for name in ("stirling-d", "bell-d"):
        code, _ = run(capsys, "table", name, "--rows", "30")
        assert code == 0
    # each row is built in the exact context, and the caller's is back in
    # place while a row is held
    walk = triangles.rows(Family.TYPE_B, decimal.Decimal(1))
    for _ in range(31):
        next(walk)
        assert decimal.getcontext() is before
    after = decimal.getcontext()
    assert after is before
    assert (after.prec, after.Emax, after.Emin, dict(after.traps), dict(after.flags)) == state


@pytest.mark.parametrize("name, family", [("stirling-b", Family.TYPE_B), ("stirling-d", Family.TYPE_D)])
def test_table_shows_wrong_b_cell(capsys, wrong_cell, name, family):
    # S_B(5, 2) read as 331, not 330; type D row 5 is built from B row 5, so
    # S_D(5, 2) moves by one too, and no other cell moves
    expected = [line.split("\t") for line in _int_table(family, 6, "tsv").splitlines()]
    expected[5][2] = str(int(expected[5][2]) + 1)
    wrong_cell(Family.TYPE_B, 5, 2, 331)
    code, out = run(capsys, "table", name, "--rows", "6")
    assert code == 0
    assert [line.split("\t") for line in out.splitlines()] == expected


def test_commands_reading_rows_in_order_leave_caches_empty(capsys):
    # random access keeps no rows, so no command, and no random read after
    # them, writes to triangles' module state: every name stays bound to the
    # object it had, and the names perfbench/traced_cli.py sums stay empty
    before = dict(vars(triangles))
    for argv in (
        ["table", "bell-b", "--rows", "50"],
        ["table", "bell-d", "--rows", "50"],
        ["table", "stirling-d", "--rows", "50"],
        ["dobinski", "b", "40", "1/2"],
        ["oracle-check", "4"],
        ["egf-check", "12"],
        ["verify", "all", "--max-n", "20"],
    ):
        code, _ = run(capsys, *argv)
        assert code == 0
    for family in Family:
        triangles.stirling_row(family, 40)
    after = vars(triangles)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    assert triangles._rows_classical == ()
    assert triangles._rows_b == ()


def test_table_unknown_family_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "stirling-q", "--rows", "3"])
    assert exc.value.code == 2


def test_table_negative_rows_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "bell", "--rows", "-1"])
    assert exc.value.code == 2


def test_verify_all(capsys):
    code, out = run(capsys, "verify", "all", "--max-n", "10")
    assert code == 0
    assert out.count("PASS") == 7


def _count_walked_rows(monkeypatch) -> Counter:
    """A Counter of the rows walked from here on: by family, and "U" for the
    U rows that the in-order D rows are built from."""
    weighted_walk, u_walk = triangles._weighted_walk, triangles._u_walk
    walked = Counter()

    def counted(family, walk):
        for cells in walk:
            walked[family] += 1
            yield cells

    monkeypatch.setattr(
        triangles,
        "_weighted_walk",
        lambda family, row, *one: counted(family, weighted_walk(family, row, *one)),
    )
    monkeypatch.setattr(triangles, "_u_walk", lambda *one: counted("U", u_walk(*one)))
    return walked


def test_verify_all_walks_each_row_once(capsys, monkeypatch):
    # the seven identities read one set of tables: classical and B rows
    # 0..20, and U rows 0..19, from which D rows 0..20 are built
    walked = _count_walked_rows(monkeypatch)
    code, out = run(capsys, "verify", "all", "--max-n", "20")
    assert code == 0
    assert out.count("PASS") == 7
    assert walked == {Family.CLASSICAL: 21, Family.TYPE_B: 21, "U": 20}


def test_verify_walks_only_rows_read(capsys, monkeypatch):
    # the B Bell recurrence reads the B rows alone
    walked = _count_walked_rows(monkeypatch)
    code, out = run(capsys, "verify", "B_BELL_REC", "--max-n", "20")
    assert code == 0
    assert out.startswith("B_BELL_REC: PASS")
    assert walked == {Family.TYPE_B: 21}


def test_verify_single_shows_values(capsys):
    code, out = run(capsys, "verify", "ODD_WEIGHT_SUM", "--max-n", "3")
    assert code == 0
    assert "n=2 lhs=rhs=18" in out
    assert "n=3 lhs=rhs=92" in out


def test_verify_d_bell_rec_reconstruction(capsys):
    code, out = run(capsys, "verify", "D_BELL_REC", "--max-n", "5")
    assert code == 0
    assert "n=5 lhs=rhs=403" in out


def test_verify_unknown_id_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "NOT_AN_IDENTITY", "--max-n", "3"])
    assert exc.value.code == 2


def test_verify_negative_max_n_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--max-n", "-3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_enumerate_d1(capsys):
    code, out = run(capsys, "enumerate", "d", "1")
    assert code == 0
    assert out == "0 | 1/-1\ncount 1\n"


def test_enumerate_d2(capsys):
    code, out = run(capsys, "enumerate", "d", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count 4"
    assert len(lines) == 5


def test_enumerate_pairs_filter(capsys):
    code, out = run(capsys, "enumerate", "b", "4", "--pairs", "2")
    assert code == 0
    assert out.splitlines()[-1] == f"count {stirling_b(4, 2)}"


def test_enumerate_pairs_beyond_n(capsys):
    code, out = run(capsys, "enumerate", "b", "2", "--pairs", "5")
    assert code == 0
    assert out == "count 0\n"


def test_enumerate_negative_pairs_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "b", "3", "--pairs", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_enumerate_json_records(capsys):
    code, out = run(capsys, "enumerate", "d", "2", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    assert {"n": 2, "zero_support": [1, 2], "pairs": []} in records
    assert all(rec["n"] == 2 for rec in records)


def test_enumerate_classical(capsys):
    code, out = run(capsys, "enumerate", "classical", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count 5"
    assert "1,2,3" in lines


def test_enumerate_deterministic(capsys):
    _, first = run(capsys, "enumerate", "b", "3")
    _, second = run(capsys, "enumerate", "b", "3")
    assert first == second


def test_oracle_check(capsys):
    code, out = run(capsys, "oracle-check", "4")
    assert code == 0
    assert out.splitlines()[-1] == "oracle-check: PASS"


def test_oracle_check_0_b_row(capsys, wrong_cell):
    # B row 0 read as [2]: the walk finds the one signed partition of <0>,
    # and only the family whose row is wrong is reported
    wrong_cell(Family.TYPE_B, 0, 0, 2)
    code, out = run(capsys, "oracle-check", "0")
    assert code == 1
    assert out.splitlines() == ["n=0 family=b: MISMATCH [1] != [2]", "oracle-check: FAIL"]


def test_oracle_check_9(capsys):
    code, out = run(capsys, "oracle-check", "9")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "n=9 ok: A=21147 B=1832224 D=1149079",
        "oracle-check: PASS",
    ]


def test_dobinski_ok(capsys):
    code, out = run(capsys, "dobinski", "d", "7", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lo ")
    assert lines[1].startswith("hi ")
    assert "rounded 17867" in lines
    assert lines[-1] == "OK"


def test_dobinski_a0(capsys):
    code, out = run(capsys, "dobinski", "a", "0", "1/2")
    assert code == 0
    assert "rounded 1" in out


def test_dobinski_b8(capsys):
    code, out = run(capsys, "dobinski", "b", "8", "1/2")
    assert code == 0
    assert "rounded 219920" in out


@pytest.fixture
def default_int_str_cap():
    """Python's default 4,300-digit int->str cap, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_dobinski_prints_past_int_str_cap(capsys, default_int_str_cap):
    # the numerator of the lower endpoint at n = 650 has more than 4,300 digits
    code, out = run(capsys, "dobinski", "b", "650", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "OK"
    lo = lines[0].removeprefix("lo ")
    assert len(lines[0]) > 4300 and len(lo.split("/")[0]) > 4300


def test_dobinski_bad_width(capsys):
    for bad in ("zero/half", "0", "-1/2", "1/0"):
        with pytest.raises(SystemExit) as exc:
            main(["dobinski", "a", "3", bad])
        assert exc.value.code == 2


@pytest.mark.parametrize("family", ["a", "b", "d"])
@pytest.mark.parametrize("n", ["-1", "-2"])
def test_dobinski_negative_n_usage_error(capsys, family, n):
    with pytest.raises(SystemExit) as exc:
        main(["dobinski", family, n, "1/2"])
    assert exc.value.code == 2


def test_closed_stdout_exits_141_quietly():
    # a reader that stops early, like `| head -c 100`, is not a crash
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for args in (
        ("table", "stirling-b", "--rows", "3000"),
        # the partition walk holds O(n^2) block references at most, so
        # n = 1200 starts streaming
        ("enumerate", "classical", "1200"),
    ):
        argv = [sys.executable, "-m", "bellpart.cli", *args]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert code == 141, args
        assert stderr == b"", args


def test_egf_check(capsys):
    code, out = run(capsys, "egf-check", "7")
    assert code == 0
    assert "1,1,4,15,72,403,2546,17867" in out
    assert out.splitlines()[-1] == "egf-check: PASS"


def test_egf_check_order0(capsys):
    code, out = run(capsys, "egf-check", "0")
    assert code == 0


def test_egf_check_bell_mismatch(capsys, monkeypatch):
    real = series.egf_triangle

    def wrong_d(family, order):
        rows = real(family, order)
        if family is Family.TYPE_D:
            rows[-1][0] += 1
        return rows

    monkeypatch.setattr(series, "egf_triangle", wrong_d)
    code, out = run(capsys, "egf-check", "3")
    assert code == 1
    assert out.splitlines() == [
        "bell-classical: 1,1,2,5 OK",
        "bell-b: 1,2,6,24 OK",
        "bell-d: 1,1,4,16 MISMATCH",
        "stirling-d row n=3: MISMATCH",
        "egf-check: FAIL",
    ]


def test_egf_check_column_mismatch(capsys, monkeypatch):
    real = series.egf_triangle

    def wrong_cells(family, order):
        # S_D(3, 1) and S_D(3, 2) moved by one each way: the row sum holds
        rows = real(family, order)
        if family is Family.TYPE_D:
            rows[3][1] += 1
            rows[3][2] -= 1
        return rows

    monkeypatch.setattr(series, "egf_triangle", wrong_cells)
    code, out = run(capsys, "egf-check", "3")
    assert code == 1
    assert out.splitlines()[2:] == [
        "bell-d: 1,1,4,15 OK",
        "stirling-d row n=3: MISMATCH",
        "egf-check: FAIL",
    ]


def test_egf_check_catches_cells_with_right_row_sum(capsys, monkeypatch):
    # classical row 4 is [0, 1, 7, 6, 1]; swapping two cells keeps its sum,
    # and type D reads no classical row: it walks U(n,k) = 2^(n-k) S(n,k)
    real = triangles.rows

    def swapped(family):
        walk = real(family)
        if family is Family.CLASSICAL:
            walk = ([0, 1, 6, 7, 1] if n == 4 else row for n, row in enumerate(walk))
        return walk

    monkeypatch.setattr(triangles, "rows", swapped)
    code, out = run(capsys, "egf-check", "4")
    assert code == 1
    assert out.splitlines() == [
        "bell-classical: 1,1,2,5,15 OK",
        "stirling-classical row n=4: MISMATCH",
        "bell-b: 1,2,6,24,116 OK",
        "bell-d: 1,1,4,15,72 OK",
        "egf-check: FAIL",
    ]


def test_d_underflow_exits_3(capsys, wrong_cell):
    # U(4,1) read as 10^6, not 8, in the Decimal walk that table prints
    wrong_cell("U", 4, 1, 10**6)
    assert main(["table", "stirling-d", "--rows", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == "AssertionError: stirling_d underflow at (n=5, k=1)"
    assert captured.out == _int_table(Family.TYPE_D, 4, "tsv")


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(family, order):
        raise RuntimeError("egf triangle: broken")

    monkeypatch.setattr(series, "egf_triangle", broken)
    assert main(["egf-check", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: egf triangle: broken" in captured.err


@pytest.mark.parametrize(
    "ident, cell, line",
    [
        ("D_FROM_B", (0, 0, 2), "D_FROM_B: FAIL at n=0 k=0: lhs=1 rhs=2"),
        ("B_BELL_REC", (3, 1, 14), "B_BELL_REC: FAIL at n=2: lhs=25 rhs=24"),
    ],
)
def test_verify_failure_line_and_exit_code(capsys, wrong_cell, ident, cell, line):
    # B cell (n, k) walked wrong; every later B row is still the true one
    wrong_cell(Family.TYPE_B, *cell)
    code, out = run(capsys, "verify", ident, "--max-n", "5")
    assert code == 1
    assert out.splitlines()[-1] == line


# The parser's grammar, small sizes only: ints with signs and leading zeros,
# junk in any slot, and any slot or option missing.
_INT = st.builds(
    lambda i, zeros: f"{'-' * (i < 0)}{zeros}{abs(i)}",
    st.integers(-2, 6),
    st.sampled_from(["", "0", "00"]),
)
_JUNK = st.text("ab-/.0 ", max_size=4)
_WIDTH = st.sampled_from(["1/2", "2/3", "1", "1e-3", "3/0", "nan", "inf", "-1/2", "0"])
_FORMAT = st.sampled_from(["tsv", "json", "text"])


def _arg(values):
    # a value of the grammar four times in six, else junk or nothing
    return st.builds(
        lambda pick, value, junk: ([value], [value], [value], [value], [junk], [])[pick],
        st.sampled_from(range(6)),
        values,
        _JUNK,
    )


def _option(flag, values):
    return st.just([]) | _arg(values).map(lambda a: [flag, *a])


def _command(name, *slots):
    return st.tuples(*slots).map(lambda parts: [name, *(a for part in parts for a in part)])


_ARGV = st.one_of(
    _command(
        "table",
        _arg(st.sampled_from(sorted(_TABLE_FAMILIES))),
        _option("--rows", _INT),
        _option("--format", _FORMAT),
    ),
    _command(
        "verify", _arg(st.sampled_from([*triangles.IDENTITY_IDS, "all"])), _option("--max-n", _INT)
    ),
    _command(
        "enumerate",
        _arg(st.sampled_from([f.value for f in Family])),
        _arg(_INT),
        _option("--pairs", _INT),
        _option("--format", _FORMAT),
    ),
    _command("oracle-check", _arg(_INT)),
    _command("dobinski", _arg(st.sampled_from(sorted(_DOBINSKI_FN))), _arg(_INT), _arg(_WIDTH)),
    _command("egf-check", _arg(_INT)),
    st.lists(_INT | _JUNK, max_size=3),
)


@given(_ARGV)
@example(["dobinski", "a", "3", "3/0"])
@example(["dobinski", "b", "3", "nan"])
@example(["dobinski", "d", "-1", "-1/2"])
@example(["enumerate", "d", "007", "--pairs", "-02"])
@example(["table", "bell", "--rows", "-0", "--format", "json"])
@settings(max_examples=100, deadline=None)
def test_exit_code_contract(argv):
    # 0, 1 or 2 and never a traceback; a usage error prints nothing to stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv


# Tokens off the plain form, or spellings of a value that int() or Fraction()
# reads as argparse does; argparse reads "-0_0" as an unknown option
_ODD = st.sampled_from(
    ["--rows=3", "-h", "--", "-0", "-0_0", "--format", "json", " 1/2", "+3", "3_0"]
)


@st.composite
def _any_argv(draw):
    # an argv of the grammar, then up to two edits that leave the plain form
    # or keep it: an odd token anywhere, the last two tokens moved to the
    # front or repeated, or two tokens joined by "="
    argv = draw(_ARGV)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "move", "repeat", "join"]))
        if edit == "insert":
            argv.insert(i, draw(_ODD))
        elif edit == "move":
            argv = [*argv[:1], *argv[-2:], *argv[1:-2]]
        elif edit == "repeat":
            argv += argv[-2:]
        else:
            argv[i : i + 2] = ["=".join(argv[i : i + 2])]
    return argv


@given(_any_argv())
@example(["table", "bell", "--rows=3"])
@example(["table", "--rows", "3", "bell"])
@example(["table", "bell", "--rows", "3", "--format", "json", "--format", "text"])
@example(["-h"])
@example(["table", "bell", "--rows", "3", "-h"])
@example(["--", "table", "bell", "--rows", "3"])
@example(["table", "bell", "--rows", "-0"])
@example(["dobinski", "a", "3", " 1/2"])
@example(["egf-check", "+3"])
@example(["oracle-check", "3_0"])
@example(["egf-check", "-0_0"])
@settings(max_examples=300, deadline=None)
def test_fast_args_agrees_with_argparse(argv):
    # argparse is the reference: whatever the plain-form parser reads, it
    # reads as argparse does; all else it leaves to argparse
    fast = _fast_args(argv)
    if fast is not None:
        assert vars(fast) == vars(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize(
    "argv, plain",
    [(["table", "bell", "--rows", "2"], True), (["table", "bell", "--rows=2"], False)],
)
def test_main_reads_sys_argv_on_both_paths(capsys, monkeypatch, argv, plain):
    monkeypatch.setattr(sys, "argv", ["bellpart", *argv])
    assert (_fast_args(argv) is not None) == plain
    assert main() == 0
    assert capsys.readouterr().out == "0\t1\n1\t1\n2\t2\n"
