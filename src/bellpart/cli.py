"""Command-line interface.

Subcommands: table, verify, enumerate, oracle-check, dobinski, egf-check.
Exit codes: 0 success/verified, 1 verification failure, 2 usage error
(including a negative n, row count, order or --pairs), 3 internal error
(an uncaught exception, e.g. the AssertionError of a type-D row that
underflows; the traceback goes to stderr), 141 stdout closed by its
reader (as a shell reports a tool ended by SIGPIPE; nothing goes to
stderr).
Results go to stdout, diagnostics to stderr.
partitions, series, decimal, fractions and traceback are imported only
where they are used: decimal by ``table stirling*``, which prints the
Decimal rows of ``triangles.rows`` (built exactly in a context of its own),
and by ``dobinski``, whose fractions imports it; fractions by ``dobinski``
alone.  No subcommand needs json: ``table`` and ``enumerate`` build their
JSON lines themselves.  ``bellpart.dobinski`` is imported with this module,
although only ``dobinski`` runs it: the benchmark's tracer
(perfbench/traced_cli.py) swaps each entry of ``_DOBINSKI_FN`` for the
wrapper it found by the identity of the function the entry holds.
"""

import argparse
import os
import sys
from itertools import islice

from bellpart import dobinski, triangles
from bellpart.triangles import Family

_TABLE_FAMILIES = {
    "stirling": (Family.CLASSICAL, True),
    "stirling-b": (Family.TYPE_B, True),
    "stirling-d": (Family.TYPE_D, True),
    "bell": (Family.CLASSICAL, False),
    "bell-b": (Family.TYPE_B, False),
    "bell-d": (Family.TYPE_D, False),
}

_DOBINSKI_FN = {
    "a": (dobinski.dobinski_a, triangles.bell_a),
    "b": (dobinski.dobinski_b, triangles.bell_b),
    "d": (dobinski.dobinski_d, triangles.bell_d),
}


def cmd_table(args) -> int:
    family, is_triangle = _TABLE_FAMILIES[args.family]
    as_json = args.format == "json"
    sep = "," if as_json else "\t" if args.format == "tsv" else " "
    if is_triangle:
        from decimal import Decimal

        # The rows are walked in exact Decimal, which prints in time linear in
        # the digits, where int -> str takes quadratic time; a cell that would
        # be rounded raises (exit 3).
        for n, row in zip(range(args.rows + 1), triangles.rows(family, Decimal(1))):
            cells = sep.join(map(str, row))
            print(f'{{"n":{n},"cells":[{cells}]}}' if as_json else cells)
    else:
        # the Bell walk is bound by its arithmetic, which is faster in ints
        for n, value in zip(range(args.rows + 1), triangles.bells(family)):
            print(f'{{"n":{n},"value":{value}}}' if as_json else f"{n}{sep}{value}")
    return 0


def cmd_verify(args) -> int:
    ids = triangles.IDENTITY_IDS if args.identity == "all" else (args.identity,)
    tables = triangles._Tables(args.max_n)
    ok = True
    for ident in ids:
        report = triangles.verify_identity(ident, args.max_n, tables)
        if report.status:
            print(f"{ident}: PASS (n <= {args.max_n})")
            if report.values is not None and args.identity != "all":
                for n, value in report.values:
                    print(f"  n={n} lhs=rhs={value}")
        else:
            ok = False
            n, k, lhs, rhs = report.first_failure
            where = f"n={n}" if k is None else f"n={n} k={k}"
            print(f"{ident}: FAIL at {where}: lhs={lhs} rhs={rhs}")
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    from bellpart import partitions
    as_json, count = args.format == "json", 0
    for lines in partitions.line_groups(args.n, Family(args.family), as_json, args.pairs):
        count += len(lines)
        print("\n".join(lines))
    print(f"count {count}")
    return 0


def cmd_oracle_check(args) -> int:
    from bellpart import partitions
    ok = True
    walks = zip(*(triangles.rows(family) for family in Family))
    for n, expected_rows in zip(range(args.n_max + 1), walks):
        counts = partitions.count_one_pass(n)
        expected = dict(zip(Family, expected_rows))
        wrong = [family for family in Family if counts[family] != expected[family]]
        for family in wrong:
            print(f"n={n} family={family.value}: MISMATCH {counts[family]} != {expected[family]}")
        if not wrong:
            bell_a, bell_b, bell_d = map(sum, expected_rows)
            print(f"n={n} ok: A={bell_a} B={bell_b} D={bell_d}")
        ok = ok and not wrong
    print("oracle-check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_dobinski(args) -> int:
    fn, exact_fn = _DOBINSKI_FN[args.family]
    interval = fn(args.n, args.width)
    exact = exact_fn(args.n)
    print(f"lo {interval.lo}")
    print(f"hi {interval.hi}")
    ok = interval.contains(exact)
    if 2 * args.width <= 1:
        rounded = round(interval.midpoint)
        ok = ok and rounded == exact
        print(f"rounded {rounded}")
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


def cmd_egf_check(args) -> int:
    from bellpart import series
    ok = True
    for family in Family:
        triangle = series.egf_triangle(family, args.order)
        wrong_rows = [
            n for n, (row, walk_row) in enumerate(zip(triangle, triangles.rows(family)))
            if row != walk_row
        ]
        values = [sum(row) for row in triangle]
        # the row sums against bells(), which table bell* and dobinski read
        bells = list(islice(triangles.bells(family), args.order + 1))
        verdict = "OK" if values == bells else "MISMATCH"
        print(f"bell-{family.value}: {','.join(map(str, values))} {verdict}")
        for n in wrong_rows:
            print(f"stirling-{family.value} row n={n}: MISMATCH")
        ok = ok and values == bells and not wrong_rows
    print("egf-check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _arg(read, what: str):
    """An argparse type that is ``read``, the library's own check: its
    ValueError, or the ZeroDivisionError of ``Fraction("3/0")``, which
    argparse would not catch, is a usage error."""

    def convert(text: str):
        try:
            return read(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"invalid {what}: {text!r}") from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    # a size or a width is accepted exactly when the library accepts it
    size = _arg(lambda text: triangles._size(int(text)), "nonnegative int")
    width = _arg(dobinski._width, "width")
    parser = argparse.ArgumentParser(
        prog="bellpart",
        description="Exact Bell/Stirling numbers of types classical, B and D, "
        "with enumeration, series and interval cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print a Stirling triangle or Bell sequence")
    p.add_argument("family", choices=sorted(_TABLE_FAMILIES))
    p.add_argument("--rows", type=size, required=True, metavar="N")
    p.add_argument("--format", choices=["tsv", "json", "text"], default="tsv")
    p.set_defaults(run=cmd_table)

    p = sub.add_parser("verify", help="check identities by exact arithmetic")
    p.add_argument("identity", choices=list(triangles.IDENTITY_IDS) + ["all"])
    p.add_argument("--max-n", type=size, required=True, dest="max_n")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("enumerate", help="stream partitions")
    p.add_argument("family", choices=sorted(f.value for f in Family))
    p.add_argument("n", type=size)
    p.add_argument(
        "--pairs", type=size, default=None,
        help="only the partitions of this many pairs of blocks (blocks, for classical)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("oracle-check", help="enumeration vs recurrence counts")
    p.add_argument("n_max", type=size)
    p.set_defaults(run=cmd_oracle_check)

    p = sub.add_parser("dobinski", help="interval evaluation of the explicit formulas")
    p.add_argument("family", choices=sorted(_DOBINSKI_FN))
    p.add_argument("n", type=size)
    p.add_argument("width", type=width, help="rational width target, e.g. 1/2")
    p.set_defaults(run=cmd_dobinski)

    p = sub.add_parser("egf-check", help="generating-function coefficients vs exact values")
    p.add_argument("order", type=size)
    p.set_defaults(run=cmd_egf_check)

    return parser


def main(argv=None) -> int:
    # Lift Python's 4,300-digit int->str cap (hit by `table bell --rows 2000`
    # and by Dobinski endpoint numerators from about n = 620), so that
    # printing a large result never fails like a failed check.  Python 3.10
    # before 3.10.7 has no cap.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point fd 1 at devnull so that the flush at
        # interpreter exit cannot raise again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception:
        import traceback
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
