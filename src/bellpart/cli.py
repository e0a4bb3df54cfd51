"""Command-line interface.

Subcommands: table, verify, enumerate, oracle-check, dobinski, egf-check.
Exit codes: 0 success/verified, 1 verification failure, 2 usage error
(including a negative n, row count, order or --pairs), 3 internal error
(an uncaught exception, e.g. the AssertionError of a type-D row that
underflows; the traceback goes to stderr), 141 stdout closed by its
reader (as a shell reports a tool ended by SIGPIPE; nothing goes to
stderr).
``main(argv)`` returns each of these codes, help's 0 and a usage error's 2
included, and raises none: argparse's ``SystemExit`` is caught and its code
returned.  The console script and ``python -m bellpart.cli`` pass the code to
``sys.exit``.
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

The grammar is stated once, in ``_GRAMMAR``, and two parsers read it.  An
argv in the plain form (the subcommand, exactly its positionals in order,
then each option by its full flag at most once with one value, no positional
or value beginning with ``-``, every required option given and every value
passing its choices or its reader) is read by ``_fast_args``, to the
namespace argparse would return.  Any other argv (help, a usage error,
``--rows=3``, an abbreviated flag, options before positionals, ``--``, a
negative number) goes to the argparse parser of ``build_parser``, so
``argparse``, and the ``gettext`` and ``locale`` it loads, are imported only
then.  Every call the benchmark makes is in the plain form, so none of them
pays for loading argparse.
"""

import os
import sys
from itertools import islice
from types import SimpleNamespace

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
            sys.stdout.write(f'{{"n":{n},"value":{value}}}\n' if as_json else f"{n}{sep}{value}\n")
    return 0


def cmd_verify(args) -> int:
    ids = triangles.IDENTITY_IDS if args.identity == "all" else (args.identity,)
    ok = True
    for ident in ids:
        report = triangles.verify_identity(ident, args.max_n)
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
        # one write a group: "" joins in its last newline, copying no lines
        lines.append("")
        sys.stdout.write("\n".join(lines))
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
    ok = interval.contains(exact) and interval.width <= args.width
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


# a size or a width is accepted exactly when the library accepts it: each
# reader is the library's own check, and its ValueError, or the
# ZeroDivisionError of ``Fraction("3/0")``, is a usage error
_SIZE = (lambda text: triangles._size(int(text)), "nonnegative int")
_WIDTH = (dobinski._width, "width")
_USAGE_ERRORS = (ValueError, ZeroDivisionError)

# The grammar, read by both parsers: for each subcommand, its function, its
# help and its arguments in order, positionals first.  An argument is a
# positional's name or an option's full flag, with the keywords of argparse's
# add_argument, except that a "type" is a (reader, name) pair.
_GRAMMAR = {
    "table": (cmd_table, "print a Stirling triangle or Bell sequence", (
        ("family", {"choices": sorted(_TABLE_FAMILIES)}),
        ("--rows", {"dest": "rows", "type": _SIZE, "required": True, "metavar": "N"}),
        ("--format", {"dest": "format", "choices": ["tsv", "json", "text"], "default": "tsv"}),
    )),
    "verify": (cmd_verify, "check identities by exact arithmetic", (
        ("identity", {"choices": list(triangles.IDENTITY_IDS) + ["all"]}),
        ("--max-n", {"dest": "max_n", "type": _SIZE, "required": True}),
    )),
    "enumerate": (cmd_enumerate, "stream partitions", (
        ("family", {"choices": sorted(f.value for f in Family)}),
        ("n", {"type": _SIZE}),
        ("--pairs", {
            "dest": "pairs", "type": _SIZE,
            "help": "only the partitions of this many pairs of blocks (blocks, for classical)",
        }),
        ("--format", {"dest": "format", "choices": ["text", "json"], "default": "text"}),
    )),
    "oracle-check": (cmd_oracle_check, "enumeration vs recurrence counts", (
        ("n_max", {"type": _SIZE}),
    )),
    "dobinski": (cmd_dobinski, "interval evaluation of the explicit formulas", (
        ("family", {"choices": sorted(_DOBINSKI_FN)}),
        ("n", {"type": _SIZE}),
        ("width", {"type": _WIDTH, "help": "rational width target, e.g. 1/2"}),
    )),
    "egf-check": (cmd_egf_check, "generating-function coefficients vs exact values", (
        ("order", {"type": _SIZE}),
    )),
}


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for an argv in the
    plain form: the subcommand, exactly its positionals in order, then each
    option by its full flag at most once, each followed by one value; no
    positional or value begins with ``-``, every required option is given
    and every value passes its choices or its reader.  None for any other
    argv, which is left to argparse: help, usage errors, ``--flag=value``,
    abbreviations, options before positionals, ``--`` and the like."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    run, _, arguments = _GRAMMAR[argv[0]]
    tokens = argv[1:]
    n_pos = sum(not name.startswith("-") for name, _ in arguments)
    flags = {name for name, _ in arguments[n_pos:]}
    given = dict(zip(tokens[n_pos::2], tokens[n_pos + 1::2]))
    if len(tokens) != n_pos + 2 * len(given) or not given.keys() <= flags:
        return None
    values = [*tokens[:n_pos], *(given.get(name) for name, _ in arguments[n_pos:])]
    args = {"command": argv[0], "run": run}
    for (name, spec), text in zip(arguments, values):
        if text is None:
            if spec.get("required"):
                return None
            value = spec.get("default")
        elif text.startswith("-"):
            return None
        else:
            try:
                value = spec["type"][0](text) if "type" in spec else text
            except _USAGE_ERRORS:
                return None
            if value not in spec.get("choices", (value,)):
                return None
        args[spec.get("dest", name)] = value
    return SimpleNamespace(**args)


def _arg(read, what: str):
    """An argparse type that is ``read``, whose errors of ``_USAGE_ERRORS``
    (argparse would not catch a ZeroDivisionError) are usage errors."""
    import argparse

    def convert(text: str):
        try:
            return read(text)
        except _USAGE_ERRORS:
            raise argparse.ArgumentTypeError(f"invalid {what}: {text!r}") from None

    return convert


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of ``_GRAMMAR``, which ``main`` runs on any argv
    that ``_fast_args`` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bellpart",
        description="Exact Bell/Stirling numbers of types classical, B and D, "
        "with enumeration, series and interval cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, help, arguments) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help)
        for name, spec in arguments:
            if "type" in spec:
                spec = {**spec, "type": _arg(*spec["type"])}
            p.add_argument(name, **spec)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    # Lift Python's 4,300-digit int->str cap (hit by `table bell --rows 2000`
    # and by Dobinski endpoint numerators from about n = 620), so that
    # printing a large result never fails like a failed check.  Python 3.10
    # before 3.10.7 has no cap.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _fast_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exit:
        # help (0) or a usage error (2): returned, as every other code is
        return exit.code
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
