"""Each CLI call loads only the modules its subcommand runs.

In-process tests cannot see a missing or an eager import, because pytest has
already imported every module.  So each call here runs ``main(argv)`` in a
fresh interpreter, which reports its ``sys.modules`` on the last line of
stderr.  The modules that a bare interpreter loads are subtracted, so that a
site hook cannot fail the test.
"""

import pytest

from conftest import run_fresh

REPORT_MODULES = "print(' '.join(sys.modules), file=sys.stderr)"

CHILD = f"""\
import sys
from bellpart.cli import main
code = main(sys.argv[1:])
{REPORT_MODULES}
sys.exit(code)
"""

CALLS = {
    "table": ["table", "stirling-d", "--rows", "5"],
    "table-json": ["table", "stirling-d", "--rows", "5", "--format", "json"],
    "table-bell": ["table", "bell-b", "--rows", "5"],
    "verify": ["verify", "all", "--max-n", "5"],
    "enumerate": ["enumerate", "b", "3"],
    "enumerate-json": ["enumerate", "d", "3", "--format", "json"],
    "oracle-check": ["oracle-check", "4"],
    "dobinski": ["dobinski", "d", "5", "1/2"],
    "egf-check": ["egf-check", "5"],
}

# the calls that load no partition walk
NO_PARTITIONS = {"table", "table-json", "table-bell", "verify", "dobinski", "egf-check"}

# the calls that compute in Decimal (table stirling*) or in Fraction
# (dobinski, whose fractions module imports decimal itself)
LOADS_DECIMAL = {"table", "table-json", "dobinski"}
LOADS_FRACTIONS = {"dobinski"}


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    proc = run_fresh(f"import sys; {REPORT_MODULES}")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize("name", CALLS)
def test_subcommand_loads_only_what_it_runs(name, bare_modules):
    proc = run_fresh(CHILD, *CALLS[name])
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.splitlines()[-1].split())
    loaded = modules - bare_modules
    assert "bellpart.cli" in loaded
    # table and enumerate build their JSON lines themselves (json cannot
    # encode the Decimal cells that table prints), so no call loads json;
    # every annotation is evaluated as written, so none loads __future__;
    # a plain-form argv is read without argparse, and so without the gettext
    # and locale that argparse loads
    assert not loaded & {"dataclasses", "traceback", "json", "__future__"}
    assert not loaded & {"argparse", "gettext", "locale"}
    if name in NO_PARTITIONS:
        assert "bellpart.partitions" not in loaded
    assert ("bellpart.series" in loaded) == (name == "egf-check")
    for module, callers in (("decimal", LOADS_DECIMAL), ("fractions", LOADS_FRACTIONS)):
        if name in callers:
            assert module in modules
        else:
            assert module not in loaded


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["table", "--help"], 0),
        (["table", "bell", "--rows", "-1"], 2),
        (["dobinski", "a", "3", "0"], 2),
    ],
)
def test_help_and_usage_errors_import_argparse_on_demand(argv, code):
    # argparse is imported only by build_parser and _arg, which run on these;
    # main returns their codes too, so the child reports its modules
    proc = run_fresh(CHILD, *argv)
    assert proc.returncode == code
    assert "argparse" in proc.stderr.splitlines()[-1].split()
    if code == 0:
        assert proc.stdout.startswith("usage: bellpart")
    else:
        assert proc.stdout == ""
        assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_internal_error_exits_3_in_fresh_interpreter():
    # the traceback module is imported only on this path
    code = """\
import sys
from bellpart import series

def broken(family, order):
    raise RuntimeError("egf triangle: broken")

series.egf_triangle = broken
from bellpart.cli import main
sys.exit(main(["egf-check", "3"]))
"""
    proc = run_fresh(code)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" in proc.stderr
    assert "RuntimeError: egf triangle: broken" in proc.stderr
