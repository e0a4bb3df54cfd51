"""The package binds only ``__version__`` and ``KERNEL_IMPL``; each public
name is reached from the submodule that defines it, as the README lists it.
Also the record classes."""

import importlib
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

import bellpart
from bellpart.dobinski import Interval
from bellpart.partitions import ClassicalSetPartition, SignedSetPartition
from bellpart.triangles import IdentityReport
from conftest import ENV, ROOT

SUBMODULES = ("cli", "dobinski", "partitions", "series", "triangles")

# The public names, by the submodule that defines each, as the README lists them.
DEFINED_IN = {
    "triangles": (
        "Family",
        "IdentityReport",
        "bell",
        "bell_a",
        "bell_b",
        "bell_d",
        "bells",
        "rows",
        "stirling",
        "stirling2",
        "stirling_b",
        "stirling_d",
        "stirling_row",
        "verify_identity",
    ),
    "partitions": (
        "ClassicalSetPartition",
        "SignedSetPartition",
        "classify",
        "count_by_pairs",
        "count_one_pass",
        "count_single_positive_zero_block",
        "enum_classical",
        "enum_signed",
        "line_groups",
    ),
    "series": ("egf_coefficients", "egf_stirling_d_column", "egf_triangle"),
    "dobinski": ("Interval", "dobinski_a", "dobinski_b", "dobinski_d", "exp_neg_bounds"),
}
MODULE_OF = {name: module for module, names in DEFINED_IN.items() for name in names}

# The README's Library section: each module's bullet text, by module.
_LIBRARY = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
README_LISTS = dict(
    re.findall(r"^- `bellpart\.(\w+)`:(.*?)(?=^- |\Z)", _LIBRARY.split("\n## ", 1)[0], re.M | re.S)
)


def _run_fresh(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_bare_import_loads_no_submodule_and_resolves_them():
    _run_fresh(
        "import sys, bellpart\n"
        "assert not [m for m in sys.modules if m.startswith('bellpart.')]\n"
        "public = [n for n in vars(bellpart) if not n.startswith('_')]\n"
        "assert public == ['KERNEL_IMPL'], public\n"
        "assert bellpart.KERNEL_IMPL == 'python'\n"
        f"from bellpart import {', '.join(SUBMODULES)}\n"
        f"for m in {SUBMODULES!r}:\n"
        "    assert globals()[m] is sys.modules['bellpart.' + m] is getattr(bellpart, m), m\n"
    )


@pytest.mark.parametrize("name", sorted(MODULE_OF))
def test_export_is_the_submodule_object(name):
    module = MODULE_OF[name]
    value = getattr(importlib.import_module(f"bellpart.{module}"), name)
    assert value.__module__ == f"bellpart.{module}"
    assert not hasattr(bellpart, name)
    assert f"`{name}`" in README_LISTS[module]


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        bellpart.no_such_name
    with pytest.raises(ImportError):
        from bellpart import no_such_name  # noqa: F401


RECORDS = [
    (
        Interval(F(1), F(2)),
        Interval(F(1), F(3)),
        "Interval(lo=Fraction(1, 1), hi=Fraction(2, 1))",
    ),
    (
        ClassicalSetPartition(2, ((1,), (2,))),
        ClassicalSetPartition(2, ((1, 2),)),
        "ClassicalSetPartition(n=2, blocks=((1,), (2,)))",
    ),
    (
        SignedSetPartition(3, (1,), ((2, -3),)),
        SignedSetPartition(3, (1,), ((2, 3),)),
        "SignedSetPartition(n=3, zero_support=(1,), pairs=((2, -3),))",
    ),
    (
        IdentityReport("ODD_WEIGHT_SUM", 2, True, None, ((0, 1), (1, 3))),
        IdentityReport("ODD_WEIGHT_SUM", 2, False, (1, None, 3, 4)),
        "IdentityReport(identity_id='ODD_WEIGHT_SUM', n_max=2, status=True, "
        "first_failure=None, values=((0, 1), (1, 3)))",
    ),
]


@pytest.mark.parametrize("record, other, text", RECORDS, ids=lambda r: type(r).__name__)
def test_record_class(record, other, text):
    assert repr(record) == text
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    copy = type(record)(*record)
    assert copy == record and hash(copy) == hash(record)
    assert other != record
    # the declared API: a record is the tuple of its fields
    assert record == tuple(getattr(record, f) for f in record._fields)
    assert len({record, copy, other}) == 2
