"""The package's lazy exports and its record classes."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import bellpart
from bellpart.dobinski import Interval
from bellpart.partitions import ClassicalSetPartition, SignedSetPartition
from bellpart.triangles import IdentityReport

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

SUBMODULES = ("cli", "dobinski", "partitions", "series", "triangles")


def _run_fresh(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_all():
    _run_fresh(
        "import bellpart\n"
        "from bellpart import *\n"
        "missing = [n for n in bellpart.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
    )


def test_bare_import_loads_no_submodule_and_resolves_them():
    _run_fresh(
        "import sys, bellpart\n"
        f"subs = ['bellpart.' + m for m in {SUBMODULES!r}]\n"
        "assert not [m for m in subs if m in sys.modules]\n"
        "triangles = bellpart.triangles\n"
        "assert triangles is sys.modules['bellpart.triangles']\n"
        "assert triangles.stirling_row(triangles.Family.TYPE_D, 3) == [1, 7, 6, 1]\n"
        "assert 'bellpart.partitions' not in sys.modules\n"
    )


@pytest.mark.parametrize("name", [n for n in bellpart.__all__ if n != "KERNEL_IMPL"])
def test_export_is_the_submodule_object(name):
    value = getattr(bellpart, name)
    module = sys.modules[value.__module__]
    assert module.__name__ in {f"bellpart.{m}" for m in SUBMODULES}
    assert getattr(module, name) is value
    assert vars(bellpart)[name] is value


def test_exports_and_submodules():
    assert bellpart.stirling_row is bellpart.triangles.stirling_row
    assert bellpart.Interval is bellpart.dobinski.Interval
    assert bellpart.KERNEL_IMPL == "python"
    for name in SUBMODULES:
        assert getattr(bellpart, name) is sys.modules[f"bellpart.{name}"]


def test_dir_lists_exports_and_submodules():
    assert set(bellpart.__all__) | set(SUBMODULES) <= set(dir(bellpart))


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
