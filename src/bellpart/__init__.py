"""Exact Bell and second-kind Stirling numbers of types classical, B and D,
with a brute-force enumeration oracle, integer exponential generating functions
and rigorous interval evaluation of the explicit formulas.

Each exported name, and each submodule, is imported on first access (PEP 562),
so a command-line call loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# The triangle recurrences have one implementation, in pure Python.
KERNEL_IMPL = "python"

# The submodule that defines each exported name.
_EXPORTS = {
    "triangles": (
        "Family",
        "IdentityReport",
        "bell",
        "bell_a",
        "bell_b",
        "bell_d",
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
        "canonicalize",
        "classify",
        "count_by_pairs",
        "count_single_positive_zero_block",
        "enum_classical",
        "enum_signed",
    ),
    "series": ("egf_coefficients", "egf_stirling_d_column", "egf_triangle"),
    "dobinski": ("Interval", "dobinski_a", "dobinski_b", "dobinski_d", "exp_neg_bounds"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "KERNEL_IMPL"]

_SUBMODULES = ("cli", *_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
