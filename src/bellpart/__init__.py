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

__all__ = [
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
    "ClassicalSetPartition",
    "SignedSetPartition",
    "canonicalize",
    "classify",
    "count_by_pairs",
    "count_single_positive_zero_block",
    "enum_classical",
    "enum_signed",
    "egf_coefficients",
    "egf_stirling_d_column",
    "egf_triangle",
    "Interval",
    "dobinski_a",
    "dobinski_b",
    "dobinski_d",
    "exp_neg_bounds",
    "KERNEL_IMPL",
]

_SUBMODULES = ("cli", "dobinski", "partitions", "series", "triangles")

# The submodule that defines each exported name, in the order of __all__.
_ORIGIN = dict(
    zip(__all__, ["triangles"] * 12 + ["partitions"] * 8 + ["series"] * 3 + ["dobinski"] * 5)
)


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
