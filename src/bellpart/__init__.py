"""Exact Bell and second-kind Stirling numbers of types classical, B and D,
with a brute-force enumeration oracle, integer exponential generating functions
and rigorous interval evaluation of the explicit formulas."""

from bellpart.triangles import (
    Family,
    IdentityReport,
    bell,
    bell_a,
    bell_b,
    bell_d,
    stirling,
    stirling2,
    stirling_b,
    stirling_d,
    stirling_row,
    verify_identity,
)
from bellpart.partitions import (
    ClassicalSetPartition,
    SignedSetPartition,
    canonicalize,
    classify,
    count_by_pairs,
    count_single_positive_zero_block,
    enum_classical,
    enum_signed,
)
from bellpart.series import egf_coefficients, egf_stirling_d_column, egf_triangle
from bellpart.dobinski import Interval, dobinski_a, dobinski_b, dobinski_d, exp_neg_bounds

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
