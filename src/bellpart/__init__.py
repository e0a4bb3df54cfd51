"""Exact Bell and second-kind Stirling numbers of types classical, B and D,
with a brute-force enumeration oracle, integer exponential generating functions
and rigorous interval evaluation of the explicit formulas.

Each public name is imported from the submodule that defines it:
``bellpart.triangles``, ``bellpart.partitions``, ``bellpart.series`` or
``bellpart.dobinski`` (the README lists them), and the command line is
``bellpart.cli``.  ``import bellpart`` itself loads no submodule, so a
command-line call loads only the modules its subcommand runs.
"""

__version__ = "0.1.0"

# The triangle recurrences have one implementation, in pure Python.
KERNEL_IMPL = "python"
