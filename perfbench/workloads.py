"""Seeded CLI workloads.

A run draws one set of ``bellpart`` invocations (argv lists) from its seed
and repeats that set round after round, each round in a new seeded order;
crosscheck adds one call from the dobinski crash band to each round, taken
in turn from a seeded permutation of the band.  The seed picks every n from
the workload's fixed band and the orders; the program sees only the
generated argv.
"""

from __future__ import annotations

import random
from typing import Iterator

import reference

NULL_ARGV = ["table", "bell", "--rows", "0"]

# `dobinski` and `enumerate` family names -> reference family names
BELL_FAMILY = {"a": "classical", "b": "b", "d": "d"}

# Bands.  stream: rows near 400 and 1000 and enumerate at n = 7, so that an
# invocation takes under a second and a run repeats each many times (at 600
# and 1500 rows and n = 8 a round took 7 s unloaded and 13 s on a busy host:
# two rounds a run).  bell-b at 1000 rows still peaks above 200 MB.  The row
# bands are narrow so that the seed moves the set's cost by a few percent at
# most.  oracle-check runs at n = 7 for the same reason (n = 8 takes 2-5 s);
# counting still outweighs start-up fivefold.  crosscheck: dobinski in
# [30, 60], one call per family from each of three strata so that the set
# costs about the same whatever the seed, and one call per round in
# [62, 70], where the CLI computes the interval and then fails to print it
# (int->str digit cap); that call's cost grows by half across the band, so
# each round takes the next (family, n) of a permutation rather than one
# call fixed for the whole run.
STIRLING_D_ROWS = (395, 405)
BELL_B_ROWS = (990, 1010)
ENUM_N = 7
ORACLE_N = 7
VERIFY_MAX_N = 60
EGF_ORDER = 40
DOBINSKI_STRATA = ((30, 39), (40, 49), (50, 60))
DOBINSKI_CRASH_N = (62, 70)
FAMILIES = ("a", "b", "d")

WORKLOADS = ("stream", "oracle", "crosscheck")


def invocations(workload: str, rng: random.Random) -> list[list[str]]:
    """The run's set of invocations, drawn once from ``rng``."""
    if workload == "stream":
        return [
            ["table", "stirling-d", "--rows", str(rng.randint(*STIRLING_D_ROWS))],
            ["table", "bell-b", "--rows", str(rng.randint(*BELL_B_ROWS))],
            ["enumerate", "b", str(ENUM_N)],
        ]
    if workload == "oracle":
        return [["oracle-check", str(ORACLE_N)]]
    if workload == "crosscheck":
        ops = [
            ["verify", "all", "--max-n", str(VERIFY_MAX_N)],
            ["egf-check", str(EGF_ORDER)],
        ]
        ops += [["dobinski", f, str(rng.randint(*band)), "1/2"] for f in FAMILIES for band in DOBINSKI_STRATA]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _cycle(rng: random.Random, values: list) -> Iterator:
    """Seeded permutations of ``values``, one after another, so that a run
    of a few rounds covers the band evenly whatever the seed."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def plan(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Endless rounds: the run's invocations, each round in a new order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = invocations(workload, rng)
    crash = None
    if workload == "crosscheck":
        band = range(DOBINSKI_CRASH_N[0], DOBINSKI_CRASH_N[1] + 1)
        crash = _cycle(rng, [(f, n) for f in FAMILIES for n in band])
    while True:
        round_ops = [list(argv) for argv in ops]
        if crash is not None:
            f, n = next(crash)
            round_ops.append(["dobinski", f, str(n), "1/2"])
        rng.shuffle(round_ops)
        yield round_ops


def useful_partitions(argv: list[str]) -> int:
    """Partitions the invocation needs: one per output line of `enumerate`,
    and sum A(n) + B(n) over n <= n_max for `oracle-check`."""
    if argv[0] == "enumerate":
        return reference.small_bell(BELL_FAMILY[argv[1]], int(argv[2]))
    if argv[0] == "oracle-check":
        return sum(
            reference.small_bell("classical", n) + reference.small_bell("b", n)
            for n in range(int(argv[1]) + 1)
        )
    return 0
