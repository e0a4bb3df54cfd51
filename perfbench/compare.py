#!/usr/bin/env python3
"""Compare two result sets of the bellpart benchmark.

Usage, from the repository root:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records that perfbench/run.py writes with
``--out`` (one JSON file per workload, seed and trace setting), for
instance ten seeds of every workload run on the parent commit and the same
ten on the change.  For each (workload, metric) pair this prints both
medians and quartiles and one verdict, with the bounds of BENCHMARK.json:

- better: the change wins at least nine tenths of the runs paired by seed,
  and its median is better by more than the distance between the base's
  quartiles;
- unresolved: the spread of either side is wider than the metric's bound
  (per-layer metrics have none), unless every run of the change is better
  than every run of the base;
- worse: the median is worse by more than the bound;
- within bound: anything else.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict:
    """{(workload, metric): {seed: value}} over the records in ``directory``."""
    values: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), {})[record["seed"]] = metric["value"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _summary(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(base: dict, new: dict, lower_is_better: bool, bound: float) -> str:
    sign = 1 if lower_is_better else -1
    b1, b_med, b3 = quartiles(list(base.values()))
    n1, n_med, n3 = quartiles(list(new.values()))
    seeds = base.keys() & new.keys()
    wins = sum(sign * (new[s] - base[s]) < 0 for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and sign * (b_med - n_med) > b3 - b1:
        return "better"
    scale = abs(b_med) or 1.0
    if max(b3 - b1, n3 - n1) > bound * scale:
        all_better = (max(new.values()) < min(base.values())) if lower_is_better else (
            min(new.values()) > max(base.values())
        )
        return "better" if all_better else "unresolved"
    if sign * (n_med - b_med) > bound * scale:
        return "worse"
    return "within bound"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    defs = {d["name"]: d for d in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(Path(args[0])), load(Path(args[1]))
    print(f"{'workload':11s} {'metric':52s} {'base median [q1, q3]':36s} {'new median [q1, q3]':36s} verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        d = defs[name]
        b, n = base[key], new[key]
        v = verdict(b, n, d["better"] == "lower", d.get("bound", 0.0))
        print(
            f"{workload:11s} {name:52s} {_summary(quartiles(list(b.values()))):36s} "
            f"{_summary(quartiles(list(n.values()))):36s} {v} (n={len(b)}/{len(n)}, {d['unit']})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
