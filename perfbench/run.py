#!/usr/bin/env python3
"""The bellpart benchmark: end-to-end CLI timing with outside-in per-layer tracing.

Usage, from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 35 --trace 0

One client runs the ``bellpart`` CLI as a child process, one invocation at a
time (closed loop): the next starts only after the previous has exited.
Each invocation's stdout is spooled to an unlinked file, then hashed and
checked against values the benchmark computes itself.  The run first times
a null invocation several times (set-up), then repeats rounds of the
workload for ``--seconds``: every round runs the same seeded set of
invocations in a new order (see workloads.py).  A fixed reference program
runs before and after every timed invocation, and times are reported
relative to it (see ``calibrated_s``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs every round twice, plain and then under perfbench/traced_cli.py, and
reports the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object; the full record of the run, with every
invocation's exit code, timings and stdout sha256, goes to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# The console script's entry, plus an exit hook that reports the process's
# own peak RSS (VmHWM) on the fd given as the first argument.  wait4's
# ru_maxrss is not used: Linux carries the spawning process's peak RSS into
# the child's across exec, so it never reads below this benchmark's own.
CLI_ENTRY = """\
import atexit, os, sys
def _report_peak_rss(fd=int(sys.argv.pop(1))):
    with open("/proc/self/status", "rb") as f:
        os.write(fd, next(line for line in f if line.startswith(b"VmHWM:")))
atexit.register(_report_peak_rss)
from bellpart.cli import main
sys.exit(main())
"""
# The child's stdout goes to an unlinked file in this directory, read back
# after it exits.  A table invocation writes some 25 MB; through a pipe the child
# stalls whenever this process is descheduled, so on a loaded host its wall
# time doubled while its CPU time stayed flat.
SPOOL_DIR = HERE / "results"
SETUP_REPEATS = 11
# The reference program: fixed pure-Python work of the kinds bellpart does
# (big-int arithmetic, decimal formatting, tuple and dict churn), in its own
# interpreter like every CLI invocation, and with no bellpart code, so that
# no change to bellpart moves it.
REFERENCE = """\
x = 1
for i in range(1, 30000):
    x = x * 3 + i
s = [str((x >> 64 * k) % 10 ** 4000) for k in range(20)]
d = {}
for i in range(50000):
    d[(i, i & 7)] = [i, i * i]
t = sorted(d, key=lambda k: -k[0])
"""
# The reference program's wall time on an unloaded core of the machine the
# benchmark was written on (2-vCPU KVM guest, Intel Xeon, Python 3.11), its
# fastest in some thousand runs: the scale that turns a ratio to the
# reference back into seconds.
REFERENCE_S = 0.165
HARD_LIMIT_S = 170.0
KNOWN_DEFECT = "Exceeds the limit (4300 digits) for integer string conversion"


@dataclass
class Op:
    argv: list[str]
    rc: int | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    out_bytes: int = 0
    sha256: str = ""
    stderr_last: str = ""
    # None, "known" (the documented dobinski print-cap crash) or "unexpected"
    failure: str | None = None
    why: str | None = None
    trace: dict | None = None  # per-layer record of a traced invocation
    ref_s: float = 0.0  # mean wall time of the reference runs on either side


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # the CLI runs under the interpreter's default int->str digit cap
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def _is_known_defect(op: Op) -> bool:
    """The dobinski crash band: the interval is computed, then printing it
    hits the int->str digit cap and the CLI exits 1 with a traceback."""
    band = workloads.DOBINSKI_CRASH_N
    return (
        op.argv[0] == "dobinski"
        and band[0] <= int(op.argv[2]) <= band[1]
        and op.rc == 1
        and KNOWN_DEFECT in op.stderr_last
    )


def _drain(sel: selectors.BaseSelector, sinks: dict, deadline: float) -> bool:
    """Read every registered fd to end of file; False if the deadline
    passed first."""
    while sel.get_map():
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return False
        for key, _ in sel.select(remaining):
            data = os.read(key.fd, 1 << 16)
            if not data:
                sel.unregister(key.fd)
                continue
            sinks[key.fd].append(data)
    return True


def run_op(argv: list[str], traced: bool, deadline: float, seed: int) -> Op:
    """One invocation, its stdout spooled to a file, its stderr drained
    through a pipe."""
    op = Op(list(argv))
    side_r, side_w = os.pipe()
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(side_w), *argv]
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY, str(side_w), *argv]
    with tempfile.TemporaryFile(dir=SPOOL_DIR) as spool:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            stdout=spool,
            stderr=subprocess.PIPE,
            env=_child_env(),
            cwd=ROOT,
            pass_fds=(side_w,),
        )
        try:
            os.close(side_w)
            err, side = [], []
            sinks = {proc.stderr.fileno(): err, side_r: side}
            with selectors.DefaultSelector() as sel:
                for fd in sinks:
                    sel.register(fd, selectors.EVENT_READ)
                finished = _drain(sel, sinks, deadline)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            op.wall_s = time.perf_counter() - t0
            proc.returncode = op.rc = os.waitstatus_to_exitcode(status)
        finally:
            os.close(side_r)
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        spool.seek(0)
        stdout = spool.read()
    op.cpu_s = usage.ru_utime + usage.ru_stime
    stderr = b"".join(err).decode(errors="replace")
    op.out_bytes = len(stdout)
    op.sha256 = hashlib.sha256(stdout).hexdigest()
    op.stderr_last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    side_data = b"".join(side)
    if traced and side_data:
        op.trace = json.loads(side_data)
    elif side_data:
        op.rss_mb = int(side_data.split()[1]) / 1024  # "VmHWM:  16556 kB"
    if not finished:
        op.failure, op.why = "unexpected", "timeout"
    elif op.rc != 0:
        op.failure = "known" if _is_known_defect(op) else "unexpected"
        op.why = f"exit {op.rc}"
    elif "Traceback" in stderr:
        op.failure, op.why = "unexpected", "traceback on stderr"
    else:
        op.why = checks.check(argv, stdout, seed)
        if op.why is not None:
            op.failure = "unexpected"
    return op


def run_reference(deadline: float) -> float:
    """Wall time of one run of the reference program."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", REFERENCE],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=max(deadline - t0, 1.0),
    )
    return time.perf_counter() - t0


def run_calibrated(argvs: list[list[str]], deadline: float, seed: int) -> list[Op]:
    """The invocations in order, each between two reference runs."""
    ops, before = [], run_reference(deadline)
    for argv in argvs:
        op = run_op(argv, False, deadline, seed)
        after = run_reference(deadline)
        op.ref_s, before = (before + after) / 2, after
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# Metrics


def calibrated_s(op: Op) -> float:
    """The invocation's wall time as a multiple of the reference runs beside
    it, in seconds of the reference program on an unloaded core.

    Other tenants of this shared host slow every process on it by up to
    twice, in spells from a few seconds to many minutes, so raw wall times of
    the same code spread past any useful bound.  The reference program beside
    each invocation is slowed by the same load, so the ratio holds steady.
    """
    return op.wall_s / op.ref_s * REFERENCE_S


def calibrated_round_s(rounds: list[list[Op]]) -> float:
    """Median over the run's rounds of a round's total calibrated time."""
    return statistics.median(sum(calibrated_s(op) for op in r) for r in rounds)


def end_to_end(setup: list[Op], rounds: list[list[Op]]) -> dict:
    return {
        "wall_s": calibrated_round_s(rounds),
        "setup_s": statistics.median([calibrated_s(op) for op in setup]),
        "peak_rss_mb": max(op.rss_mb for r in rounds for op in r),
    }


def _layer(op: Op, name: str, key: str) -> float:
    return op.trace["layers"].get(name, {}).get(key, 0) if op.trace else 0


def _counter(op: Op, name: str) -> int:
    return op.trace["counters"].get(name, 0) if op.trace else 0


def _layer_round(ops: list[Op]) -> dict:
    """Per-layer values of one traced round: sums over its invocations."""

    def total(name, key="self_s"):
        return sum(_layer(op, name, key) for op in ops)

    def counted(name):
        return sum(_counter(op, name) for op in ops)

    cells, kernel_s = counted("kernels.cells"), total("kernels")
    yielded = {f: counted(f"partitions.yielded.{f}") for f in ("classical", "b", "d")}
    all_yielded, next_s = sum(yielded.values()), total("partitions.next")
    useful = sum(workloads.useful_partitions(op.argv) for op in ops)
    residual = sum(
        op.trace["inproc_s"] - sum(rec["self_s"] for rec in op.trace["layers"].values())
        for op in ops
        if op.trace
    )
    return {
        "kernels.self_s": kernel_s,
        "kernels.cells": cells,
        "kernels.cells_per_s": cells / kernel_s if kernel_s else 0.0,
        "triangles.stirling.calls": total("triangles.stirling", "calls"),
        "triangles.stirling.self_s": total("triangles.stirling"),
        "triangles.bell.calls": total("triangles.bell", "calls"),
        "triangles.bell.self_s": total("triangles.bell"),
        "triangles.verify_identity.self_s": total("triangles.verify_identity"),
        "triangles.cache_bytes": max(_counter(op, "triangles.cache_bytes") for op in ops),
        "cli.self_s": total("cli"),
        "cli.out_bytes": sum(op.out_bytes for op in ops),
        "import.self_s": total("import"),
        **{f"partitions.yielded.{f}": n for f, n in yielded.items()},
        "partitions.useful_ratio": useful / all_yielded if all_yielded else 0.0,
        "partitions.per_s": all_yielded / next_s if next_s else 0.0,
        "partitions.count_by_pairs.self_s": total("partitions.count_by_pairs"),
        "partitions.count_single_positive_zero_block.self_s": total(
            "partitions.count_single_positive_zero_block"
        ),
        "partitions.next_s": next_s,
        "partitions.render_s": total("partitions.render"),
        "series.egf_coefficients.self_s": total("series.egf_coefficients"),
        "series.egf_stirling_d_column.self_s": total("series.egf_stirling_d_column"),
        "dobinski.enclose_s": total("dobinski.enclose"),
        "dobinski.exp_neg_bounds.self_s": total("dobinski.exp_neg_bounds"),
        "dobinski.loops": counted("dobinski.loops"),
        "dobinski.e_terms": counted("dobinski.e_terms"),
        "dobinski.endpoint_bits": max(_counter(op, "dobinski.endpoint_bits") for op in ops),
        "trace.residual_s": residual,
    }


def per_layer(all_ops: list[Op], rounds: list[list[Op]], traced: list[list[Op]]) -> dict:
    layer_rounds = [_layer_round(r) for r in traced]
    metrics = {name: statistics.median([lr[name] for lr in layer_rounds]) for name in layer_rounds[0]}
    metrics["proc.cpu_s"] = statistics.median([sum(op.cpu_s for op in r) for r in rounds])
    metrics["proc.wall_s"] = statistics.median([sum(op.wall_s for op in r) for r in rounds])
    metrics["host.ref_s"] = statistics.median([op.ref_s for r in rounds for op in r])
    metrics["fail_share"] = sum(op.failure is not None for op in all_ops) / len(all_ops)
    metrics["trace.overhead_s"] = statistics.median(
        [sum(op.wall_s for op in t) - sum(op.wall_s for op in u) for u, t in zip(rounds, traced)]
    )
    return metrics


# ---------------------------------------------------------------------------


def _environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=60
        ).stdout.strip()
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, bellpart; print(bellpart.KERNEL_IMPL, sys.get_int_max_str_digits())"],
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=60,
        check=True,
    )
    kernel_impl, max_digits = probe.stdout.split()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "kernel_impl": kernel_impl,
        "int_max_str_digits": int(max_digits),
        "commit": commit,
        "seed": seed,
    }


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=Path("perfbench/results"), help="directory for the full record of the run"
    )
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse_args(argv)
    # on SIGTERM, unwind so that run_op kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "bellpart" / "cli.py").is_file():
        print(f"perfbench: no bellpart source under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SPOOL_DIR.mkdir(parents=True, exist_ok=True)
    env = _environment(args.seed)

    started = time.perf_counter()
    hard_deadline = started + HARD_LIMIT_S
    setup = run_calibrated([workloads.NULL_ARGV] * SETUP_REPEATS, hard_deadline, args.seed)
    rounds: list[list[Op]] = []
    traced: list[list[Op]] = []
    plan = workloads.plan(args.workload, args.seed)
    measure_start = time.perf_counter()
    # Stop before a round that would end past --seconds, judged by the
    # slowest round so far, so that a run of long rounds does not overrun.
    slowest = 0.0
    while not rounds or time.perf_counter() + slowest < min(measure_start + args.seconds, hard_deadline):
        round_start = time.perf_counter()
        argvs = next(plan)
        rounds.append(run_calibrated(argvs, hard_deadline, args.seed))
        if args.trace:
            traced.append([run_op(a, True, hard_deadline, args.seed) for a in argvs])
        slowest = max(slowest, time.perf_counter() - round_start)

    all_ops = setup + [op for r in rounds + traced for op in r]
    failed = [op for op in all_ops if op.failure == "unexpected"]
    known = [op for op in all_ops if op.failure == "known"]
    # tracing must not change what the CLI prints
    mismatched = [
        (u.argv, t.argv)
        for ur, tr in zip(rounds, traced)
        for u, t in zip(ur, tr)
        if u.sha256 != t.sha256 or u.rc != t.rc
    ]
    correct = not failed and not mismatched

    if args.trace:
        values = per_layer(all_ops, rounds, traced)
        defs = spec["per_layer"]
    else:
        values = end_to_end(setup, rounds)
        defs = spec["end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs}

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"rounds={len(rounds)} invocations={len(all_ops)} (setup {len(setup)}) "
        f"failed={len(failed)} known_defect={len(known)} "
        f"fail_share={(len(failed) + len(known)) / len(all_ops):.4f}"
    )
    walls = [sum(op.wall_s for op in r) for r in rounds]
    refs = [op.ref_s for r in rounds for op in r]
    print(
        f"round wall time (raw): median {_fmt(statistics.median(walls))} "
        f"min {_fmt(min(walls))} max {_fmt(max(walls))} n={len(walls)}; "
        f"reference run: median {_fmt(statistics.median(refs))} min {_fmt(min(refs))} max {_fmt(max(refs))}"
    )
    for op in known:
        print(f"known defect: bellpart {' '.join(op.argv)} -> exit {op.rc}: {op.stderr_last}")
    for op in failed:
        print(f"FAILED: bellpart {' '.join(op.argv)} -> {op.why}: {op.stderr_last}")
    for u, t in mismatched:
        print(f"FAILED: traced output differs for bellpart {' '.join(u)}")
    for name, m in metrics.items():
        print(f"  {name:52s} {_fmt(m['value']):>14s} {m['unit']}")

    args.out.mkdir(parents=True, exist_ok=True)
    record_path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": len(all_ops),
        "failed": len(failed),
        "known_defects": len(known),
        "metrics": metrics,
        "setup": [asdict(op) | {"trace": None} for op in setup],
        "rounds": [[asdict(op) | {"trace": None} for op in r] for r in rounds],
        "traced_rounds": [[asdict(op) for op in r] for r in traced],
        "elapsed_s": time.perf_counter() - started,
    }
    record_path.write_text(json.dumps(record, indent=1))
    print(f"record: {record_path}")
    print(json.dumps({"correct": correct, "attempted": len(all_ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
