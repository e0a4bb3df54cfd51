"""Which tier-1 tests kill which mutant of ``src/bellpart``: ``tests/kills.json``.

A mutant is one change at one site of one module of ``src/bellpart``, made
by one operator of this fixed set:

- ``arith``: a binary operator swapped, in an expression or an augmented
  assignment: ``+`` and ``-`` for each other, ``*`` for ``//``, ``//`` and
  ``/`` for ``*``, ``%`` for ``//``, ``**`` for ``*``, ``<<`` and ``>>``
  for each other;
- ``compare``: one comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``, each for
  the other;
- ``int+1`` and ``int-1``: an integer constant read one higher or lower;
- ``not``: a ``not`` dropped;
- ``boolop``: ``and`` and ``or``, each for the other.

A mutant's key is its module, its enclosing function (``<module>`` at the
top level), its operator and its source text, the smallest expression that
holds the change, before and after: ``dobinski:_enclose:int+1: max(n, 7) ->
max(n, 8)``.  No line number is in it, so a line shift renames no mutant; a
key that would repeat takes `` #2``, `` #3``, ... in source order.

The mutated module is written as ``ast.unparse`` of its changed tree into a
temporary copy of the whole tree, where tier-1 runs, without ``-x`` and with
``--hypothesis-seed=0``.  A copy of ``src/`` alone would not do: the fresh
interpreters the tests start import from ``ROOT/src`` (``conftest.ENV``).
The record maps each key to the test functions that fail (``file::name``,
parameters dropped; one that never ran, because its file failed to collect
or the run broke off, counts as failing), to ``[]`` for a mutant that
tier-1 lets through, or to ``"hang"`` when the run passes the per-mutant
cap, whose whole process group is then killed.
The unmutated baseline is every module written as ``ast.unparse`` of its
own tree, and it must pass.

Run from the repository root, with pytest and hypothesis installed:

    python tests/mutants.py            # rewrite tests/kills.json
    python tests/mutants.py --check    # check the current src/ against it

``--check`` runs, for each mutant the record lists as killed, its recorded
killers first, cheapest first, and all of tier-1 only if they pass; it runs
all of tier-1 for a mutant the record does not hold, and reruns no recorded
survivor or hang.  It fails if a mutant listed as killed or not listed
survives, if a recorded killer is no longer a tier-1 test, or if a key names
a mutant no longer made.  Each run starts at most ``JOBS`` tier-1 runs at once, each
with a cap of ``CAP_S`` seconds and a 2 GB address-space limit.
"""

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bellpart"
KILLS = Path(__file__).with_name("kills.json")

# the tier-1 command, as ROADMAP states it, made deterministic; plain asserts,
# since pytest's diff of two long failing outputs can take minutes
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--assert=plain", "--tb=no"]
# what no run reads: version control, caches and the benchmark's results
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", "results")
ADDRESS_SPACE = 2 << 30
JOBS = 2  # tier-1 runs at once
CAP_S = 180  # seconds a mutant's run may take: 12 times tier-1's 15 s

_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
          ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift,
          ast.RShift: ast.LShift}
_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
            ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
            ast.NotIn: ast.In}
_BOOLOP = {ast.And: ast.Or, ast.Or: ast.And}


def _sites(tree: ast.Module):
    """(qualname, operator, shown, change) for each mutant of ``tree``, in
    source order: ``shown`` is the node whose text the key shows, and
    ``change()`` applies the mutant to ``tree`` in place and returns the
    node to show after it."""
    found = []

    def visit(node, scope, parents):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        name = ".".join(scope) or "<module>"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _ARITH:
            found.append((name, "arith", node, partial(_swap, node, "op", _ARITH)))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _COMPARE:
                    found.append((name, "compare", node, partial(_swap, node, "ops", _COMPARE, i)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            # shown in the nearest expression, or simple statement, that holds it
            shown = next((p for p in reversed(parents) if _shows(p)), node)
            for step in (1, -1):
                found.append((name, f"int{step:+d}", shown, partial(_step, node, step, shown)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((name, "not", node, partial(_drop_not, node, parents[-1])))
        elif isinstance(node, ast.BoolOp):
            found.append((name, "boolop", node, partial(_swap, node, "op", _BOOLOP)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, [*parents, node])

    visit(tree, [], [])
    return found


def _shows(node) -> bool:
    """An expression, other than a bare slice, or a statement with no body."""
    if isinstance(node, ast.expr):
        return not isinstance(node, ast.Slice)
    return isinstance(node, ast.stmt) and not hasattr(node, "body")


def _swap(node, field, table, i=None):
    """The operator of ``node.field`` (item ``i`` of it) swapped by ``table``."""
    if i is None:
        setattr(node, field, table[type(getattr(node, field))]())
    else:
        getattr(node, field)[i] = table[type(getattr(node, field)[i])]()
    return node


def _step(node, step, shown):
    node.value += step
    return shown


def _drop_not(node, parent):
    """``not x`` read as ``x`` where ``parent`` holds it."""
    for field, value in ast.iter_fields(parent):
        if value is node:
            setattr(parent, field, node.operand)
        elif isinstance(value, list):
            value[:] = [node.operand if item is node else item for item in value]
    return node.operand


def mutants():
    """{key: (module path relative to ROOT, mutated source)} for every
    module of the package."""
    made, seen = {}, Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for i in range(len(_sites(ast.parse(source)))):
            tree = ast.parse(source)
            name, op, shown, change = _sites(tree)[i]
            before = ast.unparse(shown)
            key = f"{path.stem}:{name}:{op}: {before} -> {ast.unparse(change())}"
            seen[key] += 1
            made[key if seen[key] == 1 else f"{key} #{seen[key]}"] = (
                str(path.relative_to(ROOT)), ast.unparse(tree) + "\n")
    return made


def _test_id(case) -> str | None:
    """``file::name`` of a junit test case, its parameters dropped; None for
    a case that is no test, such as a collection or internal error."""
    module, *classes = case.get("classname").split(".")[1:] or [None]
    return module and "::".join([f"{module}.py", *classes, case.get("name").split("[")[0]])


def _run(argv: list, changes: dict):
    """Tier-1 (pytest ``argv``) in a temporary copy of the tree with
    ``changes`` ({path: source}) written: each case as (file::name, failed,
    seconds), or None when the run passes ``CAP_S``."""
    with tempfile.TemporaryDirectory(prefix="bellpart-mutant-") as tmp:
        tree, report = Path(tmp) / "tree", Path(tmp) / "junit.xml"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        for path, source in changes.items():
            (tree / path).write_text(source)
        limit = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))"
        child = [sys.executable, "-c", f"{limit}; import runpy; runpy.run_module('pytest', run_name='__main__')"]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.Popen(
            [*child, *argv, f"--junitxml={report}"], cwd=tree, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            proc.wait(timeout=CAP_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None
        if not report.exists():
            return []
        return [
            (_test_id(case),
             case.find("failure") is not None or case.find("error") is not None,
             float(case.get("time") or 0))
            for case in ET.parse(report).iter("testcase")
        ]


def _killers(cases, functions) -> list:
    """The test functions of ``functions`` that a full tier-1 run of
    ``cases`` did not pass: one that failed, or that never ran because its
    file failed to collect or the run broke off."""
    passed = {test for test, bad, _ in cases if not bad} - {test for test, bad, _ in cases if bad}
    return sorted(set(functions) - passed)


def _baseline() -> dict:
    """{test function: seconds} of tier-1 on the unparsed, unmutated tree,
    which must pass."""
    unparsed = {
        str(path.relative_to(ROOT)): ast.unparse(ast.parse(path.read_text())) + "\n"
        for path in PACKAGE.glob("*.py")
    }
    cases = _run(TIER1, unparsed)
    if not cases or any(bad for _, bad, _ in cases):
        sys.exit("tier-1 does not pass on the unmutated tree")
    seconds = {}
    for test, _, time_s in cases:
        seconds[test] = seconds.get(test, 0) + time_s
    return seconds


def record() -> None:
    functions = _baseline()
    made = mutants()
    print(f"{len(functions)} test functions, {len(made)} mutants", flush=True)

    def one(key):
        path, source = made[key]
        cases = _run(TIER1, {path: source})
        return "hang" if cases is None else _killers(cases, functions)

    start, kills = time.monotonic(), {}
    with ThreadPoolExecutor(JOBS) as pool:
        for done, (key, result) in enumerate(zip(made, pool.map(one, made)), 1):
            kills[key] = result
            print(f"[{done}/{len(made)} {time.monotonic() - start:.0f} s] {key}: "
                  f"{result if result == 'hang' else len(result)}", flush=True)
    # one line a mutant
    lines = (f"{json.dumps(key)}: {json.dumps(tests)}" for key, tests in sorted(kills.items()))
    KILLS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def check() -> bool:
    functions = _baseline()
    made, kills = mutants(), json.loads(KILLS.read_text())
    problems = [f"stale key, no such mutant: {key}" for key in kills if key not in made]
    problems += [
        f"recorded killer is no tier-1 test: {test}"
        for test in sorted({t for killers in kills.values() if killers != "hang" for t in killers})
        if test not in functions
    ]

    def one(key):
        path, source = made[key]
        killers = kills.get(key)
        if killers in ([], "hang"):
            return None  # a recorded survivor or hang: not rerun
        if killers:
            first = sorted(killers, key=functions.get)
            cases = _run([*TIER1, "-x", *(f"tests/{t}" for t in first)], {path: source})
            if cases is None or any(bad for _, bad, _ in cases):
                return None
        cases = _run(TIER1, {path: source})
        if cases is None or _killers(cases, functions):
            return None
        return f"{'not in the record' if killers is None else 'recorded as ' + str(killers)}, survives tier-1: {key}"

    start = time.monotonic()
    with ThreadPoolExecutor(JOBS) as pool:
        for done, problem in enumerate(pool.map(one, made), 1):
            if problem:
                problems.append(problem)
                print(problem, flush=True)
            if done % 50 == 0:
                print(f"[{done}/{len(made)} {time.monotonic() - start:.0f} s]", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print(f"{len(made)} mutants checked in {time.monotonic() - start:.0f} s: "
          + ("FAIL" if problems else "PASS"))
    return not problems


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--check", action="store_true", help="check src/ against tests/kills.json")
    if parser.parse_args().check:
        sys.exit(not check())
    record()
