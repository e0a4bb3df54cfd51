"""Acceptance suite: one test per exit criterion, each printing a PASS line
and enforcing its stated tolerance (exact equality) and runtime bound."""

import io
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

from bellpart import partitions, triangles
from bellpart.cli import main
from bellpart.triangles import Family, bell_a, bell_b, bell_d, rows, stirling2

from test_partitions import GAMMA, RHO, TAU
from test_triangles import (
    BELL_A,
    BELL_B,
    BELL_D,
    TABLE_B,
    TABLE_CLASSICAL,
    TABLE_D,
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def report(criterion, ok, elapsed=None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{timing}")
    assert ok


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    tables = {
        "stirling": TABLE_CLASSICAL,
        "stirling-b": TABLE_B,
        "stirling-d": TABLE_D,
    }
    bells = {"bell": BELL_A, "bell-b": BELL_B, "bell-d": BELL_D}
    ok = True
    for family, expected in tables.items():
        code, out = run_cli("table", family, "--rows", "7")
        got = [[int(c) for c in line.split("\t")] for line in out.splitlines()]
        ok = ok and code == 0 and got == expected
    for family, expected in bells.items():
        code, out = run_cli("table", family, "--rows", "7")
        got = [int(line.split("\t")[1]) for line in out.splitlines()]
        ok = ok and code == 0 and got == expected
    elapsed = time.perf_counter() - start
    report("1 table-reproduction", ok and elapsed < 1.0, elapsed)


def test_criterion_2_identity_suites():
    start = time.perf_counter()
    code, out = run_cli("verify", "all", "--max-n", "25")
    ok = code == 0 and out.count("PASS") == 7
    # the worked values from the odd-weight identity
    rep = triangles.verify_identity("ODD_WEIGHT_SUM", 3)
    values = dict(rep.values)
    ok = ok and values[2] == 18 and values[3] == 92
    elapsed = time.perf_counter() - start
    report("2 identity-suites", ok and elapsed < 5.0, elapsed)


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    code, out = run_cli("oracle-check", "8")
    ok = code == 0 and out.splitlines()[-1] == "oracle-check: PASS"
    elapsed = time.perf_counter() - start
    report("3 oracle-equivalence", ok and elapsed < 60.0, elapsed)


def test_criterion_4_recurrence_expansion():
    # the worked expansions of D(n + 1) into C(n,i) W(n-i) for i = 1..n and
    # 2^k C(n,k) D(n-k) for k = 0..n, W(m) = sum_k 2^(m-k) S(m,k)
    expected = {
        2: ([2, 1], [4, 4, 4], 15),
        3: ([9, 3, 1], [15, 24, 12, 8], 72),
        4: ([44, 18, 4, 1], [72, 120, 96, 32, 16], 403),
    }
    ok = True
    for n, (unsigned_exp, bells_exp, total) in expected.items():
        # each unsigned group straight from the classical triangle
        unsigned = [
            math.comb(n, i)
            * sum(2 ** (n - i - k) * stirling2(n - i, k) for k in range(n - i + 1))
            for i in range(1, n + 1)
        ]
        bells = [2**k * math.comb(n, k) * bell_d(n - k) for k in range(n + 1)]
        ok = ok and unsigned == unsigned_exp
        ok = ok and bells == bells_exp
        ok = ok and sum(unsigned) + sum(bells) == total == bell_d(n + 1)
    report("4 recurrence-expansion", ok)


def test_criterion_5_egf_cross_check():
    start = time.perf_counter()
    code, out = run_cli("egf-check", "25")
    ok = code == 0 and out.splitlines()[-1] == "egf-check: PASS"
    elapsed = time.perf_counter() - start
    report("5 egf-cross-check", ok and elapsed < 5.0, elapsed)


def test_criterion_6_dobinski_recovery():
    start = time.perf_counter()
    exact = {"a": bell_a, "b": bell_b, "d": bell_d}
    ok = True
    for family, fn in exact.items():
        for n in range(26):
            code, out = run_cli("dobinski", family, str(n), "1/2")
            lines = out.splitlines()
            lo = Fraction(lines[0].split()[1])
            hi = Fraction(lines[1].split()[1])
            rounded = int(lines[2].split()[1])
            ok = ok and code == 0 and lines[-1] == "OK"
            ok = ok and hi - lo <= Fraction(1, 2)
            ok = ok and lo <= fn(n) <= hi and rounded == fn(n)
    elapsed = time.perf_counter() - start
    report("6 dobinski-recovery", ok and elapsed < 10.0, elapsed)


def test_criterion_7_scale_to_300():
    start = time.perf_counter()
    n_max = 300
    # independent Bell recurrences for the row sums
    a = [1]
    for n in range(n_max):
        a.append(sum(math.comb(n, k) * a[k] for k in range(n + 1)))
    b = [1]
    for n in range(n_max):
        b.append(b[n] + sum((1 << k) * math.comb(n, k) * b[n - k] for k in range(n + 1)))
    ok = True
    prev = []  # classical row n - 1
    walks = zip(range(n_max + 1), *map(rows, Family))
    for n, classical_row, b_row, d_row in walks:
        ok = ok and sum(classical_row) == a[n]
        ok = ok and sum(b_row) == b[n]
        # B(n) - D(n) = n W(n-1), W(m) = sum_k 2^(m-k) S(m,k)
        defect = n * sum(s << (n - 1 - k) for k, s in enumerate(prev))
        ok = ok and sum(d_row) == b[n] - defect
        prev = classical_row
    elapsed = time.perf_counter() - start
    report("7 scale-to-300", ok and elapsed < 10.0, elapsed)


def test_criterion_8_example_classification():
    # the paper's worked examples as `enumerate` prints them: rho and tau are
    # of type D, gamma of type B only
    rho = "0,±2,±3,±5 | 1/-1 | 4/-4"
    tau = "0 | 1,-2/-1,2 | 3,5/-3,-5 | 4/-4"
    gamma = "0,±5 | 1,3,-4/-1,-3,4 | 2/-2"
    code_d, out_d = run_cli("enumerate", "d", "5")
    code_b, out_b = run_cli("enumerate", "b", "5")
    type_d, type_b = set(out_d.splitlines()), set(out_b.splitlines())
    examples = (RHO, TAU, GAMMA)
    ok = (
        code_d == code_b == 0
        and rho in type_d
        and tau in type_d
        and gamma in type_b
        and gamma not in type_d
        and [p.render_text() for p in examples] == [rho, tau, gamma]
        and [partitions.classify(p) for p in examples]
        == [Family.TYPE_D, Family.TYPE_D, Family.TYPE_B]
    )
    report("8 example-classification", ok)
