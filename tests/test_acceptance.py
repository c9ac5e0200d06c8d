"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact (==); there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
from __future__ import annotations

import json
import random
import time
from itertools import combinations

from golden import (
    TABLE_R123,
    assert_valid_report_dict,
    fib_self_convolution_ints,
    fibonacci_ints,
    pell_ints,
)
from hfib import (
    H,
    ONE,
    ZERO,
    HessMatrix,
    Poly,
    QuadExt,
    build_fib_matrix,
    char_poly,
    charpoly_shift_sides,
    convolved_closed_form,
    convolved_convolution,
    convolved_recurrence,
    convolved_series,
    derivative_identity_sides,
    fib,
    hess_det,
    lucas,
    lucas_decomposition_sides,
    minor_sum_closed_form,
    principal_minor,
    report_to_dict,
    run_suite,
    sum_principal_minors,
)
from hfib.cli import main
from hfib.sequences import binet_scaled


def _report(name: str, failures: list, elapsed: float, budget: float | None) -> None:
    ok = not failures and (budget is None or elapsed < budget)
    status = "PASS" if ok else "FAIL"
    limit = f" (budget {budget:.0f}s)" if budget is not None else ""
    print(f"[{status}] {name}: {elapsed:.2f}s{limit}")
    assert ok, f"{name}: {failures[:5]} elapsed={elapsed:.2f}s"


def test_table_reproduction(capsys):
    start = time.perf_counter()
    code = main(["table", "--r", "1,2,3", "--n-max", "8"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    rows = [line.split("\t")[1:] for line in out.strip().splitlines()[1:]]
    for n in range(9):
        for col in range(3):
            if rows[n][col] != TABLE_R123[n][col]:
                failures.append((n, col, rows[n][col], TABLE_R123[n][col]))
    with capsys.disabled():
        _report("table reproduction, 27 entries string-identical", failures, elapsed, 1.0)


def test_five_way_equivalence():
    start = time.perf_counter()
    failures = []
    table = convolved_convolution(6, 40)
    rows = convolved_recurrence(6, 41)
    for r in range(1, 7):
        from_series = convolved_series(r, 41)
        for j in range(41):
            expected = convolved_closed_form(r, j)
            if table[r - 1][j] != expected:
                failures.append(("convolution", r, j))
            if rows[r - 1][j + 1] != expected:
                failures.append(("recurrence", r, j))
            if from_series[j] != expected:
                failures.append(("series", r, j))
    for n in range(1, 13):
        for l in range(n):
            if sum_principal_minors(n, l) != convolved_closed_form(l + 1, n - l):
                failures.append(("minor-sums", n, l))
    elapsed = time.perf_counter() - start
    _report("five-way equivalence (r<=6, j<=40; minor sums n<=12)", failures, elapsed, 30.0)


def test_order_raising_identities():
    start = time.perf_counter()
    failures = []
    for r in range(1, 51):
        if convolved_closed_form(r, 1) != r * H:
            failures.append(("second entry", r))
    for r in range(1, 6):
        for n in range(1, 31):
            lhs, rhs = derivative_identity_sides(r, n)
            if lhs != rhs:
                failures.append(("derivative identity", r, n))
    elapsed = time.perf_counter() - start
    _report("order-raising identities (r<=50; r<=5, n<=30)", failures, elapsed, None)


def test_lucas_decomposition():
    start = time.perf_counter()
    failures = []
    for r in range(1, 6):
        for j in range(21):
            lhs, rhs = lucas_decomposition_sides(r, j)
            if lhs != rhs:
                failures.append((r, j))
    # hand-derived low-order cases
    if lucas_decomposition_sides(1, 0) != (ONE, ONE):
        failures.append("r=1, j=0 hand case")
    disc = Poly([4, 0, 1])
    if lucas_decomposition_sides(2, 0) != (disc, lucas(2) + 2 * fib(1)):
        failures.append("r=2, j=0 hand case")
    if lucas_decomposition_sides(2, 1) != (Poly([0, 8, 0, 2]), 2 * lucas(3) + 2 * fib(2)):
        failures.append("r=2, j=1 hand case")
    elapsed = time.perf_counter() - start
    _report("Fibonacci/Lucas decomposition, cleared denominators (r<=5, j<=20)", failures, elapsed, None)


def test_determinant_suite():
    start = time.perf_counter()
    failures = []
    for n in range(1, 41):
        if hess_det(build_fib_matrix(n)) != fib(n + 1):
            failures.append(("determinant", n))
    for n in range(1, 11):
        for size in range(n + 1):
            for deleted in combinations(range(1, n + 1), size):
                product = ONE
                prev = 0
                for i in deleted:
                    product = product * fib(i - prev)
                    prev = i
                product = product * fib(n - prev + 1)
                if principal_minor(n, deleted) != product:
                    failures.append(("minor product", n, deleted))
    for n in range(1, 13):
        cp = char_poly(n)
        if not (cp.degree == n and cp.coefficient(n) == ONE):
            failures.append(("monic", n))
        for l in range(n + 1):
            expected = convolved_closed_form(l + 1, n - l)
            if (n - l) % 2:
                expected = -expected
            if cp.coefficient(l) != expected:
                failures.append(("coefficient sign", n, l))
    for n in range(1, 21):
        for l in range(n + 1):
            if minor_sum_closed_form(n, l) != convolved_closed_form(l + 1, n - l):
                failures.append(("closed form", n, l))
    for n in range(1, 13):
        lhs, rhs = charpoly_shift_sides(n)
        if lhs != rhs:
            failures.append(("shift identity", n))
    rng = random.Random(20240814)
    for case in range(200):
        n = rng.randint(1, 6)
        p = [[Poly([rng.randint(-3, 3)]) for _ in range(n)] for _ in range(n)]
        rows = []
        for i in range(n):
            row = [ZERO] * n
            for j in range(i, n):
                row[j] = p[i][j]
            if i > 0:
                row[i - 1] = Poly([-1])
            rows.append(row)
        seq = [ONE]
        for m in range(1, n + 1):
            acc = ZERO
            for i in range(1, m + 1):
                acc = acc + p[i - 1][m - 1] * seq[i - 1]
            seq.append(acc)
        if hess_det(HessMatrix(rows)) != seq[n]:
            failures.append(("weighted recurrence", case))
    elapsed = time.perf_counter() - start
    _report(
        "determinant suite (det n<=40, minors n<=10, signs n<=12, "
        "closed form n<=20, shift n<=12, 200 random instances)",
        failures,
        elapsed,
        60.0,
    )


def test_binet_and_lucas_relation():
    start = time.perf_counter()
    failures = []
    for n in range(31):
        diff, total = binet_scaled(n)
        scale = 2**n
        if diff != QuadExt(ZERO, scale * fib(n)):
            failures.append(("binet difference", n))
        if total != QuadExt(scale * lucas(n), ZERO):
            failures.append(("binet sum", n))
    for n in range(1, 65):
        if lucas(n) != fib(n - 1) + fib(n + 1):
            failures.append(("lucas relation", n))
    elapsed = time.perf_counter() - start
    _report("scaled Binet forms (n<=30) and Lucas relation (n<=64)", failures, elapsed, None)


def test_specialization_sanity():
    start = time.perf_counter()
    failures = []
    fib_ints = fibonacci_ints(21)
    p_ints = pell_ints(21)
    conv2 = fib_self_convolution_ints(20)
    if fib_ints[:6] != [0, 1, 1, 2, 3, 5]:
        failures.append("fibonacci oracle prefix")
    if p_ints[:6] != [0, 1, 2, 5, 12, 29]:
        failures.append("pell oracle prefix")
    if conv2[:6] != [1, 2, 5, 10, 20, 38]:
        failures.append("conv oracle prefix")
    for n in range(21):
        if fib(n)(1) != fib_ints[n]:
            failures.append(("h=1", n))
        if fib(n)(2) != p_ints[n]:
            failures.append(("h=2", n))
    for m in range(20):
        if convolved_closed_form(2, m)(1) != conv2[m]:
            failures.append(("h=1 r=2", m))
    elapsed = time.perf_counter() - start
    _report("specialization to Fibonacci, Pell, and convolved integers", failures, elapsed, None)


def test_default_verify_suite():
    start = time.perf_counter()
    failures = []
    report = run_suite()
    if not report.all_passed:
        failures.extend(r.check_id for r in report.results if not r.passed)
    obj = report_to_dict(report)
    try:
        payload = json.loads(json.dumps(obj))
        assert_valid_report_dict(payload)
    except AssertionError as exc:
        failures.append(f"schema: {exc}")
    elapsed = time.perf_counter() - start
    _report("default verify suite passes and report validates", failures, elapsed, 60.0)


def test_default_verify_cli_exit_zero(capsys):
    start = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    failures = [] if code == 0 else [f"exit code {code}"]
    with capsys.disabled():
        _report("verify command exits 0 at default bounds", failures, elapsed, 60.0)
