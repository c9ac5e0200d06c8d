"""The identity suite: every cross-module equality, run as data.

Each check streams (description, lhs, rhs) instances in lexicographic
parameter order; the first mismatch becomes the counterexample and the
suite never aborts early, so a report always carries one result per
check.  Randomized checks derive their generator from (seed, check_id),
making reports reproducible regardless of execution order.

run_suite queues the checks on a pipe, ring_axioms first (its cases
ignore the bounds, and it is the largest check at the default bounds
and at r_max=8, n_max=60) and the rest in check_id order.  Where
os.fork exists, at least two CPUs are usable and no other thread is
alive, it forks one worker; the two processes take checks off the
queue until it is empty.  The worker writes nothing to stdout or
stderr: each result goes back to the caller over a second pipe.  Each
check's elapsed_ms is measured in the process that ran it.
"""
from __future__ import annotations

import marshal
import os
import random
import signal
import threading
import time
from collections import namedtuple
from itertools import combinations
from typing import Iterable, Iterator

from .hessenberg import (
    HessMatrix,
    _leading_minors,
    build_fib_matrix,
    char_poly,
    charpoly_shift_sides,
    hess_det,
    minor_sum_closed_form,
    principal_minor,
    sum_principal_minors,
)
from .poly import H, ONE, ZERO, Poly, QuadExt, binom, check_size
from .sequences import (
    binet_scaled,
    convolved_closed_form,
    convolved_convolution,
    convolved_recurrence,
    derivative_identity_sides,
    fib,
    lucas,
    lucas_decomposition_sides,
)
from .series import convolved_series


CheckResult = namedtuple("CheckResult", "check_id params passed counterexample elapsed_ms")
SuiteReport = namedtuple("SuiteReport", "results all_passed bounds")


Instance = tuple[str, object, object]


def _run_check(
    check_id: str,
    params: dict[str, int],
    instances: Iterable[Instance],
) -> CheckResult:
    start = time.perf_counter()
    passed = True
    counterexample = None
    try:
        for desc, lhs, rhs in instances:
            if lhs != rhs:
                passed = False
                counterexample = f"{desc}: lhs = {lhs} ; rhs = {rhs}"
                break
    except Exception as exc:
        passed = False
        counterexample = f"{type(exc).__name__}: {exc}"
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    return CheckResult(check_id, params, passed, counterexample, elapsed_ms)


def _random_poly(rng: random.Random, max_degree: int, max_coeff: int) -> Poly:
    """A degree in 0..max_degree, then that many coefficients plus one in
    -max_coeff..max_coeff: the values of rng.randint, drawn as it draws.

    randint(a, b) takes getrandbits(k) with k = (b - a + 1).bit_length(),
    draws again while the value is not below b - a + 1, and adds a.  The
    same draws here give the same values and leave rng in the same
    state, without randint's argument checks and calls on every value.
    """
    getrandbits = rng.getrandbits
    width = max_degree + 1
    k = width.bit_length()
    degree = getrandbits(k)
    while degree >= width:
        degree = getrandbits(k)
    width = 2 * max_coeff + 1
    k = width.bit_length()
    coeffs = []
    for _ in range(degree + 1):
        c = getrandbits(k)
        while c >= width:
            c = getrandbits(k)
        coeffs.append(c - max_coeff)
    return Poly(coeffs)


def _naive_det(rows: list[list[Poly]]) -> Poly:
    """Cofactor expansion along the first column of a grid of order at
    least 1; the slow oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ZERO
    for i in range(n):
        if not rows[i][0]:
            continue
        minor = [row[1:] for k, row in enumerate(rows) if k != i]
        term = rows[i][0] * _naive_det(minor)
        total = total + term if i % 2 == 0 else total - term
    return total


def _check_ring_axioms(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for case in range(1000):
        p = _random_poly(rng, 12, 10**6)
        q = _random_poly(rng, 12, 10**6)
        w = _random_poly(rng, 12, 10**6)
        p_q, q_w = p + q, q + w
        yield f"case={case} add_assoc", p_q + w, p + q_w
        yield f"case={case} add_comm", p_q, q + p
        pq = p * q
        yield f"case={case} mul_assoc", pq * w, p * (q * w)
        yield f"case={case} mul_comm", pq, q * p
        yield f"case={case} distrib", p * q_w, pq + p * w
        yield f"case={case} add_ident", p + ZERO, p
        yield f"case={case} mul_ident", p * ONE, p
        yield f"case={case} pow", p ** 2, p * p


def _check_five_way(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    by_convolution = convolved_convolution(r_max, n_max)
    by_recurrence = convolved_recurrence(r_max, n_max + 1)
    for r in range(1, r_max + 1):
        from_series = convolved_series(r, n_max + 1)
        for j in range(n_max + 1):
            expected = convolved_closed_form(r, j)
            yield f"r={r} j={j} convolution", by_convolution[r - 1][j], expected
            yield f"r={r} j={j} recurrence", by_recurrence[r - 1][j + 1], expected
            yield f"r={r} j={j} series", from_series[j], expected


def _check_minor_sums(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for n in range(1, min(n_max, 12) + 1):
        for l in range(n):
            yield (
                f"n={n} l={l}",
                sum_principal_minors(n, l),
                convolved_closed_form(l + 1, n - l),
            )


def _check_fib_comb(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for n in range(1, 2 * n_max + 5):
        yield f"n={n}", fib(n), convolved_closed_form(1, n - 1)


def _check_binet(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for n in range(n_max + 1):
        diff, total = binet_scaled(n)
        scale = 2**n
        yield f"n={n} fib", diff, QuadExt(ZERO, scale * fib(n))
        yield f"n={n} lucas", total, QuadExt(scale * lucas(n), ZERO)


def _check_lucas_rel(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for n in range(1, 2 * n_max + 5):
        yield f"n={n}", lucas(n), fib(n - 1) + fib(n + 1)


def _check_linear_term(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for r in range(1, 10 * r_max + 1):
        yield f"r={r}", convolved_closed_form(r, 1), r * H


def _check_derivative_identity(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for r in range(1, r_max + 1):
        for n in range(1, n_max + 1):
            lhs, rhs = derivative_identity_sides(r, n)
            yield f"r={r} n={n}", lhs, rhs


def _check_decomposition(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for r in range(1, r_max + 1):
        for j in range(2 * n_max // 3 + 1):
            lhs, rhs = lucas_decomposition_sides(r, j)
            yield f"r={r} j={j}", lhs, rhs


def _check_shape(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for r in range(1, r_max + 1):
        for j in range(n_max + 1):
            p = convolved_closed_form(r, j)
            yield f"r={r} j={j} degree", p.degree, j
            parity_ok = all(c == 0 for i, c in enumerate(p.coeffs) if (i - j) % 2)
            yield f"r={r} j={j} parity", parity_ok, True
            yield f"r={r} j={j} leading", p.coeffs[-1], binom(j + r - 1, j)


def _check_specialization(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    hi = min(2 * n_max + 4, 20)
    fibs, pells = [0, 1], [0, 1]
    while len(fibs) <= hi:
        fibs.append(fibs[-1] + fibs[-2])
        pells.append(2 * pells[-1] + pells[-2])
    conv2 = [sum(fibs[i + 1] * fibs[m - i + 1] for i in range(m + 1)) for m in range(hi)]
    for n in range(hi + 1):
        yield f"n={n} fibonacci", fib(n)(1), fibs[n]
        yield f"n={n} pell", fib(n)(2), pells[n]
    for m in range(hi):
        yield f"m={m} conv2", convolved_closed_form(2, m)(1), conv2[m]


def _check_det_fib(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    # each small matrix is built and expanded on its own; the larger
    # determinants are the leading minors of the largest matrix
    minors = _leading_minors(build_fib_matrix(n_max + 10).entries, ZERO, ONE)
    for n in range(1, n_max + 11):
        det = hess_det(build_fib_matrix(n)) if n <= 12 else minors[n]
        yield f"n={n}", det, fib(n + 1)


def _check_minor_product(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    # gaps[deleted] is the product of fib(i - prev) over the deleted i,
    # from prev = 0; it does not depend on n, so each set's is made once,
    # from the set without its last index, which came first
    gaps = {(): ONE}
    for n in range(1, min(n_max, 10) + 1):
        for size in range(n + 1):
            for deleted in combinations(range(1, n + 1), size):
                if deleted not in gaps:
                    head = deleted[:-1]
                    gaps[deleted] = gaps[head] * fib(deleted[-1] - (head[-1] if head else 0))
                product = gaps[deleted] * fib(n - (deleted[-1] if deleted else 0) + 1)
                desc = f"n={n} deleted={list(deleted)}"
                yield desc, principal_minor(n, deleted), product
    for n in range(11, n_max + 11):  # n > 10 packs wider than one byte
        yield f"n={n} deleted=[]", principal_minor(n, ()), fib(n + 1)


def _check_charpoly_signs(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for n in range(1, min(n_max, 12) + 1):
        cp = char_poly(n)
        for l in range(n + 1):
            expected = convolved_closed_form(l + 1, n - l)
            if (n - l) % 2:
                expected = -expected
            yield f"n={n} l={l}", cp.coefficient(l), expected


def _check_charpoly_closed_form(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for n in range(1, min(n_max, 20) + 1):
        for l in range(n + 1):
            yield (
                f"n={n} l={l}",
                minor_sum_closed_form(n, l),
                convolved_closed_form(l + 1, n - l),
            )


def _check_charpoly_shift(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for n in range(1, min(n_max, 12) + 1):
        lhs, rhs = charpoly_shift_sides(n)
        yield f"n={n} monic", lhs.degree == n and lhs.coefficient(n) == ONE, True
        yield f"n={n} shift", lhs, rhs


def _check_hessenberg_recurrence(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    # a1 * det of a random upper-Hessenberg weight matrix with -1 on the
    # subdiagonal is the n-th term of the sequence its weights define
    for case in range(201):
        a1 = 3 if case == 200 else 1
        n = rng.randint(1, 6)
        rows = []
        for i in range(n):
            row = [ZERO] * i + [_random_poly(rng, 0, 3) for _ in range(i, n)]
            if i > 0:
                row[i - 1] = Poly([-1])
            rows.append(row)
        seq = [Poly([a1])]
        for m in range(1, n + 1):
            acc = ZERO
            for i in range(1, m + 1):
                acc = acc + rows[i - 1][m - 1] * seq[i - 1]
            seq.append(acc)
        yield f"case={case} n={n} a1={a1}", Poly([a1]) * hess_det(HessMatrix(rows)), seq[n]


def _check_hessenberg_naive(r_max: int, n_max: int, rng: random.Random) -> Iterator[Instance]:
    for case in range(60):
        n = rng.randint(1, 5)
        rows = []
        for i in range(n):
            row = [ZERO] * n
            for j in range(max(0, i - 1), n):
                row[j] = _random_poly(rng, 1, 3)
            rows.append(row)
        yield f"case={case} n={n}", hess_det(HessMatrix(rows)), _naive_det(rows)


# (check_id, generator) of every _check_<check_id> above, in check_id order
_CHECKS = tuple(sorted(
    (name[len("_check_"):], fn) for name, fn in globals().items() if name.startswith("_check_")
))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drain(tasks: int, r_max: int, n_max: int, seed: int) -> Iterator[tuple[int, CheckResult]]:
    """Take check indices off the task pipe one at a time until it is
    empty, and run each check."""
    while index := os.read(tasks, 1):
        check_id, generate = _CHECKS[index[0]]
        rng = random.Random(f"{seed}:{check_id}")
        yield index[0], _run_check(check_id, {"r_max": r_max, "n_max": n_max}, generate(r_max, n_max, rng))


def _fork_worker(tasks: int, r_max: int, n_max: int, seed: int):
    """(pid, file of results) of one forked worker that drains the task
    pipe, or (None, None) where none is forked.

    A forked copy of a threaded process may find a lock (the memo's of
    fib and lucas) held by a thread that does not exist in it, so a
    second live thread rules the worker out, as do a single usable CPU
    and a fork that fails.  The worker writes each result as a marshalled
    plain tuple (index, *result) as soon as it is made, and always leaves
    through os._exit: it neither flushes the caller's buffered output nor
    runs its exit handlers.
    """
    if not hasattr(os, "fork") or _cpus() < 2 or threading.active_count() > 1:
        return None, None
    inbox, outbox = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(inbox)
        os.close(outbox)
        return None, None
    if pid:
        os.close(outbox)
        return pid, open(inbox, "rb")
    code = 1
    try:
        os.close(inbox)
        with open(outbox, "wb") as out:
            for index, result in _drain(tasks, r_max, n_max, seed):
                marshal.dump((index, *result), out)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def run_suite(r_max: int = 5, n_max: int = 30, seed: int = 0) -> SuiteReport:
    """Run every check; failures are data, not exceptions.  A check that
    raises fails with the exception as its counterexample, and a check
    that the worker took but never reported fails with the worker's exit
    status as its counterexample.

    Results are ordered by check_id, and every check yields at least one
    instance at the smallest accepted bounds (r_max=1, n_max=2).  A
    bound or seed that is not an int, or is a bool, is refused with
    ValueError before any check runs.  No worker outlives the call, even
    when it raises.
    """
    check_size("r_max", r_max, 1)
    check_size("n_max", n_max, 2)
    check_size("seed", seed, 0)
    tasks, queue = os.pipe()
    os.write(queue, bytes(sorted(range(len(_CHECKS)), key=lambda i: _CHECKS[i][0] != "ring_axioms")))
    os.close(queue)
    results, worker, inbox = {}, None, None
    try:
        worker, inbox = _fork_worker(tasks, r_max, n_max, seed)
        results.update(_drain(tasks, r_max, n_max, seed))
        while inbox is not None:
            try:
                index, *fields = marshal.load(inbox)
            except EOFError:  # the end of the pipe, or of a record cut short
                break
            results[index] = CheckResult(*fields)
    except BaseException:
        if worker:
            os.kill(worker, signal.SIGKILL)
        raise
    finally:
        os.close(tasks)
        if inbox:
            inbox.close()
        if worker:
            status = os.waitstatus_to_exitcode(os.waitpid(worker, 0)[1])
    results = tuple(
        results.get(index) or CheckResult(
            check_id, {"r_max": r_max, "n_max": n_max}, False,
            f"the worker exited with status {status} before reporting this check", 0,
        )
        for index, (check_id, _) in enumerate(_CHECKS)
    )
    return SuiteReport(
        results=results,
        all_passed=all(r.passed for r in results),
        bounds={"r_max": r_max, "n_max": n_max, "seed": seed},
    )


def report_to_dict(report: SuiteReport) -> dict:
    """SuiteReport as the documented JSON structure."""
    results = []
    for r in report.results:
        entry = r._asdict()
        entry["params"] = dict(r.params)
        if r.counterexample is None:
            del entry["counterexample"]
        results.append(entry)
    return {
        "bounds": dict(report.bounds),
        "all_passed": report.all_passed,
        "results": results,
    }
