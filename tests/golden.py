"""Frozen expected values and independent oracles shared across tests.

The canonical-text table is the ground truth the renderers are checked
against; the integer oracles are plain recurrences, kept deliberately
separate from the library's code paths.
"""
from __future__ import annotations

from itertools import product as cartesian

from hfib import Poly, fib, verify

# Convolved polynomials, canonical text, rows n = 0..8, columns r = 1, 2, 3.
TABLE_R123 = [
    ["0", "0", "0"],
    ["1", "1", "1"],
    ["h", "2h", "3h"],
    ["h^2 + 1", "3h^2 + 2", "6h^2 + 3"],
    ["h^3 + 2h", "4h^3 + 6h", "10h^3 + 12h"],
    ["h^4 + 3h^2 + 1", "5h^4 + 12h^2 + 3", "15h^4 + 30h^2 + 6"],
    ["h^5 + 4h^3 + 3h", "6h^5 + 20h^3 + 12h", "21h^5 + 60h^3 + 30h"],
    ["h^6 + 5h^4 + 6h^2 + 1", "7h^6 + 30h^4 + 30h^2 + 4", "28h^6 + 105h^4 + 90h^2 + 10"],
    ["h^7 + 6h^5 + 10h^3 + 4h", "8h^7 + 42h^5 + 60h^3 + 20h", "36h^7 + 168h^5 + 210h^3 + 60h"],
]

FIBONACCI_PREFIX = [0, 1, 1, 2, 3, 5, 8]
PELL_PREFIX = [0, 1, 2, 5, 12, 29]
FIB_SELF_CONV_PREFIX = [1, 2, 5, 10, 20, 38]


def fibonacci_ints(count: int) -> list[int]:
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def pell_ints(count: int) -> list[int]:
    out = [0, 1]
    while len(out) < count:
        out.append(2 * out[-1] + out[-2])
    return out[:count]


def fib_self_convolution_ints(count: int) -> list[int]:
    """m-th entry of the convolution of (1, 1, 2, 3, 5, ...) with itself."""
    base = fibonacci_ints(count + 2)[1:]
    return [sum(base[i] * base[m - i] for i in range(m + 1)) for m in range(count)]


def convolved_by_compositions(r: int, m: int) -> Poly:
    """Brute-force oracle: sum over all r-part compositions of m of the
    product of shifted sequence values.  Exponential; small inputs only.
    """
    total = Poly()
    for parts in cartesian(range(m + 1), repeat=r):
        if sum(parts) != m:
            continue
        term = Poly([1])
        for j in parts:
            term = term * fib(j + 1)
        total = total + term
    return total


def compose(p: Poly, e: Poly) -> Poly:
    """p with h -> e, by Horner over the ring: the oracle for `table --subst`."""
    result = Poly()
    for c in reversed(p.coeffs):
        result = result * e + Poly([c])
    return result


def corrupt_check(monkeypatch, check_id: str) -> None:
    """Patch verify._CHECKS so that the first lhs of `check_id` gets its
    ring's one added: one wrong value, which must fail that check only.
    """
    generate = dict(verify._CHECKS)[check_id]

    def corrupted(r_max, n_max, rng):
        instances = generate(r_max, n_max, rng)
        desc, lhs, rhs = next(instances)
        yield desc, lhs + lhs**0, rhs
        yield from instances

    checks = tuple((name, corrupted if name == check_id else g) for name, g in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", checks)


def assert_valid_report_dict(obj: dict) -> None:
    """Structural check of the verify-report JSON layout."""
    assert set(obj) == {"bounds", "all_passed", "results"}
    assert isinstance(obj["all_passed"], bool)
    bounds = obj["bounds"]
    assert set(bounds) == {"r_max", "n_max", "seed"}
    assert all(isinstance(v, int) for v in bounds.values())
    assert isinstance(obj["results"], list)
    for entry in obj["results"]:
        assert {"check_id", "params", "passed", "elapsed_ms"} <= set(entry)
        assert set(entry) <= {"check_id", "params", "passed", "elapsed_ms", "counterexample"}
        assert isinstance(entry["check_id"], str)
        assert isinstance(entry["passed"], bool)
        assert isinstance(entry["elapsed_ms"], int) and entry["elapsed_ms"] >= 0
        assert isinstance(entry["params"], dict)
        assert all(isinstance(v, int) for v in entry["params"].values())
        if not entry["passed"]:
            assert isinstance(entry["counterexample"], str)
        else:
            assert "counterexample" not in entry
    assert obj["all_passed"] == all(e["passed"] for e in obj["results"])
