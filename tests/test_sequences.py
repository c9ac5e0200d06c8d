from __future__ import annotations

import math
import sys

import pytest

from golden import (
    FIB_SELF_CONV_PREFIX,
    FIBONACCI_PREFIX,
    PELL_PREFIX,
    TABLE_R123,
    convolved_by_compositions,
    fib_self_convolution_ints,
    fibonacci_ints,
    pell_ints,
)
from hfib import (
    H,
    ONE,
    Poly,
    convolved_closed_form,
    convolved_convolution,
    convolved_recurrence,
    convolved_series,
    derivative_identity_sides,
    fib,
    lucas,
    lucas_decomposition_sides,
)

DISC = Poly([4, 0, 1])


def test_fib_base_and_table_values():
    assert fib(0) == Poly()
    assert fib(1) == ONE
    assert str(fib(4)) == "h^3 + 2h"
    assert str(fib(8)) == "h^7 + 6h^5 + 10h^3 + 4h"


def test_lucas_values():
    assert lucas(0) == Poly([2])
    assert lucas(1) == H
    assert str(lucas(2)) == "h^2 + 2"


def test_fib_combinatorial_examples():
    # fib(n) = convolved_closed_form(1, n - 1): h^(n-1-2i) has coefficient C(n-1-i, i)
    assert str(convolved_closed_form(1, 4)) == "h^4 + 3h^2 + 1"
    assert convolved_closed_form(1, 0) == ONE
    assert str(convolved_closed_form(1, 6)) == "h^6 + 5h^4 + 6h^2 + 1"


def test_fib_equals_combinatorial_to_64():
    for n in range(1, 65):
        assert fib(n) == convolved_closed_form(1, n - 1), n


def test_lucas_relation_to_64():
    for n in range(1, 65):
        assert lucas(n) == fib(n - 1) + fib(n + 1), n


def double_binomial_sum(r, j):
    """F(r, j+1) term by term as C(j+r-l-1, j-l) * C(j-l, l) * h^(j-2l),
    two math.comb calls per coefficient: the reference for the ratio
    steps of convolved_closed_form.
    """
    coeffs = [0] * (j + 1)
    for l in range(j // 2 + 1):
        coeffs[j - 2 * l] = math.comb(j + r - l - 1, j - l) * math.comb(j - l, l)
    return Poly(coeffs)


def test_closed_form_ratio_steps_equal_the_double_binomial_sum():
    for r in range(1, 17):
        for j in range(101):
            assert convolved_closed_form(r, j) == double_binomial_sum(r, j), (r, j)


def test_closed_form_examples():
    assert str(convolved_closed_form(2, 3)) == "4h^3 + 6h"
    assert convolved_closed_form(3, 0) == ONE
    assert str(convolved_closed_form(3, 7)) == "36h^7 + 168h^5 + 210h^3 + 60h"


def test_convolution_examples():
    table = convolved_convolution(3, 4)  # table[k-1][i] is F(k, i+1)
    assert [len(level) for level in table] == [5, 5, 5]
    assert str(table[0][4]) == "h^4 + 3h^2 + 1"
    assert table[1][2] == Poly([2, 0, 3])
    assert table[1][2] == ONE * Poly([1, 0, 1]) + H * H + Poly([1, 0, 1]) * ONE
    assert str(table[2][2]) == "6h^2 + 3"
    assert convolved_convolution(1, 0) == [[ONE]]


def test_recurrence_examples():
    rows = convolved_recurrence(4, 6)  # rows[k-1][i] is F(k, i)
    assert [len(row) for row in rows] == [7, 7, 7, 7]
    assert rows[1][2] == Poly([0, 2])
    assert str(rows[0][6]) == "h^5 + 4h^3 + 3h"
    assert str(rows[2][5]) == "15h^4 + 30h^2 + 6"
    assert rows[3][0] == Poly()
    assert rows[3][1] == ONE
    assert convolved_recurrence(4, 0) == [[Poly()]] * 4
    assert convolved_recurrence(2, 1) == [[Poly(), ONE]] * 2


def test_all_routes_match_frozen_table():
    n_max = len(TABLE_R123) - 1
    table = convolved_convolution(3, n_max - 1)
    rows = convolved_recurrence(3, n_max)
    for n, row in enumerate(TABLE_R123):
        for col, r in enumerate((1, 2, 3)):
            if n == 0:
                continue
            expected = row[col]
            assert str(convolved_closed_form(r, n - 1)) == expected
            assert str(table[r - 1][n - 1]) == expected
            assert str(rows[r - 1][n]) == expected
            assert str(convolved_series(r, n)[n - 1]) == expected


def test_convolution_against_composition_enumeration():
    table = convolved_convolution(3, 8)
    for r in range(1, 4):
        for m in range(9):
            assert table[r - 1][m] == convolved_by_compositions(r, m), (r, m)


def test_five_way_agreement():
    table = convolved_convolution(6, 40)
    rows = convolved_recurrence(6, 41)
    for r in range(1, 7):
        from_series = convolved_series(r, 41)
        for j in range(41):
            expected = convolved_closed_form(r, j)
            assert table[r - 1][j] == expected, (r, j)
            assert rows[r - 1][j + 1] == expected, (r, j)
            assert from_series[j] == expected, (r, j)


def test_second_entry_is_linear():
    for r in range(1, 51):
        assert convolved_closed_form(r, 1) == r * H, r


def derivative_identity_holds(r, n):
    lhs, rhs = derivative_identity_sides(r, n)
    return lhs == rhs


def test_derivative_identity_examples():
    assert derivative_identity_holds(1, 1)
    # both sides at r=2, n=3 equal 12h^3 + 18h
    assert 3 * convolved_closed_form(2, 3) == Poly([0, 18, 0, 12])
    assert 2 * (H * Poly([3, 0, 6]) + 2 * Poly([0, 3])) == Poly([0, 18, 0, 12])
    assert derivative_identity_holds(2, 3)
    assert derivative_identity_holds(5, 20)


def test_derivative_identity_sweep():
    for r in range(1, 6):
        for n in range(1, 31):
            assert derivative_identity_holds(r, n), (r, n)


def test_decomposition_hand_cases():
    lhs, rhs = lucas_decomposition_sides(1, 0)
    assert lhs == ONE and rhs == ONE

    lhs, rhs = lucas_decomposition_sides(2, 0)
    assert lhs == DISC
    assert rhs == lucas(2) + 2 * fib(1)
    assert rhs == DISC

    lhs, rhs = lucas_decomposition_sides(2, 1)
    assert lhs == Poly([0, 8, 0, 2])
    assert rhs == 2 * lucas(3) + 2 * fib(2)
    assert lhs == rhs


def test_decomposition_sweep():
    for r in range(1, 6):
        for j in range(21):
            lhs, rhs = lucas_decomposition_sides(r, j)
            assert lhs == rhs, (r, j)


def test_shape_of_closed_form():
    from hfib import binom

    for r in range(1, 7):
        for j in range(41):
            p = convolved_closed_form(r, j)
            assert p.degree == j
            assert all(c == 0 for i, c in enumerate(p.coeffs) if (i - j) % 2)
            assert p.coeffs[-1] == binom(j + r - 1, j)


def test_specialization_to_integer_sequences():
    fib_ints = fibonacci_ints(21)
    p_ints = pell_ints(21)
    assert fib_ints[:7] == FIBONACCI_PREFIX
    assert p_ints[:6] == PELL_PREFIX
    for n in range(21):
        assert fib(n)(1) == fib_ints[n]
        assert fib(n)(2) == p_ints[n]
    conv2 = fib_self_convolution_ints(20)
    assert conv2[:6] == FIB_SELF_CONV_PREFIX
    for m in range(20):
        assert convolved_closed_form(2, m)(1) == conv2[m]


def test_argument_validation():
    with pytest.raises(ValueError):
        fib(-1)
    with pytest.raises(ValueError):
        lucas(-1)
    with pytest.raises(ValueError):
        convolved_closed_form(0, 1)
    with pytest.raises(ValueError):
        convolved_convolution(1, -1)
    with pytest.raises(ValueError):
        convolved_recurrence(0, 3)
    with pytest.raises(ValueError):
        derivative_identity_sides(1, 0)
    with pytest.raises(ValueError):
        lucas_decomposition_sides(0, 0)


def test_thread_safety_of_memo_tables():
    import threading

    import hfib.sequences as seq

    # reset the shared tables so the race actually exercises growth
    with seq._lock:
        del seq._fib[2:]
        del seq._lucas[2:]

    errors = []
    expected = convolved_convolution(5, 24)

    def worker():
        # fib and lucas race to extend their memo; routes 2 and 3 read fib
        # or keep no state, so every worker must build the same tables
        try:
            for n in range(1, 80):
                assert fib(n) == convolved_closed_form(1, n - 1)
                assert lucas(n) == fib(n - 1) + fib(n + 1)
            rows = convolved_recurrence(5, 25)
            assert convolved_convolution(5, 24) == expected
            assert [row[1:] for row in rows] == expected
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the races happen
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    # racing extensions must neither drop nor duplicate memoized terms
    assert len(seq._fib) == 81 and len(seq._lucas) == 80
    assert seq._fib[1:] == [convolved_closed_form(1, n) for n in range(80)]
    assert seq._lucas[1:] == [seq._fib[n - 1] + seq._fib[n + 1] for n in range(1, 80)]


def test_fib_extends_its_memo_while_the_lock_is_held():
    # the lock is re-entrant, so a holder of it can still extend fib's memo
    import threading

    import hfib.sequences as seq

    got = []

    def holder():
        with seq._lock:
            got.append(fib(len(seq._fib) + 5))

    thread = threading.Thread(target=holder, daemon=True)
    thread.start()
    thread.join(timeout=20)
    assert not thread.is_alive()
    assert got and got[0] == convolved_closed_form(1, len(seq._fib) - 2)


def test_convolution_route_work_is_quadratic(monkeypatch):
    import hfib.sequences as seq

    r, m = 8, 60
    fib(m + 1)  # warm the base sequence so that only convolution products count
    products = 0
    conv_sum = seq._conv_sum

    def counted_sum(lower, base, n, shift):
        nonlocal products
        products += n + 1  # one int product per pair (i, n - i)
        return conv_sum(lower, base, n, shift)

    poly_products = 0
    mul = Poly.__mul__

    def counted_mul(a, b):
        nonlocal poly_products
        poly_products += 1
        return mul(a, b)

    monkeypatch.setattr(seq, "_conv_sum", counted_sum)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    counts = []
    for _ in range(2):  # no state is kept, so a second call does the same work
        products = 0
        table = convolved_convolution(r, m)
        counts.append(products)
    monkeypatch.undo()
    # level k = 2..r convolves level k-1 with the base sequence once:
    # term n of a level costs n + 1 products
    assert counts == [(r - 1) * (m + 1) * (m + 2) // 2] * 2
    assert poly_products == 0  # with fib warm, the route multiplies only ints
    for k in range(1, r + 1):
        for i in range(m + 1):
            assert table[k - 1][i] == convolved_closed_form(k, i), (k, i)


class _Packed(Exception):
    """Raised by a stand-in for pack, to read the width route 2 chose."""


def _route_width(monkeypatch, r, m):
    """The byte width convolved_convolution(r, m) packs at, read from its
    first pack call, which comes before any int product is made."""
    import hfib.sequences as seq

    def stop(term, n, width):
        raise _Packed(width)

    monkeypatch.setattr(seq, "pack", stop)
    with pytest.raises(_Packed) as packed:
        convolved_convolution(r, m)
    monkeypatch.undo()
    return packed.value.args[0]


def test_packing_width_holds_every_coefficient_up_to_the_verify_caps(monkeypatch):
    slack = []
    for r in range(1, 17):
        for m in range(101):
            width = _route_width(monkeypatch, r, m)
            coeffs = convolved_closed_form(r, m).coeffs
            need = (max(coeffs).bit_length() + 7) // 8
            assert min(coeffs) >= 0 and need <= width <= need + 2, (r, m, width, need)
            slack.append(width - need)
    # the Fibonacci bound is within a byte of the need almost everywhere
    assert slack.count(2) == 6  # of 1,616 cases


def test_every_level_is_packed_at_one_width(monkeypatch):
    import hfib.sequences as seq

    r, m = 16, 100
    packed, shifts = [], []
    pack, conv_sum = seq.pack, seq._conv_sum

    def watched_pack(term, n, width):
        packed.append(width)
        return pack(term, n, width)

    def watched_sum(lower, base, n, shift):
        shifts.append(shift)
        return conv_sum(lower, base, n, shift)

    monkeypatch.setattr(seq, "pack", watched_pack)
    monkeypatch.setattr(seq, "_conv_sum", watched_sum)
    table = convolved_convolution(r, m)
    monkeypatch.undo()
    # the base is packed once, and every level is summed at its width
    assert packed == [17] * (m + 1)
    assert shifts == [8 * 17] * ((r - 1) * (m + 1))
    for k in range(1, r + 1):
        for i in range(m + 1):
            assert table[k - 1][i] == convolved_closed_form(k, i), (k, i)


def test_routes_walk_thousands_of_orders_without_recursion():
    table = convolved_convolution(3000, 2)
    rows = convolved_recurrence(3000, 3)
    for m in range(3):
        expected = convolved_closed_form(3000, m)
        assert table[-1][m] == expected, m
        assert rows[-1][m + 1] == expected, m


def test_derivative_identity_sides():
    lhs, rhs = derivative_identity_sides(2, 3)
    assert lhs == rhs == 3 * convolved_closed_form(2, 3)
    assert derivative_identity_sides(1, 1) == (H, H)
    with pytest.raises(ValueError):
        derivative_identity_sides(0, 1)
