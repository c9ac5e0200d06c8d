from __future__ import annotations

import random
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
from hfib.poly import unpack

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


def test_closed_form_examples():
    assert str(convolved_closed_form(2, 3)) == "4h^3 + 6h"
    assert convolved_closed_form(3, 0) == ONE
    assert str(convolved_closed_form(3, 7)) == "36h^7 + 168h^5 + 210h^3 + 60h"


def test_convolution_examples():
    assert str(convolved_convolution(1, 4)) == "h^4 + 3h^2 + 1"
    assert convolved_convolution(2, 2) == Poly([2, 0, 3])
    assert convolved_convolution(2, 2) == ONE * Poly([1, 0, 1]) + H * H + Poly([1, 0, 1]) * ONE
    assert str(convolved_convolution(3, 2)) == "6h^2 + 3"


def test_recurrence_examples():
    assert convolved_recurrence(2, 2) == Poly([0, 2])
    assert str(convolved_recurrence(1, 6)) == "h^5 + 4h^3 + 3h"
    assert str(convolved_recurrence(3, 5)) == "15h^4 + 30h^2 + 6"
    assert convolved_recurrence(4, 0) == Poly()
    assert convolved_recurrence(4, 1) == ONE


def test_all_routes_match_frozen_table():
    for n, row in enumerate(TABLE_R123):
        for col, r in enumerate((1, 2, 3)):
            if n == 0:
                continue
            expected = row[col]
            assert str(convolved_closed_form(r, n - 1)) == expected
            assert str(convolved_convolution(r, n - 1)) == expected
            assert str(convolved_recurrence(r, n)) == expected
            assert str(convolved_series(r, n)[n - 1]) == expected


def test_convolution_against_composition_enumeration():
    for r in range(1, 4):
        for m in range(9):
            assert convolved_convolution(r, m) == convolved_by_compositions(r, m), (r, m)


def test_five_way_agreement():
    for r in range(1, 7):
        from_series = convolved_series(r, 41)
        for j in range(41):
            expected = convolved_closed_form(r, j)
            assert convolved_convolution(r, j) == expected, (r, j)
            assert convolved_recurrence(r, j + 1) == expected, (r, j)
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
        seq._conv.clear()
        seq._rec.clear()

    errors = []

    def worker(seed):
        # each worker extends the convolution prefixes in its own
        # interleaved, non-monotone order of (r, j)
        requests = [(r, j) for r in range(1, 6) for j in range(25)]
        random.Random(seed).shuffle(requests)
        try:
            for n in range(1, 80):
                assert fib(n) == convolved_closed_form(1, n - 1)
            for r, j in requests:
                assert convolved_convolution(r, j) == convolved_recurrence(r, j + 1)
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
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
    for r in range(1, 6):
        prefix = [unpack(packed, m, seq._width) for m, packed in enumerate(seq._conv[r])]
        assert prefix == [convolved_closed_form(r, m) for m in range(len(prefix))], r


def test_fib_extends_its_memo_while_the_lock_is_held():
    # route 2 reads fib inside its one locked section, so the lock is re-entrant
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


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_convolution_route_work_is_quadratic(order, monkeypatch):
    import hfib.sequences as seq

    r_max, length = 8, 61
    requests = [(r, j) for r in range(1, r_max + 1) for j in range(length)]
    if order == "descending":
        requests.reverse()
    elif order == "shuffled":
        random.Random(0).shuffle(requests)
    fib(length)  # warm the base sequence so that only convolution products count
    with seq._lock:
        seq._conv.clear()

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
    got = {(r, j): convolved_convolution(r, j) for r, j in requests}
    monkeypatch.undo()
    # level k = 2..r_max convolves level k-1 with the base sequence once:
    # term m of a prefix costs m + 1 products
    assert products == (r_max - 1) * length * (length + 1) // 2
    assert poly_products == 0  # with fib warm, the route multiplies only ints
    for (r, j), value in got.items():
        assert value == convolved_closed_form(r, j), (r, j)


def test_packing_width_holds_every_coefficient_up_to_the_verify_caps():
    import hfib.sequences as seq

    for r in range(1, 17):
        for m in range(101):
            limit = 1 << (8 * seq._bytes_for(r, m))
            assert all(0 <= c < limit for c in convolved_closed_form(r, m).coeffs), (r, m)


def test_repacking_keeps_every_memoized_term():
    import hfib.sequences as seq

    with seq._lock:
        seq._conv.clear()
        seq._width = 1
    widths = []
    for r, m in [(2, 5), (2, 60), (12, 150), (3, 1)]:
        assert convolved_convolution(r, m) == convolved_closed_form(r, m), (r, m)
        widths.append(seq._width)
    assert widths[0] < widths[1] < widths[2] == widths[3]  # two repacks
    for r, prefix in seq._conv.items():
        assert len(prefix) == 151, r
        for m, packed in enumerate(prefix):
            assert unpack(packed, m, seq._width) == convolved_closed_form(r, m), (r, m)


def test_widening_ends_at_the_exact_need():
    # doubling the old width instead would end this order at 32 bytes, not 21
    import hfib.sequences as seq

    with seq._lock:
        seq._conv.clear()
        seq._width = 1
    for r in range(1, 17):
        for m in range(101):
            convolved_convolution(r, m)
    assert seq._width == seq._bytes_for(16, 100) == 21
    assert convolved_convolution(16, 100) == convolved_closed_form(16, 100)


def test_memo_walks_thousands_of_orders_without_recursion():
    # warm the low levels first; the request then adds levels 3..3000
    convolved_convolution(2, 2)
    convolved_recurrence(2, 3)
    for m in range(3):
        expected = convolved_closed_form(3000, m)
        assert convolved_convolution(3000, m) == expected, m
        assert convolved_recurrence(3000, m + 1) == expected, m


def test_derivative_identity_sides():
    lhs, rhs = derivative_identity_sides(2, 3)
    assert lhs == rhs == 3 * convolved_closed_form(2, 3)
    assert derivative_identity_sides(1, 1) == (H, H)
    with pytest.raises(ValueError):
        derivative_identity_sides(0, 1)
