from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfib import H, ONE, ZERO, NotDivisible, NotInvertible, Poly, Series, fib
from hfib.series import convolved_series


def poly_list(strings):
    return [Poly(c) for c in strings]


UNITS = st.sampled_from([1, -1]).map(lambda u: Poly([u]))
NON_UNITS = (
    st.lists(st.integers(min_value=-9, max_value=9), max_size=3)
    .map(Poly)
    .filter(lambda p: p.coeffs not in ((1,), (-1,)))
)


def series_with_constant(constant, max_order=32):
    tail_poly = st.lists(st.integers(min_value=-9, max_value=9), max_size=4).map(Poly)

    def build(c0, tail, order):
        coeffs = [c0] + tail[: order - 1]
        return Series(coeffs, order)

    return st.builds(
        build,
        constant,
        st.lists(tail_poly, max_size=max_order - 1),
        st.integers(min_value=1, max_value=max_order),
    )


def one(order):
    return Series([ONE], order)


def kernel(order):
    """1 - h*t - t^2, the reciprocal of the sequence generating function."""
    return Series([ONE, -H, -ONE][:order], order)


def derivative(a):
    """Term-wise d/dt at the same order.  The top coefficient is unknowable
    after truncation and is stored as zero, so comparisons stop at index
    order - 2.
    """
    out = [(j + 1) * a.coeffs[j + 1] for j in range(a.order - 1)]
    return Series(out + [ZERO], a.order)


def inverse_by_division(a):
    """Oracle inverse: solve a * x = 1 one coefficient at a time."""
    u = a.coeffs[0].coeffs[0]
    x = [Poly([u])]
    for n in range(1, a.order):
        acc = ZERO
        for i in range(1, n + 1):
            acc = acc + a.coeffs[i] * x[n - i]
        x.append(acc * -u)
    return Series(x, a.order)


def truncated_product(a, b):
    """Oracle product: coefficient n sums a[i] * b[n-i] for n below the order."""
    out = [ZERO] * a.order
    for n in range(a.order):
        for i in range(n + 1):
            out[n] = out[n] + a.coeffs[i] * b.coeffs[n - i]
    return Series(out, a.order)


def power_by_products(a, k):
    """Oracle power: |k| repeated products of a, or of its inverse."""
    base = a if k >= 0 else inverse_by_division(a)
    out = one(a.order)
    for _ in range(abs(k)):
        out = truncated_product(out, base)
    return out


def test_self_product_of_sequence_gf():
    inv = kernel(4) ** -1
    sq = truncated_product(inv, inv)
    assert list(sq.coeffs) == poly_list([[1], [0, 2], [2, 0, 3], [0, 6, 0, 4]])


def test_inverse_of_kernel():
    inv = kernel(4) ** -1
    assert list(inv.coeffs) == poly_list([[1], [0, 1], [1, 0, 1], [0, 2, 0, 1]])


def test_inverse_of_unit():
    assert one(5) ** -1 == one(5)


def test_inverse_requires_unit_constant():
    with pytest.raises(NotInvertible):
        Series([Poly([2]), ONE], 2) ** -1
    with pytest.raises(NotInvertible):
        Series([H, ONE], 2) ** -1


def test_negative_unit_constant_inverts():
    a = Series([-ONE, H], 6)
    assert truncated_product(a, a**-1) == one(6)


def test_pow_examples():
    sq = kernel(3) ** -2
    assert list(sq.coeffs) == poly_list([[1], [0, 2], [2, 0, 3]])
    a = Series([ONE, H], 4)
    assert a**0 == one(4)


def test_pow_negative_matches_squared_inverse():
    inv = kernel(10) ** -1
    assert truncated_product(inv, inv) == kernel(10) ** -2


def test_derivative_termwise():
    a = Series([ONE, H, Poly([1, 0, 1])], 3)
    assert derivative(a) == Series([H, Poly([2, 0, 2]), ZERO], 3)
    assert derivative(one(4)) == Series([ZERO], 4)


def test_derivative_of_inverse_kernel():
    # d/dt of the order-1 expansion equals (h + 2t) times the order-2
    # expansion, on the indices the truncation leaves trustworthy
    lhs = derivative(kernel(6) ** -1)
    rhs = truncated_product(Series([H, Poly([2])], 5), kernel(5) ** -2)
    assert list(lhs.coeffs)[:5] == list(rhs.coeffs)[:5]


def test_convolved_series_first_column():
    got = [str(p) for p in convolved_series(1, 6)]
    assert got == ["1", "h", "h^2 + 1", "h^3 + 2h", "h^4 + 3h^2 + 1", "h^5 + 4h^3 + 3h"]


def test_convolved_series_r3():
    got = [str(p) for p in convolved_series(3, 4)]
    assert got == ["1", "3h", "6h^2 + 3", "10h^3 + 12h"]


def test_convolved_series_specialized_at_one():
    got = [p(1) for p in convolved_series(2, 6)]
    assert got == [1, 2, 5, 10, 20, 38]


def test_convolved_series_matches_recurrence_sequence():
    coeffs = convolved_series(1, 64)
    for j in range(64):
        assert coeffs[j] == fib(j + 1)


def test_order_is_part_of_identity():
    assert Series([ONE], 3) != Series([ONE], 4)
    assert len(Series([ONE], 7).coeffs) == 7


def test_validation():
    with pytest.raises(ValueError):
        Series([], 0)
    with pytest.raises(ValueError):
        Series([ONE, H], 1)
    with pytest.raises(ValueError):
        convolved_series(0, 5)
    with pytest.raises(ValueError):
        convolved_series(2, 0)


@given(series_with_constant(UNITS))
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip(a):
    assert truncated_product(a, a**-1) == one(a.order)


@given(series_with_constant(UNITS, max_order=12),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_pow_additive(a, j, k):
    assert a ** (j + k) == truncated_product(a**j, a**k)


@given(series_with_constant(UNITS, max_order=12), st.integers(min_value=-6, max_value=6))
@example(Series([-ONE, H, Poly([2])], 7), -3)
@example(Series([-ONE, H, Poly([2])], 7), 5)
@settings(max_examples=80, deadline=None)
def test_pow_matches_repeated_products_unit_constant(a, k):
    assert a**k == power_by_products(a, k)


@given(series_with_constant(st.one_of(st.just(ZERO), NON_UNITS), max_order=12),
       st.integers(min_value=0, max_value=6))
@example(Series([H, ONE], 6), 4)
@example(Series([ZERO, ZERO, H, ONE], 12), 3)
@example(Series([Poly([2]), ONE], 3), 0)
@settings(max_examples=60, deadline=None)
def test_non_negative_pow_requires_unit_constant(a, k):
    with pytest.raises(NotInvertible):
        a**k


@given(series_with_constant(NON_UNITS, max_order=12), st.integers(min_value=-6, max_value=-1))
@example(Series([ZERO], 1), -1)
@settings(max_examples=40, deadline=None)
def test_negative_pow_requires_unit_constant(a, k):
    with pytest.raises(NotInvertible):
        a**k


def test_series_is_immutable():
    a = Series([ONE, -H], 3)
    for name, value in (("order", 4), ("coeffs", (ONE,) * 3), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    assert a == Series([ONE, -H], 3)


def test_equal_series_hash_equal():
    a, b = Series([ONE, -H], 3), Series([ONE, -H, ZERO], 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Series([ONE, -H], 4)}) == 2
    assert a != list(a.coeffs)


def test_repr():
    assert repr(Series([ONE, -H], 3)) == "Series([Poly('1'), Poly('-h'), Poly('0')], order=3)"


def test_series_has_no_product():
    # a power is the one operation; products are the test-local oracle's
    with pytest.raises(TypeError):
        Series([ONE], 2) * Series([ONE], 2)


def test_remainder_in_route_4_raises_not_divisible(monkeypatch):
    # For r = 1 the third sum route 4 forms is 2*b[2] = 2h^2 + 2; one off
    # in it leaves a remainder mod 2, which must raise rather than round
    add, calls = Poly.__add__, []

    def off_by_one(a, b):
        calls.append(None)
        out = add(a, b)
        return add(out, ONE) if len(calls) == 3 else out

    monkeypatch.setattr(Poly, "__add__", off_by_one)
    with pytest.raises(NotDivisible):
        convolved_series(1, 3)


def test_products_mod_a_prime_raise_not_divisible(monkeypatch):
    # every other check passes if each Poly product is reduced mod
    # 2^31 - 1; route 4's exact division is what catches it
    mul = Poly.__mul__

    def mod_prime(a, b):
        return Poly([c % (2**31 - 1) for c in mul(a, b).coeffs])

    monkeypatch.setattr(Poly, "__mul__", mod_prime)
    monkeypatch.setattr(Poly, "__rmul__", mod_prime)
    with pytest.raises(NotDivisible):
        convolved_series(8, 61)
