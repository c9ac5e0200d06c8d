from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfib import H, ONE, ZERO, NotInvertible, OrderMismatch, Poly, Series, fib
from hfib.series import convolved_series, fib_kernel


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


def power_by_products(a, k):
    """Oracle power: |k| repeated products of a, or of its inverse."""
    base = a if k >= 0 else inverse_by_division(a)
    out = one(a.order)
    for _ in range(abs(k)):
        out = out * base
    return out


def truncated_product(a, b):
    """Oracle product: coefficient n sums a[i] * b[n-i] for n below the order."""
    out = [ZERO] * a.order
    for n in range(a.order):
        for i in range(n + 1):
            out[n] = out[n] + a.coeffs[i] * b.coeffs[n - i]
    return Series(out, a.order)


# zero coefficients are common, so zero series and trailing zeros are too
maybe_zero_poly = st.one_of(
    st.just(ZERO), st.lists(st.integers(min_value=-9, max_value=9), max_size=3).map(Poly)
)


def series_of_order(order):
    return st.lists(maybe_zero_poly, max_size=order).map(lambda cs: Series(cs, order))


series_pairs = st.integers(min_value=1, max_value=10).flatmap(
    lambda order: st.tuples(series_of_order(order), series_of_order(order))
)


@given(series_pairs)
@example((Series([], 4), Series([ONE, H], 4)))
@example((Series([H, ZERO, ZERO], 3), Series([ONE, -H, ZERO], 3)))
@settings(max_examples=80, deadline=None)
def test_mul_matches_truncated_product(pair):
    a, b = pair
    assert a * b == truncated_product(a, b)
    assert a * b == b * a


def test_mul_truncates():
    a = Series([ONE, ONE], 3)  # 1 + t
    b = Series([ONE, -ONE], 3)  # 1 - t
    assert a * b == Series([ONE, ZERO, -ONE], 3)


def test_mul_identity():
    a = Series([H, Poly([2, 1]), ONE], 3)
    assert a * one(3) == a


def test_mul_order_mismatch():
    with pytest.raises(OrderMismatch):
        Series([ONE], 2) * Series([ONE], 3)


def test_self_product_of_sequence_gf():
    inv = fib_kernel(4) ** -1
    sq = inv * inv
    assert list(sq.coeffs) == poly_list([[1], [0, 2], [2, 0, 3], [0, 6, 0, 4]])


def test_inverse_of_kernel():
    inv = fib_kernel(4) ** -1
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
    assert a * a**-1 == one(6)


def test_pow_examples():
    sq = fib_kernel(3) ** -2
    assert list(sq.coeffs) == poly_list([[1], [0, 2], [2, 0, 3]])
    a = Series([ONE, H], 4)
    assert a**0 == one(4)


def test_pow_negative_matches_squared_inverse():
    inv = fib_kernel(10) ** -1
    assert inv * inv == fib_kernel(10) ** -2


def test_derivative_termwise():
    a = Series([ONE, H, Poly([1, 0, 1])], 3)
    assert derivative(a) == Series([H, Poly([2, 0, 2]), ZERO], 3)
    assert derivative(one(4)) == Series([ZERO], 4)


def test_derivative_of_inverse_kernel():
    # d/dt of the order-1 expansion equals (h + 2t) times the order-2
    # expansion, on the indices the truncation leaves trustworthy
    lhs = derivative(fib_kernel(6) ** -1)
    rhs = Series([H, Poly([2])], 5) * (fib_kernel(5) ** -2)
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
    assert a * a**-1 == one(a.order)


@given(series_with_constant(UNITS, max_order=12),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_pow_additive(a, j, k):
    assert a ** (j + k) == (a**j) * (a**k)


@given(series_with_constant(UNITS, max_order=12), st.integers(min_value=-6, max_value=6))
@example(Series([-ONE, H, Poly([2])], 7), -3)
@example(Series([-ONE, H, Poly([2])], 7), 5)
@settings(max_examples=80, deadline=None)
def test_pow_matches_repeated_products_unit_constant(a, k):
    assert a**k == power_by_products(a, k)


@given(series_with_constant(st.one_of(st.just(ZERO), NON_UNITS), max_order=12),
       st.integers(min_value=1, max_value=6))
@example(Series([H, ONE], 6), 4)
@example(Series([ZERO, ZERO, H, ONE], 12), 3)
@settings(max_examples=100, deadline=None)
def test_pow_matches_repeated_products_non_unit_constant(a, k):
    assert a**k == power_by_products(a, k)


@given(series_with_constant(NON_UNITS, max_order=12), st.integers(min_value=-6, max_value=-1))
@settings(max_examples=40, deadline=None)
def test_negative_pow_requires_unit_constant(a, k):
    with pytest.raises(NotInvertible):
        a**k
