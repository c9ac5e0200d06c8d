from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfib import H, ONE, ZERO, Poly, QuadExt, fib, lucas
from hfib.sequences import binet_scaled

S = QuadExt(ZERO, ONE)

small_poly = st.lists(st.integers(min_value=-50, max_value=50), max_size=4).map(Poly)
quads = st.tuples(small_poly, small_poly).map(lambda ab: QuadExt(*ab))


def test_defining_relation():
    assert S * S == QuadExt(Poly([4, 0, 1]), ZERO)


def test_conjugate_product_is_minus_four():
    # (h+s)(h-s) = h^2 - (h^2+4) = -4, so the two roots multiply to -1
    assert QuadExt(H, ONE) * QuadExt(H, -ONE) == QuadExt(Poly([-4]), ZERO)


def test_square_of_root_form():
    assert QuadExt(H, ONE) ** 2 == QuadExt(Poly([4, 0, 2]), Poly([0, 2]))


def test_binet_scaled_base_cases():
    assert binet_scaled(0) == (QuadExt(ZERO, ZERO), QuadExt(Poly([2]), ZERO))
    assert binet_scaled(1) == (QuadExt(ZERO, Poly([2])), QuadExt(Poly([0, 2]), ZERO))
    diff, _ = binet_scaled(2)
    assert diff == QuadExt(ZERO, Poly([0, 4]))


def test_binet_scaled_matches_sequences():
    for n in range(31):
        diff, total = binet_scaled(n)
        scale = 2**n
        assert diff == QuadExt(ZERO, scale * fib(n)), n
        assert total == QuadExt(scale * lucas(n), ZERO), n


@given(quads, st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_pow_is_additive(u, a, b):
    assert u ** (a + b) == (u**a) * (u**b)


@given(quads, quads)
def test_mul_commutes(u, v):
    assert u * v == v * u


@given(quads, quads, quads)
def test_mul_distributes(u, v, w):
    assert u * (v + w) == u * v + u * w


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=4), small_poly)
def test_equal_values_hash_equally(a, b):
    # a trailing zero coefficient does not make a different value
    u, v = QuadExt(Poly(a), b), QuadExt(Poly(a + [0]), Poly(list(b.coeffs)))
    assert u == v and hash(u) == hash(v)
    assert len({u, v}) == 1


def test_immutable():
    u = QuadExt(H, ONE)
    for name in ("a", "b", "c"):
        with pytest.raises(AttributeError):
            setattr(u, name, ZERO)
    assert u == QuadExt(H, ONE)


def test_repr_names_both_components():
    assert repr(QuadExt(H, Poly([-4, 0, 1]))) == "QuadExt(Poly('h'), Poly('h^2 - 4'))"
    assert repr(QuadExt(ZERO, ONE)) == "QuadExt(Poly('0'), Poly('1'))"
