from __future__ import annotations

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfib import H, ONE, ZERO, Poly, QuadExt, TPoly, binom, convolved_closed_form
from hfib.poly import from_digits, pack, ring_pow, to_digits, unpack

from golden import compose

coeff = st.integers(min_value=-(10**6), max_value=10**6)
polys = st.lists(coeff, max_size=13).map(Poly)
nonzero_polys = polys.filter(bool)


def test_normalization():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0, 0]).coeffs == ()
    assert Poly().coeffs == ()


def test_degree_sentinel():
    assert Poly().degree is None
    assert Poly([5]).degree == 0
    assert Poly([0, 0, 7]).degree == 2


def test_add_examples():
    assert Poly([1, 0, 1]) + Poly([0, 2]) == Poly([1, 2, 1])
    p = Poly([3, 1, 4])
    assert p + ZERO == p
    assert H + (-H) == ZERO


def test_mul_examples():
    assert H * Poly([1, 0, 1]) == Poly([0, 1, 0, 1])
    assert (H + ONE) * (H - ONE) == Poly([-1, 0, 1])
    # product of the second and third sequence entries, matching the
    # 3x3 minor of the order-4 matrix with row/column 2 removed
    assert H * Poly([1, 0, 1]) == Poly([0, 1, 0, 1])


def test_pow_examples():
    disc = Poly([4, 0, 1])
    assert disc**1 == disc
    assert disc**2 == Poly([16, 0, 8, 0, 1])
    assert ZERO**0 == ONE


def test_compose_examples():
    # the test-local Horner oracle of `table --subst`
    assert compose(Poly([1, 0, 1]), Poly([1])) == Poly([2])
    # h^3 + 2h at h = 2 gives the fourth Pell number
    assert compose(Poly([0, 2, 0, 1]), Poly([2])) == Poly([12])
    assert Poly([0, 2, 0, 1])(2) == 12
    assert compose(H, Poly([3, 0, 1])) == Poly([3, 0, 1])
    assert compose(Poly([1, 0, 1]), H + ONE) == Poly([2, 2, 1])


def test_eval_int_examples():
    assert Poly([1, 0, 3, 0, 1])(1) == 5
    assert Poly([7, 1, 2])(0) == 7
    assert Poly([0, 2])(3) == 6


def test_canonical_text():
    assert str(Poly([0, 2, 0, 1])) == "h^3 + 2h"
    assert str(ZERO) == "0"
    assert str(Poly([-1, 0, 1])) == "h^2 - 1"
    assert str(Poly([1, -2])) == "-2h + 1"
    assert str(Poly([0, -1])) == "-h"
    assert str(ONE) == "1"


def test_json_round_trip():
    p = Poly([12345678901234567890, -3, 0, 1])
    data = p.to_json()
    assert data == ["12345678901234567890", "-3", "0", "1"]
    assert Poly.from_json(data) == p
    assert ZERO.to_json() == []


def test_digits_round_trip_at_any_size():
    for n in (0, 7, -7, 10**4400 + 7, -(10**5000) + 1):
        assert from_digits(to_digits(n)) == n
    assert from_digits("+12") == 12
    assert from_digits("-0") == 0


def _digit_cases():
    cases = []
    for digits in (4299, 4300, 4301):
        cases += [10 ** (digits - 1), 10**digits - 1, 10 ** (digits - 1) + 1]
    for k in (4300, 4301, 5000, 20000):
        cases += [10**k - 1, 10**k, 10**k + 1]
    leaf = 4096  # to_digits converts pieces of at most this many bits directly
    for bits in (4 * leaf - 1, 4 * leaf, 4 * leaf + 1, 8 * leaf + 3):
        cases += [2 ** (bits - 1), 2**bits - 1, 2 ** (bits - 1) + 12345]
    return cases + [-c for c in cases]


def test_to_digits_equals_str_with_the_limit_lifted():
    before = sys.get_int_max_str_digits()
    cases = _digit_cases()
    try:
        sys.set_int_max_str_digits(4300)
        got = [to_digits(n) for n in cases]
        sys.set_int_max_str_digits(0)
        expected = [str(n) for n in cases]
    finally:
        sys.set_int_max_str_digits(before)
    assert max(len(e) for e in expected) > 20000
    for n, g, e in zip(cases, got, expected):
        assert g == e, (n.bit_length(), n < 0)


def test_from_digits_equals_int_with_the_limit_lifted():
    rng = random.Random(3)
    texts = []
    # both sides of the default 4300-digit limit and of the 640-digit
    # leaves, with the halves' cut landing on leading zeros or not
    for length in (4299, 4300, 4301, 639, 640, 641, 1279, 1280, 1281, 1282, 10241, 50000):
        digits = "".join(rng.choice("0123456789") for _ in range(length))
        texts += [digits, "-" + digits, "+" + digits, "0" * 700 + digits]
    texts += ["9" * 8001, "1" + "0" * 8000, "0" * 8001, "-" + "0" * 4000 + "1" * 4001]
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        got = [from_digits(text) for text in texts]
        sys.set_int_max_str_digits(640)  # the lowest limit CPython accepts
        assert [from_digits(text) for text in texts] == got
        sys.set_int_max_str_digits(0)
        expected = [int(text) for text in texts]
    finally:
        sys.set_int_max_str_digits(before)
    for text, g, e in zip(texts, got, expected):
        assert g == e, (len(text), text[:1])


@pytest.mark.parametrize("text", ["", "+", "-", "--5", " 5", "5 ", "1_000", "1e3", "0x1f", "\u0663"])
def test_from_digits_takes_only_ascii_digits_with_a_sign(text):
    with pytest.raises(ValueError):
        from_digits(text)


def test_exact_past_the_default_digit_limit_in_a_fresh_interpreter():
    # a fresh interpreter has CPython's default 4300-digit integer-string
    # limit, which no hfib call may need lifted
    script = """
from hfib import Poly, parse_poly
value = 10**4400 + 7
digits = "1" + "0" * 4399 + "7"
assert str(Poly([-value, 1])) == "h - " + digits
assert str(Poly([0, value])) == digits + "h"
assert Poly([-value, 0, 1]).to_json() == ["-" + digits, "0", "1"]
assert Poly.from_json(["-" + digits, "3"]) == Poly([-value, 3])
assert parse_poly(digits + "h - 2") == Poly([-2, value])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_immutable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_big_coefficients_exact():
    p = Poly([10**40, 1])
    q = p * p
    assert q.coeffs[0] == 10**80


def test_binom_examples():
    assert binom(4, 2) == 6
    assert binom(5, 0) == 1
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0


def test_binom_pascal_rule():
    for n in range(1, 61):
        for k in range(n + 1):
            assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


@given(polys, polys, polys)
@settings(max_examples=300)
def test_ring_axioms(p, q, w):
    assert (p + q) + w == p + (q + w)
    assert p + q == q + p
    assert (p * q) * w == p * (q * w)
    assert p * q == q * p
    assert p * (q + w) == p * q + p * w
    assert p + ZERO == p
    assert p * ONE == p


@given(polys, nonzero_polys)
def test_degree_of_product(p, q):
    if not p:
        assert not p * q
    else:
        assert (p * q).degree == p.degree + q.degree


@given(polys)
def test_compose_identity(p):
    assert compose(p, H) == p


@given(polys, polys)
def test_normalized_invariant(p, q):
    # a product is built without the normalizing constructor: over Z and
    # Z[h] its leading coefficient cannot vanish
    for value in (p, p + q, p * q, TPoly([p, q]) * TPoly([q, ONE, p])):
        assert not value.coeffs or value.coeffs[-1]


@given(polys, st.integers(min_value=-50, max_value=50))
def test_eval_is_ring_hom(p, x):
    assert (p * H)(x) == p(x) * x
    assert (p + ONE)(x) == p(x) + 1


def test_ring_pow_is_square_and_multiply_in_any_ring():
    assert ring_pow(3, 13, 1) == 3**13
    assert ring_pow(H, 0, ONE) == ONE
    assert ring_pow(H + ONE, 3, ONE) == Poly([1, 3, 3, 1])


def test_pack_refuses_a_power_of_the_wrong_parity():
    assert pack(Poly([1, 0, 3]), 2, 1) == 1 + (3 << 8)
    assert pack(Poly([0, 2, 0, 5]), 3, 2) == 2 + (5 << 16)
    with pytest.raises(ArithmeticError):
        pack(Poly([1, 1, 3]), 2, 1)
    with pytest.raises(ArithmeticError):
        pack(Poly([0, 2, 1, 5]), 3, 2)
    with pytest.raises(ArithmeticError):  # as does a coefficient too wide to pack
        pack(Poly([256]), 0, 1)


def test_pack_fills_a_slot_to_its_last_byte():
    # a coefficient of 2^(8w) - 1 uses every bit of its slot and no more,
    # and a term of degree below n leaves its top slots zero
    assert pack(Poly([255, 0, 255]), 2, 1) == 0xFFFF
    assert unpack(0xFFFF, 2, 1) == Poly([255, 0, 255])
    assert pack(Poly([0, 65535]), 5, 2) == 0xFFFF
    assert unpack(0xFFFF, 5, 2) == Poly([0, 65535])
    assert unpack(0, 6, 3) == ZERO


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=12), st.data())
def test_pack_round_trips_any_term_that_fits(width, n, data):
    slot = st.integers(min_value=0, max_value=(1 << 8 * width) - 1)
    coeffs = [0] * (n + 1)
    coeffs[n % 2::2] = data.draw(st.lists(slot, min_size=n // 2 + 1, max_size=n // 2 + 1))
    term = Poly(coeffs)
    packed = pack(term, n, width)
    assert packed >> 8 * width * (n // 2 + 1) == 0
    assert unpack(packed, n, width) == term


def test_pack_round_trips_every_term(monkeypatch):
    import hfib.sequences as seq

    widths = set()

    def watched_pack(term, n, width):
        widths.add(width)
        return pack(term, n, width)

    monkeypatch.setattr(seq, "pack", watched_pack)
    seq.convolved_convolution(8, 60)
    monkeypatch.undo()
    (width,) = widths  # route 2's one width at (8, 60)
    for r in range(1, 9):
        for m in range(61):
            term = convolved_closed_form(r, m)
            packed = pack(term, m, width)
            assert unpack(packed, m, width) == term, (r, m)


@pytest.mark.parametrize(
    "value", [H, TPoly([H, ONE]), QuadExt(H, ONE)], ids=["Poly", "TPoly", "QuadExt"]
)
def test_negative_exponent_raises(value):
    with pytest.raises(ValueError):
        value ** -1
    with pytest.raises(ValueError):
        ring_pow(value, -2, value)


def test_dense_types_never_compare_equal():
    # both have the empty coefficient tuple, yet live in different rings
    assert Poly().coeffs == TPoly().coeffs
    assert Poly() != TPoly()
    assert TPoly() != Poly()
    assert Poly([1]) != TPoly([ONE])
