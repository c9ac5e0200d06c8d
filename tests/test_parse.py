from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfib import H, ONE, ParseError, Poly, parse_poly
from hfib.parse import MAX_BITS, MAX_DEGREE, MAX_DEPTH, width


def test_constants():
    assert parse_poly("1") == ONE
    assert parse_poly("2") == Poly([2])
    assert parse_poly("0") == Poly()
    assert parse_poly("-7") == Poly([-7])


def test_symbols_normalize():
    assert parse_poly("h") == H
    assert parse_poly("x") == H
    assert parse_poly("h^2+3") == Poly([3, 0, 1])
    assert parse_poly("x^2+3") == Poly([3, 0, 1])


def test_operators():
    assert parse_poly("h^2 - 2*h + 1") == Poly([1, -2, 1])
    assert parse_poly("(h+1)*(h-1)") == Poly([-1, 0, 1])
    assert parse_poly("(h+1)^2") == Poly([1, 2, 1])
    assert parse_poly("-(h^2+4)") == Poly([-4, 0, -1])
    assert parse_poly("2^3") == Poly([8])


def test_implicit_multiplication():
    assert parse_poly("2h") == Poly([0, 2])
    assert parse_poly("3h^2") == Poly([0, 0, 3])
    assert parse_poly("h(h+1)") == Poly([0, 1, 1])
    assert parse_poly("2(h+1)") == Poly([2, 2])
    assert parse_poly("(h+2)(h+3)") == Poly([6, 5, 1])
    assert parse_poly("36h^7 + 168h^5 + 210h^3 + 60h") == Poly([0, 60, 0, 210, 0, 168, 0, 36])


def test_whitespace_tolerance():
    assert parse_poly("  h ^ 2 +  1 ") == Poly([1, 0, 1])


def test_errors():
    # integers are ASCII digits only: not a superscript or an Arabic-Indic 3;
    # and an integer never follows a factor, so digits are not grouped by spaces
    for bad in ["", "h^", "h +", "(h", "h)", "y", "h^-2", "*h", "h^(2)", "h^\u00b2", "\u0663h",
                "1 000 000", "12 345", "h2", "h^2 3", "(h+1)2"]:
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_nesting_is_bounded():
    assert parse_poly("(" * MAX_DEPTH + "h" + ")" * MAX_DEPTH) == H
    for depth in (MAX_DEPTH + 1, 2000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_poly("(" * depth + "h" + ")" * depth)


def test_sign_runs_are_bounded():
    assert parse_poly("-" * MAX_DEPTH + "h") == H
    assert parse_poly("-" * (MAX_DEPTH - 1) + "h") == -H
    with pytest.raises(ParseError, match="signs in a row"):
        parse_poly("-" * 1500 + "h")


def test_signs_and_nesting_keep_their_values():
    assert parse_poly("--h^2") == Poly([0, 0, 1])
    assert parse_poly("-+-h") == H
    assert parse_poly("- -h") == H
    assert parse_poly("-h^2") == Poly([0, 0, -1])
    assert parse_poly("h*-h") == Poly([0, 0, -1])
    assert parse_poly("h(h(h+1))") == Poly([0, 0, 1, 1])


def test_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_poly("h + y")
    assert info.value.position == 4


small_polys = st.lists(st.integers(min_value=-99, max_value=99), max_size=6).map(Poly)


@given(small_polys)
def test_round_trips_canonical_rendering(p):
    assert parse_poly(str(p)) == p


# the expressions of the benchmark's explore workload, and the CLI's largest literal
ACCEPTED = ["h^2+4h+5", "x^2 + 5x + 7", "(h+2)(h+3)", "(x+3)*(x+2)+1", "h(h+6)+5",
            "(h+2)^2+h+1", "10^4400", "h^1000", "(h+1)^1000", "1^99999999999", "0^99999999999"]


@pytest.mark.parametrize("text", ACCEPTED)
def test_sizes_within_the_bounds_parse(text):
    parse_poly(text)


@pytest.mark.parametrize("text", [
    "h^99999999999",                  # degree
    "2^99999999999",                  # coefficient bits
    "2^" + "9" * 5000,                # an exponent past the integer-string limit
    "h^1001",
    "(h+1)^1001",
    "h" * (MAX_DEGREE + 1),           # a product, not a power
    "(h+1)^999*(h+1)^999",
    "+".join(["(h+1)^999"] * 5),      # each power fits, all of them do not
])
def test_oversized_products_and_powers_are_refused(text):
    with pytest.raises(ParseError, match=f"over degree {MAX_DEGREE} or {MAX_BITS} coefficient bits"):
        parse_poly(text)


def test_bound_counts_the_power_before_it_runs():
    # the refusal names the exponent's position; no power of 2 was built
    with pytest.raises(ParseError) as info:
        parse_poly("3 + 2^99999999999")
    assert info.value.position == 6
    assert width(Poly([-3, 0, 2])) == 3 and width(H) == 0 and width(Poly()) == 0
