"""Dense univariate polynomials over the integers in the symbol h.

A polynomial is a tuple of arbitrary-precision integer coefficients,
index i holding the coefficient of h^i.  Values are normalized (no
trailing zero) and immutable; the zero polynomial is the empty tuple
and its degree is None rather than a fake integer.  This module is
the ring core: Value holds the immutable value protocol of every
value here and of Series; Dense holds the dense arithmetic and the
rendering loop of both Poly and TPoly, the polynomials in t with Poly
coefficients of the characteristic polynomial; QuadExt is the
extension ring Z[h][s] with s^2 = DISC = h^2 + 4, where the sequences'
root forms live;
ring_pow is the package's one square-and-multiply; to_digits and
from_digits convert exact integers at any size; pack and unpack hold a
polynomial in h that has only powers of one parity as a single int,
the one packed layout of the routes that run on ints; check_size is
the one guard of every size, bound, order, seed, exponent and other
int argument the public API takes.

>>> Poly([0, 2, 0, 1])
Poly('h^3 + 2h')
>>> Poly([1]) + Poly([0, 1]) * Poly([0, 1])
Poly('h^2 + 1')
"""
from __future__ import annotations

import math
from typing import Iterable


class NotDivisible(ArithmeticError):
    """Raised when an exact division leaves a remainder: route 4 divides
    each coefficient of its power recurrence by an integer, and a wrong
    coefficient shows up here instead of being rounded away.
    """


def to_digits(n: int) -> str:
    """Decimal digits of n at any size.

    str() is refused above the interpreter's integer-string limit (4300
    digits by default); _digits_by_halves converts without it.  It is a
    function of its own because its closures would make every call here
    create their cells, a measurable cost when rendering a large table.
    """
    try:
        return str(n)
    except ValueError:
        return _digits_by_halves(n)


def _digits_by_halves(n: int) -> str:
    """Decimal digits of n in subquadratic time, where str() is quadratic.

    n is split by bit halves down to leaves of at most 4096 bits, and
    the pieces are recombined as lo + hi * 2^w by exact decimal
    arithmetic, whose products of large values are subquadratic.
    decimal is imported only here.
    """
    import decimal

    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact],
    )
    powers: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        if w not in powers:
            half = w >> 1
            powers[w] = (
                ctx.power(2, w) if w <= 4096
                else ctx.multiply(two_to(half), two_to(w - half))
            )
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:  # 0 <= m < 2^w
        if w <= 4096:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        lo = m - (hi << half)
        return ctx.add(convert(lo, half), ctx.multiply(convert(hi, w - half), two_to(half)))

    digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def from_digits(text: str) -> int:
    """The integer written as ASCII decimal digits with an optional sign,
    at any size; ValueError for anything else.
    """
    body = text[1:] if text[:1] in ("+", "-") else text
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"invalid integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # over the integer-string limit
        value = _int_by_halves(body)
        return -value if text[0] == "-" else value


def _int_by_halves(digits: str) -> int:
    """The integer a string of decimal digits names, in subquadratic
    time, where int() is quadratic: the inverse of _digits_by_halves.

    The string is split in halves down to leaves of at most 640 digits,
    which int() converts at any setting of the integer-string limit, and
    recombined as hi * 10^len(lo) + lo, whose products of large values
    are subquadratic.
    """
    if len(digits) <= 640:
        return int(digits)
    cut = len(digits) // 2
    return _int_by_halves(digits[:cut]) * 10 ** (len(digits) - cut) + _int_by_halves(digits[cut:])


def ring_pow(x, k: int, one):
    """x**k by square-and-multiply, for any ring element with *; `one`
    is the ring's unit, returned for k = 0.
    """
    check_size("k", k, 0)
    result = one
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result


class Value:
    """An immutable value that is its tuple of coefficients.

    The one value protocol of Poly, TPoly, QuadExt, Series and
    hessenberg.HessMatrix: a subclass stores its coefficients once, in
    coeffs, with object.__setattr__; assigning any attribute afterwards
    raises AttributeError; two values are equal when they are of the
    same type and have equal coeffs, and equal values hash equally.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)


class Dense(Value):
    """Dense polynomial over a coefficient ring, index i = power i.

    Values are normalized (no trailing zero coefficient).
    A subclass names its coefficient ring's 0 and 1 in _zero and _one,
    and renders one nonzero term in _term.
    Operands of another type are scalars: they multiply every
    coefficient, unless their own coefficients are of this type, in
    which case they scale this value instead.
    """

    __slots__ = ()

    _zero: object
    _one: object

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int | None:
        """Degree of the leading term; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __mul__(self, other):
        cls = type(self)
        if type(other) is not cls:
            if isinstance(other, Dense) and type(other._zero) is cls:
                return NotImplemented  # other has our type as coefficients
            return cls([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return cls()
        if len(a) > len(b):  # the outer loop runs over the shorter operand
            a, b = b, a
        out = [self._zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                k = i  # the index of out that ca * cb lands at
                for cb in b:
                    out[k] += ca * cb
                    k += 1
        # Z and Z[h] have no zero divisors, so the leading coefficient
        # a[-1] * b[-1] is nonzero and the product is already normalized
        product = object.__new__(cls)
        object.__setattr__(product, "coeffs", tuple(out))
        return product

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return ring_pow(self, k, type(self)([self._one]))

    def __str__(self) -> str:
        """Terms in decreasing power, each sign pulled out in front of the
        body that _term(c, k) -> (negative, body) renders; "0" for zero.

        >>> print(Poly([0, 2, 0, 1]))
        h^3 + 2h
        >>> print(Poly([-1, 0, 1]))
        h^2 - 1
        >>> print(Poly())
        0
        """
        cs, term = self.coeffs, self._term
        parts: list[str] = []
        for k in range(len(cs) - 1, -1, -1):
            if cs[k]:
                negative, body = term(cs[k], k)
                if parts:
                    parts.append(" - " if negative else " + ")
                elif negative:
                    parts.append("-")
                parts.append(body)
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


class Poly(Dense):
    """Dense polynomial in h with integer coefficients."""

    __slots__ = ()

    _zero = 0
    _one = 1

    def __call__(self, x: int) -> int:
        """Exact integer evaluation at h = x."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def _term(self, c: int, k: int) -> tuple[bool, str]:
        """c*h^k with the sign of c pulled out and a unit c omitted."""
        mag = -c if c < 0 else c
        if k == 0:
            return c < 0, to_digits(mag)
        var = "h" if k == 1 else f"h^{k}"
        return c < 0, var if mag == 1 else to_digits(mag) + var

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, index = degree."""
        return [to_digits(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str]) -> Poly:
        return Poly([from_digits(s) for s in data])


ZERO = Poly()
ONE = Poly([1])
H = Poly([0, 1])


class TPoly(Dense):
    """Polynomial in t with Poly coefficients, index = power of t.

    Not a Poly subclass: it is a different ring, and Poly's own
    operations stay countable apart from it.
    """

    __slots__ = ()

    _zero = ZERO
    _one = ONE

    def coefficient(self, power: int) -> Poly:
        """The Poly coefficient of t^power; ZERO for any int power outside
        the stored range.
        """
        check_size("power", power)
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return ZERO

    def _term(self, c: Poly, k: int) -> tuple[bool, str]:
        """c*t^k with the sign of c's leading coefficient pulled out; a
        multi-term c is parenthesized and a unit c omitted, as in
        't^2 - 2ht + (h^2 + 1)'.
        """
        negative = c.coeffs[-1] < 0
        mag = -c if negative else c
        body = str(mag)
        if " " in body:  # only a rendering of two or more terms has spaces
            body = f"({body})"
        if k == 0:
            return negative, body
        t = "t" if k == 1 else f"t^{k}"
        return negative, t if mag == ONE else body + t

    def to_json(self) -> list[list[str]]:
        return [c.to_json() for c in self.coeffs]


# s^2 reduces to this.
DISC = Poly([4, 0, 1])


class QuadExt(Value):
    """The extension ring Z[h][s] with s^2 = h^2 + 4.

    Elements are a + b*s with Poly components, stored as coeffs = (a, b);
    products reduce s^2 immediately, so no s-degree above 1 is ever
    stored.  This is where the closed root forms 2*r1 = h + s and
    2*r2 = h - s live, which turns the root formulas for the sequences
    into exact polynomial statements.
    """

    __slots__ = ()

    def __init__(self, a: Poly, b: Poly):
        object.__setattr__(self, "coeffs", (a, b))

    a = property(lambda self: self.coeffs[0], doc="The component a of a + b*s.")
    b = property(lambda self: self.coeffs[1], doc="The component b of a + b*s.")

    def __add__(self, other: QuadExt) -> QuadExt:
        (a1, b1), (a2, b2) = self.coeffs, other.coeffs
        return QuadExt(a1 + a2, b1 + b2)

    def __sub__(self, other: QuadExt) -> QuadExt:
        (a1, b1), (a2, b2) = self.coeffs, other.coeffs
        return QuadExt(a1 - a2, b1 - b2)

    def __mul__(self, other: QuadExt) -> QuadExt:
        # (a1 + b1 s)(a2 + b2 s) = (a1 a2 + b1 b2 (h^2+4)) + (a1 b2 + a2 b1) s
        (a1, b1), (a2, b2) = self.coeffs, other.coeffs
        return QuadExt(a1 * a2 + b1 * b2 * DISC, a1 * b2 + a2 * b1)

    def __pow__(self, k: int) -> QuadExt:
        return ring_pow(self, k, QuadExt(ONE, ZERO))

    def __str__(self) -> str:
        return f"({self.a}) + ({self.b})s"

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r})"


def check_size(name: str, value: int, least: int | None = None, most: int | None = None) -> None:
    """Refuse with ValueError a size, bound, order, seed, exponent or
    other int argument that is not of type int (so a bool is refused, as
    are other int subclasses) or lies outside least..most (no end for
    None).  Every such argument of the public API passes here before any
    work.

    It cannot break the routes' independence: it computes nothing of
    any result, so it can refuse an input, but it cannot make two
    routes agree on a wrong answer.  Coefficients are not checked:
    Dense builds its values on every product, so Poly([1.5]) is taken
    as given.
    """
    if (type(value) is not int or (least is not None and value < least)
            or (most is not None and value > most)):
        bound = "" if least is None else f" >= {least}" if most is None else f" in {least}..{most}"
        raise ValueError(f"{name} must be an int{bound}")


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) of any ints; 0 outside 0 <= k <= n."""
    check_size("n", n)
    check_size("k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def pack(term: Poly, n: int, width: int) -> int:
    """A polynomial h^(n%2) * q(h^2) of degree at most n as the int
    q(2^(8*width)): the coefficients of q little-endian, width bytes each.

    A nonzero coefficient of the other parity raises ArithmeticError,
    so a wrong term shows up rather than being dropped; so does a
    negative or too-wide one (OverflowError).
    """
    cs = term.coeffs
    if any(cs[1 - n % 2::2]):
        raise ArithmeticError(f"term {n} has a power of h of the wrong parity")
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs[n % 2::2]), "little")


def unpack(packed: int, n: int, width: int) -> Poly:
    """The Poly that pack(., n, width) turned into packed."""
    data = packed.to_bytes((n // 2 + 1) * width, "little")
    coeffs = [0] * (n + 1)
    coeffs[n % 2::2] = [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]
    return Poly(coeffs)

