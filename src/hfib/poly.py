"""Dense univariate polynomials over the integers in the symbol h.

A polynomial is a tuple of arbitrary-precision integer coefficients,
index i holding the coefficient of h^i.  Values are normalized (no
trailing zero) and immutable; the zero polynomial is the empty tuple
and its degree is None rather than a fake integer.  The dense
arithmetic itself lives in Dense, which the t-polynomials of the
characteristic polynomial share, and ring_pow is the package's one
square-and-multiply.

>>> Poly([0, 2, 0, 1])
Poly('h^3 + 2h')
>>> Poly([1]) + Poly([0, 1]) * Poly([0, 1])
Poly('h^2 + 1')
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def ring_pow(x, k: int, one):
    """x**k by square-and-multiply, for any ring element with *; `one`
    is the ring's unit, returned for k = 0.
    """
    if k < 0:
        raise ValueError("negative exponent")
    result = one
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result


class Dense:
    """Dense polynomial over a coefficient ring, index i = power i.

    Values are normalized (no trailing zero coefficient) and immutable.
    A subclass names its coefficient ring's 0 and 1 in _zero and _one.
    Operands of another type are scalars: they multiply every
    coefficient, unless their own coefficients are of this type, in
    which case they scale this value instead.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple
    _zero: object
    _one: object

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def degree(self) -> int | None:
        """Degree of the leading term; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __iter__(self) -> Iterator:
        return iter(self.coeffs)

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
        out = [self._zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return cls(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return ring_pow(self, k, type(self)([self._one]))


class Poly(Dense):
    """Dense polynomial in h with integer coefficients."""

    __slots__ = ()

    _zero = 0
    _one = 1

    @staticmethod
    def monomial(power: int, coeff: int = 1) -> Poly:
        """coeff * h^power"""
        if coeff == 0:
            return ZERO
        return Poly([0] * power + [coeff])

    def compose(self, other: Poly) -> Poly:
        """Substitute h -> other, evaluated by Horner over the ring."""
        result = ZERO
        for c in reversed(self.coeffs):
            result = result * other + Poly([c])
        return result

    def __call__(self, x: int) -> int:
        """Exact integer evaluation at h = x."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def derivative(self) -> Poly:
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def exact_div(self, other: Poly) -> Poly:
        """Quotient d with self = other * d; NotDivisible if no such d."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        lead = div[-1]
        if len(rem) < len(div):
            if any(rem):
                raise NotDivisible(f"{self} is not divisible by {other}")
            return ZERO
        out = [0] * (len(rem) - len(div) + 1)
        for k in range(len(out) - 1, -1, -1):
            q, r = divmod(rem[k + len(div) - 1], lead)
            if r:
                raise NotDivisible(f"{self} is not divisible by {other}")
            out[k] = q
            for j, c in enumerate(div):
                rem[k + j] -= q * c
        if any(rem):
            raise NotDivisible(f"{self} is not divisible by {other}")
        return Poly(out)

    def __str__(self) -> str:
        """Canonical rendering: decreasing degree, unit coefficients omitted.

        >>> print(Poly([0, 2, 0, 1]))
        h^3 + 2h
        >>> print(Poly([-1, 0, 1]))
        h^2 - 1
        >>> print(Poly())
        0
        """
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "h" if i == 1 else f"h^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly('{self}')"

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, index = degree."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str]) -> Poly:
        return Poly([int(s) for s in data])


ZERO = Poly()
ONE = Poly([1])
H = Poly([0, 1])


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
