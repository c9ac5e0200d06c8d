"""The extension ring Z[h][s] with s^2 = h^2 + 4.

Elements are a + b*s with Poly components; products reduce s^2
immediately, so no s-degree above 1 is ever stored.  This is where the
closed root forms 2*r1 = h + s and 2*r2 = h - s live, which turns the
root formulas for the sequences into exact polynomial statements.
"""
from __future__ import annotations

from .poly import ONE, ZERO, Poly, ring_pow

# s^2 reduces to this.
DISC = Poly([4, 0, 1])


class QuadExt:
    __slots__ = ("a", "b")

    a: Poly
    b: Poly

    def __init__(self, a: Poly, b: Poly):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadExt is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuadExt) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __add__(self, other: QuadExt) -> QuadExt:
        return QuadExt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: QuadExt) -> QuadExt:
        return QuadExt(self.a - other.a, self.b - other.b)

    def __mul__(self, other: QuadExt) -> QuadExt:
        # (a1 + b1 s)(a2 + b2 s) = (a1 a2 + b1 b2 (h^2+4)) + (a1 b2 + a2 b1) s
        return QuadExt(
            self.a * other.a + self.b * other.b * DISC,
            self.a * other.b + other.a * self.b,
        )

    def __pow__(self, k: int) -> QuadExt:
        return ring_pow(self, k, QuadExt(ONE, ZERO))

    def __str__(self) -> str:
        return f"({self.a}) + ({self.b})s"

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r})"
