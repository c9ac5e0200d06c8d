"""Route 4: truncated formal power series in t with Poly coefficients.

The truncation order is part of a value's identity: a Series of order N
stores exactly N coefficients (t^0 .. t^(N-1), trailing zeros included).
Its one operation is an integer power of a series whose constant
coefficient is 1 or -1, which is all that convolved_series needs to
expand (1 - h*t - t^2)^(-r).
"""
from __future__ import annotations

from typing import Iterable

from .poly import H, ONE, ZERO, NotDivisible, Poly, Value, check_size


class NotInvertible(ArithmeticError):
    """Constant coefficient is not a unit of the coefficient ring."""


class Series(Value):
    """A truncated series stored as its order coefficients, t^0 first.

    Not a Dense subclass: its order, not a trailing nonzero coefficient,
    ends a value, and Poly's and TPoly's counted operations stay apart
    from it.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Poly], order: int):
        check_size("order", order, 1)
        cs = list(coeffs)
        if len(cs) > order:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([ZERO] * (order - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))

    order = property(lambda self: len(self.coeffs), doc="The number of stored coefficients.")

    def __pow__(self, k: int) -> Series:
        """self^k at the same order, for any int k (a bool or another
        type is refused with ValueError); the constant coefficient a0
        must be 1 or -1, else NotInvertible.

        b = a^k satisfies a*b' = k*a'*b, which gives the J.C.P. Miller /
        Euler recurrence (Knuth, TAOCP vol. 2, 4.7)

            n*a0*b[n] = sum over i = 1..n of ((k+1)*i - n) * a[i] * b[n-i]

        from b[0] = a0^k.  Zero a[i] are left out, so a series with s
        nonzero tail coefficients costs at most s ring products per term:
        2N products for N terms of the 3-term kernel.  As a0 is 1 or -1,
        dividing by n*a0 divides each integer coefficient of the sum, and
        a remainder raises NotDivisible rather than rounds.
        """
        check_size("k", k)
        a = self.coeffs
        if a[0].coeffs not in ((1,), (-1,)):
            raise NotInvertible(f"constant coefficient {a[0]} is not a unit")
        a0 = a[0].coeffs[0]
        tail = [(i, c) for i, c in enumerate(a) if i and c]
        b = [Poly([a0 ** abs(k)])]  # a0 is its own inverse
        for n in range(1, len(a)):
            acc = ZERO
            for i, c in tail:
                if i > n:
                    break
                weight = (k + 1) * i - n
                if weight:
                    acc = acc + c * weight * b[n - i]
            divisor = a0 * n
            quotients = [divmod(c, divisor) for c in acc.coeffs]
            if any(rem for _, rem in quotients):
                raise NotDivisible(f"coefficient of t^{n} is not divisible by {divisor}")
            b.append(Poly([q for q, _ in quotients]))
        return Series(b, len(a))

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r}, order={self.order})"


def convolved_series(r: int, n_terms: int) -> list[Poly]:
    """First n_terms coefficients of (1 - h*t - t^2)^(-r).

    Coefficient j is the (j+1)-st convolved polynomial of order r.
    """
    check_size("r", r, 1)
    check_size("n_terms", n_terms, 1)
    kernel = Series([ONE, -H, -ONE][:n_terms], n_terms)
    return list((kernel ** -r).coeffs)
