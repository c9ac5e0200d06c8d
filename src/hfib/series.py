"""Truncated formal power series in t with Poly coefficients.

The truncation order is part of a value's identity: a Series of order N
stores exactly N coefficients (t^0 .. t^(N-1), trailing zeros included),
and arithmetic between different orders is a hard error rather than a
silent coercion.
"""
from __future__ import annotations

from typing import Iterable

from .poly import H, ONE, ZERO, Poly, TPoly


class OrderMismatch(ValueError):
    """Arithmetic between series of different truncation orders."""


class NotInvertible(ArithmeticError):
    """Constant coefficient is not a unit of the coefficient ring."""


class Series:
    __slots__ = ("order", "coeffs")

    order: int
    coeffs: tuple[Poly, ...]

    def __init__(self, coeffs: Iterable[Poly], order: int):
        cs = list(coeffs)
        if order < 1:
            raise ValueError("order must be positive")
        if len(cs) > order:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([ZERO] * (order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Series is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def _check_order(self, other: Series) -> None:
        if self.order != other.order:
            raise OrderMismatch(f"order {self.order} vs {other.order}")

    def __mul__(self, other: Series) -> Series:
        """Product truncated to the common order, as t-polynomials."""
        self._check_order(other)
        product = TPoly(self.coeffs) * TPoly(other.coeffs)
        return Series(product.coeffs[: self.order], self.order)

    def __pow__(self, k: int) -> Series:
        """self^k at the same order, for any integer k.

        b = a^k satisfies a*b' = k*a'*b, which gives the J.C.P. Miller /
        Euler recurrence (Knuth, TAOCP vol. 2, 4.7)

            n*a0*b[n] = sum over i = 1..n of ((k+1)*i - n) * a[i] * b[n-i]

        from b[0] = a0^k.  Zero a[i] are skipped, so a series with s
        nonzero tail coefficients costs at most s ring products per term:
        2N products for N terms of the 3-term kernel, where binary
        powering took O(log k) dense series products of O(N^2) each.
        Each division by n*a0 is Poly.exact_div, which raises rather than
        rounds.  A negative k needs a unit constant (1 or -1); a zero
        constant with k > 0 has its lowest power of t factored out first.
        """
        order, a = self.order, self.coeffs
        if k < 0 and a[0].coeffs not in ((1,), (-1,)):
            raise NotInvertible(f"constant coefficient {a[0]} is not a unit")
        if k == 0:
            return Series([ONE], order)
        low = next((i for i, c in enumerate(a) if c), order)
        if low:  # k > 0: a = t^low * c with c[0] != 0, so a^k = t^(low*k) * c^k
            shift = low * k
            if shift >= order:
                return Series([], order)
            inner = Series(a[low:low + order - shift], order - shift) ** k
            return Series([ZERO] * shift + list(inner.coeffs), order)
        a0 = a[0]
        tail = [(i, c) for i, c in enumerate(a) if i and c]
        b = [a0 ** abs(k)]  # for k < 0, a0 is a unit and so its own inverse
        for n in range(1, order):
            acc = ZERO
            for i, c in tail:
                if i > n:
                    break
                weight = (k + 1) * i - n
                if weight:
                    acc = acc + c * weight * b[n - i]
            b.append(acc.exact_div(a0 * n))
        return Series(b, order)

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r}, order={self.order})"


def fib_kernel(order: int) -> Series:
    """1 - h*t - t^2, the reciprocal of the sequence generating function."""
    return Series([ONE, -H, -ONE][:order], order)


def convolved_series(r: int, n_terms: int) -> list[Poly]:
    """First n_terms coefficients of (1 - h*t - t^2)^(-r).

    Coefficient j is the (j+1)-st convolved polynomial of order r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    return list((fib_kernel(n_terms) ** -r).coeffs)
