"""The polynomial sequences and the independent routes to them.

fib/lucas are the generalized Fibonacci and Lucas polynomials in the
formal symbol h (specialize afterwards by evaluation: p(1) gives
Fibonacci numbers, p(2) Pell numbers, and so on).  The convolved
family, coefficient j of (1 - h*t - t^2)^(-r), is computed three
different ways here -- a double-binomial closed form, r-fold sequence
convolution, and a three-term recurrence in (r, n) -- so that the
routes can be checked against each other and against the series and
minor-sum routes in their own modules.  The convolution route works on
Python ints: each term has only every other power of h, and its nonzero
half is held in the ring core's packed layout (poly.pack) at a byte
width that provably holds every coefficient, so a product of two packed
terms is one int product.

Memo tables only ever grow and are filled under one re-entrant lock,
which a route holds while it reads fib's memo; all observable behavior
is pure.
"""
from __future__ import annotations

import math
import threading
from operator import mul

from .poly import H, ONE, ZERO, Poly, binom, pack, unpack, widen
from .quadext import DISC, QuadExt

_lock = threading.RLock()
_fib: list[Poly] = [ZERO, ONE]
_lucas: list[Poly] = [Poly([2]), H]
# _conv[r][n] is term n of the r-fold self-convolution of (fib(1), fib(2), ...),
# h^(n%2) * q(h^2), held as the int q(2^(8*_width)); see poly.pack and
# convolved_convolution
_conv: dict[int, list[int]] = {}
_width = 1
# _rec[r][n] holds the recurrence route for r >= 1.
_rec: dict[int, list[Poly]] = {}


def _memo(table: list[Poly], n: int) -> Poly:
    """table[n] of x(k) = h*x(k-1) + x(k-2), extending the memo under the lock."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(table):
        with _lock:
            while len(table) <= n:
                table.append(H * table[-1] + table[-2])
    return table[n]


def fib(n: int) -> Poly:
    """n-th Fibonacci polynomial: 0, 1, h, h^2 + 1, h^3 + 2h, ..."""
    return _memo(_fib, n)


def lucas(n: int) -> Poly:
    """n-th Lucas polynomial: 2, h, h^2 + 2, h^3 + 3h, ..."""
    return _memo(_lucas, n)


def binet_scaled(n: int) -> tuple[QuadExt, QuadExt]:
    """Denominator-free root forms ((h+s)^n - (h-s)^n, (h+s)^n + (h-s)^n).

    With s^2 = h^2 + 4 these equal 2^n * s * fib(n) and 2^n * lucas(n):
    the root formulas for the two sequences, cleared of halves.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    plus = QuadExt(H, ONE) ** n
    minus = QuadExt(H, -ONE) ** n
    return plus - minus, plus + minus


def convolved_closed_form(r: int, j: int) -> Poly:
    """Convolved polynomial F(r, j+1) as a double-binomial sum over h^(j-2l)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if j < 0:
        raise ValueError("j must be >= 0")
    coeffs = [0] * (j + 1)
    for l in range(j // 2 + 1):
        coeffs[j - 2 * l] = binom(j + r - l - 1, j - l) * binom(j - l, l)
    return Poly(coeffs)


def _conv_sum(lower: list[int], base: list[int], n: int, shift: int) -> int:
    """Packed term n of the convolution of two packed sequences:
    sum of lower[i] * base[n-i], n + 1 int products.

    For odd n each product is h * q1(h^2) * q2(h^2), and the products
    add as they are.  For even n the products with odd i carry an extra
    h^2, one packed coefficient: their sum is shifted by `shift` bits.
    """
    if n % 2:
        return sum(map(mul, lower[:n + 1], reversed(base[:n + 1])))
    even = sum(map(mul, lower[0:n + 1:2], reversed(base[0:n + 1:2])))
    odd = sum(map(mul, lower[1:n:2], reversed(base[1:n:2])))
    return even + (odd << shift)


def _bytes_for(r: int, m: int) -> int:
    """Fewest bytes w with C(m+r-1, m) * 2^m < 2^(8w), the bound that
    convolved_convolution proves for every coefficient up to level r,
    term m.
    """
    return ((math.comb(m + r - 1, m) << m).bit_length() + 7) // 8


def convolved_convolution(r: int, m: int) -> Poly:
    """Convolved polynomial F(r, m+1) by r-fold discrete convolution.

    Computed as r-1 pairwise prefix convolutions, never by enumerating
    the compositions of m, on parity-halved terms packed into ints: no
    Poly product is made.  Levels 1..r are walked in turn, so any r
    works without recursion.  _conv[level] only grows, under the lock: a
    request computes just the missing terms n = len(_conv[level])..m,
    each by _conv_sum from level level-1, which was extended to the same
    length first, and from the base, level 1.  So asking for every
    m <= M at order r costs (r-1)(M+1)(M+2)/2 int products in total, in
    any order.

    Packing is exact: every coefficient of term m at level L is
    nonnegative and at most the term's value at h = 1, the coefficient
    of t^m in (1 - t - t^2)^(-L).  Since F(k+1)(1) <= 2^k, that is at
    most [t^m](1 - 2t)^(-L) = C(m+L-1, m) * 2^m.  Each product and each
    partial sum in _conv_sum is coefficientwise between 0 and the final
    term, and the bound grows with L and m, so once it is below
    2^(8*_width) no carry crosses into the next packed coefficient.  A
    request that needs more bytes (_bytes_for) widens to exactly that
    need and repacks the memo by widen: at most once per byte of the
    width, each time in time linear in the memo.
    """
    global _width
    if r < 1:
        raise ValueError("r must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    with _lock:
        if len(_conv.get(r, ())) <= m:
            need = _bytes_for(r, m)
            if need > _width:
                old, _width = _width, need
                for prefix in _conv.values():
                    prefix[:] = [widen(x, n, old, _width) for n, x in enumerate(prefix)]
            base = _conv.setdefault(1, [])
            base.extend(pack(fib(n + 1), n, _width) for n in range(len(base), m + 1))
            prefix, shift = base, 8 * _width
            for level in range(2, r + 1):
                lower, prefix = prefix, _conv.setdefault(level, [])
                for n in range(len(prefix), m + 1):
                    prefix.append(_conv_sum(lower, base, n, shift))
        return unpack(_conv[r][m], m, _width)


def convolved_recurrence(r: int, n: int) -> Poly:
    """Convolved polynomial F(r, n) by the three-term recurrence

        F(r, n) = F(r-1, n) + h*F(r, n-1) + F(r, n-2),   n >= 2,

    with F(r, 0) = 0, F(r, 1) = 1 and the convolution unit as row r = 0.
    The memo rows 1..r are extended in turn under the lock, without
    recursion.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        if len(_rec.get(r, ())) <= n:
            below = [ZERO, ONE] + [ZERO] * max(0, n - 1)  # row 0, the convolution unit
            for level in range(1, r + 1):
                row = _rec.setdefault(level, [ZERO, ONE])
                while len(row) <= n:
                    k = len(row)
                    row.append(below[k] + H * row[k - 1] + row[k - 2])
                below = row
        return _rec[r][n]


def derivative_identity_sides(r: int, n: int) -> tuple[Poly, Poly]:
    """Both sides of n*F(r, n+1) = r*(h*F(r+1, n) + 2*F(r+1, n-1)).

    This is the identity produced by differentiating the generating
    function, which raises the convolution order by one.  Returns
    (lhs, rhs); the identity under test is lhs == rhs.
    """
    if r < 1 or n < 1:
        raise ValueError("requires r >= 1 and n >= 1")
    lhs = n * convolved_closed_form(r, n)
    prev = convolved_closed_form(r + 1, n - 2) if n >= 2 else ZERO
    rhs = r * (H * convolved_closed_form(r + 1, n - 1) + 2 * prev)
    return lhs, rhs


def lucas_decomposition_sides(r: int, j: int) -> tuple[Poly, Poly]:
    """Both sides of the Fibonacci/Lucas decomposition of F(r, j+1),
    multiplied by (h^2+4)^(r-1) so the identity lives in Z[h].

    Returns (lhs, rhs); the identity under test is lhs == rhs.  Terms of
    even combined parity pick up a Lucas factor, odd ones a Fibonacci
    factor, and the parity condition makes every cleared exponent a
    nonnegative integer.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if j < 0:
        raise ValueError("j must be >= 0")
    lhs = convolved_closed_form(r, j) * DISC ** (r - 1)
    rhs = ZERO
    for l in range(r):
        weight = binom(r + l - 1, l) * binom(r - l + j - 1, j)
        seq = lucas if (r + l) % 2 == 0 else fib
        term = DISC ** (r - 1 - (r + l) // 2) * seq(r + j - l)
        rhs = rhs + weight * term
    return lhs, rhs
