"""The polynomial sequences and the independent routes to them.

fib/lucas are the generalized Fibonacci and Lucas polynomials in the
formal symbol h (specialize afterwards by evaluation: p(1) gives
Fibonacci numbers, p(2) Pell numbers, and so on).  The convolved
family, coefficient j of (1 - h*t - t^2)^(-r), is computed three
different ways here -- a double-binomial closed form, r-fold sequence
convolution, and a three-term recurrence in (r, n) -- so that the
routes can be checked against each other and against the series and
minor-sum routes in their own modules.  The convolution and recurrence
routes return the whole table up to order r, which they build anyway.
The convolution route works on Python ints: each term has only every
other power of h, and its nonzero half is held in the ring core's
packed layout (poly.pack) at one byte width for the whole table, taken
from a Fibonacci bound that provably holds every coefficient, so a
product of two packed terms is one int product.

The only module state is the memo of fib and lucas, which only grows
and is extended under one re-entrant lock; the routes keep no state,
and all observable behavior is pure.
"""
from __future__ import annotations

import math
import threading
from operator import mul

from .poly import DISC, H, ONE, ZERO, Poly, QuadExt, binom, check_size, pack, unpack

_lock = threading.RLock()
_fib: list[Poly] = [ZERO, ONE]
_lucas: list[Poly] = [Poly([2]), H]


def _memo(table: list[Poly], n: int) -> Poly:
    """table[n] of x(k) = h*x(k-1) + x(k-2), extending the memo under the lock."""
    check_size("n", n, 0)
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
    check_size("n", n, 0)
    plus = QuadExt(H, ONE) ** n
    minus = QuadExt(H, -ONE) ** n
    return plus - minus, plus + minus


def convolved_closed_form(r: int, j: int) -> Poly:
    """Convolved polynomial F(r, j+1) as the double-binomial sum

        F(r, j+1) = sum over l = 0..j//2 of C(j+r-l-1, j-l) * C(j-l, l) * h^(j-2l).

    The terms are made in turn from c_0 = C(j+r-1, j) by their ratio

        c_(l+1) / c_l = (j-2l)(j-2l-1) / ((l+1)(j+r-1-l)),

    the product of C(j+r-l-2, j-l-1) / C(j+r-l-1, j-l) = (j-l) / (j+r-1-l)
    and C(j-l-1, l+1) / C(j-l, l) = (j-2l)(j-2l-1) / ((l+1)(j-l)).  The
    integer division is exact: its quotient is c_(l+1), an integer, so
    c_l times the numerator is c_(l+1) times the denominator.
    """
    check_size("r", r, 1)
    check_size("j", j, 0)
    coeffs = [0] * (j + 1)
    coeffs[j] = c = math.comb(j + r - 1, j)
    for l in range(j // 2):
        c = c * (j - 2 * l) * (j - 2 * l - 1) // ((l + 1) * (j + r - 1 - l))
        coeffs[j - 2 * l - 2] = c
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


def convolved_convolution(r: int, m: int) -> list[list[Poly]]:
    """Convolved polynomials by r-fold discrete convolution: table[k-1][i]
    is F(k, i+1) for 1 <= k <= r and 0 <= i <= m.

    Level 1 is fib(1..m+1), and level k is the convolution of level k-1
    with level 1, built term by term by _conv_sum on parity-halved terms
    packed into ints (poly.pack): no Poly product is made, and the
    levels are walked in turn, so any r works without recursion.  Term n
    of a level costs n + 1 int products, so one call costs
    (r-1)(m+1)(m+2)/2 of them.

    Packing is exact at one width for the whole table.  Every
    coefficient of term n at level k is nonnegative and at most the
    term's value at h = 1, the coefficient of t^n in (1 - t - t^2)^(-k):
    the sum, over the C(n+k-1, n) weak compositions i_1 + ... + i_k = n,
    of the product of the Fibonacci numbers F(i_j + 1).  As
    F(a+b+1) = F(a+1)F(b+1) + F(a)F(b) >= F(a+1)F(b+1), each product
    is at most F(n+1), so the coefficient is at most C(n+k-1, n)F(n+1),
    which grows with n and with k.  So the fewest bytes that hold
    C(m+r-1, m)F(m+1), with F(m+1) read from the base as table[0][m](1),
    hold every coefficient of the table; and as each product and each
    partial sum in _conv_sum is coefficientwise between 0 and the term
    it builds, no carry crosses into the next packed coefficient.  The
    base is packed once, and each level is summed and unpacked at that
    width.
    """
    check_size("r", r, 1)
    check_size("m", m, 0)
    table = [[fib(n + 1) for n in range(m + 1)]]
    width = ((math.comb(m + r - 1, m) * table[0][m](1)).bit_length() + 7) // 8
    base = lower = [pack(p, n, width) for n, p in enumerate(table[0])]
    for _ in range(r - 1):
        lower = [_conv_sum(lower, base, n, 8 * width) for n in range(m + 1)]
        table.append([unpack(x, n, width) for n, x in enumerate(lower)])
    return table


def convolved_recurrence(r: int, n: int) -> list[list[Poly]]:
    """Convolved polynomials by the three-term recurrence: rows[k-1][i]
    is F(k, i) for 1 <= k <= r and 0 <= i <= n, where

        F(k, i) = F(k-1, i) + h*F(k, i-1) + F(k, i-2),   i >= 2,

    with F(k, 0) = 0, F(k, 1) = 1 and the convolution unit as row k = 0.
    The rows are built in turn, without recursion.
    """
    check_size("r", r, 1)
    check_size("n", n, 0)
    rows = [[ZERO, ONE] + [ZERO] * (n - 1)]  # row 0, the convolution unit
    for _ in range(r):
        row = [ZERO, ONE][:n + 1]
        for i in range(2, n + 1):
            row.append(rows[-1][i] + H * row[i - 1] + row[i - 2])
        rows.append(row)
    return rows[1:]


def derivative_identity_sides(r: int, n: int) -> tuple[Poly, Poly]:
    """Both sides of n*F(r, n+1) = r*(h*F(r+1, n) + 2*F(r+1, n-1)).

    This is the identity produced by differentiating the generating
    function, which raises the convolution order by one.  Returns
    (lhs, rhs); the identity under test is lhs == rhs.
    """
    check_size("r", r, 1)
    check_size("n", n, 1)
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
    check_size("r", r, 1)
    check_size("j", j, 0)
    disc = [ONE]  # DISC^0..DISC^(r-1), every power the sides use
    for _ in range(r - 1):
        disc.append(disc[-1] * DISC)
    lhs = convolved_closed_form(r, j) * disc[r - 1]
    rhs = ZERO
    for l in range(r):
        weight = binom(r + l - 1, l) * binom(r - l + j - 1, j)
        seq = lucas if (r + l) % 2 == 0 else fib
        term = disc[r - 1 - (r + l) // 2] * seq(r + j - l)
        rhs = rhs + weight * term
    return lhs, rhs
