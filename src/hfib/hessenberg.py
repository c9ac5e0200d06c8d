"""Upper-Hessenberg determinants over Z[h] and what they compute.

The tridiagonal matrix with h on the diagonal, 1 above and -1 below has
the Fibonacci polynomials as determinants, the convolved family as
principal-minor sums, and characteristic-polynomial coefficients that
are again convolved polynomials up to sign.  The determinant kernel is
the last-column Hessenberg expansion, O(n^2) ring multiplications,
generic in the entry ring; the characteristic polynomial, whose matrix
is tridiagonal, takes the continuant of its leading minors instead.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .poly import H, ONE, T_ONE, T_ZERO, ZERO, Poly, TPoly, binom


class IndexOutOfRange(IndexError):
    """A deletion index list is not strictly increasing inside 1..n."""


class HessMatrix:
    """Square matrix of Poly entries with zeros below the subdiagonal."""

    __slots__ = ("n", "entries")

    n: int
    entries: tuple[tuple[Poly, ...], ...]

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        n = len(entries)
        if n < 1:
            raise ValueError("matrix must be at least 1x1")
        rows = []
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError("matrix must be square")
            for j in range(i - 1):
                if row[j]:
                    raise ValueError(
                        f"entry ({i + 1},{j + 1}) below the subdiagonal is nonzero"
                    )
            rows.append(tuple(row))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HessMatrix is immutable")


def _hess_det_generic(rows, zero, one):
    """Determinant of an upper-Hessenberg grid by last-column expansion.

    d[k] is the leading k x k determinant; the column-k sum walks rows
    k..1, carrying the alternating-sign product of subdiagonal entries.
    A zero subdiagonal entry kills every remaining term of the column.
    Works over any commutative ring element type with +, -, *.
    """
    n = len(rows)
    d = [one]
    for k in range(1, n + 1):
        col = k - 1
        acc = zero
        prod = one
        positive = True
        for i in range(k, 0, -1):
            e = rows[i - 1][col]
            if e:
                term = e * prod * d[i - 1]
                acc = acc + term if positive else acc - term
            if i > 1:
                sub = rows[i - 1][i - 2]
                if not sub:
                    break
                prod = prod * sub
                positive = not positive
        d.append(acc)
    return d[n]


def hess_det(a: HessMatrix) -> Poly:
    """Exact determinant, O(n^2) Poly multiplications."""
    return _hess_det_generic(a.entries, ZERO, ONE)


def build_fib_matrix(n: int) -> HessMatrix:
    """Tridiagonal n x n matrix: diagonal h, superdiagonal 1, subdiagonal -1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    padded = [ZERO] * n + [Poly([-1]), H, ONE] + [ZERO] * n  # each row is a window of it
    return HessMatrix([padded[n + 1 - i : 2 * n + 1 - i] for i in range(n)])


@lru_cache(maxsize=16)
def _fib_entries(n: int) -> tuple[tuple[Poly, ...], ...]:
    """Entries of build_fib_matrix(n), built and validated once per n for
    the minor enumerations, which take up to 2^n minors of one matrix.
    """
    return build_fib_matrix(n).entries


def principal_minor(n: int, deleted: Sequence[int]) -> Poly:
    """Determinant of the Fibonacci matrix with the 1-based rows and
    columns in `deleted` removed (the empty matrix has determinant 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prev = 0
    for i in deleted:
        if not prev < i <= n:
            raise IndexOutOfRange(f"deletion indices must be strictly increasing in 1..{n}")
        prev = i
    gone = set(deleted)
    keep = [i for i in range(1, n + 1) if i not in gone]
    full = _fib_entries(n)
    rows = [[full[i - 1][j - 1] for j in keep] for i in keep]
    return _hess_det_generic(rows, ZERO, ONE)


def sum_principal_minors(n: int, l: int) -> Poly:
    """Sum of all C(n, l) principal minors of order n - l, by direct
    enumeration of the deletion sets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= l <= n:
        raise ValueError("l must be in 0..n")
    total = ZERO
    for deleted in combinations(range(1, n + 1), l):
        total = total + principal_minor(n, deleted)
    return total


def char_poly(n: int) -> TPoly:
    """det(t*I - F_n) over the TPoly ring; monic of degree n.

    t*I - F_n has diagonal t - h, superdiagonal -1 and subdiagonal 1, so
    its leading minors obey the continuant d_k = (t - h)*d_(k-1) + d_(k-2)
    from d_0 = 1, d_(-1) = 0; the products by t and by h are shifts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prev, cur = T_ZERO, T_ONE
    for _ in range(n):
        h_cur = TPoly([c.shift(1) for c in cur.coeffs])
        prev, cur = cur, cur.shift(1) + prev - h_cur
    return cur


def minor_sum_closed_form(n: int, l: int) -> Poly:
    """Convolved polynomial F(l+1, n-l+1) as the double-binomial sum
    read off the characteristic polynomial: sum over i of
    C(n-i, i) * C(n-2i, l) * h^(n-2i-l).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= l <= n:
        raise ValueError("l must be in 0..n")
    coeffs = [0] * (n - l + 1)
    for i in range((n - l) // 2 + 1):
        coeffs[n - 2 * i - l] += binom(n - i, i) * binom(n - 2 * i, l)
    return Poly(coeffs)


def charpoly_shift_sides(n: int) -> tuple[TPoly, TPoly]:
    """(char_poly(n), classical Fibonacci expansion with t-h substituted).

    The second component is sum over i of C(n-i, i) * (t-h)^(n-2i);
    equality of the pair says the characteristic polynomial is the
    plain Fibonacci polynomial shifted by h.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shift = TPoly([-H, ONE])
    rhs = T_ZERO
    for i in range(n // 2 + 1):
        rhs = rhs + binom(n - i, i) * shift ** (n - 2 * i)
    return char_poly(n), rhs
