"""Upper-Hessenberg determinants over Z[h] and what they compute.

The tridiagonal matrix with h on the diagonal, 1 above and -1 below has
the Fibonacci polynomials as determinants, the convolved family as
principal-minor sums, and characteristic-polynomial coefficients that
are again convolved polynomials up to sign.  The determinant kernel is
the last-column Hessenberg expansion, generic in the entry ring: it
walks each column only from the diagonal up to its first nonzero row
and multiplies by no unit entry, so it costs n ring multiplications on
the Fibonacci matrix and O(n^2) on a dense one.
The principal submatrices of the Fibonacci matrix and t*I - F_n are
tridiagonal, so their determinants are continuants, one step per
index, and the kernel serves hess_det alone.  char_poly runs its
continuant on ints, one per power of t, in the ring core's packed
layout of Z[h] at a byte width that a Pell number bounds: a step is
shifts and adds, with no product and no Poly until the end.  The
principal-minor sums reuse the leading minors of the kept prefix each
set shares with the one before: one product per new kept index.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .poly import H, ONE, ZERO, Poly, TPoly, binom, unpack


class IndexOutOfRange(IndexError):
    """A deletion index is not an int, or the list is not strictly
    increasing inside 1..n."""


class HessMatrix:
    """Square matrix of Poly entries with zeros below the subdiagonal."""

    __slots__ = ("entries",)

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
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HessMatrix is immutable")


def _leading_minors(rows, zero, one):
    """Leading minors d[0..n] of the upper-Hessenberg grid `rows`, by
    last-column expansion.

    d[k + 1] finds the first nonzero row `top` of column k, then walks
    the column from the diagonal up to it, carrying the product of the
    subdiagonal entries rows[i][i-1] passed and a sign that turns at
    each of them; a zero entry there kills every remaining term.  A
    subdiagonal entry of one or minus one only sets the sign, and an
    entry of one adds d[i] itself, so neither costs a product.  Works
    over any commutative ring element type with +, -, * and ==.
    """
    minus_one = -one
    d = [one]
    for k in range(len(rows)):
        top = 0
        while top < k and not rows[top][k]:
            top += 1
        acc = zero
        prod = None  # product of the subdiagonal entries passed; None is one
        positive = True
        for i in range(k, top - 1, -1):
            e = rows[i][k]
            if e:
                if prod is None:
                    term = d[i] if e == one else e * d[i]
                else:
                    term = prod * d[i] if e == one else e * prod * d[i]
                acc = acc + term if positive else acc - term
            if i > top:
                s = rows[i][i - 1]
                if not s:
                    break
                if s != minus_one:  # minus one's sign cancels the turn
                    if s != one:
                        prod = s if prod is None else prod * s
                    positive = not positive
        d.append(acc)
    return d


def hess_det(a: HessMatrix) -> Poly:
    """Exact determinant.  Each column is walked from the diagonal up to
    its first nonzero row, with no product for a unit entry: n products
    for the Fibonacci matrix, O(n^2) on a dense matrix.
    """
    return _leading_minors(a.entries, ZERO, ONE)[-1]


# subdiagonal, diagonal and superdiagonal of the Fibonacci matrix
_FIB_BAND = (Poly([-1]), H, ONE)


def build_fib_matrix(n: int) -> HessMatrix:
    """Tridiagonal n x n matrix: diagonal h, superdiagonal 1, subdiagonal -1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    padded = [ZERO] * n + list(_FIB_BAND) + [ZERO] * n  # each row is a window of it
    return HessMatrix([padded[n + 1 - i : 2 * n + 1 - i] for i in range(n)])


def _kept_minors(d: list, kept: Sequence[int], start: int) -> list:
    """Extend d, the leading minors d[0..start] of the Fibonacci matrix
    kept at the increasing 1-based indices `kept`, over kept[start:].

    The kept submatrix is again tridiagonal: diagonal h, and the band
    entries 1 above and -1 below only between two kept indices that are
    adjacent.  So its leading minors are the continuant
    d_k = h*d_(k-1) + d_(k-2), without the last term where the k-th kept
    index does not follow the one before: one product per kept index.
    """
    for k in range(start, len(kept)):
        step = H * d[-1]
        if k and kept[k] == kept[k - 1] + 1:
            step = step + d[-2]
        d.append(step)
    return d


def principal_minor(n: int, deleted: Iterable[int]) -> Poly:
    """Determinant of the Fibonacci matrix with the 1-based rows and
    columns in `deleted` removed (the empty matrix has determinant 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    deleted = tuple(deleted)
    prev = 0
    for i in deleted:
        if not (isinstance(i, int) and prev < i <= n):
            raise IndexOutOfRange(f"deletion indices must be strictly increasing ints in 1..{n}")
        prev = i
    gone = set(deleted)
    kept = [i for i in range(1, n + 1) if i not in gone]
    return _kept_minors([ONE], kept, 0)[-1]


def sum_principal_minors(n: int, l: int) -> Poly:
    """Sum of all C(n, l) principal minors of order n - l.

    Every deletion set is visited: its kept indices come from
    combinations() in lexicographic order, so each set shares its
    longest common prefix with the one before, and d keeps the leading
    minors of that prefix and extends them over the rest.  Nothing is
    merged across sets, and nothing recurses.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= l <= n:
        raise ValueError("l must be in 0..n")
    total, d, prev = ZERO, [ONE], ()
    for kept in combinations(range(1, n + 1), n - l):
        start = 0
        while start < len(prev) and kept[start] == prev[start]:
            start += 1
        del d[start + 1 :]
        total = total + _kept_minors(d, kept, start)[-1]
        prev = kept
    return total


def char_poly(n: int) -> TPoly:
    """det(t*I - F_n) over the TPoly ring; monic of degree n.

    t*I - F_n has diagonal t - h, superdiagonal -1 and subdiagonal 1, so
    its leading minors obey the continuant d_k = (t - h)*d_(k-1) + d_(k-2)
    from d_0 = 1, d_(-1) = 0.  With t turned to -t, g_k(t, h) =
    (-1)^k * d_k(-t, h) obeys g_k = (t + h)*g_(k-1) + g_(k-2), which has
    no minus sign: every coefficient of every g_k is nonnegative, and
    [t^l] d_n = (-1)^(n-l) * [t^l] g_n.

    The loop runs on ints: [t^l] g_k has only the powers h^(k-l-2i), so
    it is held in the ring core's layout as pack(., k - l, w), w bytes
    per coefficient.  A product by t is then a shift of the index l, and
    one by h a shift by 8w bits where k - l is even (it raises an odd
    power to an even one) and nothing where it is odd: a step is
    nxt[l] = (cur[l] << 8w if k - l is even else cur[l]) + cur[l-1] + prev[l],
    with no product at all.

    Packing is exact: a coefficient of g_k is at most g_k(1, 1), which
    obeys p_k = 2*p_(k-1) + p_(k-2) from p_0 = 1, p_(-1) = 0 -- the Pell
    number P(k+1) -- and grows with k, so every coefficient met for
    k <= n is at most P(n+1) < 2^(8w) for the fewest such bytes w.
    Each partial sum of a step is coefficientwise between 0 and the g_k
    it makes, so no carry crosses into the next packed coefficient.  g_n
    is unpacked once, with the sign (-1)^(n-l) on [t^l].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pell, before = 1, 0
    for _ in range(n):
        pell, before = 2 * pell + before, pell
    width = (pell.bit_length() + 7) // 8
    shift = 8 * width
    prev, cur = [], [1]
    for k in range(1, n + 1):
        lifted = cur + [0]
        lifted[k % 2::2] = [a << shift for a in lifted[k % 2::2]]  # the l with k - l even
        prev, cur = cur, [a + b + c for a, b, c in zip(lifted, [0] + cur, prev + [0, 0])]
    return TPoly(-unpack(x, n - l, width) if (n - l) % 2 else unpack(x, n - l, width)
                 for l, x in enumerate(cur))


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
    rhs = TPoly()
    for i in range(n // 2 + 1):
        rhs = rhs + binom(n - i, i) * shift ** (n - 2 * i)
    return char_poly(n), rhs
