"""Upper-Hessenberg determinants over Z[h] and what they compute.

The tridiagonal matrix with h on the diagonal, 1 above and -1 below has
the Fibonacci polynomials as determinants, the convolved family as
principal-minor sums, and characteristic-polynomial coefficients that
are again convolved polynomials up to sign.  The determinant kernel is
the last-column Hessenberg expansion, generic in the entry ring: it
walks each column only from the diagonal up to its first nonzero row
and multiplies by no unit entry, so it costs n ring multiplications on
the Fibonacci matrix and O(n^2) on a dense one.
The kernel serves hess_det and verify's det_fib check, and tests run
it over TPoly as char_poly's reference.  The principal submatrices of
the Fibonacci matrix and t*I - F_n are tridiagonal, so their
determinants are continuants, one step per index.  char_poly runs its
continuant on ints, one per power of t, in the ring core's packed
layout of Z[h] at a byte width that a Pell number bounds: a step is
shifts and adds, with no product and no Poly until the end.  The
principal minors run their continuant on ints in the same layout, and
the principal-minor sums reuse the leading minors of the kept prefix
each set shares with the one before: a new kept index costs a shift
and an add, and each call unpacks once.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .poly import H, ONE, ZERO, Poly, TPoly, Value, binom, check_size, unpack


class HessMatrix(Value):
    """Square matrix of Poly entries with zeros below the subdiagonal,
    stored as coeffs, the tuple of its rows, each a tuple of Poly."""

    __slots__ = ()

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
        object.__setattr__(self, "coeffs", tuple(rows))

    entries = property(lambda self: self.coeffs, doc="The rows, each a tuple of Poly.")


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
    check_size("n", n, 1)
    padded = [ZERO] * n + list(_FIB_BAND) + [ZERO] * n  # each row is a window of it
    return HessMatrix([padded[n + 1 - i : 2 * n + 1 - i] for i in range(n)])


def _width(n: int, l: int, sets: int) -> int:
    """The fewest bytes that hold sets * F(n - l + 1), F the Fibonacci
    number: the packing width of a sum of `sets` principal minors of
    order n - l of the n x n Fibonacci matrix.

    A principal minor is the product of the continuants of its runs of
    kept indices, and the continuant of a run of length a is the
    Fibonacci polynomial F_(a+1), whose coefficients are nonnegative
    and at most its value F(a+1) at h = 1.  As F(a+b+1) = F(a+1)F(b+1)
    + F(a)F(b) >= F(a+1)F(b+1), a minor of order n - l is at most
    F(n - l + 1) at h = 1, and so is each of its leading minors; a sum
    of `sets` of them has every coefficient at most sets * F(n - l + 1).
    """
    fib, before = 1, 0
    for _ in range(n - l):
        fib, before = fib + before, fib
    return ((sets * fib).bit_length() + 7) // 8


def _kept_minors(d: list, kept: Sequence[int], start: int, shift: int) -> list:
    """Extend d, the packed leading minors d[0..start] of the Fibonacci
    matrix kept at the increasing 1-based indices `kept`, over
    kept[start:].

    The kept submatrix is again tridiagonal: diagonal h, and the band
    entries 1 above and -1 below only between two kept indices that are
    adjacent.  So its leading minors are the continuant
    d_k = h*d_(k-1) + d_(k-2), without the last term where the k-th kept
    index does not follow the one before.  d_k has only the powers
    h^(k-2i), and is held as pack(d_k, k, w) with shift = 8w: a product
    by h raises an odd power to an even one, a shift of one packed
    coefficient where k is even, and nothing where k is odd.  A step is
    a shift and an add, and as each partial sum is coefficientwise
    between 0 and the d_k it makes, no carry crosses a coefficient.
    """
    for k in range(start, len(kept)):
        step = d[-1] << shift if k % 2 else d[-1]  # the new order is k + 1
        if k and kept[k] == kept[k - 1] + 1:
            step += d[-2]
        d.append(step)
    return d


def principal_minor(n: int, deleted: Iterable[int]) -> Poly:
    """Determinant of the Fibonacci matrix with the 1-based rows and
    columns in `deleted` removed (the empty matrix has determinant 1).
    The indices must be strictly increasing ints in 1..n.
    """
    check_size("n", n, 1)
    deleted = tuple(deleted)
    prev = 0
    for i in deleted:
        check_size("deleted index", i, prev + 1, n)
        prev = i
    gone = set(deleted)
    kept = [i for i in range(1, n + 1) if i not in gone]
    width = _width(n, len(deleted), 1)
    return unpack(_kept_minors([1], kept, 0, 8 * width)[-1], len(kept), width)


def sum_principal_minors(n: int, l: int) -> Poly:
    """Sum of all C(n, l) principal minors of order n - l.

    Every deletion set is visited: its kept indices come from
    combinations() in lexicographic order, so each set shares its
    longest common prefix with the one before, and d keeps the packed
    leading minors of that prefix and extends them over the rest.  Each
    minor is added to the packed total, which _width sizes for all
    C(n, l) of them and which is unpacked once.  Nothing is merged
    across sets, and nothing recurses.
    """
    check_size("n", n, 1)
    check_size("l", l, 0, n)
    width = _width(n, l, binom(n, l))
    total, d, prev = 0, [1], ()
    for kept in combinations(range(1, n + 1), n - l):
        start = 0
        while start < len(prev) and kept[start] == prev[start]:
            start += 1
        del d[start + 1 :]
        total += _kept_minors(d, kept, start, 8 * width)[-1]
        prev = kept
    return unpack(total, n - l, width)


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
    check_size("n", n, 1)
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
    check_size("n", n, 1)
    check_size("l", l, 0, n)
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
    check_size("n", n, 1)
    shift = TPoly([-H, ONE])
    rhs = TPoly()
    for i in range(n // 2 + 1):
        rhs = rhs + binom(n - i, i) * shift ** (n - 2 * i)
    return char_poly(n), rhs
