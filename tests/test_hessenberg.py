from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfib import (
    H,
    ONE,
    ZERO,
    HessMatrix,
    Poly,
    TPoly,
    build_fib_matrix,
    char_poly,
    charpoly_shift_sides,
    convolved_closed_form,
    fib,
    hess_det,
    minor_sum_closed_form,
    principal_minor,
    sum_principal_minors,
)
import hfib.hessenberg as hessenberg
from hfib.hessenberg import _leading_minors
from hfib.poly import Dense


def naive_det(rows, zero=ZERO, one=ONE):
    """First-column cofactor expansion; the slow reference."""
    n = len(rows)
    if n == 0:
        return one
    total = zero
    for i in range(n):
        if rows[i][0]:
            minor = [row[1:] for k, row in enumerate(rows) if k != i]
            term = rows[i][0] * naive_det(minor, zero, one)
            total = total + term if i % 2 == 0 else total - term
    return total


def random_hessenberg(rng, n, max_degree=1, max_coeff=3):
    rows = []
    for i in range(n):
        row = [ZERO] * n
        for j in range(max(0, i - 1), n):
            degree = rng.randint(0, max_degree)
            row[j] = Poly([rng.randint(-max_coeff, max_coeff) for _ in range(degree + 1)])
        rows.append(row)
    return rows


def test_shape_enforced_at_construction():
    bad = [[H, ONE, ZERO], [ONE, H, ONE], [ONE, ONE, H]]  # nonzero at (3,1)
    with pytest.raises(ValueError):
        HessMatrix(bad)
    with pytest.raises(ValueError):
        HessMatrix([[H, ONE], [ONE]])
    with pytest.raises(ValueError):
        HessMatrix([])


def test_hess_matrix_is_immutable():
    m = build_fib_matrix(2)
    for name in ("entries", "n"):
        with pytest.raises(AttributeError):
            setattr(m, name, ((ONE,),))
    assert m.entries == ((H, ONE), (Poly([-1]), H))


def test_hess_matrix_is_a_value_by_its_rows():
    # equal rows make equal matrices with equal hashes; the rows are its coeffs
    rows = [[H, ONE], [Poly([-1]), H]]
    m = HessMatrix(rows)
    assert m == build_fib_matrix(2) and hash(m) == hash(build_fib_matrix(2))
    assert m != build_fib_matrix(3) and m != m.entries
    assert m.coeffs is m.entries == ((H, ONE), (Poly([-1]), H))
    assert len({m, build_fib_matrix(2), build_fib_matrix(1)}) == 2
    with pytest.raises(AttributeError):
        m.entries = ((ONE,),)
    for bad in ([[H, ONE, ZERO], [ONE, H, ONE], [ONE, ONE, H]], [[H, ONE], [ONE]], []):
        with pytest.raises(ValueError):
            HessMatrix(bad)


def test_build_fib_matrix_small():
    assert build_fib_matrix(1).entries == ((H,),)
    m = build_fib_matrix(2)
    assert m.entries == ((H, ONE), (Poly([-1]), H))
    m3 = build_fib_matrix(3)
    assert m3.entries[0] == (H, ONE, ZERO)
    assert m3.entries[1] == (Poly([-1]), H, ONE)
    assert m3.entries[2] == (ZERO, Poly([-1]), H)
    with pytest.raises(ValueError):
        build_fib_matrix(0)


def test_det_of_fib_matrix():
    assert hess_det(build_fib_matrix(2)) == Poly([1, 0, 1])
    assert hess_det(build_fib_matrix(1)) == H
    for n in range(1, 41):
        assert hess_det(build_fib_matrix(n)) == fib(n + 1), n


def test_leading_minors_of_the_largest_fib_matrix_are_every_determinant():
    # det_fib reads its larger determinants from one pass over F_110,
    # its size at the verify cap of --n-max 100
    minors = _leading_minors(build_fib_matrix(110).entries, ZERO, ONE)
    assert len(minors) == 111
    for n in range(1, 111):
        assert minors[n] == hess_det(build_fib_matrix(n)) == fib(n + 1), n


def test_det_against_naive_oracle():
    rng = random.Random(1234)
    for _ in range(80):
        n = rng.randint(1, 5)
        rows = random_hessenberg(rng, n)
        assert hess_det(HessMatrix(rows)) == naive_det(rows)


@pytest.mark.parametrize(
    "ring", [(ZERO, ONE), (TPoly(), TPoly([ONE]))], ids=["Poly", "TPoly"]
)
def test_every_leading_minor_against_naive_oracle(ring):
    # dense columns and subdiagonals drawn from 0, 1, -1 and other values
    # cover every branch of the column walk
    zero, one = ring
    rng = random.Random(2024)

    def entry(kind=None):
        kind = kind or rng.choice(["zero", "one", "minus_one", "other"])
        if kind == "zero":
            return zero
        if kind == "one":
            return one
        if kind == "minus_one":
            return -one
        c = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))])
        return c if type(one) is Poly else TPoly([c, Poly([rng.randint(-2, 2)])])

    for _ in range(120):
        n = rng.randint(1, 6)
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            if i:
                rows[i][i - 1] = entry()
            for j in range(i, n):
                rows[i][j] = entry(rng.choice([None, "other"]))
        d = _leading_minors(rows, zero, one)
        assert len(d) == n + 1
        for k in range(n + 1):
            block = [row[:k] for row in rows[:k]]
            assert d[k] == naive_det(block, zero, one), (rows, k)


def test_principal_minor_is_the_determinant_of_the_kept_submatrix():
    for n in range(1, 9):
        full = build_fib_matrix(n).entries
        for size in range(n + 1):
            for deleted in combinations(range(1, n + 1), size):
                keep = [i for i in range(n) if i + 1 not in deleted]
                kept = [[full[i][j] for j in keep] for i in keep]
                assert principal_minor(n, deleted) == naive_det(kept), (n, deleted)


def _count_poly_products(monkeypatch, call):
    calls = 0
    mul = Poly.__mul__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    value = call()
    monkeypatch.undo()
    return calls, value


def test_fib_matrix_work_is_linear(monkeypatch):
    # the band holds h, 1 and -1: one product (by h) per column
    for n in range(1, 161):
        matrix = build_fib_matrix(n)
        calls, det = _count_poly_products(monkeypatch, lambda: hess_det(matrix))
        assert calls <= n, n
        assert det == fib(n + 1), n
    rng = random.Random(5)
    cases = [
        (n, deleted)
        for n in range(1, 9)
        for size in range(n + 1)
        for deleted in combinations(range(1, n + 1), size)
    ]
    cases += [(60, sorted(rng.sample(range(1, 61), rng.randint(0, 60)))) for _ in range(40)]
    for n, deleted in cases:
        calls, _ = _count_poly_products(monkeypatch, lambda: principal_minor(n, deleted))
        assert calls <= n - len(deleted), (n, deleted)


def _kept_grid_det(n, deleted):
    """hess_det of the grid of build_fib_matrix(n) without the rows and
    columns in `deleted`; the empty grid has determinant 1."""
    full = build_fib_matrix(n).entries
    keep = [i for i in range(n) if i + 1 not in deleted]
    if not keep:
        return ONE
    return hess_det(HessMatrix([[full[i][j] for j in keep] for i in keep]))


def test_principal_minor_is_the_kernel_on_the_kept_grid():
    # principal_minor runs the continuant; the generic kernel on the kept
    # grid is the Hessenberg reading it must keep
    rng = random.Random(60)
    for _ in range(40):
        deleted = sorted(rng.sample(range(1, 61), rng.randint(0, 60)))
        assert principal_minor(60, deleted) == _kept_grid_det(60, deleted), deleted


def test_principal_minor_reads_an_iterator_once():
    expected = principal_minor(6, [2, 3, 5])
    assert expected == fib(2) * fib(1) * fib(2) * fib(2)
    assert principal_minor(6, iter([2, 3, 5])) == expected
    assert principal_minor(6, (i for i in (2, 3, 5))) == expected
    assert principal_minor(3, iter([1])) == Poly([1, 0, 1])
    with pytest.raises(ValueError):
        principal_minor(3, iter([2, 1]))


def _brute_minor_sum(n, l):
    """The sum over every deletion set, one hess_det of its kept grid each."""
    total = ZERO
    for deleted in combinations(range(1, n + 1), l):
        total = total + _kept_grid_det(n, deleted)
    return total


def test_minor_sums_walk_equals_enumeration():
    for n in range(1, 13):
        for l in range(n + 1):
            assert sum_principal_minors(n, l) == _brute_minor_sum(n, l), (n, l)


def test_minor_sums_walk_at_large_n():
    # the walk's depth is n, so it must not recurse
    assert sum_principal_minors(1500, 0) == fib(1501)
    assert sum_principal_minors(1500, 1500) == ONE
    assert sum_principal_minors(40, 1) == _brute_minor_sum(40, 1)


def test_minor_sums_walk_makes_no_ring_product(monkeypatch):
    # the continuants run on packed ints: a step is a shift and an add
    calls = 0
    mul = Dense.__mul__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(Dense, "__mul__", counted)
    monkeypatch.setattr(Dense, "__rmul__", counted)
    sums = [sum_principal_minors(n, l) for n in range(1, 13) for l in range(n)]
    monkeypatch.undo()
    assert calls == 0
    assert sums[-1] == convolved_closed_form(12, 1)


def test_minor_sums_width_is_at_most_one_byte_spare(monkeypatch):
    # the width holds C(n, l) * F(n - l + 1), and the largest coefficient
    # of the sum needs at most one byte less
    widths = []
    unpack = hessenberg.unpack

    def recorded(packed, n, width):
        widths.append(width)
        return unpack(packed, n, width)

    monkeypatch.setattr(hessenberg, "unpack", recorded)
    for n in range(1, 13):
        for l in range(n + 1):
            widths.clear()
            total = sum_principal_minors(n, l)
            assert len(widths) == 1  # one unpack per call
            need = (max(total.coeffs).bit_length() + 7) // 8
            assert need <= widths[0] <= need + 1, (n, l, widths[0], need)


def test_weighted_recurrence_oracle():
    # a general Hessenberg matrix with -1 subdiagonal computes the
    # terms of the weighted recurrence a(m+1) = sum of p[i][m] * a(i)
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 6)
        p = [[Poly([rng.randint(-3, 3)]) for _ in range(n)] for _ in range(n)]
        rows = []
        for i in range(n):
            row = [ZERO] * n
            for j in range(i, n):
                row[j] = p[i][j]
            if i > 0:
                row[i - 1] = Poly([-1])
            rows.append(row)
        seq = [ONE]
        for m in range(1, n + 1):
            acc = ZERO
            for i in range(1, m + 1):
                acc = acc + p[i - 1][m - 1] * seq[i - 1]
            seq.append(acc)
        assert hess_det(HessMatrix(rows)) == seq[n]


def test_weighted_recurrence_scales_with_seed_value():
    rng = random.Random(7)
    n = 4
    p = [[Poly([rng.randint(-2, 2)]) for _ in range(n)] for _ in range(n)]
    rows = []
    for i in range(n):
        row = [ZERO] * n
        for j in range(i, n):
            row[j] = p[i][j]
        if i > 0:
            row[i - 1] = Poly([-1])
        rows.append(row)
    det = hess_det(HessMatrix(rows))
    for a1 in (1, 3):
        seq = [Poly([a1])]
        for m in range(1, n + 1):
            acc = ZERO
            for i in range(1, m + 1):
                acc = acc + p[i - 1][m - 1] * seq[i - 1]
            seq.append(acc)
        assert seq[n] == Poly([a1]) * det


def test_principal_minor_examples():
    # deleting row/column 2 from the order-4 matrix leaves a 3x3 block
    # with determinant h * (h^2 + 1)
    assert principal_minor(4, [2]) == Poly([0, 1, 0, 1])
    assert principal_minor(4, [2]) == fib(2) * fib(3)
    assert principal_minor(3, [1]) == Poly([1, 0, 1])
    assert principal_minor(3, [1]) == fib(1) * fib(3)
    assert principal_minor(3, [1, 2, 3]) == ONE


def test_principal_minor_validation():
    with pytest.raises(ValueError):
        principal_minor(3, [0])
    with pytest.raises(ValueError):
        principal_minor(3, [2, 2])
    with pytest.raises(ValueError):
        principal_minor(3, [4])
    with pytest.raises(ValueError):
        principal_minor(3, [3, 1])
    with pytest.raises(ValueError):
        principal_minor(3, [1.5])
    with pytest.raises(ValueError):
        principal_minor(3, [1, 2.0])
    with pytest.raises(ValueError):
        principal_minor(3, [True])  # not read as index 1
    with pytest.raises(ValueError):
        principal_minor(3, [1, True])

    class Index(int):  # check_size's rule: an index is of type int itself
        pass

    with pytest.raises(ValueError):
        principal_minor(3, [Index(2)])
    with pytest.raises(ValueError):
        principal_minor(3, [1, Index(3)])


def test_minor_product_formula_full_enumeration():
    for n in range(1, 11):
        for size in range(n + 1):
            for deleted in combinations(range(1, n + 1), size):
                product = ONE
                prev = 0
                for i in deleted:
                    product = product * fib(i - prev)
                    prev = i
                product = product * fib(n - prev + 1)
                assert principal_minor(n, deleted) == product, (n, deleted)


def test_sum_principal_minors_examples():
    assert sum_principal_minors(3, 1) == Poly([2, 0, 3])
    assert sum_principal_minors(2, 0) == Poly([1, 0, 1])
    assert sum_principal_minors(4, 3) == Poly([0, 4])
    assert sum_principal_minors(4, 3) == convolved_closed_form(4, 1)


def test_minor_sums_equal_convolved():
    for n in range(1, 13):
        for l in range(n):
            assert sum_principal_minors(n, l) == convolved_closed_form(l + 1, n - l), (n, l)


def test_char_poly_small():
    assert char_poly(1) == TPoly([-H, ONE])
    assert str(char_poly(1)) == "t - h"
    cp2 = char_poly(2)
    assert cp2 == TPoly([Poly([1, 0, 1]), Poly([0, -2]), ONE])
    assert str(cp2) == "t^2 - 2ht + (h^2 + 1)"


def test_char_poly_coefficient_signs():
    for n in range(1, 13):
        cp = char_poly(n)
        assert cp.degree == n
        assert cp.coefficient(n) == ONE
        for l in range(n + 1):
            expected = convolved_closed_form(l + 1, n - l)
            if (n - l) % 2:
                expected = -expected
            assert cp.coefficient(l) == expected, (n, l)


def test_char_poly_is_the_hessenberg_determinant_of_t_minus_f():
    # char_poly runs the continuant; the generic kernel on the full grid
    # of t*I - F_n is the Hessenberg reading it must keep
    entry = {-1: TPoly([ONE]), 0: TPoly([-H, ONE]), 1: TPoly([-ONE])}
    for n in range(1, 31):
        rows = [[entry.get(j - i, TPoly()) for j in range(n)] for i in range(n)]
        assert char_poly(n) == _leading_minors(rows, TPoly(), TPoly([ONE]))[-1], n


def tpoly_continuant(n):
    """det(t*I - F_n) by the continuant d_k = (t - h)*d_(k-1) + d_(k-2)
    over TPoly, a product by t as a shift of the coefficient list and
    one by h as a Poly product: the reference for the packed-int loop of
    char_poly.
    """
    prev, cur = TPoly(), TPoly([ONE])
    for _ in range(n):
        h_cur = TPoly([H * c for c in cur.coeffs])
        prev, cur = cur, TPoly([ZERO, *cur.coeffs]) + prev - h_cur
    return cur


CHAR_POLY_ORDERS = [*range(1, 41), 120, 300]  # 300 is the CLI cap, where the width is largest


def test_char_poly_equals_the_tpoly_continuant():
    for n in CHAR_POLY_ORDERS:
        assert char_poly(n) == tpoly_continuant(n), n


def test_char_poly_absolute_coefficients_sum_to_pell():
    # sum |c| = g_n(1, 1) for the sign-folded continuant g_k = (t + h)g_(k-1) + g_(k-2),
    # the Pell number P(n+1): the bound the packing width is taken from.
    # At 119, 126 and 289 its bit length is a multiple of 8, so it fills
    # the w bytes of a slot, and a carry across a slot would break the sum.
    # 258 and 277 are the largest orders up to the cap where the largest
    # coefficient of g_n itself needs the last byte of its slot
    # (321 bits at w = 41, 345 at w = 44), so a width one byte short fails there
    orders = [*CHAR_POLY_ORDERS, 119, 126, 258, 277, 289]
    pell = [0, 1]
    while len(pell) <= max(orders) + 1:
        pell.append(2 * pell[-1] + pell[-2])
    for n in orders:
        total = sum(abs(c) for coeff in char_poly(n).coeffs for c in coeff.coeffs)
        assert total == pell[n + 1], n


def test_build_fib_matrix_is_the_tridiagonal_band():
    assert build_fib_matrix(1).entries == ((H,),)
    assert build_fib_matrix(3).entries == (
        (H, ONE, ZERO),
        (Poly([-1]), H, ONE),
        (ZERO, Poly([-1]), H),
    )


def test_charpoly_shift_sides():
    lhs, rhs = charpoly_shift_sides(1)
    assert lhs == rhs == TPoly([-H, ONE])
    lhs, rhs = charpoly_shift_sides(2)
    assert lhs == rhs == TPoly([Poly([1, 0, 1]), Poly([0, -2]), ONE])
    lhs, rhs = charpoly_shift_sides(3)
    shift = TPoly([-H, ONE])
    assert rhs == shift**3 + 2 * shift
    assert lhs == rhs
    for n in range(1, 13):
        lhs, rhs = charpoly_shift_sides(n)
        assert lhs == rhs, n


def test_minor_sum_closed_form_examples():
    assert minor_sum_closed_form(2, 1) == Poly([0, 2])
    assert str(minor_sum_closed_form(5, 0)) == "h^5 + 4h^3 + 3h"
    assert minor_sum_closed_form(4, 2) == Poly([3, 0, 6])


def test_minor_sum_closed_form_sweep():
    for n in range(1, 21):
        for l in range(n + 1):
            assert minor_sum_closed_form(n, l) == convolved_closed_form(l + 1, n - l), (n, l)


def test_tpoly_arithmetic_and_rendering():
    zero = TPoly()
    assert not zero and zero.degree is None
    assert str(zero) == "0"
    p = TPoly([Poly([0, 2]), -ONE])  # -t + 2h
    assert str(p) == "-t + 2h"
    q = TPoly([Poly([-1]), ZERO, ONE])
    assert str(q) == "t^2 - 1"
    assert not p + (-p)
    assert p * TPoly([ONE]) == p
    assert TPoly([ONE, ONE]) ** 2 == TPoly([ONE, Poly([2]), ONE])


def test_tpoly_rendering_pulls_signs_and_parenthesizes():
    assert str(TPoly([Poly([-1, 0, -1]), ONE])) == "t - (h^2 + 1)"
    assert str(TPoly([Poly([3, -2])])) == "-(2h - 3)"
    assert str(TPoly([ZERO, Poly([1, 1]), H])) == "ht^2 + (h + 1)t"
    assert str(TPoly([ZERO, ZERO, ZERO, -ONE])) == "-t^3"
    assert str(TPoly([Poly([-5]), ONE, ONE])) == "t^2 + t - 5"
    assert repr(TPoly()) == "TPoly('0')"
    assert repr(Poly([1, 1])) == "Poly('h + 1')"


def test_tpoly_json():
    cp = char_poly(2)
    assert cp.to_json() == [["1", "0", "1"], ["0", "-2"], ["1"]]


small_polys = st.lists(st.integers(min_value=-20, max_value=20), max_size=4).map(Poly)
tpolys = st.lists(small_polys, max_size=5).map(TPoly)


@given(tpolys, tpolys, tpolys)
def test_tpoly_ring_axioms(p, q, w):
    assert (p + q) + w == p + (q + w)
    assert p + q == q + p
    assert (p * q) * w == p * (q * w)
    assert p * q == q * p
    assert p * (q + w) == p * q + p * w
    assert p + TPoly() == p
    assert p * TPoly([ONE]) == p
    assert (p - q) + q == p


@given(tpolys, st.integers(min_value=0, max_value=5))
def test_tpoly_pow_is_repeated_product(p, k):
    expected = TPoly([ONE])
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def test_tpoly_times_poly_or_int_is_a_scalar_product():
    p = TPoly([H, Poly([-1]), ONE])  # t^2 - t + h
    scaled = TPoly([H * H, -H, H])
    assert p * H == scaled
    assert H * p == scaled
    assert p * 3 == TPoly([Poly([0, 3]), Poly([-3]), Poly([3])])
    assert 3 * p == p * 3
    assert p * 0 == TPoly()
