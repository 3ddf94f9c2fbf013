import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st
from test_fps import schoolbook_mul

from stirlingb.fps import FormalPowerSeries as FPS
from stirlingb.riordan import (
    ExpRiordanArray,
    make_triangle_B,
    production_rebuild,
    unsigned_conjugate,
)
from stirlingb.sequences import (
    _d_series,
    inverse_triangle_rec,
    triangle_ge2_alt_rec,
    triangle_ge2_rec,
)
from stirlingb.verify import _random_array, run_scope

# The r=3, ord>=2 triangle with the six misprinted source entries corrected.
# The misprints and their evidence are recorded in R3_ERRATA in
# tests/test_acceptance.py, whose criterion 01 checks them.
TRIANGLE_R3 = [
    [1],
    [12, 1],
    [144, 28, 1],
    [1824, 592, 48, 1],
    [25344, 11616, 1552, 72, 1],  # (4,1) printed as 11232
    [391680, 229248, 43360, 3280, 100, 1],  # (5,1)/(5,2) printed 213888/41824
    [6727680, 4724736, 1153408, 123360, 6080, 132, 1],  # (6,1..3) printed off
]

# The unsigned inverse table for r=3; all 28 printed source values check out.
INVERSE_R3 = [
    [1],
    [12, 1],
    [192, 28, 1],
    [3936, 752, 48, 1],
    [99456, 22304, 1904, 72, 1],
    [3001344, 748672, 76320, 3920, 100, 1],
    [105544704, 28412416, 3265792, 203040, 7120, 132, 1],
]


def test_identity_entries():
    ident = ExpRiordanArray.identity(5)
    for n in range(6):
        for k in range(n + 1):
            assert ident.entry(n, k) == (1 if n == k else 0)


def test_entry_validation():
    ident = ExpRiordanArray.identity(3)
    assert ident.entry(2, 3) == 0  # above the diagonal, within order
    with pytest.raises(ValueError):
        ident.entry(4, 0)
    with pytest.raises(ValueError):
        ident.entry(3, 5)
    with pytest.raises(ValueError):
        ident.entry(-1, 0)
    with pytest.raises(ValueError, match="^entry indices must be nonnegative$"):
        ident.row(-1)
    with pytest.raises(ValueError, match=r"^entry \(4, 0\) beyond truncation order 3$"):
        ident.row(4)


@pytest.mark.parametrize(
    "array",
    [
        ExpRiordanArray.identity(4),
        make_triangle_B(2, 3, order=6),
        make_triangle_B(3, 1, order=5),
    ],
    ids=["identity", "m2-r3", "m3-r1"],
)
def test_row_is_the_entries_up_to_the_diagonal(array):
    # the benchmark's table gate reads arrays a row at a time
    for n in range(array.order + 1):
        assert array.row(n) == tuple(array.entry(n, k) for k in range(n + 1))


def test_constructor_invariants():
    with pytest.raises(ValueError):
        ExpRiordanArray(FPS.x(3), FPS.x(3))  # g(0) = 0
    with pytest.raises(ValueError):
        ExpRiordanArray(FPS.one(3), FPS.one(3))  # f(0) != 0
    with pytest.raises(ValueError):
        ExpRiordanArray(FPS.one(3), FPS.from_coeffs([0, 0, 1], 3))  # f'(0) = 0


def test_multiply_binomial_weighted():
    # (e^z, z) * (1, 2z) = (e^z, 2z) with entries 2^k C(n, k)
    e = FPS.x(8).exp()
    left = ExpRiordanArray(e, FPS.x(8))
    right = ExpRiordanArray(FPS.one(8), FPS.from_coeffs([0, 2], 8))
    prod = left.multiply(right)
    for n in range(9):
        for k in range(n + 1):
            assert prod.entry(n, k) == 2**k * comb(n, k)


def test_multiply_identity_is_neutral():
    arr = make_triangle_B(2, 2, order=6)
    ident = ExpRiordanArray.identity(6)
    assert arr.multiply(ident)._table == arr._table
    assert ident.multiply(arr)._table == arr._table


def test_invert_roundtrip():
    arr = make_triangle_B(2, 3, order=10)
    ident = ExpRiordanArray.identity(10)
    assert arr.multiply(arr.invert())._table == ident._table
    assert arr.invert().invert()._table == arr._table
    assert ExpRiordanArray.identity(4).invert()._table == ExpRiordanArray.identity(4)._table


def test_array_reverts_f_once(monkeypatch):
    reverted, composed = [], []
    revert, compose = FPS.revert, FPS.compose

    def counted_revert(series):
        reverted.append(series)
        return revert(series)

    def counted_compose(outer, inner):
        composed.append((outer, inner))
        return compose(outer, inner)

    monkeypatch.setattr(FPS, "revert", counted_revert)
    monkeypatch.setattr(FPS, "compose", counted_compose)
    arr = make_triangle_B(2, 2, order=8)
    inverse = arr.invert()
    assert arr.invert() is inverse
    arr.production_sequences()
    assert arr.invert() is inverse
    assert reverted == [arr.f]
    # 1/g is composed with fbar once, for the inverse, and production reuses it
    reciprocal = arr.g.reciprocal()
    assert [inner for outer, inner in composed if outer == reciprocal] == [inverse.f]
    # verify's riordan scope builds each triangle once, so it reverts each
    # once: here the m = 2 arrays for r = 0 and r = 1
    reverted.clear()
    assert run_scope("riordan", max_n=3, max_r=1, samples=0).ok
    assert len(reverted) == 2


@pytest.mark.parametrize("seed", range(6))
def test_inverse_matches_the_reciprocal_of_the_composition(seed):
    # 1/g composed with fbar against 1/(g composed with fbar), on verify's arrays
    rng = random.Random(seed)
    for order in range(1, 11):
        arr = _random_array(rng, order)
        fbar = arr.f.revert()
        want = ExpRiordanArray(arr.g.compose(fbar).reciprocal(), fbar)
        assert arr.invert() == want, (seed, order)


def test_production_sequences_identity():
    ident = ExpRiordanArray.identity(6)
    a, z = ident.production_sequences()
    assert a[0] == 1 and all(v == 0 for v in a[1:])
    assert all(v == 0 for v in z)


def test_production_a0_is_linear_coefficient():
    arr = make_triangle_B(2, 1, order=8)
    a, _ = arr.production_sequences()
    assert a[0] == arr.f.coeff(1)


def _fraction_rebuild(array):
    """Reference rebuild: row n+1 = row n times the production matrix, with
    one Fraction multiply-add per matrix entry and no integer form."""
    order = array.order
    a, z = array.production_sequences()
    prod = [
        [factorial(i) * z[i]]
        + [
            factorial(i) // factorial(k) * (z[i - k] + k * a[i - k + 1])
            for k in range(1, i + 1)
        ]
        + [a[0]]
        for i in range(order)
    ]
    out = [[array.entry(0, 0)] + [Fraction(0)] * order]
    for n in range(order):
        prev, new = out[-1], [Fraction(0)] * (order + 1)
        for i in range(n + 1):
            for k, w in enumerate(prod[i]):
                new[k] += w * prev[i]
        out.append(new)
    return out


def _int_when_integral(v):
    """An int exactly when v is integral, else a Fraction that is not."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def _same_cells(got, want):
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for x, y in zip(got_row, want_row):
            assert _int_when_integral(x) and x == y


# order 1 has only the row i = order - 1, where a_(i+1) lies past a's truncation
@pytest.mark.parametrize("order", [1, 2, 9])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("r", [0, 1, 3])
def test_production_rebuild_matches_fraction_reference(m, r, order):
    arr = make_triangle_B(m, r, order=order)
    _same_cells(production_rebuild(arr), _fraction_rebuild(arr))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 7),
    st.sampled_from([2, 3]),
    st.lists(st.fractions(-3, 3, max_denominator=5), min_size=15, max_size=15),
)
def test_production_rebuild_on_random_fractional_arrays(order, g0, rest):
    g = [g0] + rest[:order]
    f = [0, rest[order] or Fraction(1, 2)] + rest[order + 1 : 2 * order]
    arr = ExpRiordanArray(FPS.from_coeffs(g, order), FPS.from_coeffs(f, order))
    _same_cells(production_rebuild(arr), _fraction_rebuild(arr))


def test_table_forms_a_fraction_only_per_non_integral_entry(fractions_formed):
    arr = make_triangle_B(2, 3, order=10)
    assert fractions_formed(lambda: arr._table) == 0
    g = FPS.from_coeffs([Fraction(1, k) for k in range(1, 10)])
    arr = ExpRiordanArray(g, FPS.from_coeffs([0, Fraction(1, 2)] + [1] * 7))
    formed = fractions_formed(lambda: arr._table)
    assert 0 < formed <= sum(type(v) is Fraction for row in arr._table for v in row)


def test_production_rebuild_forms_no_fraction_on_an_integer_array(fractions_formed):
    arr = make_triangle_B(2, 2, order=8)
    assert fractions_formed(lambda: production_rebuild(arr)) == 0


def test_the_triangle_and_its_inverse_form_no_fraction(fractions_formed):
    # f and g are built on integers over one denominator, so neither the array,
    # its table nor the rows of its conjugated inverse form a Fraction
    assert fractions_formed(lambda: make_triangle_B(2, 3, order=29)) == 0
    arr = make_triangle_B(2, 3, order=29)
    conj = unsigned_conjugate(arr).invert()
    assert fractions_formed(lambda: [conj.row(n) for n in range(30)]) == 0


def test_the_triangle_is_the_fraction_construction():
    # f = sum w_L x^L / L and g = (sum w_(L+1) x^L)^r, read from Fractions
    for m in range(6):
        for order in range(1, 31):
            w = [0] + [2**L if L >= m else 1 for L in range(1, order + 2)]
            f = FPS.from_coeffs([0] + [Fraction(w[L], L) for L in range(1, order + 1)])
            for r in range(4):
                want = ExpRiordanArray(FPS.from_coeffs(w[1:]) ** r, f)
                assert make_triangle_B(m, r, order) == want, (m, r, order)


def test_an_order_0_array_rebuilds_row_0_and_has_no_production_sequences():
    arr = ExpRiordanArray(FPS.one(0), FPS.x(3))
    assert arr.order == 0
    _same_cells(production_rebuild(arr), [[1]])
    half = ExpRiordanArray(FPS.from_coeffs([Fraction(1, 2)], 0), FPS.x(2))
    _same_cells(production_rebuild(half), [[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="^production sequences need order >= 1, got order 0$"):
        arr.production_sequences()


def test_table_is_zero_above_the_diagonal_and_bounded_by_order():
    arr = make_triangle_B(3, 2, order=6)
    table = arr._table
    assert len(table) == 7 and all(len(row) == 7 for row in table)
    for n, row in enumerate(table):
        assert all(v == 0 for v in row[n + 1 :])
        assert row[n] != 0
    for n, k in ((7, 0), (0, 7), (9, 12)):
        with pytest.raises(ValueError) as exc:
            arr.entry(n, k)
        assert str(exc.value) == "entry (%d, %d) beyond truncation order 6" % (n, k)


def test_production_rebuild_matches_entries():
    arr = make_triangle_B(2, 3, order=10)
    rebuilt = production_rebuild(arr)
    for n in range(11):
        for k in range(n + 1):
            assert rebuilt[n][k] == arr.entry(n, k)


def test_apply_fte_column_zero_and_identity():
    arr = make_triangle_B(2, 2, order=8)
    assert arr.apply_fte(FPS.one(8)).coeffs == arr.g.coeffs
    h = FPS.from_coeffs([1, 4, 9, 16], 8)
    ident = ExpRiordanArray.identity(8)
    assert ident.apply_fte(h).coeffs == h.coeffs


def test_apply_fte_row_sums_equal_d_egf():
    # applying the array to the all-ones column (egf e^z) gives the egf of
    # the row sums, which is the d-family egf
    for r in range(4):
        arr = make_triangle_B(2, r, order=10)
        sums = arr.apply_fte(FPS.x(10).exp())
        assert sums.coeffs == _d_series(r, 10).coeffs


def test_make_triangle_B_validation():
    with pytest.raises(ValueError, match="^m must be >= 0$"):
        make_triangle_B(-1, 0, order=4)
    with pytest.raises(ValueError):
        make_triangle_B(2, -1, order=4)
    with pytest.raises(ValueError):
        make_triangle_B(2, 0, order=0)
    with pytest.raises(TypeError):  # the order has no default
        make_triangle_B(2, 0)


def test_make_triangle_B_matches_its_closed_forms():
    """The array is read from the cycle weights; these are the closed forms
    g = ((1+2x)/(1-2x))^r at m = 2 and
    (1-2x) f' = 2 - (1-2x) sum_(1<=k<m) (2^k-1) x^(k-1)."""
    for order in (1, 4, 20):
        ratio = FPS.from_coeffs([1, 2], order) * FPS.from_coeffs([1, -2], order).reciprocal()
        for r in range(5):
            assert make_triangle_B(2, r, order).g == ratio**r, (r, order)
    for m in range(7):
        fp = make_triangle_B(m, 0, 20).f.derivative()
        poly = [2] + [0] * max(m - 1, 0)
        for i, c in enumerate(2**k - 1 for k in range(1, m)):  # -(1-2x) c x^i
            poly[i] -= c
            poly[i + 1] += 2 * c
        assert FPS.from_coeffs([1, -2], fp.order) * fp == FPS.from_coeffs(poly, fp.order), m


def test_make_triangle_B_r3_values():
    arr = make_triangle_B(2, 3, order=8)
    for n in range(7):
        for k in range(n + 1):
            assert arr.entry(n, k) == TRIANGLE_R3[n][k], (n, k)


def test_make_triangle_B_matches_recurrence():
    for r in range(4):
        arr = make_triangle_B(2, r, order=8)
        for n in range(9):
            for k in range(n + 1):
                assert arr.entry(n, k) == triangle_ge2_rec(n, k, r)


def test_make_triangle_B_r0_satisfies_three_term_recurrence():
    arr = make_triangle_B(2, 0, order=9)
    for n in range(9):
        for k in range(n + 2):
            expect = triangle_ge2_alt_rec(n + 1, k)
            assert arr.entry(n + 1, k) == expect


def test_unsigned_conjugate_signs():
    arr = make_triangle_B(2, 1, order=6)
    conj = unsigned_conjugate(arr)
    for n in range(7):
        for k in range(n + 1):
            assert conj.entry(n, k) == (-1) ** (n + k) * arr.entry(n, k)


def test_inverse_table_r3():
    conj = unsigned_conjugate(make_triangle_B(2, 3, order=8).invert())
    for n in range(7):
        for k in range(n + 1):
            assert conj.entry(n, k) == INVERSE_R3[n][k], (n, k)
            assert inverse_triangle_rec(n, k, 3) == INVERSE_R3[n][k]


def test_conjugate_then_invert_is_invert_then_conjugate():
    # D = D^-1 for D = diag((-1)^n), so (D A D)^-1 = D A^-1 D: `table inverse`
    # inverts the conjugate
    rng = random.Random(0)
    arrays = [
        make_triangle_B(m, r, order=order)
        for m in (0, 2, 3, 5) for r in range(4) for order in (1, 4, 10)
    ]
    arrays += [_random_array(rng, rng.randint(1, 8)) for _ in range(20)]
    for array in arrays:
        assert unsigned_conjugate(array).invert() == unsigned_conjugate(array.invert())


# small rationals n/d with |n| <= 2 and d <= 3, drawn as two integers
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def array_triples(draw):
    """Three random rational arrays of one order 1..8: g(0) != 0 and
    f = f_1 z + ... with f_1 != 0."""
    order = draw(st.integers(1, 8))
    arrays = []
    for _ in range(3):
        g = draw(st.lists(SMALL_FRACTIONS, min_size=order + 1, max_size=order + 1))
        f = draw(st.lists(SMALL_FRACTIONS, min_size=order + 1, max_size=order + 1))
        g[0], f[0] = g[0] or Fraction(1), Fraction(0)
        f[1] = f[1] or Fraction(-1)
        arrays.append(ExpRiordanArray(FPS.from_coeffs(g), FPS.from_coeffs(f)))
    return arrays


@settings(max_examples=40, deadline=None)
@given(array_triples())
def test_group_laws_on_random_arrays(triple):
    a, b, c = triple
    ident = ExpRiordanArray.identity(a.order)
    assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))
    assert a.multiply(a.invert()) == ident
    assert a.invert().multiply(a) == ident
    assert a.invert().invert() == a
    assert a.multiply(ident) == a == ident.multiply(a)


def _reference_table(array):
    """l(n, k) = n!/k! [z^n] g f^k on Fractions, column k + 1 being the
    schoolbook product of column k and f."""
    n = array.order
    col = FPS.from_coeffs(array.g.coeffs[: n + 1])
    table = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for i in range(k, n + 1):
            table[i][k] = Fraction(factorial(i), factorial(k)) * col.coeffs[i]
        col = schoolbook_mul(col, array.f)
    return table


@st.composite
def random_arrays(draw):
    """An array over small integers or small fractions, g and f each of an
    order 1..10 drawn apart, so that the two orders may differ."""
    coeffs = draw(st.sampled_from([st.integers(-3, 3), SMALL_FRACTIONS]))
    g, f = (draw(st.lists(coeffs, min_size=2, max_size=11)) for _ in range(2))
    g[0], f[0], f[1] = g[0] or 1, 0, f[1] or -1
    return ExpRiordanArray(FPS.from_coeffs(g), FPS.from_coeffs(f))


@settings(max_examples=60, deadline=None)
@given(random_arrays())
def test_table_matches_fraction_reference(array):
    for arr in (array, array.invert(), unsigned_conjugate(array)):
        _same_cells(arr._table, _reference_table(arr))
