import itertools
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod

import pytest

from stirlingb import sequences
from stirlingb.permcore import oracle_total, oracle_triangle
from stirlingb.fps import FormalPowerSeries as FPS
from stirlingb.riordan import make_triangle_B, unsigned_conjugate
from stirlingb.sequences import (
    _d_series,
    RPolynomial,
    d_asym,
    d_egf,
    d_explicit,
    d_poly,
    d_rec,
    diagonals,
    diagonals_delta,
    free_sign_howard,
    incomplete_factorial,
    inverse_triangle_rec,
    inverse_triangle_rows,
    lattice_terms,
    rstirling1,
    stirling1,
    stirling1_howard,
    stirlingA,
    stirlingA_rows,
    tree_terms,
    triangle_ge2_alt_rec,
    triangle_ge2_rec,
    triangle_gem_howard,
    triangle_gem_rec,
    triangle_gem_rows,
    typeB_factorial_conv,
)

# -- the ord >= 2 triangle --------------------------------------------------------


def test_triangle_ge2_pinned_values():
    assert triangle_ge2_rec(0, 0, 3) == 1
    assert triangle_ge2_rec(3, 1, 3) == 592
    assert triangle_ge2_rec(4, 1, 3) == 11616
    assert triangle_ge2_rec(6, 0, 3) == 6727680
    assert triangle_ge2_rec(4, 2, 3) == 1552
    assert triangle_ge2_rec(1, 0, 3) == 12
    assert triangle_ge2_rec(2, 1, 3) == 28


def test_triangle_ge2_matches_three_term_recurrence_at_r0():
    for n in range(9):
        for k in range(n + 1):
            assert triangle_ge2_rec(n, k, 0) == triangle_ge2_alt_rec(n, k)


def _second_form(n1, k, r):
    """The alternative split of the same removal recurrence, n1 >= 1."""
    n = n1 - 1
    total = triangle_ge2_rec(n, k - 1, r) if k >= 1 else 0
    if r:
        total += 4 * r * triangle_ge2_rec(n, k, r - 1)
    fp = factorial(n)
    for j in range(1, n + 1):
        c = 4 * fp * 2 ** (j - 1) // factorial(n - j)
        total += c * triangle_ge2_rec(n - j, k - 1, r)
        if r:
            total += c * 2 * r * (j + 1) * triangle_ge2_rec(n - j, k, r - 1)
    return total


def test_triangle_ge2_two_recurrence_forms_agree():
    for r in range(4):
        for n1 in range(1, 8):
            for k in range(n1 + 1):
                assert _second_form(n1, k, r) == triangle_ge2_rec(n1, k, r), (n1, k, r)


def _lah(n, k):
    """Lah numbers, (n!/k!) C(n-1, k-1), with L(0, 0) = 1."""
    if n == k == 0:
        return 1
    return factorial(n) // factorial(k) * comb(n - 1, k - 1) if 0 < k <= n else 0


def test_triangle_ge2_column0_lah_identity():
    # {n, 0}_r = sum_j C(r, j) 2^(n+r-j) (r-j)! L(n, r-j)
    assert [_lah(4, k) for k in range(6)] == [0, 24, 36, 12, 1, 0]
    for r in range(5):
        for n in range(7):
            want = sum(
                comb(r, j) * 2 ** (n + r - j) * factorial(r - j) * _lah(n, r - j)
                for j in range(r + 1)
            )
            assert triangle_ge2_rec(n, 0, r) == want, (n, r)


def test_triangle_ge2_column0_lattice_identity():
    # {n, 0}_r = 2^n n! [x^n] ((1+x)/(1-x))^r
    for r in range(5):
        for n, s in enumerate(lattice_terms(r, 9)):
            want = 2**n * factorial(n) * s
            assert triangle_ge2_rec(n, 0, r) == want, (n, r)


def test_triangle_ge2_row_sums_are_d():
    for r in range(4):
        for n in range(8):
            total = sum(triangle_ge2_rec(n, k, r) for k in range(n + 1))
            assert total == d_rec(r, n), (r, n)


POINT_FUNCTIONS = {
    "triangle_ge2_rec": lambda n, k: triangle_ge2_rec(n, k, 1),
    "triangle_ge2_alt_rec": triangle_ge2_alt_rec,
    "triangle_gem_rec": lambda n, k: triangle_gem_rec(n, k, 1, 3),
    "stirlingA": lambda n, k: stirlingA(n, k, "assoc", 2),
    "rstirling1": lambda n, k: rstirling1(n, k, 1),
    "inverse_triangle_rec": lambda n, k: inverse_triangle_rec(n, k, 1),
}


@pytest.mark.parametrize("point", POINT_FUNCTIONS.values(), ids=list(POINT_FUNCTIONS))
def test_point_functions_are_zero_off_the_triangle(point):
    for n, k in [(-1, -1), (-1, 0), (0, 1), (3, -1), (3, 4), (40, 41)]:
        assert point(n, k) == 0, (n, k)
    assert any(point(4, k) for k in range(5))


@pytest.mark.parametrize(
    "call",
    [
        lambda: triangle_ge2_rec(-1, 5, -1),
        lambda: triangle_gem_rec(-1, 5, -1, 3),
        lambda: stirlingA(-1, 5, "weird", 2),
        lambda: rstirling1(-1, 5, -1),
        lambda: inverse_triangle_rec(-1, 5, -1),
        lambda: stirlingA(5, 2, "assoc", -3),
        lambda: incomplete_factorial(4, "assoc", -5),
        lambda: typeB_factorial_conv(3, "restr", -2),
        lambda: incomplete_factorial(3, "weird", 2),
        lambda: typeB_factorial_conv(3, "weird", 2),
    ],
    ids=[
        "triangle_ge2_rec", "triangle_gem_rec", "stirlingA", "rstirling1", "inverse",
        "stirlingA-m", "incomplete_factorial-m", "typeB_factorial_conv-m",
        "incomplete_factorial-mode", "typeB_factorial_conv-mode",
    ],
)
def test_bad_r_or_mode_raises_before_a_table_is_made(call):
    tables = set(sequences._TABLES)
    with pytest.raises(ValueError):
        call()
    assert set(sequences._TABLES) == tables


def test_triangle_ge2_validation():
    with pytest.raises(ValueError):
        triangle_ge2_rec(2, 0, -1)
    assert triangle_ge2_rec(-1, 0, 2) == 0
    assert triangle_ge2_rec(2, 3, 1) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: rstirling1(3, 1, -1),
        lambda: inverse_triangle_rec(3, 1, -1),
        lambda: free_sign_howard(3, 1, -1),
        lambda: d_explicit(-1, 3),
        lambda: d_explicit(2, -1),
        lambda: d_egf(-1, 4),
        lambda: d_poly(-1),
        lambda: d_asym(-1, 3),
        lambda: d_asym(2, -1),
        lambda: lattice_terms(-1, 4),
        lambda: diagonals(2, -1),
        lambda: diagonals(-1, 2),
        lambda: diagonals_delta(2, -1, 3),
        lambda: diagonals_delta(-1, 2, 3),
        lambda: triangle_gem_rec(2, 1, 0, -1),
        lambda: triangle_gem_rec(2, 1, 1, -1),
    ],
    ids=[
        "rstirling1", "inverse_triangle_rec", "howard1", "d_explicit", "d_explicit-n",
        "d_egf", "d_poly-n", "d_asym", "d_asym-n", "lattice_terms",
        "diagonals", "diagonals-n", "diagonals_delta", "diagonals_delta-n",
        "triangle_gem_rec-m", "triangle_gem_rec-m-r1",
    ],
)
def test_negative_r_is_rejected(call):
    with pytest.raises(ValueError, match=r"^(r|n|m|r and n) must be >= 0$"):
        call()
    assert not [key for key in sequences._TABLES if key[1:2] == (-1,)]


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(-7, 3), Fraction(5, 4)])
def test_a_rational_published_as_an_int_must_be_one(value):
    # every published value is an integer, so only a direct call reaches the error
    # the message names the reduced value, whatever pair it was passed as
    num, den = value.numerator, value.denominator
    for scale in (1, 6):
        with pytest.raises(ArithmeticError, match=r"^x is not an integer: %s$" % value):
            sequences._int(scale * num, scale * den, "x")
    assert sequences._int(num * den, den, "x") == num


# -- the general ord >= m triangle -------------------------------------------------


def test_gem_m3_against_oracle():
    for r in range(3):
        for n in range(6 - r):
            for k in range(n + 1):
                assert triangle_gem_rec(n, k, r, 3) == oracle_triangle(
                    n, r, k, "assoc", 3
                ), (n, k, r)


def test_gem_m4_and_m5_against_oracle():
    for m in (4, 5):
        for r in range(4):
            for n in range(8 - r):
                for k in range(n + 1):
                    assert triangle_gem_rec(n, k, r, m) == oracle_triangle(
                        n, r, k, "assoc", m
                    ), (n, k, r, m)


def test_window_triangle_both_routes_match_oracle():
    # one weight rule at every m: the recurrence and the array from
    # f = sum_L w_L x^L / L, each against the oracle
    for m in range(6):
        for r in range(4):
            arr = make_triangle_B(m, r, order=8 - r)
            for n in range(9 - r):
                for k in range(n + 1):
                    want = oracle_triangle(n, r, k, "assoc", m)
                    assert triangle_gem_rec(n, k, r, m) == want, (n, k, r, m)
                    assert arr.entry(n, k) == want, (n, k, r, m)
    # at m <= 1 signs are free and column 0 has the closed form
    # 2^(n+r) n! C(n+r-1, r-1): every element in one of the r special cycles
    for m in (0, 1):
        for r in range(4):
            arr = make_triangle_B(m, r, order=8)
            for n in range(9):
                if r:
                    want = 2 ** (n + r) * factorial(n) * comb(n + r - 1, r - 1)
                else:
                    want = int(n == 0)
                assert triangle_gem_rec(n, 0, r, m) == want, (n, r, m)
                assert arr.entry(n, 0) == want, (n, r, m)


# -- whole rows ---------------------------------------------------------------------


def test_triangle_gem_rows_equal_the_point_function():
    for m in range(6):
        for r in range(4):
            want = [[triangle_gem_rec(n, k, r, m) for k in range(n + 1)] for n in range(30)]
            for size in range(1, 31):
                assert list(triangle_gem_rows(size, r, m)) == want[:size], (size, r, m)


def test_stirlingA_rows_equal_the_point_function():
    for mode in ("assoc", "restr"):
        for m in range(6):
            want = [[stirlingA(n, k, mode, m) for k in range(n + 1)] for n in range(40)]
            for size in range(1, 41):
                assert list(stirlingA_rows(size, mode, m)) == want[:size], (size, mode, m)


def _message(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize(
    "point, rows",
    [
        (lambda: triangle_gem_rec(3, 1, -1, 3), lambda: triangle_gem_rows(4, -1, 3)),
        (lambda: triangle_gem_rec(3, 1, -1, 2), lambda: triangle_gem_rows(4, -1, 2)),
        (lambda: triangle_gem_rec(3, 1, 1, -1), lambda: triangle_gem_rows(4, 1, -1)),
        (lambda: triangle_gem_rec(3, 1, -1, -1), lambda: triangle_gem_rows(4, -1, -1)),
        (lambda: stirlingA(3, 1, "assoc", -1), lambda: stirlingA_rows(4, "assoc", -1)),
        (lambda: stirlingA(3, 1, "weird", 2), lambda: stirlingA_rows(4, "weird", 2)),
        (lambda: stirlingA(3, 1, "weird", -1), lambda: stirlingA_rows(4, "weird", -1)),
    ],
    ids=["gem-r", "gem-r-m2", "gem-m", "gem-r-and-m", "A-m", "A-mode", "A-mode-and-m"],
)
def test_row_functions_raise_as_their_point_functions(point, rows):
    tables = set(sequences._TABLES)
    assert _message(rows) == _message(point)
    assert set(sequences._TABLES) == tables


@pytest.mark.parametrize(
    "rows",
    [
        lambda size: triangle_gem_rows(size, 1, 3),
        lambda size: stirlingA_rows(size, "restr", 2),
        lambda size: inverse_triangle_rows(size, 2),
    ],
)
def test_row_functions_take_any_size_from_zero(rows):
    assert list(rows(0)) == []
    assert len(list(rows(1))) == 1
    with pytest.raises(ValueError, match=r"^size must be >= 0, got -1$"):
        rows(-1)


@pytest.mark.parametrize(
    "rows, point",
    [
        (lambda size: triangle_gem_rows(size, 2, 2), lambda n, k: triangle_gem_rec(n, k, 2, 2)),
        (lambda size: triangle_gem_rows(size, 1, 4), lambda n, k: triangle_gem_rec(n, k, 1, 4)),
        (lambda size: stirlingA_rows(size, "assoc", 3), lambda n, k: stirlingA(n, k, "assoc", 3)),
        (lambda size: inverse_triangle_rows(size, 3), lambda n, k: inverse_triangle_rec(n, k, 3)),
    ],
    ids=["gem-m2", "gem-m4", "stirlingA", "inverse"],
)
def test_returned_rows_are_the_callers_own(rows, point):
    want = [[point(n, k) for k in range(n + 1)] for n in range(12)]
    got = []
    for row in rows(12):  # each row changed before the next is made
        row[-1] += 7
        row[0] = None
        row.append(-1)
        got.append(row)
    assert len(got) == 12
    assert list(rows(12)) == want
    assert [[point(n, k) for k in range(n + 1)] for n in range(12)] == want
    # a short call after a long one returns only what it asks for
    assert list(rows(20))[:12] == want
    assert list(rows(5)) == want[:5]
    assert len(list(rows(3))) == 3


def test_row_functions_validate_before_they_return():
    # the checks run at the call, not when the first row is read, and a row
    # function makes no shared table
    tables = set(sequences._TABLES)
    for call in (lambda: triangle_gem_rows(4, -1, 2), lambda: stirlingA_rows(-1, "assoc", 2),
                 lambda: stirlingA_rows(4, "free", 2), lambda: inverse_triangle_rows(4, -1),
                 lambda: inverse_triangle_rows(-1, 2)):
        with pytest.raises(ValueError):
            call()
    rows = triangle_gem_rows(3, 2, 3)
    assert next(rows) == [1] and len(list(rows)) == 2
    assert set(sequences._TABLES) == tables


# -- windows wider than their rows --------------------------------------------------
#
# A cycle holds at most one special, so row n has no cycle longer than n + 1
# and every window past that gives the row of the narrowest one that does:
# assoc m = n + 2 (no cycle inside) and restr m = n + 1 (every cycle inside).
# A table whose size followed m could not be built at m = 10**18.

HUGE = 10**18


def _narrow(mode, n):
    return n + 2 if mode == "assoc" else n + 1


def test_type_b_rows_at_a_huge_window():
    for r in range(4):
        rows = list(triangle_gem_rows(9, r, HUGE))
        for n in range(9):
            want = list(triangle_gem_rows(n + 1, r, _narrow("assoc", n)))[n]
            assert rows[n] == want, (r, n)
            assert [triangle_gem_rec(n, k, r, HUGE) for k in range(n + 1)] == want, (r, n)
            if n + r <= 8:
                oracle = [oracle_triangle(n, r, k, "assoc", HUGE, bound=8) for k in range(n + 1)]
                assert oracle == want, (r, n)


def test_type_a_rows_and_totals_at_a_huge_window():
    for mode in ("assoc", "restr"):
        rows = list(stirlingA_rows(9, mode, HUGE))
        for n in range(9):
            m = _narrow(mode, n)
            want = [stirlingA(n, k, mode, m) for k in range(n + 1)]
            assert rows[n] == want, (mode, n)
            assert [stirlingA(n, k, mode, HUGE) for k in range(n + 1)] == want, (mode, n)
            assert incomplete_factorial(n, mode, HUGE) == incomplete_factorial(n, mode, m)
            total = typeB_factorial_conv(n, mode, m)
            assert typeB_factorial_conv(n, mode, HUGE) == total, (mode, n)
            assert oracle_total(n, 0, mode, HUGE, bound=8) == total, (mode, n)
    # with no special every cycle is inside restr (2^n sign masks) and none
    # inside assoc (all-barred, one mask): the oracle's rows at r = 0
    for n in range(9):
        row = [stirlingA(n, k, "restr", HUGE) for k in range(n + 1)]
        assert [oracle_triangle(n, 0, k, "restr", HUGE, bound=8)
                for k in range(n + 1)] == [2**n * v for v in row], n
        assert [oracle_triangle(n, 0, k, "assoc", HUGE, bound=8)
                for k in range(n + 1)] == row, n
        assert incomplete_factorial(n, "restr", HUGE) == sum(row) == factorial(n)
        assert incomplete_factorial(n, "assoc", HUGE) == int(n == 0)


def test_streams_at_the_edge_of_their_rows():
    # rows 0..size-1 read w_1..w_size alone: m = size and size + 1 keep their
    # own engine, and m = size + 2 is the first built at size + 1
    for signed in (True, False):
        for mode in ("assoc", "restr"):
            for r in range(4) if signed else (0,):
                for size in range(14):
                    for m in (size, size + 1, size + 2):
                        want = sequences._r_table(sequences._WindowRows, r, mode, m, signed)
                        rows = list(sequences._stream(
                            size, sequences._LogRows, *sequences._window(r, mode, m, signed, size)))
                        assert rows == [want.row(n) for n in range(size)], (
                            signed, mode, r, size, m)


# -- type A windowed Stirling numbers ----------------------------------------------


def _cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    sizes = []
    for s in range(n):
        if seen[s]:
            continue
        size = 0
        v = s
        while not seen[v]:
            seen[v] = True
            size += 1
            v = perm[v]
        sizes.append(size)
    return sizes


def test_stirlingA_against_brute_force():
    for n in range(7):
        counts = {}
        for perm in itertools.permutations(range(n)):
            sizes = _cycle_type(perm)
            counts[tuple(sorted(sizes))] = counts.get(tuple(sorted(sizes)), 0) + 1
        for mode in ("assoc", "restr"):
            for m in (1, 2, 3):
                for k in range(n + 1):
                    want = sum(
                        v
                        for sizes, v in counts.items()
                        if len(sizes) == k
                        and all(
                            (s >= m if mode == "assoc" else s <= m) for s in sizes
                        )
                    )
                    assert stirlingA(n, k, mode, m) == want, (n, k, mode, m)


def test_stirlingA_validation():
    with pytest.raises(ValueError):
        stirlingA(3, 1, "sideways", 2)


def test_stirling1_row_sums():
    for n in range(8):
        assert sum(stirling1(n, k) for k in range(n + 1)) == factorial(n)
    assert stirling1(4, 2) == 11


def test_rstirling1_basics():
    for n in range(7):
        for k in range(n + 1):
            assert rstirling1(n, k, 0) == stirling1(n, k)
    assert rstirling1(1, 0, 2) == 2
    assert rstirling1(2, 0, 2) == 6
    assert rstirling1(0, 0, 5) == 1


def test_incomplete_factorial():
    for n in range(7):
        assert incomplete_factorial(n, "assoc", 1) == factorial(n)
        assert incomplete_factorial(n, "restr", max(n, 1)) == factorial(n)
    assert incomplete_factorial(3, "restr", 1) == 1
    assert incomplete_factorial(4, "restr", 2) == 10  # involutions
    assert incomplete_factorial(3, "assoc", 3) == 2


def test_typeB_factorial_conv_basics():
    for n in range(6):
        assert typeB_factorial_conv(n, "assoc", 1) == 2**n * factorial(n)
    assert typeB_factorial_conv(2, "assoc", 2) == 5
    # m = 0 is m = 1 again; its all-barred side is the empty window
    for n in range(9):
        assert typeB_factorial_conv(n, "assoc", 0) == 2**n * factorial(n)
    with pytest.raises(ValueError):
        typeB_factorial_conv(3, "diagonal", 2)


# -- the d-family -------------------------------------------------------------------


def test_d_initial_values():
    assert [d_rec(0, n) for n in range(6)] == [1, 1, 5, 29, 233, 2329]
    for r in range(7):
        assert d_rec(r, 1) == 1 + 4 * r
    with pytest.raises(ValueError):
        d_rec(-1, 2)


def test_d_four_routes_agree():
    for r in range(5):
        via_egf = d_egf(r, 9)
        poly_cache = {}
        for n in range(9):
            ref = d_rec(r, n)
            assert d_explicit(r, n) == ref, (r, n, "explicit")
            assert via_egf[n] == ref, (r, n, "egf")
            poly = poly_cache.setdefault(n, d_poly(n))
            assert poly(r) == ref, (r, n, "poly")


def test_d_poly_is_a_route_of_its_own(fractions_formed, monkeypatch):
    # d_poly runs the log-derivative rule over Z[r]: no d_rec table, no
    # Fraction, and degree n with n + 3 agreeing values pins every coefficient
    monkeypatch.setattr(sequences, "_TABLES", {})
    d_poly(12)
    assert sequences._TABLES == {}
    assert fractions_formed(lambda: d_poly(12)) == 0
    for n in range(31):
        poly = d_poly(n)
        assert [poly(r) for r in range(n + 3)] == [d_rec(r, n) for r in range(n + 3)]


def test_d_egf_edge_counts():
    assert d_egf(2, 0) == []
    assert d_egf(2, 1) == [1]


def test_d_polynomials_printed_coefficients():
    assert d_poly(2).coeffs == (5, 8, 16)
    assert d_poly(3).coeffs == (29, 92, 48, 64)
    assert d_poly(4).coeffs == (233, 592, 992, 256, 256)
    assert d_poly(5).coeffs == (2329, 7796, 7200, 8320, 1280, 1024)
    assert d_poly(6).coeffs == (27949, 83672, 141424, 67840, 60160, 6144, 4096)


def test_rpolynomial_interface():
    p = RPolynomial((5, 8, 16))
    assert p.degree == 2
    assert p(0) == 5
    assert p(3) == 5 + 24 + 144


def test_d_series_leading_terms():
    s = _d_series(2, 4)
    assert s.egf_coeff(0) == 1
    assert s.egf_coeff(1) == 9
    assert s.egf_coeff(1) == d_rec(2, 1)


def test_d_asym_values():
    assert d_asym(0, 0) == Fraction(3, 2)
    assert d_asym(0, 3) == 8
    assert d_asym(1, 4) == 160
    assert d_asym(2, 3) == 248


# -- lattice points, diagonals, inverse triangle, trees ------------------------------


def test_lattice_values():
    assert lattice_terms(2, 4) == [1, 4, 8, 12]
    assert lattice_terms(0, 4) == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        lattice_terms(2, -1)


def test_lattice_terms_count_the_points_of_each_l1_norm():
    # every point of norm n <= 6 lies in the box [-6, 6]^r
    for r in range(5):
        norms = Counter(
            sum(map(abs, point)) for point in itertools.product(range(-6, 7), repeat=r)
        )
        assert lattice_terms(r, 7) == [norms[n] for n in range(7)], r


def test_lattice_terms_match_closed_form():
    for r in range(6):
        want = [
            sum(comb(r, j) * comb(n - j + r - 1, n - j) for j in range(min(r, n) + 1))
            if r
            else int(n == 0)
            for n in range(60)
        ]
        assert lattice_terms(r, 60) == want, r


def test_diagonals_match_triangle_m2():
    for r in range(4):
        for n in range(6):
            first, second = diagonals(n, r)
            assert first == triangle_ge2_rec(n + 1, n, r), (n, r)
            assert second == triangle_ge2_rec(n + 2, n, r), (n, r)
            assert diagonals_delta(n, r, 2) == (first, second)


def test_diagonals_match_triangle_m3():
    for r in range(3):
        for n in range(5):
            first, second = diagonals_delta(n, r, 3)
            assert first == triangle_gem_rec(n + 1, n, r, 3), (n, r)
            assert second == triangle_gem_rec(n + 2, n, r, 3), (n, r)


def test_diagonals_match_triangle_m0():
    # m = 0 puts every cycle in the window, as m = 1 does
    for r in range(3):
        for n in range(6):
            first, second = diagonals_delta(n, r, 0)
            assert first == triangle_gem_rec(n + 1, n, r, 0), (n, r)
            assert second == triangle_gem_rec(n + 2, n, r, 0), (n, r)


def test_diagonals_match_free_sign_m1():
    for r in range(3):
        for n in range(5):
            first, second = diagonals_delta(n, r, 1)
            assert first == 2 ** (n + 1 + r) * rstirling1(n + 1, n, r), (n, r)
            assert second == 2 ** (n + 2 + r) * rstirling1(n + 2, n, r), (n, r)


def test_diagonals_validation():
    with pytest.raises(ValueError, match="^m must be >= 0$"):
        diagonals_delta(2, 0, -1)


def test_inverse_triangle_matches_riordan_route():
    for r in range(3):
        conj = unsigned_conjugate(make_triangle_B(2, r, order=7).invert())
        for n in range(7):
            for k in range(n + 1):
                assert inverse_triangle_rec(n, k, r) == conj.entry(n, k), (n, k, r)
    assert inverse_triangle_rec(2, 5, 1) == 0
    assert inverse_triangle_rec(-1, 0, 1) == 0


def test_tree_counts():
    assert tree_terms(6) == [1, 4, 32, 416, 7552, 176128]
    with pytest.raises(ValueError):
        tree_terms(-1)


def test_tree_terms_match_the_series_reversion():
    # n! [z^n] F' for n <= 60, F the sign-flipped reversion of the m = 2 cycle
    # series sum_L w_L x^L / L, w_1 = 1 and w_L = 2^L above
    d = lcm(*range(1, 62))
    base = FPS([0, d] + [2**L * (d // L) for L in range(2, 62)], d)
    series = (-(base.revert().scale_arg(-1))).derivative()
    assert tree_terms(61) == [series.egf_coeff(n) for n in range(61)]


def test_tree_terms_count_weighted_increasing_trees():
    # grow plane increasing trees node by node: node i goes into any of the
    # j + 1 gaps among the children of an earlier node with j children; a
    # node with j >= 1 children weighs 2^(j+1), and term n sums the trees on
    # n + 1 nodes
    totals = [0] * 9

    def walk(children, ways):
        totals[len(children) - 1] += ways * prod(2 ** (j + 1) for j in children if j)
        if len(children) < len(totals):
            for parent, j in enumerate(children):
                children[parent] += 1
                walk(children + [0], ways * (j + 1))
                children[parent] -= 1

    walk([0], 1)
    assert tree_terms(9) == totals


def test_tree_terms_are_column_one_of_the_inverse_at_r0():
    terms = tree_terms(25)
    for n in range(25):
        assert terms[n] == inverse_triangle_rec(n + 1, 1, 0), n


@pytest.mark.parametrize(
    "terms",
    [lambda c: d_egf(3, c), lambda c: lattice_terms(3, c), tree_terms],
    ids=["d_egf", "lattice_terms", "tree_terms"],
)
def test_series_terms_prefix_and_edge_counts(terms):
    assert terms(0) == []
    assert terms(1) == [1]
    assert terms(25)[:7] == terms(7)
    with pytest.raises(ValueError):
        terms(-1)


def test_the_rational_routes_return_their_contract_types():
    # d_asym publishes a Fraction; the others publish ints read off integers
    assert type(d_asym(0, 0)) is Fraction and type(d_asym(2, 3)) is Fraction
    values = [*tree_terms(6), *lattice_terms(2, 6), *d_egf(2, 6)]
    values += [*diagonals(3, 2), *diagonals_delta(3, 2, 3), *diagonals_delta(3, 2, 0)]
    assert {type(value) for value in values} == {int}


def test_tree_and_lattice_terms_form_no_fraction(fractions_formed):
    # both read each term off one series' integer numerators over its denominator
    assert fractions_formed(lambda: tree_terms(22)) == 0
    assert fractions_formed(lambda: lattice_terms(3, 50)) == 0


# -- cross-window identities -----------------------------------------------------


def test_howard_type_a():
    for n in range(7):
        for k in range(-1, n + 2):
            assert stirling1_howard(n, k) == stirling1(n, k), (n, k)


def test_howard_type_b():
    for m in (1, 2, 3):
        for r in range(3):
            for n in range(6 - r):
                for k in range(n + 1):
                    want = triangle_gem_rec(n, k, r, m)
                    assert triangle_gem_howard(n, k, r, m) == want, (n, k, r, m)


def test_howard_free_sign():
    for r in range(3):
        for n in range(6 - r):
            for k in range(n + 1):
                want = 2 ** (n + r) * rstirling1(n, k, r)
                assert free_sign_howard(n, k, r) == want, (n, k, r)


def test_howard_identities_at_depth():
    # the cross-window sums at m = 1, 2, 3 and the free-sign sum, which is
    # the m = 1 one, on 924 cells up to n = 20, r = 3
    for r in range(4):
        for n in range(21):
            for k in range(n + 1):
                for m in (1, 2, 3):
                    want = triangle_gem_rec(n, k, r, m)
                    assert triangle_gem_howard(n, k, r, m) == want, (n, k, r, m)
                want = 2 ** (n + r) * rstirling1(n, k, r)
                assert free_sign_howard(n, k, r) == want, (n, k, r)


def test_howard_type_b_past_every_cycle():
    # for m > n + 1 only the term without extracted cycles is left, and it
    # forms no 2^m - 1, which at m = 10**9 alone would take seconds
    assert triangle_gem_howard(3, 1, 1, 10**9) == triangle_gem_rec(3, 1, 1, 10**9) == 11
    for r in range(3):
        for n in range(6 - r):
            for k in range(n + 1):
                want = triangle_gem_rec(n, k, r, n + 2)
                assert triangle_gem_howard(n, k, r, 10**9) == want, (n, k, r)


def test_howard_validation():
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        triangle_gem_howard(2, 1, 0, 0)
    with pytest.raises(ValueError, match="^r must be >= 0$"):
        triangle_gem_howard(2, 1, -1, 2)


# -- the row tables against the per-cell recurrences --------------------------------
#
# The recurrences as single cells, each term summed from scratch: the reference
# the running sums of the row tables must reproduce.  They share no code with
# the library; each starts from its n = 0 base case alone, and column 0 comes
# from the same rule as every other column.


@cache
def _ref_ge2(n, k, r):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    p = n - 1
    fp = factorial(p)
    total = _ref_ge2(p, k - 1, r)
    for j in range(1, p + 1):
        total += 2 * fp * 2**j // factorial(p - j) * _ref_ge2(p - j, k - 1, r)
    if r:
        for j in range(p + 1):
            total += (
                4 * r * fp * (j + 1) * 2**j // factorial(p - j)
                * _ref_ge2(p - j, k, r - 1)
            )
    return total


def _ref_tau(m, n, j):
    return 2 ** (j + 1) if m - 1 <= j <= n else 1


@cache
def _ref_gem(n, k, r, m):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return _ref_tau(m, 0, 0) ** r  # the r specials as fixed points
    p = n - 1
    total = 0
    for j in range(p + 1):
        total += (
            factorial(j) * _ref_tau(m, p, j) * comb(p, j) * _ref_gem(p - j, k - 1, r, m)
        )
    if r:
        for j in range(p + 1):
            total += (
                r * factorial(j + 1) * _ref_tau(m, p + 1, j + 1) * comb(p, j)
                * _ref_gem(p - j, k, r - 1, m)
            )
    return total


@cache
def _ref_stirlingA(n, k, mode, m):
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    p = n - 1
    if mode == "restr":
        i_range = range(0, min(m - 1, p) + 1)
    else:
        i_range = range(max(m - 1, 0), p + 1)
    return sum(
        factorial(p) // factorial(p - i) * _ref_stirlingA(p - i, k - 1, mode, m)
        for i in i_range
    )


@cache
def _ref_inverse(n, k, r):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    p = n - 1
    total = _ref_inverse(p, k - 1, r) if k >= 1 else 0
    for i in range(k, p + 1):
        total += (
            factorial(i) // factorial(k)
            * 2 ** (i - k + 2)
            * ((i - k + 1) * r + k)
            * _ref_inverse(p, i, r)
        )
    return total


@cache
def _ref_d(r, n):
    if n == 0:
        return 1
    if r == 0:
        return sum(
            (-1) ** k * 2 ** (n - k) * (factorial(n) // factorial(k))
            for k in range(n + 1)
        )
    return _ref_d(r - 1, n) + 2 * n * _ref_d(r, n - 1) + 2 * n * _ref_d(r - 1, n - 1)


def test_row_tables_match_per_cell_recurrences():
    for n in range(21):
        for r in range(4):
            assert d_rec(r, n) == _ref_d(r, n), (r, n)
            for k in range(n + 1):
                assert triangle_ge2_rec(n, k, r) == _ref_ge2(n, k, r), (n, k, r)
                assert inverse_triangle_rec(n, k, r) == _ref_inverse(n, k, r), (n, k, r)
                for m in (0, 1, 2, 3, 4, 5, 7):
                    assert triangle_gem_rec(n, k, r, m) == _ref_gem(n, k, r, m), (n, k, r, m)
        for m in (0, 1, 2, 3, 4, 5, 7):
            for mode in ("restr", "assoc"):
                for k in range(n + 1):
                    want = _ref_stirlingA(n, k, mode, m)
                    assert stirlingA(n, k, mode, m) == want, (n, k, mode, m)


def test_stirling1_matches_sympy():
    sympy_numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    for n in range(61):
        for k in range(n + 1):
            assert stirling1(n, k) == sympy_numbers.stirling(n, k, kind=1), (n, k)


def test_window_row_sums_match_typeB_factorial_above_the_oracle_bound():
    # the signed window triangle at r = 0 against the convolution of the two
    # type A totals, far past the sizes the oracle reaches
    for m in range(6):
        for n in range(41):
            total = sum(triangle_gem_rec(n, k, 0, m) for k in range(n + 1))
            assert total == typeB_factorial_conv(n, "assoc", m), (n, m)


def test_gem_m2_matches_ge2_recurrence():
    # the window table at m = 2 against the paper's recurrence, cell by cell
    for r in range(5):
        for n in range(14):
            for k in range(n + 1):
                assert triangle_gem_rec(n, k, r, 2) == _ref_ge2(n, k, r), (n, k, r)


def test_m2_point_queries_build_only_window_tables(monkeypatch):
    monkeypatch.setattr(sequences, "_TABLES", {})
    assert triangle_ge2_rec(5, 2, 3) == triangle_gem_rec(5, 2, 3, 2) > 0
    keys = list(sequences._TABLES)
    assert keys and all(
        key[0] is sequences._WindowRows and key[3] == 2 for key in keys
    ), keys


def test_cold_deep_queries_do_not_recurse():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert stirlingA(400, 390, "restr", 7) > 0
        assert stirling1(400, 350) > 0
        assert sum(stirling1(400, k) for k in range(401)) == factorial(400)
        assert rstirling1(300, 150, 2) > 0
        assert sum(rstirling1(300, k, 2) for k in range(301)) == factorial(302) // 2
        assert triangle_gem_rec(250, 120, 1, 6) > 0
        assert d_rec(2, 400) == d_explicit(2, 400)
    finally:
        sys.setrecursionlimit(limit)


# -- the log-derivative engine against the other routes -----------------------------
#
# _LogRows reads one fixed-r rule from f' = N/D; the others are the removal
# recurrence (_WindowRows), which chains r-1 tables, and the oracle.


def test_log_rows_match_the_window_recurrence():
    cells = 0
    for signed in (True, False):
        for mode in ("assoc", "restr"):
            for m in range(7):
                for r in range(5) if signed else (0,):
                    want = sequences._r_table(sequences._WindowRows, r, mode, m, signed)
                    for n, row in enumerate(sequences._stream(61, sequences._LogRows, r, mode, m, signed)):
                        assert row == want.row(n), (signed, mode, m, r, n)
                        cells += n + 1
    assert cells == 158844


def test_log_rows_match_the_ge2_recurrence():
    for r in range(5):
        for n, row in enumerate(triangle_gem_rows(61, r, 2)):
            assert row == [_ref_ge2(n, k, r) for k in range(n + 1)], (r, n)


def test_log_rows_match_the_m2_window_table_deep():
    cells = 0
    for n, row in enumerate(triangle_gem_rows(151, 3, 2)):
        assert row == [triangle_gem_rec(n, k, 3, 2) for k in range(n + 1)], n
        cells += n + 1
    assert cells == 11476


def test_log_rows_match_the_oracle():
    cells = 0
    for mode in ("assoc", "restr"):
        for m in range(6):
            for r in range(4):
                rows = list(sequences._stream(10 - r, sequences._LogRows, r, mode, m, True))
                for n in range(10 - r):
                    for k in range(n + 1):
                        assert rows[n][k] == oracle_triangle(n, r, k, mode, m, bound=9), (
                            mode, m, r, n, k)
                        cells += 1
    assert cells == 1968



@pytest.mark.parametrize(
    "rows, depth",
    [
        (lambda: triangle_gem_rows(40, 0, 2), 2),  # (1 - 2x) S_x = y (1 + 2x) S
        (lambda: triangle_gem_rows(40, 2, 3), 5),
        (lambda: stirlingA_rows(40, "restr", 5), 6),  # (1 - x) S_x = y (1 - x^5) S
        (lambda: inverse_triangle_rows(40, 2), 1),  # one row back
    ],
    ids=["gem-m2-r0", "gem-m3-r2", "A-restr-m5", "inverse-r2"],
)
def test_streamed_rows_keep_only_what_the_rule_reads(monkeypatch, rows, depth):
    held = []
    advance = sequences._Rows.advance

    def spy(table, n):
        row = advance(table, n)
        held.append((len(table.rows), table.rows.maxlen))
        return row

    monkeypatch.setattr(sequences._Rows, "advance", spy)
    assert len(list(rows())) == 40
    assert held[-1] == (depth, depth)
    assert max(kept for kept, _ in held) == depth
