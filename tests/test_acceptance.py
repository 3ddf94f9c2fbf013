"""Acceptance suite: one test per shipped guarantee.

Each test prints a single "ACCEPTANCE nn <name>: PASS|FAIL" line (visible
with pytest -s, or in captured output on failure) and then asserts.  The
suite compares against externally published tables, kept here verbatim.
Every published value must be reproduced exactly, with one exception: a
printed value that every computation route contradicts, and that the
source's own inverse table and polynomials also contradict, is listed as
an erratum (``R3_ERRATA``) with that evidence, and the test then checks
the corrected value instead.  The corrected values are derived inside the
test from the other published tables, never from the library.
"""

import random
import time
from fractions import Fraction
from math import factorial

from stirlingb.fps import FormalPowerSeries as FPS
from stirlingb.permcore import oracle_total, oracle_triangle
from stirlingb.riordan import (
    ExpRiordanArray,
    make_triangle_B,
    production_rebuild,
    unsigned_conjugate,
)
from stirlingb.sequences import (
    d_asym,
    d_egf,
    d_explicit,
    d_poly,
    d_rec,
    diagonals,
    diagonals_delta,
    howard_check,
    lattice_terms,
    tree_terms,
    triangle_ge2_rec,
    triangle_gem_rec,
    typeB_factorial_conv,
)
from stirlingb.verify import inv_sqrt_e

# The published r=3 table of the ord >= 2 triangle, copied verbatim.  22 of its
# 28 entries must be reproduced exactly; the six interior entries of rows 4-6
# listed in R3_ERRATA are misprints, kept here as published.  An entry counts
# as a misprint only if every route contradicts it and so do the published
# inverse table and d-polynomials; test_criterion_01 recomputes that evidence.
PUBLISHED_R3 = [
    [1],
    [12, 1],
    [144, 28, 1],
    [1824, 592, 48, 1],
    [25344, 11232, 1552, 72, 1],
    [391680, 213888, 41824, 3280, 100, 1],
    [6727680, 4267008, 1061248, 119520, 6080, 132, 1],
]

# The published unsigned inverse table for r=3 (all entries confirmed).
PUBLISHED_INVERSE_R3 = [
    [1],
    [12, 1],
    [192, 28, 1],
    [3936, 752, 48, 1],
    [99456, 22304, 1904, 72, 1],
    [3001344, 748672, 76320, 3920, 100, 1],
    [105544704, 28412416, 3265792, 203040, 7120, 132, 1],
]

D_R0_LIST = [1, 1, 5, 29, 233, 2329, 27949, 391285]

PUBLISHED_D_POLYS = {
    2: (5, 8, 16),
    3: (29, 92, 48, 64),
    4: (233, 592, 992, 256, 256),
    5: (2329, 7796, 7200, 8320, 1280, 1024),
    6: (27949, 83672, 141424, 67840, 60160, 6144, 4096),
}

TREE_COUNTS = [1, 4, 32, 416, 7552, 176128]

# Misprints in PUBLISHED_R3: (n, k) -> (printed, corrected).  Each corrected
# value is the entry of the matrix inverse of the published inverse table
# (rebuilt in test_criterion_01), and the corrected rows sum to the published
# d-polynomials at r = 3 (38585, 667669, 12735397) where the printed rows do
# not (38201, 650773, 12181669).
R3_ERRATA = {
    (4, 1): (11232, 11616),
    (5, 1): (213888, 229248),
    (5, 2): (41824, 43360),
    (6, 1): (4267008, 4724736),
    (6, 2): (1061248, 1153408),
    (6, 3): (119520, 123360),
}


def _report(num, name, ok, detail=""):
    line = "ACCEPTANCE %02d %s: %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += " - " + detail
    print(line)


def _uninvert_published_inverse():
    """The r=3 table as the inverse of PUBLISHED_INVERSE_R3.

    The published inverse is unsigned, so its (n, k) entry is negated when
    n + k is odd; the resulting unitriangular integer matrix A is then
    inverted column by column by forward substitution,
    T[n][k] = -sum(A[n][j] * T[j][k] for k <= j < n).
    """
    size = len(PUBLISHED_INVERSE_R3)
    signed = [
        [(-1) ** (n + k) * PUBLISHED_INVERSE_R3[n][k] for k in range(n + 1)]
        for n in range(size)
    ]
    table = [[0] * (n + 1) for n in range(size)]
    for k in range(size):
        table[k][k] = 1
        for n in range(k + 1, size):
            table[n][k] = -sum(signed[n][j] * table[j][k] for j in range(k, n))
    return table


def test_criterion_01_published_r3_table_both_routes():
    start = time.perf_counter()
    rec = [[triangle_ge2_rec(n, k, 3) for k in range(n + 1)] for n in range(7)]
    arr = make_triangle_B(2, 3, order=6)
    rio = [[int(arr.entry(n, k)) for k in range(n + 1)] for n in range(7)]
    elapsed = time.perf_counter() - start

    cells = [(n, k) for n in range(7) for k in range(n + 1)]
    derived = _uninvert_published_inverse()
    found = {
        (n, k): (PUBLISHED_R3[n][k], derived[n][k])
        for n, k in cells
        if derived[n][k] != PUBLISHED_R3[n][k]
    }
    corrected = [list(row) for row in PUBLISHED_R3]
    for (n, k), (_, value) in R3_ERRATA.items():
        corrected[n][k] = value
    at_r3 = {
        n: sum(c * 3**i for i, c in enumerate(coeffs))
        for n, coeffs in PUBLISHED_D_POLYS.items()
    }
    bad_sums = [
        (n, sum(corrected[n]), total)
        for n, total in at_r3.items()
        if sum(corrected[n]) != total
    ]
    off = {
        route: [
            (n, k, table[n][k], corrected[n][k])
            for n, k in cells
            if table[n][k] != corrected[n][k]
        ]
        for route, table in (("recurrence", rec), ("Riordan", rio))
    }
    oracle_cells = sorted(c for c in R3_ERRATA if c[0] <= 5)
    oracle_off = [
        (n, k, got, corrected[n][k])
        for n, k in oracle_cells
        if (got := oracle_triangle(n, 3, k, "assoc", 2)) != corrected[n][k]
    ]

    ok = (
        found == R3_ERRATA
        and not bad_sums
        and not any(off.values())
        and not oracle_off
        and elapsed < 1.0
    )
    _report(
        1,
        "published r=3 table, recurrence and Riordan routes",
        ok,
        "%d/28 printed entries reproduced, %d errata rebuilt from the published "
        "inverse table, recurrence %d/28 and Riordan %d/28 on the corrected "
        "table, oracle on errata %s, %.3fs"
        % (
            sum(rec[n][k] == PUBLISHED_R3[n][k] for n, k in cells),
            len(found),
            28 - len(off["recurrence"]),
            28 - len(off["Riordan"]),
            oracle_cells,
            elapsed,
        ),
    )
    assert elapsed < 1.0
    assert found == R3_ERRATA, (
        "the inverse of the published inverse table differs from the published "
        "table at {cell: (printed, derived)} %r, but R3_ERRATA is %r"
        % (found, R3_ERRATA)
    )
    assert not bad_sums, (
        "corrected row sums differ from the published d-polynomials at r=3; "
        "(n, row sum, polynomial): %r" % (bad_sums,)
    )
    for route, mismatches in off.items():
        assert not mismatches, (
            "the %s route differs from the corrected published table; "
            "(n, k, route, corrected): %r" % (route, mismatches)
        )
    assert not oracle_off, (
        "exhaustive enumeration differs from corrected errata cells; "
        "(n, k, oracle, corrected): %r" % (oracle_off,)
    )


def test_criterion_02_oracle_grid_matches_recurrence():
    start = time.perf_counter()
    bad = []
    checked = 0
    for r in range(4):
        for n in range(7 - r):
            for k in range(n + 1):
                if oracle_triangle(n, r, k, "assoc", 2) != triangle_ge2_rec(n, k, r):
                    bad.append((n, r, k))
                checked += 1
    elapsed6 = time.perf_counter() - start
    for size in (7, 8):
        for r in range(4):
            n = size - r
            for k in range(n + 1):
                if oracle_triangle(n, r, k, "assoc", 2) != triangle_ge2_rec(n, k, r):
                    bad.append((n, r, k))
                checked += 1
    ok = not bad and elapsed6 < 10.0
    _report(
        2,
        "exhaustive oracle vs recurrence, n+r <= 8, r <= 3",
        ok,
        "%d cells, n+r <= 6 subset in %.2fs" % (checked, elapsed6),
    )
    assert elapsed6 < 10.0
    assert not bad, bad[:5]


def test_criterion_03_d_family_four_routes():
    bad = []
    for r in range(6):
        egf = d_egf(r, 11)
        arr = make_triangle_B(2, r, order=10)
        for n in range(11):
            ref = d_rec(r, n)
            row_sum = sum(arr.entry(n, k) for k in range(n + 1))
            if not (d_explicit(r, n) == ref == egf[n] == row_sum):
                bad.append((r, n))
    head = [d_rec(0, n) for n in range(8)]
    ok = not bad and head == D_R0_LIST
    _report(
        3,
        "d-family via recurrence, explicit sum, egf and row sums, r <= 5, n <= 10",
        ok,
        "r=0 head %s" % (head,),
    )
    assert not bad, bad[:5]
    assert head == D_R0_LIST


def test_criterion_04_d_polynomials():
    got = {n: d_poly(n).coeffs for n in PUBLISHED_D_POLYS}
    ok = got == PUBLISHED_D_POLYS
    _report(4, "d-family polynomials in r, n = 2..6", ok)
    assert got == PUBLISHED_D_POLYS


def test_criterion_05_inverse_matrix():
    arr = make_triangle_B(2, 3, order=10)
    ident = ExpRiordanArray.identity(10)
    product_ok = arr.multiply(arr.invert())._table == ident._table
    conj = unsigned_conjugate(make_triangle_B(2, 3, order=8).invert())
    bad = [
        (n, k, conj.entry(n, k), PUBLISHED_INVERSE_R3[n][k])
        for n in range(7)
        for k in range(n + 1)
        if conj.entry(n, k) != PUBLISHED_INVERSE_R3[n][k]
    ]
    ok = product_ok and not bad
    _report(
        5,
        "group inverse to order 10, published inverse table reproduced",
        ok,
        "28/28 published entries match" if not bad else "%d mismatches" % len(bad),
    )
    assert product_ok
    assert not bad, bad[:5]


def test_criterion_06_tree_counts():
    got = tree_terms(6)
    ok = got == TREE_COUNTS
    _report(6, "plane increasing tree counts n = 0..5", ok, "%s" % (got,))
    assert got == TREE_COUNTS


def test_criterion_07_lattice_identity():
    bad = []
    for r in range(5):
        for n, s in enumerate(lattice_terms(r, 9)):
            if triangle_ge2_rec(n, 0, r) != 2**n * factorial(n) * s:
                bad.append((n, r))
    ok = not bad
    _report(7, "column 0 equals 2^n n! lattice counts, r <= 4, n <= 8", ok)
    assert not bad, bad


def test_criterion_08_diagonal_closed_forms():
    hard_bad = []
    for r in range(5):
        for n in range(9):
            first, second = diagonals(n, r, 2)
            if first != triangle_ge2_rec(n + 1, n, r):
                hard_bad.append((n, r, "first"))
            if second != triangle_ge2_rec(n + 2, n, r):
                hard_bad.append((n, r, "second"))
    soft_bad = []
    for m in (1, 2, 3):
        for r in range(8):
            for n in range(8 - r):
                first, second = diagonals_delta(n, r, m)
                if first != oracle_triangle(n + 1, r, n, "assoc", m, bound=9):
                    soft_bad.append((m, n, r, "first"))
                if second != oracle_triangle(n + 2, r, n, "assoc", m, bound=9):
                    soft_bad.append((m, n, r, "second"))
    m2_conflicts = [t for t in soft_bad if t[0] == 2]
    ok = not hard_bad and not m2_conflicts
    detail = ""
    if soft_bad and not m2_conflicts:
        detail = "errata finding (non-blocking, m != 2): %s" % (soft_bad[:4],)
    _report(8, "subdiagonal closed forms vs triangle and oracle", ok, detail)
    assert not hard_bad, hard_bad[:5]
    assert not m2_conflicts, m2_conflicts[:5]


def test_criterion_09_general_window_m3():
    bad = []
    for r in range(3):
        arr = make_triangle_B(3, r, order=9)
        for n in range(10 - r):
            for k in range(n + 1):
                a = triangle_gem_rec(n, k, r, 3)
                b = arr.entry(n, k)
                c = oracle_triangle(n, r, k, "assoc", 3, bound=9)
                if not (a == b == c):
                    bad.append((n, k, r, a, b, c))
    ok = not bad
    _report(9, "ord >= 3 triangle: recurrence, Riordan, oracle; r <= 2, n+r <= 9", ok)
    assert not bad, bad[:5]


def test_criterion_10_convolution_and_cross_window_identities():
    conv_bad = []
    for m in (2, 3):
        for mode in ("assoc", "restr"):
            for n in range(7):
                if typeB_factorial_conv(n, mode, m) != oracle_total(n, 0, mode, m):
                    conv_bad.append((m, mode, n))
    howard_bad = []
    for n in range(8):
        for k in range(n + 1):
            lhs, rhs = howard_check(n, k, variant="type-a")
            if lhs != rhs:
                howard_bad.append(("type-a", n, k))
    for variant, ms in (("type-b", (2, 3)), ("howard1", (2,))):
        for m in ms:
            for r in range(7):
                for n in range(7 - r):
                    for k in range(n + 1):
                        lhs, rhs = howard_check(n, k, r, m, variant=variant)
                        if lhs != rhs:
                            howard_bad.append((variant, m, n, k, r))
    ok = not conv_bad and not howard_bad
    _report(10, "window convolution totals and cross-window identities", ok)
    assert not conv_bad, conv_bad[:5]
    assert not howard_bad, howard_bad[:5]


def test_criterion_11_asymptotics():
    inv = inv_sqrt_e(80)
    bad = []
    for r in range(3):
        errs = []
        for n in (10, 20, 30):
            exact = Fraction(d_rec(r, n), factorial(n)) / d_asym(r, n)
            errs.append(abs(exact / inv - 1))
        if not (errs[0] > errs[1] > errs[2]):
            bad.append((r, "not decreasing", [float(e) for e in errs]))
        if errs[2] >= Fraction(5, 100):
            bad.append((r, "error at n=30", float(errs[2])))
    ratio25 = Fraction(d_rec(0, 25), 2**25 * factorial(25))
    near = abs(ratio25 - inv) < Fraction(1, 100)
    ok = not bad and near
    _report(
        11,
        "normalized d-family ratios approach 1/sqrt(e)",
        ok,
        "plain ratio at n=25 off by %.3e" % float(abs(ratio25 - inv)),
    )
    assert not bad, bad
    assert near


def test_criterion_12_riordan_group_laws_randomized():
    rng = random.Random(20240801)
    order = 12
    arrays = []
    for _ in range(50):
        g = [rng.choice([1, 2, 3])] + [rng.randint(-3, 3) for _ in range(order)]
        f = [0, rng.choice([1, 2, 3])] + [rng.randint(-3, 3) for _ in range(order - 1)]
        arrays.append(
            ExpRiordanArray(FPS.from_coeffs(g, order), FPS.from_coeffs(f, order))
        )
    ident = ExpRiordanArray.identity(order)
    for arr in arrays:
        assert arr.multiply(ident)._table == arr._table
        assert ident.multiply(arr)._table == arr._table
        inverse = arr.invert()
        assert arr.multiply(inverse)._table == ident._table
        assert inverse.multiply(arr)._table == ident._table
        rebuilt = production_rebuild(arr)
        for n in range(order + 1):
            for k in range(n + 1):
                assert rebuilt[n][k] == arr.entry(n, k)
    for i in range(0, 48, 3):
        a, b, c = arrays[i], arrays[i + 1], arrays[i + 2]
        assert (
            a.multiply(b).multiply(c)._table == a.multiply(b.multiply(c))._table
        )
    _report(12, "Riordan group laws and production rebuild, 50 random arrays", True)
