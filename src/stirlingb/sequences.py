"""Recurrences and closed forms for signed-permutation cycle statistics.

Conventions used throughout (see also permcore):

* ``triangle_ge2_rec(n, k, r)`` counts signed permutations of n + r elements
  with k + r cycles, the r special elements (1..r, by absolute value) in
  distinct cycles, and every cycle of order >= 2 or fully barred.  These are
  the row/column entries of the m = 2 triangle; row sums over k give the
  derangement counts ``d_rec(r, n)``.
* ``triangle_gem_rec(n, k, r, m)`` generalizes the window to ord >= m for
  every m >= 0.  A cycle of length L carries w_L sign masks, 2^L inside the
  window and 1 below it, where it must be all-barred.
* ``stirlingA(n, k, mode, m)`` are the plain (type A) restricted/associated
  Stirling numbers of the first kind: cycle sizes bounded above ("restr") or
  below ("assoc") by m, no sign, no exemption.  Here w_L is 1 inside the
  window and 0 outside it, and both triangles run one weight rule.
* The d-family is computed four independent ways (recurrence, explicit
  double sum, egf coefficients, Riordan row sums) so the tests can compare.

The recurrences are evaluated row by row into one table per parameter set,
kept for the life of the process and extended in place when a query reaches
past its last row.  Each triangle table starts from row 0 (the r specials
as fixed points, [w_1^r] for the window triangles and [1] for the rest)
and builds every column of the later rows, column 0 included, with its one
rule.  Long inner sums are carried from one row to the next as running
sums, so a cell costs O(1) big-integer operations, plus one per explicit
head weight (about m) for the window triangles, and nothing recurses.
The point functions (``triangle_ge2_rec(n, k, r)`` and friends) read one
cell of a table.

The series-backed families (``d_egf``, ``lattice_terms``, ``tree_terms``)
take a term count and read every term from one series truncated at the
order that count needs.

Everything returns exact ints (or Fraction where the contract says so).  An
exact rational published as an int goes through ``_int``, which raises
``ArithmeticError`` naming the value if it is not one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from ._record import Record
from .fps import FormalPowerSeries

__all__ = [
    "HOWARD_VARIANTS",
    "RPolynomial",
    "d_asym",
    "d_egf",
    "d_explicit",
    "d_poly",
    "d_rec",
    "diagonals",
    "diagonals_delta",
    "howard_check",
    "incomplete_factorial",
    "inverse_triangle_rec",
    "lattice_terms",
    "rstirling1",
    "stirling1",
    "stirlingA",
    "tree_terms",
    "triangle_ge2_alt_rec",
    "triangle_ge2_rec",
    "triangle_gem_rec",
    "typeB_factorial_conv",
]


def _int(value, name: str) -> int:
    """``value`` (an int or Fraction) as an int; ``name`` says which value."""
    if value.denominator != 1:
        raise ArithmeticError("%s is not an integer: %s" % (name, value))
    return int(value)


def _series_order(count: int, shift: int = 0) -> int:
    """The truncation order of a series whose terms 0..count-1 sit at z^0 ..
    z^(count-1+shift); at least 1, which the series constructors need."""
    if count < 0:
        raise ValueError("count must be >= 0, got %d" % (count,))
    return max(count - 1 + shift, 1)


# -- row tables ------------------------------------------------------------------


class _Rows:
    """Rows 0, 1, ... of one recurrence, kept and appended in place.

    ``_next(n)`` returns row n.  It reads the rows before it, the running
    sums its subclass carries for the last row only, and ``lower.rows``: the
    table of the same recurrence with one special element fewer, which
    ``row`` extends to row n first.  A query walks that chain from the
    bottom up, so no row is ever computed by recursion.
    """

    lower: _Rows | None = None

    def __init__(self, r: int = 0):
        self.r = r  # special elements; 0 for the recurrences without them
        self.rows: list = []

    def row(self, n: int):
        if n >= len(self.rows):
            chain = [self]
            while chain[-1].lower is not None:
                chain.append(chain[-1].lower)
            for table in reversed(chain):
                rows = table.rows
                while len(rows) <= n:
                    rows.append(table._next(len(rows)))
        return self.rows[n]

    def cell(self, n: int, k: int):
        """Entry k of row n of a triangle; 0 outside 0 <= k <= n."""
        return self.row(n)[k] if 0 <= k <= n else 0

    def _next(self, n: int):
        raise NotImplementedError


_TABLES: dict[tuple, _Rows] = {}


def _table(cls, *params) -> _Rows:
    """The table of ``cls`` for one parameter set, made on first use."""
    table = _TABLES.get((cls, *params))
    if table is None:
        table = _TABLES[(cls, *params)] = cls(*params)
    return table


def _r_table(cls, r: int, *params) -> _Rows:
    """``_table`` for a recurrence in r specials that reads its r-1 table;
    the tables for 0..r are made and linked from the bottom up."""
    table = _TABLES.get((cls, r, *params))
    if table is None:
        for s in range(r + 1):
            lower, table = table, _table(cls, s, *params)
            table.lower = lower
    return table


# -- the ord >= 2 triangle (signed derangement cycle counts) -------------------


class _Ge2Rows(_Rows):
    """The remove-the-largest-element recurrence of ``triangle_ge2_rec`` for
    one r.  With p = n-1, ff(p, j) = p!/(p-j)! and T' the table for r-1,

        T(n, k) = T(p, k-1) + 4p B(p-1, k-1) + 4r D(p, k)    (k >= 0)
        B(p, k) = sum_j 2^j ff(p, j) T(p-j, k)           = T(p, k) + 2p B(p-1, k)
        A(p, k) = sum_j 2^j ff(p, j) T'(p-j, k)          = T'(p, k) + 2p A(p-1, k)
        D(p, k) = sum_j (j+1) 2^j ff(p, j) T'(p-j, k)    = A(p, k) + 2p D(p-1, k)

    from row 0 = [1]; at k = 0 the k-1 terms vanish and only 4r D(p, 0) is
    left.  ``b``, ``a`` and ``d`` hold B, A and D at p-1 for the last row p,
    padded with a zero to the row's length.
    """

    def __init__(self, r: int):
        super().__init__(r)
        self.b, self.a, self.d = [0], [0], [0]

    def _next(self, n: int) -> list[int]:
        if n == 0:
            return [1]
        p, r = n - 1, self.r
        prev, b, two_p = self.rows[p], self.b, 2 * p
        row = [0] + [prev[k] + 2 * two_p * b[k] for k in range(n)]
        if r:
            a = [x + two_p * y for x, y in zip(self.lower.rows[p], self.a)]
            d = [x + two_p * y for x, y in zip(a, self.d)]
            for k in range(n):  # D(p, n) = 0
                row[k] += 4 * r * d[k]
            self.a, self.d = a + [0], d + [0]
        self.b = [x + two_p * y for x, y in zip(prev, b)] + [0]
        return row


def triangle_ge2_rec(n: int, k: int, r: int) -> int:
    """Signed permutations of [n+r], k+r cycles, specials 1..r in distinct
    cycles, every cycle of order >= 2 or all-barred.  Computed from the
    remove-the-largest-element recurrence, column 0 included.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    return _r_table(_Ge2Rows, r).cell(n, k)


class _Ge2AltRows(_Rows):
    def _next(self, n: int) -> list[int]:
        if n == 0:
            return [1]
        p = n - 1
        prev = self.rows[p]
        prev2 = self.rows[p - 1] if p else []
        return [
            2 * p * (a + b) + c
            for a, b, c in zip(prev + [0], [0] + prev2 + [0], [0] + prev)
        ]


def triangle_ge2_alt_rec(n: int, k: int) -> int:
    """The r = 0 case again, via the independent three-term recurrence
    t(n+1, k) = 2n t(n, k) + 2n t(n-1, k-1) + t(n, k-1).  Test cross-check.
    """
    return _table(_Ge2AltRows).cell(n, k)


# -- the window triangles and the type A Stirling numbers of the first kind ---


class _WindowRows(_Rows):
    """The removal recurrence of a window triangle for one (r, mode, m,
    signed).  A cycle of length L carries w_L: signed (type B), 2^L sign
    masks inside the window and 1 outside it, where it must be all-barred;
    unsigned (type A), 1 inside and 0 outside.  The window is L >= m
    ("assoc") or L <= m ("restr"), so w_L is a head w_1..w_c and then a
    tail rho^L, rho in {2, 1, 0}.  The triangle is [(f')^r, f] with f =
    sum_L w_L x^L/L, whose rule reads, with p = n-1, ff(p, j) = p!/(p-j)!,
    c2 = max(c-1, 0) and G' the table for r-1,

        G(n, k) = sum_j w_(j+1) ff(p, j) G(p-j, k-1)
                  + r sum_j (j+1) w_(j+2) ff(p, j) G'(p-j, k)
                = sum_{j<c} w_(j+1) ff(p, j) G(p-j, k-1) + rho H(p, k-1)
                  + r (sum_{j<c2} (j+1) w_(j+2) ff(p, j) G'(p-j, k) + rho^2 D(p, k))
        H(p, k) = sum_{j>=c} rho^j ff(p, j) G(p-j, k)
                = rho^c ff(p, c) G(p-c, k) + rho p H(p-1, k)
        A(p, k) = sum_{j>=c2} rho^j ff(p, j) G'(p-j, k)
                = y(p, k) + rho p A(p-1, k),    y(p, k) = rho^c2 ff(p, c2) G'(p-c2, k)
        D(p, k) = sum_{j>=c2} (j+1) rho^j ff(p, j) G'(p-j, k)
                = (c2+1) y(p, k) + rho p (D(p-1, k) + A(p-1, k))

    from row 0 = [w_1^r], the r specials as fixed points; at k = 0 only the
    r term is left.  The tails are skipped when rho = 0.  ``h``, ``a`` and
    ``d`` hold H, A and D at p-1 for the last row p, ``sums`` the row sums.
    """

    def __init__(self, r: int, mode: str, m: int, signed: bool):
        super().__init__(r)
        inside, outside = (2, 1) if signed else (1, 0)  # w_L = base^L
        if mode == "assoc":
            self.c, base, self.rho = max(m - 1, 0), outside, inside
        else:
            self.c, base, self.rho = max(m, 0), inside, outside
        self.w = [base**L for L in range(1, self.c + 1)]  # w[j] is w_(j+1)
        self.h, self.a, self.d, self.sums = [], [], [], []

    def total(self, n: int) -> int:
        """The sum of row n, formed once per row; 0 for n < 0."""
        while len(self.sums) <= n:
            self.sums.append(sum(self.row(len(self.sums))))
        return self.sums[n] if n >= 0 else 0

    def _next(self, n: int) -> list[int]:
        r, c, rho, w = self.r, self.c, self.rho, self.w
        if n == 0:
            return [(w[0] if c else rho) ** r]
        p, rows, c2 = n - 1, self.rows, max(c - 1, 0)
        ff = [perm(p, j) for j in range(c + 1)]
        if rho:
            step = rho * p
            h = [step * v for v in self.h] + [0]
            if p >= c:
                x = rho**c * ff[c]
                for k, v in enumerate(rows[p - c]):
                    h[k] += x * v
            self.h = h
            row = [0] + [rho * v for v in h]
        else:
            row = [0] * (n + 1)
        for j in range(min(c, n)):
            x = w[j] * ff[j]
            if x:
                for k, v in enumerate(rows[p - j]):
                    row[k + 1] += x * v
        if r:
            low = self.lower.rows
            if rho:
                a = [step * v for v in self.a] + [0]
                d = [step * (u + v) for u, v in zip(self.d, self.a)] + [0]
                if p >= c2:
                    x = rho**c2 * ff[c2]
                    for k, v in enumerate(low[p - c2]):
                        a[k] += x * v
                        d[k] += (c2 + 1) * x * v
                self.a, self.d = a, d
                x = rho * rho * r
                for k in range(n):  # D(p, n) = 0
                    row[k] += x * d[k]
            for j in range(min(c2, n)):
                x = r * (j + 1) * w[j + 1] * ff[j]
                for k, v in enumerate(low[p - j]):
                    row[k] += x * v
        return row


def _gem(n: int, k: int, r: int, m: int) -> int:
    return _r_table(_WindowRows, r, "assoc", m, True).cell(n, k)


def triangle_gem_rec(n: int, k: int, r: int, m: int) -> int:
    """Signed permutations of [n+r], k+r cycles, specials distinct, every
    cycle of order >= m or all-barred, for every m >= 0.  At m <= 1 every
    cycle is in the window and signs are free.

    m = 2 dispatches to triangle_ge2_rec, the paper's recurrence.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 2:
        return triangle_ge2_rec(n, k, r)
    return _gem(n, k, r, m)


def _type_a(mode: str, m: int) -> _WindowRows:
    """The unsigned window table for one (mode, m), once both are checked."""
    if mode not in ("restr", "assoc"):
        raise ValueError("mode must be 'restr' or 'assoc', got %r" % (mode,))
    if m < 0:
        raise ValueError("m must be >= 0")
    return _table(_WindowRows, 0, mode, m, False)


def stirlingA(n: int, k: int, mode: str, m: int) -> int:
    """Permutations of [n] with k cycles, all cycle sizes <= m ("restr") or
    >= m ("assoc").  No signs and no exemption here."""
    return _type_a(mode, m).cell(n, k)


class _RStirling1Rows(_Rows):
    """R(n, k) = R(n-1, k-1) + (n-1+r) R(n-1, k) for one r."""

    def _next(self, n: int) -> list[int]:
        if n == 0:
            return [1]
        prev, w = self.rows[n - 1], n - 1 + self.r
        return [a + w * b for a, b in zip([0] + prev, prev + [0])]


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind (cycle counts)."""
    return rstirling1(n, k, 0)


def rstirling1(n: int, k: int, r: int) -> int:
    """Permutations of [n+r] with k+r cycles, the elements 1..r in distinct
    cycles (classical r-Stirling numbers of the first kind)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return _table(_RStirling1Rows, r).cell(n, k)


def incomplete_factorial(n: int, mode: str, m: int) -> int:
    """Row sums of stirlingA: permutations of [n] with the size window."""
    return _type_a(mode, m).total(n)


def typeB_factorial_conv(n: int, mode: str, m: int) -> int:
    """Total signed permutations of [n] whose cycles obey the window-or-
    all-barred rule, by convolving the two type A totals: the elements in
    window cycles keep free signs (2^i), the rest sit in all-barred cycles
    on the other side of the window, read unchecked: at assoc m = 0 that
    side is the empty window (restr, -1)."""
    inside = _type_a(mode, m)
    other, edge = ("restr", m - 1) if mode == "assoc" else ("assoc", m + 1)
    outside = _table(_WindowRows, 0, other, edge, False)
    return sum(
        comb(n, i) * 2**i * inside.total(i) * outside.total(n - i) for i in range(n + 1)
    )


# -- the d-family (no-unbarred-fixed-point counts with specials) ----------------


class _DRows(_Rows):
    """d(r, n) for one r as a list over n: d(0, n) = 2n d(0, n-1) + (-1)^n
    (inclusion-exclusion over unbarred fixed points, summed as it grows),
    and for r >= 1 the three-term recurrence over the r-1 list."""

    def _next(self, n: int) -> int:
        if n == 0:
            return 1
        prev = self.rows[n - 1]
        if not self.r:
            return 2 * n * prev + (-1) ** n
        low = self.lower.rows
        return low[n] + 2 * n * (prev + low[n - 1])


def d_rec(r: int, n: int) -> int:
    """d(r, n): signed permutations of [n+r] without unbarred fixed points
    and with 1..r in distinct cycles.  Three-term recurrence in (r, n)."""
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    return _r_table(_DRows, r).row(n)


def d_explicit(r: int, n: int) -> int:
    """d(r, n) by the explicit double sum, all in integers."""
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    return sum(
        comb(r, i)
        * perm(n, i)
        * 2**i
        * sum(
            comb(n - i, k) * (-1) ** k * 2 ** (n - k) * perm(n - k, n - i - k)
            for k in range(n - i + 1)
        )
        for i in range(r + 1)
    )


def _d_series(r: int, order: int) -> FormalPowerSeries:
    """The egf e^(-x)/(1-2x) * ((1+2x)/(1-2x))^r."""
    inv = FormalPowerSeries.from_coeffs([1, -2], order).reciprocal()
    series = FormalPowerSeries.from_coeffs([0, -1], order).exp() * inv
    if r:
        series = series * (FormalPowerSeries.from_coeffs([1, 2], order) * inv) ** r
    return series


def d_egf(r: int, count: int) -> list[int]:
    """First `count` values of d(r, .) via egf coefficient extraction."""
    if r < 0:
        raise ValueError("r must be >= 0")
    series = _d_series(r, _series_order(count))
    return [_int(series.egf_coeff(n), "d_egf(%d)[%d]" % (r, n)) for n in range(count)]


class RPolynomial(Record):
    """A polynomial in the special-element count r, ascending coefficients."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, r: int) -> int:
        return sum(c * r**i for i, c in enumerate(self.coeffs))


def d_poly(n: int) -> RPolynomial:
    """d(., n) as a polynomial in r (degree n), from the recurrence values at
    r = 0..n by Newton forward differences, in integers:

        n! d(r, n) = sum_j (Delta^j d)(0, n) (n!/j!) r(r-1)...(r-j+1)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    diffs = [d_rec(r, n) for r in range(n + 1)]  # diffs[0] is (Delta^j d)(0, n)
    scaled = [0] * (n + 1)  # n! times the coefficients
    falling = [1]  # r(r-1)...(r-j+1), ascending
    for j in range(n + 1):
        weight = diffs[0] * perm(n, n - j)
        for i, c in enumerate(falling):
            scaled[i] += weight * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
    return RPolynomial(
        tuple(
            _int(Fraction(c, factorial(n)), "d_poly(%d) coefficient %d" % (n, i))
            for i, c in enumerate(scaled)
        )
    )


def d_asym(r: int, n: int) -> Fraction:
    """Rational part of the large-n behaviour: d(r, n) ~ n! * d_asym / sqrt(e).

    The caller applies n! and the irrational 1/sqrt(e) at display time; the
    library side stays exact.  The expansion is

        (-2)^n sum_i C(r, i) 2^i (C(-i-1, n) - (2i-1)/2 C(-i, n)),

    summed with C(-i-1, n) = (-1)^n C(n+i, n) and C(-i, n) =
    (-1)^n C(n+i-1, n), except C(0, 0) = 1 at i = n = 0.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    twice = sum(
        comb(r, i)
        * 2**i
        * (2 * comb(n + i, n) - (2 * i - 1) * (comb(n + i - 1, n) if n + i else 1))
        for i in range(r + 1)
    )
    return Fraction(2**n * twice, 2)


# -- lattice paths, diagonals, inverse triangle, trees ---------------------------


def lattice_terms(r: int, count: int) -> list[int]:
    """[x^n] ((1+x)/(1-x))^r for n < count: staircase lattice point counts,
    all read from one series."""
    if r < 0:
        raise ValueError("r must be >= 0")
    order = _series_order(count)
    series = (
        FormalPowerSeries.from_coeffs([1, 1], order)
        * FormalPowerSeries.from_coeffs([1, -1], order).reciprocal()
    ) ** r
    return [_int(series.coeff(n), "lattice_terms(%d)[%d]" % (r, n)) for n in range(count)]


def diagonals(n: int, r: int, m: int = 2) -> tuple[int, int]:
    """Closed forms for the two subdiagonal entries (n+1, n) and (n+2, n)
    of the ord >= m triangle.  m = 2 uses the dedicated quadratic forms;
    every other m >= 0 dispatches to the Kronecker-delta forms."""
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    if m == 2:
        first = 2 * (n + 1) * (n + 2 * r)
        second = (
            Fraction(4, 3)
            * comb(n + 2, 2)
            * (3 * n * n + n + 12 * n * r + 12 * r * r)
        )
        return first, _int(second, "diagonals(%d, %d, 2)[1]" % (n, r))
    return diagonals_delta(n, r, m)


def diagonals_delta(n: int, r: int, m: int) -> tuple[int, int]:
    """The same two subdiagonals for any m >= 0, written with Kronecker
    deltas in the exponents; m = 0 is the m = 1 triangle (all cycles in the
    window), so it takes the m = 1 deltas."""
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    d1 = 1 if m <= 1 else 0
    d2 = 1 if m == 2 else 0
    d3 = 1 if m == 3 else 0
    first = Fraction(2) ** ((n + r + 1) * d1 + 2 * d2 - 1) * (n + 1) * (n + 2 * r)
    second = (
        Fraction(2) ** ((n + r + 2) * d1)
        / 12
        * comb(n + 2, 2)
        * (
            3 * 2 ** (4 * d2) * (4 * r * (r + n - 1) + n * (n - 1))
            + 2 ** (3 * (d2 + d3) + 3) * (n + 3 * r)
        )
    )
    name = "diagonals_delta(%d, %d, %d)" % (n, r, m)
    return _int(first, name + "[0]"), _int(second, name + "[1]")


class _InverseRows(_Rows):
    """The one-row-back recurrence of ``inverse_triangle_rec`` for one r.
    With p = n-1 and the suffix sums over row p

        P(k) = sum_{i>=k} (i!/k!) 2^(i-k) T(p, i)          = T(p, k) + 2(k+1) P(k+1)
        Q(k) = sum_{i>=k} (i-k+1) (i!/k!) 2^(i-k) T(p, i)  = P(k) + 2(k+1) Q(k+1)

    the rule reads T(n, k) = T(p, k-1) + 4 (r Q(k) + k P(k)).
    """

    def _next(self, n: int) -> list[int]:
        if n == 0:
            return [1]
        prev, r = self.rows[n - 1], self.r
        row = prev[-1:]  # T(n, n) = T(p, p): both suffix sums are empty
        sp = sq = 0
        for k in range(n - 1, -1, -1):
            sp = prev[k] + 2 * (k + 1) * sp
            sq = sp + 2 * (k + 1) * sq
            row.append((prev[k - 1] if k else 0) + 4 * (r * sq + k * sp))
        row.reverse()
        return row


def inverse_triangle_rec(n: int, k: int, r: int) -> int:
    """Entries of the unsigned inverse of the ord >= 2 triangle's Riordan
    array, by the one-row-back recurrence

        T(n+1, k) = T(n, k-1)
                    + (1/k!) sum_{i=k}^{n} i! 2^(i-k+2) ((i-k+1) r + k) T(n, i)

    with T(0,0) = 1 and T(n, k) = 0 outside 0 <= k <= n.  Column 0 is the
    k = 0 instance of the same rule (the printed standalone base case
    contradicts the array; see the verification tests).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    return _table(_InverseRows, r).cell(n, k)


def tree_terms(count: int) -> list[int]:
    """n! [z^n] F'(z) for n < count, where F is the sign-flipped reversion of
    the m = 2 cycle series: counts of plane increasing trees with doubled
    edge colors (1, 4, 32, 416, ...).  One series reversion, no special
    functions.
    """
    order = _series_order(count, shift=1)
    base = -(FormalPowerSeries.from_coeffs([1, -2], order).log()) - FormalPowerSeries.x(
        order
    )
    series = (-(base.revert().scale_arg(-1))).derivative()
    return [_int(series.egf_coeff(n), "tree_terms[%d]" % (n,)) for n in range(count)]


# -- cross-window identities -----------------------------------------------------

HOWARD_VARIANTS = ("type-a", "type-b", "howard1")


def howard_check(
    n: int, k: int, r: int = 0, m: int = 2, variant: str = "type-b"
) -> tuple[int, int]:
    """Evaluate both sides of one of the cross-window identities.

    * "type-a":  plain Stirling vs. binomial-weighted ord >= 2 type A numbers,
      lhs = s1(n, n-k), rhs = sum_l C(n, 2k-l) sA(2k-l, k-l, assoc, 2).
      (r and m are ignored.)
    * "type-b":  the ord >= m triangle against the ord >= m+1 triangle,
      double sum over extracted short cycles (weight (2^m - 1) per element
      bundle, (ml)!/(m^l l!) arrangements).
    * "howard1": the free-sign signed r-Stirling numbers (2^(n+r) weighted)
      against the ord >= 2 triangle.

    Returns (lhs, rhs), computed along independent routes.
    """
    if variant == "type-a":
        lhs = stirling1(n, n - k)
        rhs = sum(
            comb(n, 2 * k - l) * stirlingA(2 * k - l, k - l, "assoc", 2)
            for l in range(k + 1)
            if 2 * k - l <= n
        )
        return lhs, rhs
    if variant == "type-b":
        if m < 1:
            raise ValueError("type-b variant needs m >= 1")
        lhs = triangle_gem_rec(n, k, r, m)
        rhs = 0
        for p in range(r + 1):
            for l in range(k + 1):
                if m * l > n or (m - 1) * p > n - m * l:
                    continue
                rhs += (
                    comb(r, p)
                    * comb(n, m * l)
                    * comb(n - m * l, (m - 1) * p)
                    * (2**m - 1) ** (l + p)
                    * (factorial(m * l) // (m**l * factorial(l)))
                    * factorial((m - 1) * p)
                    * triangle_gem_rec(n - m * l - (m - 1) * p, k - l, r - p, m + 1)
                )
        return lhs, rhs
    if variant == "howard1":
        lhs = 2 ** (n + r) * rstirling1(n, k, r)
        rhs = 0
        for p in range(r + 1):
            for l in range(min(k, n) + 1):
                rhs += (
                    comb(r, p)
                    * comb(n, l)
                    * triangle_ge2_rec(n - l, k - l, r - p)
                )
        return lhs, rhs
    raise ValueError("variant must be one of %s, got %r" % (HOWARD_VARIANTS, variant))
