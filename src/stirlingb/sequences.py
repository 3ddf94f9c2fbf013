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
  window and 0 outside it, and both triangles run one weight rule.  Every
  window function checks r, mode and m, in that order, through one key
  (``_window``) before it makes or reads a table.
* The d-family is computed four independent ways (recurrence, explicit
  double sum, egf coefficients, the log-derivative rule over Z[r]) and
  checked against the Riordan row sums, so the tests can compare.

The recurrences are evaluated row by row into one table per parameter set,
kept for the life of the process and extended in place when a query reaches
past its last row.  Each triangle table starts from row 0 (the r specials as
fixed points, [w_1^r] for the window triangles and [1] for the rest) and
builds every column of the later rows, column 0 included, with its one rule.
Long inner sums are carried from one row to the next as running sums, so a
cell of row n costs O(1) big-integer operations, plus, in the window
triangles, one per head weight it reads (at most min(m, n)), and nothing
recurses.  The point functions (``triangle_ge2_rec`` and friends) read one
cell of a table.  The row functions (``triangle_gem_rows`` and
``stirlingA_rows``) read none: they return an iterator that makes each row,
a fresh list, when it is read, by the log-derivative rule (``_LogRows``),
which reads a bounded number of rows back and keeps only those.

The series-backed families (``d_egf``, ``lattice_terms``, ``tree_terms``)
take a term count and read every term from one series truncated at the
order that count needs.  They are the only routes that read ``fps``, and
each imports it when called, so the integer tables load no series layer.
They read each term off integer numerators, so only ``d_egf`` (by ``exp``)
and ``d_asym``, whose contract is a Fraction, load ``fractions``.

Everything returns exact ints (or Fraction where the contract says so).  An
exact rational published as an int goes through ``_int(num, den, name)``,
which raises ``ArithmeticError`` naming the value if it is not one.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from itertools import zip_longest
from math import comb, factorial, gcd, lcm, perm
from operator import add

from ._record import Record

__all__ = [
    "RPolynomial",
    "d_asym",
    "d_egf",
    "d_explicit",
    "d_poly",
    "d_rec",
    "diagonals",
    "diagonals_delta",
    "free_sign_howard",
    "incomplete_factorial",
    "inverse_triangle_rec",
    "lattice_terms",
    "rstirling1",
    "stirling1",
    "stirling1_howard",
    "stirlingA",
    "stirlingA_rows",
    "tree_terms",
    "triangle_ge2_alt_rec",
    "triangle_ge2_rec",
    "triangle_gem_howard",
    "triangle_gem_rec",
    "triangle_gem_rows",
    "typeB_factorial_conv",
]


def _int(num: int, den: int, name: str) -> int:
    """num / den (den > 0) as an int; ``name`` says which value."""
    q, rem = divmod(num, den)
    if rem:
        g = gcd(num, den)
        raise ArithmeticError("%s is not an integer: %d/%d" % (name, num // g, den // g))
    return q


def _series_order(count: int, shift: int = 0) -> int:
    """The truncation order of a series whose terms 0..count-1 sit at z^0 ..
    z^(count-1+shift); at least 1, which the series constructors need."""
    if count < 0:
        raise ValueError("count must be >= 0, got %d" % (count,))
    return max(count - 1 + shift, 1)


# -- row tables ------------------------------------------------------------------


class _Rows:
    """Rows 0, 1, ... of one recurrence, kept and appended in place.

    Each subclass's ``_next(n)`` returns row n.  It reads the rows before
    it, the running sums the subclass carries for the last row only, and
    ``lower.rows``: the table of the same recurrence with one special
    element fewer, which ``row`` extends to row n first.  A query walks
    that chain from the bottom up, so no row is ever computed by recursion.
    """

    lower: _Rows | None = None

    def __init__(self, r: int):
        self.r = r  # special elements, the first parameter of every table
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


def _add_into(row: list[int], start: int, x: int, prev: list[int]) -> None:
    """Add x times ``prev`` to ``row`` from column ``start`` on."""
    if x:
        end, terms = start + len(prev), prev if x == 1 else [x * v for v in prev]
        # onto zeros, adding is placing
        row[start:end] = map(add, row[start:end], terms) if any(row[start:end]) else terms


# -- the log-derivative rule -------------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    return [sum(x * b[j - i] for i, x in enumerate(a) if 0 <= j - i < len(b))
            for j in range(len(a) + len(b) - 1)]


class _LogRows(_Rows):
    """The triangle of ``_WindowRows(r, mode, m, signed)`` by one fixed-r
    rule of bounded depth.  With (in, out) = (2, 1) signed and (1, 0)
    unsigned, f' = N/D for

        assoc: D = 1 - in x,   N = in  - D sum_(L<m)  (in^L - out^L) x^(L-1)
        restr: D = 1 - out x,  N = out + D sum_(L<=m) (in^L - out^L) x^(L-1)

    or, unsigned restr, (1 - x^m)/(1 - x): 3 products a cell, not m.  The row
    egf S = (f')^r e^(y f) obeys P S_x = (E + y F) S with P = N D, E =
    r (N'D - N D') and F = N^2, or P = D, E = 0 and F = N at r = 0 (Stanley,
    "Differentiably finite power series", 1980).  So T_n(y) = n! [x^n] S,
    from T_0 = w_1^r, has with ff(k, j) = k!/(k-j)! and P_0 = w_1 (w_1 != 0 if r > 0)

        P_0 T_(k+1) = sum_(l>=1) (E_(l-1) ff(k, l-1) - P_l ff(k, l)
                                  + y F_(l-1) ff(k, l-1)) T_(k+1-l)

    Row n reads ``rows[-l]`` for l <= ``depth``, so ``rows`` may keep only those.
    """

    def __init__(self, r: int, mode: str, m: int, signed: bool):
        super().__init__(r)
        inside, outside = (2, 1) if signed else (1, 0)
        if mode == "restr" and not signed:
            n, d = ([1] + [0] * (m - 1) + [-1]) if m else [0], [1, -1]
        else:
            sign, top, base = (-1, m - 1, inside) if mode == "assoc" else (1, m, outside)
            d = [1, -base]
            n = _poly_mul(d, [sign * (inside**L - outside**L) for L in range(1, top + 1)])
            n[0] += base
        if r:  # r (N'D - N D') = r ((N D)' - 2 N D'), and D' is the constant d[1]
            p, f = _poly_mul(n, d), _poly_mul(n, n)
            e = [r * ((i + 1) * p[i + 1] - 2 * d[1] * c) for i, c in enumerate(n)]
        else:
            p, e, f = d, [], n
        # (l, (E_(l-1), P_l, F_(l-1))) for the lags l = 1..depth
        self.lags = list(enumerate(zip_longest(e, p[1:], f, fillvalue=0), 1))
        self.first, self.lead, self.depth = n[0] ** r, p[0], len(self.lags)

    def _next(self, n: int) -> list[int]:
        if n == 0:
            return [self.first]
        k, rows, row = n - 1, self.rows, [0] * (n + 1)
        for lag, (e, p, f) in self.lags[:n]:
            ff, prev = perm(k, lag - 1), rows[-lag]
            # row n-l times its coefficient, the y part one column right
            _add_into(row, 0, e * ff - p * ff * (k - lag + 1), prev)
            _add_into(row, 1, f * ff, prev)
        return [v // self.lead for v in row] if self.lead != 1 else row

    def advance(self, n: int) -> list[int]:
        """Row n, appended to ``rows`` (ending at row n-1); a copy is returned."""
        row = self._next(n)
        self.rows.append(row)
        return row[:]


def _stream(size: int, r: int, mode: str, m: int, signed: bool) -> Iterator[list[int]]:
    """Rows 0..size-1 of ``_LogRows(r, mode, m, signed)`` as fresh lists, each
    made when read, by an unshared table that keeps its last ``depth`` rows and
    is built at min(m, size + 1), since no cycle in them is longer than size."""
    if size < 0:
        raise ValueError("size must be >= 0, got %d" % (size,))
    table = _LogRows(r, mode, min(m, size + 1), signed)
    table.rows = deque(maxlen=table.depth)
    return map(table.advance, range(size))  # advance, being public, shows in a profile


# -- the window triangles and the type A Stirling numbers of the first kind ---


class _WindowRows(_Rows):
    """The removal recurrence of a window triangle for one (r, mode, m,
    signed).  A cycle of length L carries w_L: signed (type B), 2^L sign
    masks inside the window and 1 outside it, where it must be all-barred;
    unsigned (type A), 1 inside and 0 outside.  The window is L >= m
    ("assoc") or L <= m ("restr"), so w_L is a head base^L for L <= c,
    formed where a row reads it, then a tail rho^L, rho in {2, 1, 0}.  The
    triangle is [(f')^r, f] with f = sum_L w_L x^L/L, whose rule reads, with
    p = n-1, ff(p, j) = p!/(p-j)!, c2 = max(c-1, 0) and G' the table for r-1,

        G(n, k) = sum_j w_(j+1) ff(p, j) G(p-j, k-1)
                  + r sum_j (j+1) w_(j+2) ff(p, j) G'(p-j, k)
                = sum_{j<c} w_(j+1) ff(p, j) G(p-j, k-1)
                  + rho^(c+1) ff(p, c) B(p-c, k-1)
                  + r sum_{j<c2} (j+1) w_(j+2) ff(p, j) G'(p-j, k)
                  + r rho^(c2+2) ff(p, c2) (D(p-c2, k) + c2 A(p-c2, k))
        B(q, k) = sum_i rho^i ff(q, i) G(q-i, k)        = G(q, k) + rho q B(q-1, k)
        A(q, k) = sum_i rho^i ff(q, i) G'(q-i, k)       = G'(q, k) + rho q A(q-1, k)
        D(q, k) = sum_i (i+1) rho^i ff(q, i) G'(q-i, k) = A(q, k) + rho q D(q-1, k)

    from row 0 = [w_1^r], the r specials as fixed points; at k = 0 only the
    r terms are left.  At m = 2 (assoc, signed: c = 1, c2 = 0, rho = 2) the
    rule is the paper's, G(n, k) = G(p, k-1) + 4p B(p-1, k-1) + 4r D(p, k),
    and B, A and D are its sums.  The tails are skipped when rho = 0.  ``b``
    holds B at p-c, and ``a`` and ``d`` hold A and D at p-c2, for the last
    row p; ``sums`` holds the row sums.  Each sum, and each term of a row,
    is formed a whole row at a time.
    """

    def __init__(self, r: int, mode: str, m: int, signed: bool):
        super().__init__(r)
        inside, outside = (2, 1) if signed else (1, 0)  # w_L = base^L
        if mode == "assoc":
            self.c, self.base, self.rho = max(m - 1, 0), outside, inside
        else:
            self.c, self.base, self.rho = max(m, 0), inside, outside
        self.b, self.a, self.d, self.sums = [], [], [], []

    def total(self, n: int) -> int:
        """The sum of row n, formed once per row; 0 for n < 0."""
        while len(self.sums) <= n:
            self.sums.append(sum(self.row(len(self.sums))))
        return self.sums[n] if n >= 0 else 0

    def _next(self, n: int) -> list[int]:
        r, c, rho, base = self.r, self.c, self.rho, self.base
        if n == 0:
            return [(base if c else rho) ** r]
        p, rows, c2, row = n - 1, self.rows, max(c - 1, 0), [0] * (n + 1)
        # (column offset, coefficient, row) for every term of G(n, .)
        terms = [(1, base ** (j + 1) * perm(p, j), rows[p - j]) for j in range(min(c, n))]
        if rho and p >= c:
            step = rho * (p - c)
            self.b = [v + step * u for v, u in zip(rows[p - c], self.b + [0])]
            terms.append((1, rho ** (c + 1) * perm(p, c), self.b))
        if r:
            low = self.lower.rows
            terms += [(0, r * (j + 1) * base ** (j + 2) * perm(p, j), low[p - j])
                      for j in range(min(c2, n))]
            if rho and p >= c2:
                step = rho * (p - c2)
                self.a = a = [v + step * u for v, u in zip(low[p - c2], self.a + [0])]
                self.d = [v + step * u for v, u in zip(a, self.d + [0])]
                x = r * rho ** (c2 + 2) * perm(p, c2)
                terms += [(0, x, self.d), (0, c2 * x, a)]
        for start, x, prev in terms:
            _add_into(row, start, x, prev)
        return row


def _window(r: int, mode: str, m: int, signed: bool) -> tuple:
    """The key (r, mode, m, signed) of a window table, checked in that order."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if mode not in ("restr", "assoc"):
        raise ValueError("mode must be 'restr' or 'assoc', got %r" % (mode,))
    if m < 0:
        raise ValueError("m must be >= 0")
    return r, mode, m, signed


def triangle_gem_rec(n: int, k: int, r: int, m: int) -> int:
    """Signed permutations of [n+r], k+r cycles, specials distinct, every
    cycle of order >= m or all-barred, for every m >= 0.  At m <= 1 every
    cycle is in the window and signs are free.
    """
    return _r_table(_WindowRows, *_window(r, "assoc", m, True)).cell(n, k)


def triangle_ge2_rec(n: int, k: int, r: int) -> int:
    """Signed permutations of [n+r], k+r cycles, specials 1..r in distinct
    cycles, every cycle of order >= 2 or all-barred: the window recurrence
    at m = 2, which is the paper's remove-the-largest-element recurrence,
    column 0 included.
    """
    return triangle_gem_rec(n, k, r, 2)


def triangle_ge2_alt_rec(n: int, k: int) -> int:
    """The r = 0 case again, via the independent three-term recurrence
    t(n+1, k) = 2n t(n, k) + 2n t(n-1, k-1) + t(n, k-1): ``_LogRows`` at
    signed assoc m = 2, r = 0, a public route of its own."""
    return _table(_LogRows, 0, "assoc", 2, True).cell(n, k)


def triangle_gem_rows(size: int, r: int, m: int) -> Iterator[list[int]]:
    """Rows 0..size-1 of ``triangle_gem_rec(., ., r, m)``, by ``_stream``."""
    return _stream(size, *_window(r, "assoc", m, True))


def stirlingA(n: int, k: int, mode: str, m: int) -> int:
    """Permutations of [n] with k cycles, all cycle sizes <= m ("restr") or
    >= m ("assoc").  No signs and no exemption here."""
    return _table(_WindowRows, *_window(0, mode, m, False)).cell(n, k)


def stirlingA_rows(size: int, mode: str, m: int) -> Iterator[list[int]]:
    """Rows 0..size-1 of ``stirlingA(., ., mode, m)``, by ``_stream``."""
    return _stream(size, *_window(0, mode, m, False))


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind (cycle counts)."""
    return rstirling1(n, k, 0)


def rstirling1(n: int, k: int, r: int) -> int:
    """Permutations of [n+r] with k+r cycles, the elements 1..r in distinct
    cycles (classical r-Stirling numbers of the first kind)."""
    # R(n, k) = R(n-1, k-1) + (n-1+r) R(n-1, k), ``_LogRows`` at unsigned assoc m = 0
    return _table(_LogRows, *_window(r, "assoc", 0, False)).cell(n, k)


def incomplete_factorial(n: int, mode: str, m: int) -> int:
    """Row sums of stirlingA: permutations of [n] with the size window."""
    return _table(_WindowRows, *_window(0, mode, m, False)).total(n)


def typeB_factorial_conv(n: int, mode: str, m: int) -> int:
    """Total signed permutations of [n] whose cycles obey the window-or-
    all-barred rule, by convolving the two type A totals: the elements in
    window cycles keep free signs (2^i), the rest sit in all-barred cycles
    on the other side of the window."""
    inside = _table(_WindowRows, *_window(0, mode, m, False))
    # at assoc m = 0 the other side is the empty window, restr m = 0
    other = ("restr", max(m - 1, 0)) if mode == "assoc" else ("assoc", m + 1)
    outside = _table(_WindowRows, *_window(0, *other, False))
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
    from .fps import FormalPowerSeries
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
    return [_int(factorial(n) * series.nums[n], series.d, "d_egf(%d)[%d]" % (r, n))
            for n in range(count)]


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
    """d(., n) as a polynomial in r (degree n): the row sum T_n(1) of the
    m = 2 triangle by ``_LogRows``' rule at y = 1 with r left free.  There
    E = r E_1 is linear in r, and P and F hold no r, so swapping E_1 (read
    from the r = 1 table's lags) with F turns the rule's y-shift into an
    r-shift: row n then holds the coefficients, all integers since
    T_0 = P_0 = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _LogRows(1, "assoc", 2, True)
    table.lags = [(lag, (f, p, e)) for lag, (e, p, f) in table.lags]
    return RPolynomial(tuple(table.row(n)))


def d_asym(r: int, n: int) -> Fraction:
    """Rational part of the large-n behaviour: d(r, n) ~ n! * d_asym / sqrt(e).

    The caller applies n! and the irrational 1/sqrt(e) at display time; the
    library side stays exact.  The expansion is

        (-2)^n sum_i C(r, i) 2^i (C(-i-1, n) - (2i-1)/2 C(-i, n)),

    summed with C(-i-1, n) = (-1)^n C(n+i, n) and C(-i, n) =
    (-1)^n C(n+i-1, n), except C(0, 0) = 1 at i = n = 0.
    """
    from fractions import Fraction
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
    from .fps import FormalPowerSeries
    if r < 0:
        raise ValueError("r must be >= 0")
    order = _series_order(count)
    series = (
        FormalPowerSeries.from_coeffs([1, 1], order)
        * FormalPowerSeries.from_coeffs([1, -1], order).reciprocal()
    ) ** r
    return [_int(series.nums[n], series.d, "lattice_terms(%d)[%d]" % (r, n))
            for n in range(count)]


def diagonals(n: int, r: int) -> tuple[int, int]:
    """Closed forms for the two subdiagonal entries (n+1, n) and (n+2, n)
    of the ord >= 2 triangle, the dedicated quadratic forms;
    ``diagonals_delta`` covers every m."""
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    first = 2 * (n + 1) * (n + 2 * r)
    second = 4 * comb(n + 2, 2) * (3 * n * n + n + 12 * n * r + 12 * r * r)
    return first, _int(second, 3, "diagonals(%d, %d)[1]" % (n, r))


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
    # 2^((n+r+1) d1 + 2 d2 - 1) (n+1)(n+2r), its 2^-1 as the denominator 2
    first = 2 ** ((n + r + 1) * d1 + 2 * d2) * (n + 1) * (n + 2 * r)
    second = (
        2 ** ((n + r + 2) * d1)
        * comb(n + 2, 2)
        * (
            3 * 2 ** (4 * d2) * (4 * r * (r + n - 1) + n * (n - 1))
            + 2 ** (3 * (d2 + d3) + 3) * (n + 3 * r)
        )
    )
    name = "diagonals_delta(%d, %d, %d)" % (n, r, m)
    return _int(first, 2, name + "[0]"), _int(second, 12, name + "[1]")


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
    from .fps import FormalPowerSeries
    order = _series_order(count, shift=1)
    # the m = 2 cycle series sum_L w_L x^L / L over d: w_1 = 1 and w_L = 2^L above
    d = lcm(*range(1, order + 1))
    base = FormalPowerSeries([0, d] + [2**L * (d // L) for L in range(2, order + 1)], d)
    series = (-(base.revert().scale_arg(-1))).derivative()
    return [_int(factorial(n) * series.nums[n], series.d, "tree_terms[%d]" % (n,))
            for n in range(count)]


# -- cross-window identities (Howard) ------------------------------------------
#
# Each route computes the right side of one identity and returns the family on
# its left, so it is checked against that family's own function.


def stirling1_howard(n: int, j: int) -> int:
    """stirling1(n, j) from the ord >= 2 type A numbers: with k = n - j,

        s1(n, n-k) = sum_l C(n, 2k-l) sA(2k-l, k-l, assoc, 2)."""
    k = n - j
    return sum(
        comb(n, 2 * k - l) * stirlingA(2 * k - l, k - l, "assoc", 2)
        for l in range(k + 1)
        if 2 * k - l <= n
    )


def triangle_gem_howard(n: int, k: int, r: int, m: int) -> int:
    """triangle_gem_rec(n, k, r, m) for m >= 1 from the ord >= m+1 triangle:
    a double sum over the extracted cycles of length m, l of them among the n
    plain elements and p through a special element, each with weight 2^m - 1;
    the l plain ones are arranged in (ml)!/(m^l l!) ways."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0
    for p in range(r + 1):
        for l in range(k + 1):
            if m * l > n or (m - 1) * p > n - m * l:
                continue
            # past m = n + 1 only l = p = 0 is left, and it forms no 2^m
            total += (
                comb(r, p)
                * comb(n, m * l)
                * comb(n - m * l, (m - 1) * p)
                * ((2**m - 1) ** (l + p) if l + p else 1)
                * (factorial(m * l) // (m**l * factorial(l)))
                * factorial((m - 1) * p)
                * triangle_gem_rec(n - m * l - (m - 1) * p, k - l, r - p, m + 1)
            )
    return total


def free_sign_howard(n: int, k: int, r: int) -> int:
    """2^(n+r) rstirling1(n, k, r), the free-sign signed r-Stirling numbers,
    from the ord >= 2 triangle: triangle_gem_howard's sum at m = 1, where
    every cycle weight and arrangement count is 1,
        sum_p sum_l C(r, p) C(n, l) T(n-l, k-l, r-p)."""
    return triangle_gem_howard(n, k, r, 1)
