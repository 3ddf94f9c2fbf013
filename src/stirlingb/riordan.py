"""Exponential Riordan arrays over exact rationals.

An exponential Riordan array is a pair (g, f) of truncated series with
g(0) != 0, f(0) = 0, f'(0) != 0.  Its entries are

    l(n, k) = n!/k! * [z^n] g(z) * f(z)**k,

lower triangular with l(n, n) = g(0) * f'(0)**n.  The group operations
(multiply, invert), the fundamental theorem (apply_fte, which multiply and the
production series Z call), production sequences, the sign conjugate and the
triangle of the signed-permutation cycle statistics live here: the array
((f')^r, f) with f = sum_L w_L x^L / L, w_L the sign masks a cycle of length L
may carry, for every window m >= 0.  The table builds column k + 1 as the
series product of column k and f; the inverse (1 / g(fbar), fbar) is cached,
so an array reverts f and composes 1/g with fbar at most once.  Entries, of
the table and of production_rebuild, are ints when integral and reduced
Fractions otherwise.  The triangle's series are built on integers over one
denominator and ``fractions`` is imported only where a non-integral entry or a
``coeffs`` read forms a Fraction, so an integer array never loads it.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial, lcm

from ._record import Record
from .fps import FormalPowerSeries

__all__ = [
    "ExpRiordanArray",
    "make_triangle_B",
    "production_rebuild",
    "unsigned_conjugate",
]


class ExpRiordanArray(Record):
    _fields = ("g", "f")

    def __init__(self, g: FormalPowerSeries, f: FormalPowerSeries):
        if not g.nums[0]:
            raise ValueError("Riordan array needs g(0) != 0")
        if f.order < 1 or f.nums[0]:
            raise ValueError("Riordan array needs f(0) = 0 and order >= 1")
        if not f.nums[1]:
            raise ValueError("Riordan array needs f'(0) != 0")
        self.g, self.f = g, f

    def __repr__(self) -> str:
        return "ExpRiordanArray(g=%r, f=%r)" % (self.g, self.f)

    @property
    def order(self) -> int:
        return min(self.g.order, self.f.order)

    @classmethod
    def identity(cls, order: int) -> "ExpRiordanArray":
        return cls(FormalPowerSeries.one(order), FormalPowerSeries.x(order))

    @cached_property
    def _table(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """Rows 0..order, each entry an int when integral and a reduced
        Fraction otherwise, 0 above the diagonal.  Column k + 1 is g f^(k+1)
        = (g f^k) * f, a series product, and l(i, k) = i!/k! [z^i] g f^k."""
        n = self.order
        series = [FormalPowerSeries(self.g.nums[: n + 1], self.g.d)]  # g may reach past f
        for _ in range(n):
            series.append(series[-1] * self.f)
        fact = [factorial(i) for i in range(n + 1)]
        cols = [[_exact(c * (fact[i] // fact[k]), col.d) for i, c in enumerate(col.nums)]
                for k, col in enumerate(series)]
        return tuple(zip(*cols))

    def entry(self, n: int, k: int) -> int | Fraction:
        """l(n, k) = n!/k! [z^n] g f^k, an int when integral."""
        if n < 0 or k < 0:
            raise ValueError("entry indices must be nonnegative")
        table = self._table
        if n >= len(table) or k >= len(table):
            raise ValueError(
                "entry (%d, %d) beyond truncation order %d" % (n, k, len(table) - 1)
            )
        return table[n][k]

    def row(self, n: int) -> tuple[int | Fraction, ...]:
        """l(n, 0..n), a slice of the table."""
        if not 0 <= n < len(self._table):
            self.entry(n, 0)  # raises entry's error for this n
        return self._table[n][: n + 1]

    # -- group structure -----------------------------------------------------

    def multiply(self, other: "ExpRiordanArray") -> "ExpRiordanArray":
        """Matrix product: (g, f) * (h, l) = (g * h(f), l(f)), g * h(f) by apply_fte."""
        return ExpRiordanArray(self.apply_fte(other.g), other.f.compose(self.f))

    @cached_property
    def _inverse(self) -> "ExpRiordanArray":
        fbar = self.f.revert()
        return ExpRiordanArray(self.g.reciprocal().compose(fbar), fbar)

    def invert(self) -> "ExpRiordanArray":
        """Group inverse (1 / g(fbar), fbar), formed once per array: 1/g,
        whose coefficients stay small, is composed with fbar once."""
        return self._inverse

    def apply_fte(self, h: FormalPowerSeries) -> FormalPowerSeries:
        """Fundamental theorem: the array applied to a column egf h."""
        return self.g * h.compose(self.f)

    def _production_series(self) -> tuple[FormalPowerSeries, FormalPowerSeries]:
        if not self.order:
            raise ValueError("production sequences need order >= 1, got order 0")
        inv = self._inverse
        return self.f.derivative().compose(inv.f), inv.apply_fte(self.g.derivative())

    def production_sequences(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Coefficients of A(t) = f'(fbar(t)) and Z(t) = g'(fbar(t))/g(fbar(t)).

        Both are truncated at order one less than the array's order.
        """
        a, z = self._production_series()
        return a.coeffs, z.coeffs


def _exact(num: int, den: int) -> int | Fraction:
    """num / den (den > 0): an int when integral, else a reduced Fraction."""
    q, rem = divmod(num, den)
    if not rem:
        return q
    import fractions  # a plain import: ``from fractions import`` costs several times more
    return fractions.Fraction(num, den)


def unsigned_conjugate(array: ExpRiordanArray) -> ExpRiordanArray:
    """Sign conjugation D * (g, f) * D with D = diag((-1)^n).

    Entry (n, k) of the result is (-1)**(n+k) times the input entry; as a
    Riordan pair this is (g(-z), -f(-z)).
    """
    return ExpRiordanArray(array.g.scale_arg(-1), -(array.f.scale_arg(-1)))


def production_rebuild(array: ExpRiordanArray):
    """Rebuild rows 0..order from row 0 using the production sequences.

    Row n+1 is row n times the production matrix P, built once:

        P[i][k] = (i!/k!) * (z_{i-k} + k * a_{i-k+1})    (k <= i)
        P[i][i+1] = a_0

    Returns a list of order+1 lists, each of length order+1, whose entries
    are ints when integral and reduced Fractions otherwise, as entry()'s.
    The caller compares against entry() to validate an array.

    With A and Z over one denominator D, P = Q / D for an integer matrix Q.
    If l(0, 0) = c / e, row n is N_n / (e * D^n) with N_0 = (c, 0, ..., 0)
    and N_{n+1} = N_n Q, all in integers.
    """
    order, start = array.order, array.entry(0, 0)
    if not order:  # row 0 is the whole array: no production sequence is read
        return [[start]]
    a, z = array._production_series()
    d = lcm(a.d, z.d)
    a, z = ([c * (d // s.d) for c in s.nums] for s in (a, z))
    # a_{i-k+1} is read only at weight k > 0: at i = order-1, a_{i+1} lies
    # past a's truncation
    prod = [
        [factorial(i) // factorial(k) * (z[i - k] + (k and k * a[i - k + 1]))
         for k in range(i + 1)] + [a[0]]
        for i in range(order)
    ]
    rows = [[start.numerator] + [0] * order]
    for n in range(order):
        new = [0] * (order + 1)
        for i, w in enumerate(rows[-1][: n + 1]):
            if w:
                for k, q in enumerate(prod[i]):
                    new[k] += q * w
        rows.append(new)
    dens = [start.denominator * d**n for n in range(order + 1)]
    return [[_exact(c, den) for c in row] for row, den in zip(rows, dens)]


def make_triangle_B(m: int, r: int, order: int) -> ExpRiordanArray:
    """The exponential Riordan array whose (n, k) entry counts signed
    permutations of n + r elements with k + r cycles, every cycle of order
    at least m or fully barred, and the r special elements in distinct
    cycles.

    A cycle of length L has w_L sign masks: 2^L if L >= m, 1 if it must be
    all-barred.  By the exponential formula the array is (g, f) with

        f = sum_L w_L x^L / L,    g = (f')^r = (sum_L w_(L+1) x^L)^r

    since f' is the egf of one cycle through a marked element and the r
    special elements sit in distinct cycles.  Both are read from the
    weights; as a closed form f = -log(1 - 2x) - sum_{k<m} ((2^k - 1)/k) x^k,
    and for m = 2 this is g = ((1+2x)/(1-2x))^r, f = -log(1-2x) - x.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if r < 0:
        raise ValueError("r must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    # w[L] for L = 1..order+1, so that f' = sum w_(L+1) x^L reaches the order
    w = [0] + [2**L if L >= m else 1 for L in range(1, order + 2)]
    d = lcm(*range(1, order + 1))  # f = sum w_L (d / L) x^L over d
    f = FormalPowerSeries([0] + [w[L] * (d // L) for L in range(1, order + 1)], d)
    return ExpRiordanArray(FormalPowerSeries(w[1:], 1) ** r, f)
