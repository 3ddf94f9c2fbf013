"""Exponential Riordan arrays over exact rationals.

An exponential Riordan array is a pair (g, f) of truncated series with
g(0) != 0, f(0) = 0, f'(0) != 0.  Its entries are

    l(n, k) = n!/k! * [z^n] g(z) * f(z)**k,

lower triangular with l(n, n) = g(0) * f'(0)**n.  The group operations
(multiply, invert), the fundamental theorem (apply_fte), production sequences
and the sign-conjugated companion array live here, together with the concrete
triangle constructor for the signed-permutation cycle statistics: the array
((f')^r, f) with f = sum_L w_L x^L / L, w_L being the sign masks a cycle of
length L may carry, for every window m >= 0.  Column k is g * f^k over f's
cached powers; the inverse (1 / g(fbar), fbar) is cached, so an array
reverts f and composes g with fbar at most once.  The table reads the
integers ``nums`` over ``d`` of g * f^k and forms one Fraction per entry on
or below the diagonal.
"""

from __future__ import annotations

from fractions import Fraction
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
    def _table(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rows 0..order; column k is g * f^k = nums_k / d_k, so l(i, k) is
        one Fraction(nums_k[i] * i!/k!, d_k).  Above the diagonal every
        entry is one shared zero."""
        n = self.order
        cols = [(q.nums, q.d) for q in (p * self.g for p in self.f._powers[: n + 1])]
        fact = [factorial(i) for i in range(n + 1)]
        zero = Fraction(0)
        return tuple(
            tuple(
                Fraction(nums[i] * (fact[i] // fact[k]), d)
                for k, (nums, d) in enumerate(cols[: i + 1])
            )
            + (zero,) * (n - i)
            for i in range(n + 1)
        )

    def entry(self, n: int, k: int) -> Fraction:
        """l(n, k) = n!/k! [z^n] g f^k as an exact rational."""
        if n < 0 or k < 0:
            raise ValueError("entry indices must be nonnegative")
        table = self._table
        if n >= len(table) or k >= len(table):
            raise ValueError(
                "entry (%d, %d) beyond truncation order %d" % (n, k, len(table) - 1)
            )
        return table[n][k]

    def row(self, n: int) -> tuple[Fraction, ...]:
        return tuple(self.entry(n, k) for k in range(n + 1))

    # -- group structure -----------------------------------------------------

    def multiply(self, other: "ExpRiordanArray") -> "ExpRiordanArray":
        """Matrix product: (g, f) * (h, l) = (g * h(f), l(f))."""
        return ExpRiordanArray(
            self.g * other.g.compose(self.f), other.f.compose(self.f)
        )

    @cached_property
    def _inverse(self) -> "ExpRiordanArray":
        fbar = self.f.revert()
        return ExpRiordanArray(self.g.compose(fbar).reciprocal(), fbar)

    def invert(self) -> "ExpRiordanArray":
        """Group inverse (1 / g(fbar), fbar), formed once per array."""
        return self._inverse

    def apply_fte(self, h: FormalPowerSeries) -> FormalPowerSeries:
        """Fundamental theorem: the array applied to a column egf h."""
        return self.g * h.compose(self.f)

    def production_sequences(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Coefficients of A(t) = f'(fbar(t)) and Z(t) = g'(fbar(t))/g(fbar(t)).

        Both are truncated at order one less than the array's order.
        """
        inv = self._inverse
        a = self.f.derivative().compose(inv.f)
        z = self.g.derivative().compose(inv.f) * inv.g
        return a.coeffs, z.coeffs


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

    Returns a list of order+1 lists of Fractions, each of length order+1.
    The caller compares against entry() to validate an array.

    With A and Z over one denominator D, P = Q / D for an integer matrix Q.
    If l(0, 0) = c / e, row n is N_n / (e * D^n) with N_0 = (c, 0, ..., 0)
    and N_{n+1} = N_n Q, all in integers.
    """
    order = array.order
    a, z = array.production_sequences()
    d = lcm(*(c.denominator for c in a + z))
    a, z = ([c.numerator * (d // c.denominator) for c in s] for s in (a, z))
    # column 0 is i! z_i: a_{i+1} has weight 0 there, and at i = order-1 it
    # lies past a's truncation
    prod = [
        [factorial(i) * z[i]]
        + [
            factorial(i) // factorial(k) * (z[i - k] + k * a[i - k + 1])
            for k in range(1, i + 1)
        ]
        + [a[0]]
        for i in range(order)
    ]
    start = array.entry(0, 0)
    rows = [[start.numerator] + [0] * order]
    for n in range(order):
        new = [0] * (order + 1)
        for i, w in enumerate(rows[-1][: n + 1]):
            if w:
                for k, q in enumerate(prod[i]):
                    new[k] += q * w
        rows.append(new)
    zero = Fraction(0)
    return [
        [Fraction(c, start.denominator * d**n) if c else zero for c in row]
        for n, row in enumerate(rows)
    ]


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
    f = [0] + [Fraction(w[L], L) for L in range(1, order + 1)]
    return ExpRiordanArray(
        FormalPowerSeries.from_coeffs(w[1:]) ** r, FormalPowerSeries.from_coeffs(f)
    )
