"""Truncated formal power series over exact rationals.

A series carries its coefficients 0..order as Fractions.  Coefficients beyond
the truncation order are *undefined*, never assumed zero: every arithmetic
result carries the minimum order of its operands, and asking for a
coefficient beyond the order raises.

Exponential generating function conventions: a sequence a_n with egf A(z)
has a_n = n! * [z^n] A(z), see ``egf_coeff``.

``_powers`` tables self^0..self^order once per series and is the one place
powers are formed: ``compose``, ``revert`` and the Riordan columns read it.

``_ints`` is a series over one denominator: ``(nums, d)`` with d > 0 the lcm
of the coefficient denominators and coeffs[k] == nums[k] / d, which makes it
unique.  ``*`` (by a series or a scalar), ``compose``, ``_powers``,
``reciprocal`` and ``revert`` work on it alone and return a series that holds
only ``_ints``; its ``coeffs`` tuple of Fractions is a view, formed on first
read.  A series built from Fractions and one built from integers are the same
type and compare, hash and print alike.  ``exp`` and ``log`` stay on
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from collections.abc import Iterable

from ._record import Record

__all__ = ["FormalPowerSeries"]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("exact coefficient expected (int or Fraction), got %r" % (x,))


class FormalPowerSeries(Record):
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        self.coeffs = coeffs  # coeffs[k] = [z^k]
        self.order = len(coeffs) - 1

    @classmethod
    def _from_ints(cls, nums: list[int], d: int) -> "FormalPowerSeries":
        """The series nums[k] / d (d > 0), kept in lowest terms as ``_ints``."""
        g = gcd(d, *nums)
        if g > 1:
            nums, d = [c // g for c in nums], d // g
        series = cls.__new__(cls)
        series._ints, series.order = (nums, d), len(nums) - 1
        return series

    # -- construction ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, seq: Iterable, order: int | None = None) -> "FormalPowerSeries":
        """Series with the given low-order coefficients.

        If ``order`` exceeds the data, the remaining coefficients are declared
        zero by the caller; if it is smaller, the data is truncated.
        """
        cs = [_frac(c) for c in seq]
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list and no order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "FormalPowerSeries":
        return cls.from_coeffs([0], order)

    @classmethod
    def one(cls, order: int) -> "FormalPowerSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def x(cls, order: int) -> "FormalPowerSeries":
        """The series z (identity for composition)."""
        return cls.from_coeffs([0, 1], order)

    @classmethod
    def constant(cls, c, order: int) -> "FormalPowerSeries":
        return cls.from_coeffs([c], order)

    # -- basic queries ------------------------------------------------------

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            return Fraction(0)
        if n > self.order:
            raise ValueError(
                "coefficient %d beyond truncation order %d" % (n, self.order)
            )
        return self.coeffs[n]

    def egf_coeff(self, n: int):
        """n! * [z^n], i.e. the n-th term of the sequence with this egf."""
        return factorial(n) * self.coeff(n)

    def truncate(self, order: int) -> "FormalPowerSeries":
        if order > self.order:
            raise ValueError(
                "cannot extend truncation order %d to %d" % (self.order, order)
            )
        return FormalPowerSeries(self.coeffs[: order + 1])

    # -- ring operations ----------------------------------------------------

    @cached_property
    def _ints(self) -> tuple[list[int], int]:
        """(nums, d): the coefficients as nums[k] / d, d their least common
        denominator."""
        d = lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (d // c.denominator) for c in self.coeffs], d

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        nums, d = self._ints
        return tuple(Fraction(c, d) for c in nums)

    def _coerce(self, other) -> "FormalPowerSeries | None":
        if isinstance(other, FormalPowerSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return FormalPowerSeries.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return FormalPowerSeries(
            tuple(self.coeffs[k] + o.coeffs[k] for k in range(n + 1))
        )

    __radd__ = __add__

    def __neg__(self):
        return FormalPowerSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # an int has a denominator, 1
            (nums, d), c = self._ints, other.numerator
            return FormalPowerSeries._from_ints(
                [c * a for a in nums], d * other.denominator
            )
        if not isinstance(other, FormalPowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        (a, da), (b, db) = self._ints, other._ints
        out = [0] * (n + 1)
        for i, ai in enumerate(a[: n + 1]):
            if ai:
                for k, bj in enumerate(b[: n + 1 - i], i):
                    if bj:
                        out[k] += ai * bj
        return FormalPowerSeries._from_ints(out, da * db)

    __rmul__ = __mul__

    def reciprocal(self) -> "FormalPowerSeries":
        """Multiplicative inverse; requires a nonzero constant term.  With
        self = nums / d and a = nums[0], B_0 = 1 and

            B_n = -sum_{j>=1} nums[j] a^(j-1) B_(n-j)

        give [z^n] 1/nums = B_n / a^(n+1), so the inverse is
        d B_n a^(order-n) over a^(order+1)."""
        nums, d = self._ints
        a = nums[0]
        if not a:
            raise ValueError("series with zero constant term is not invertible")
        n, powers = self.order, [1]  # powers[j] = a^j
        for _ in range(n):
            powers.append(powers[-1] * a)
        terms = [(j, c * powers[j - 1]) for j, c in enumerate(nums) if j and c]
        b = [1]
        for i in range(1, n + 1):
            b.append(-sum(w * b[i - j] for j, w in terms if j <= i))
        den = powers[n] * a
        if den < 0:  # move the sign of a^(order+1) into the numerators
            d, den = -d, -den
        out = [d * v * p for v, p in zip(b, reversed(powers))]
        return FormalPowerSeries._from_ints(out, den)

    def __pow__(self, k: int) -> "FormalPowerSeries":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.reciprocal()
        k = abs(k)
        if not k:
            return FormalPowerSeries.one(self.order)
        while not k & 1:  # start from the lowest set bit's power, not from one
            base, k = base * base, k >> 1
        result, k = base, k >> 1
        while k:  # and square only up to the top bit
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

    # -- composition and reversion -------------------------------------------

    @cached_property
    def _powers(self) -> tuple["FormalPowerSeries", ...]:
        """self^0..self^order; needs constant term 0, so self^k starts at z^k
        and each product skips the zeros below it."""
        if self._ints[0][0]:
            raise ValueError("composition requires inner constant term 0")
        powers = [FormalPowerSeries._from_ints([1] + [0] * self.order, 1)]
        for _ in range(self.order):
            powers.append(powers[-1] * self)
        return tuple(powers)

    def compose(self, inner: "FormalPowerSeries") -> "FormalPowerSeries":
        """self(inner) = sum_k c_k inner^k over inner's power table; needs
        inner(0) = 0.  With self = c / d and inner^k = nums_k / d_k, each
        output coefficient is one integer sum over d * D, D = lcm of the d_k
        that meet a nonzero c_k."""
        powers, n = inner._powers, min(self.order, inner.order)
        cs, d = self._ints
        used = [(c, p._ints) for c, p in zip(cs[: n + 1], powers) if c]
        big_d = lcm(*(dk for _, (_, dk) in used))
        terms = [(c * (big_d // dk), nums) for c, (nums, dk) in used]
        out = [sum(w * p[i] for w, p in terms if p[i]) for i in range(n + 1)]
        return FormalPowerSeries._from_ints(out, d * big_d)

    def revert(self) -> "FormalPowerSeries":
        """Compositional inverse fbar with self(fbar) = z = fbar(self).

        Requires constant term 0 and a nonzero linear coefficient f_1.
        Solves z = sum_k fbar_k * self^k as a triangular system: self^k starts
        at z^k with coefficient f_1^k, so fbar_k is the z^k coefficient of the
        residual z - sum_{j<k} fbar_j * self^j divided by f_1^k.  The residual
        is carried as integers over one denominator, reduced at each step.
        """
        if self.order < 1:
            raise ValueError("reversion needs order >= 1")
        nums = self._ints[0]
        if nums[0]:
            raise ValueError("reversion requires constant term 0")
        if not nums[1]:
            raise ValueError("reversion requires nonzero linear coefficient")
        n = self.order
        resid, d = [0, 1] + [0] * (n - 1), 1  # the residual is resid / d
        inv = [(0, 1)]  # fbar_k as (numerator, denominator > 0) in lowest terms
        for k, power in enumerate(self._powers[1:], 1):
            p, e = power._ints  # self^k = p / e, and p[k] / e = f_1^k
            c, lead = resid[k], p[k]
            if lead < 0:  # fbar_k = c e / (d lead) keeps d lead > 0
                c, lead = -c, -lead
            num, den = c * e, d * lead
            g = gcd(num, den)
            inv.append((num // g, den // g))
            if c:  # resid - fbar_k * self^k = (lead resid - c p) / (d lead)
                tail = [lead * x - c * y for x, y in zip(resid[k + 1 :], p[k + 1 :])]
                g = gcd(den, *tail)
                resid[k + 1 :], d = [x // g for x in tail], den // g
        big_d = lcm(*(den for _, den in inv))
        return FormalPowerSeries._from_ints([num * (big_d // den) for num, den in inv], big_d)

    # -- transcendental (exact, termwise) -------------------------------------

    def log(self) -> "FormalPowerSeries":
        """log(self); requires constant term 1.  Same order."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        if self.order == 0:
            return FormalPowerSeries.zero(0)
        return (self.derivative() * self.reciprocal()).integral()

    def exp(self) -> "FormalPowerSeries":
        """exp(self); requires constant term 0.  Same order."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires constant term 0")
        f = self.coeffs
        out = [Fraction(1)]
        for n in range(1, self.order + 1):
            s = Fraction(0)
            for i in range(n):
                c = f[n - i]
                if c:
                    s += (n - i) * c * out[i]
            out.append(s / n)
        return FormalPowerSeries(tuple(out))

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "FormalPowerSeries":
        if self.order < 1:
            raise ValueError("derivative of an order-0 truncation is undefined")
        return FormalPowerSeries(
            tuple(k * self.coeffs[k] for k in range(1, self.order + 1))
        )

    def integral(self, constant=0) -> "FormalPowerSeries":
        """Antiderivative with the given constant term; order grows by one."""
        out = [_frac(constant)]
        out += [self.coeffs[k] / (k + 1) for k in range(self.order + 1)]
        return FormalPowerSeries(tuple(out))

    def scale_arg(self, c) -> "FormalPowerSeries":
        """self(c*z): coefficient k gets multiplied by c**k."""
        c = _frac(c)
        return FormalPowerSeries(
            tuple(self.coeffs[k] * c**k for k in range(self.order + 1))
        )

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        if self.order >= 8:
            shown += ", ..."
        return "FormalPowerSeries([%s]; order=%d)" % (shown, self.order)
