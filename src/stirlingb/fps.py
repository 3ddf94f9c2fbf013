"""Truncated formal power series over exact rationals.

A series carries its coefficients 0..order.  Coefficients beyond the
truncation order are *undefined*, never assumed zero: every arithmetic
result carries the minimum order of its operands, and asking for a
coefficient beyond the order raises.

Exponential generating function conventions: a sequence a_n with egf A(z)
has a_n = n! * [z^n] A(z), see ``egf_coeff``.

``_powers`` tables self^0..self^order once per series, and ``compose`` and
``revert`` read it; the Riordan table builds its columns g * f^k by ``*``.

A series is stored once, as integers over one denominator: ``nums`` and
d > 0 in lowest terms, so coeffs[k] == nums[k] / d and the pair is unique.
Equality and hashing compare the pair, and every operation but ``exp`` works
on it.  ``from_coeffs`` takes ints and Fractions; ``coeffs``, formed on first
read, is the one way out to Fractions.  ``fractions`` is imported only by the
code that forms a Fraction, so a series built and read on integers never loads
it.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial, gcd, lcm
from collections.abc import Iterable, Sequence

from ._record import Record

__all__ = ["FormalPowerSeries"]


def _frac(x) -> int | Fraction:
    """x as an exact coefficient: an int as is, else a Fraction."""
    if isinstance(x, int):
        return x
    import fractions
    if isinstance(x, fractions.Fraction):
        return x
    raise TypeError("exact coefficient expected (int or Fraction), got %r" % (x,))


class FormalPowerSeries(Record):
    _fields = ("nums", "d")

    def __init__(self, nums: Sequence[int], d: int):
        """The series nums[k] / d (d > 0), kept in lowest terms."""
        if d < 1:
            raise ValueError("denominator must be positive")
        if not nums:
            raise ValueError("empty numerator list")
        g = gcd(d, *nums)
        if g > 1:
            nums, d = [c // g for c in nums], d // g
        self.nums, self.d = tuple(nums), d
        self.order = len(self.nums) - 1

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
        cs += [0] * (order + 1 - len(cs))
        d = lcm(*(c.denominator for c in cs))
        return cls([c.numerator * (d // c.denominator) for c in cs], d)

    @classmethod
    def one(cls, order: int) -> "FormalPowerSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def x(cls, order: int) -> "FormalPowerSeries":
        """The series z (identity for composition)."""
        return cls.from_coeffs([0, 1], order)

    # -- basic queries ------------------------------------------------------

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            from fractions import Fraction
            return Fraction(0)
        if n > self.order:
            raise ValueError(
                "coefficient %d beyond truncation order %d" % (n, self.order)
            )
        return self.coeffs[n]

    def egf_coeff(self, n: int):
        """n! * [z^n], i.e. the n-th term of the sequence with this egf; 0
        for n < 0, as ``coeff``."""
        return factorial(max(n, 0)) * self.coeff(n)

    # -- ring operations ----------------------------------------------------

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """coeffs[k] = [z^k] as a Fraction."""
        from fractions import Fraction
        return tuple(Fraction(c, self.d) for c in self.nums)

    def __neg__(self):
        return FormalPowerSeries([-c for c in self.nums], self.d)

    def __mul__(self, other):
        if not isinstance(other, FormalPowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.nums, other.nums
        out = [0] * (n + 1)
        for i, ai in enumerate(a[: n + 1]):
            if ai:
                for k, bj in enumerate(b[: n + 1 - i], i):
                    if bj:
                        out[k] += ai * bj
        return FormalPowerSeries(out, self.d * other.d)

    def reciprocal(self) -> "FormalPowerSeries":
        """Multiplicative inverse; requires a nonzero constant term.  With
        self = nums / d and a = nums[0], B_0 = 1 and

            B_n = -sum_{j>=1} nums[j] a^(j-1) B_(n-j)

        give [z^n] 1/nums = B_n / a^(n+1), so the inverse is
        d B_n a^(order-n) over a^(order+1)."""
        nums, d, a = self.nums, self.d, self.nums[0]
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
        return FormalPowerSeries(out, den)

    def __pow__(self, k: int) -> "FormalPowerSeries":
        if not isinstance(k, int):
            return NotImplemented
        base, k, result = self if k >= 0 else self.reciprocal(), abs(k), None
        while k:  # the lowest set bit takes its power, each later one multiplies it in
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:  # square only while higher bits remain
                base = base * base
        return FormalPowerSeries.one(self.order) if result is None else result

    # -- composition and reversion -------------------------------------------

    @cached_property
    def _powers(self) -> tuple["FormalPowerSeries", ...]:
        """self^0..self^order; needs constant term 0, so self^k starts at z^k
        and each product skips the zeros below it."""
        if self.nums[0]:
            raise ValueError("composition requires inner constant term 0")
        powers = [FormalPowerSeries([1] + [0] * self.order, 1)]
        for _ in range(self.order):
            powers.append(powers[-1] * self)
        return tuple(powers)

    def compose(self, inner: "FormalPowerSeries") -> "FormalPowerSeries":
        """self(inner) = sum_k c_k inner^k over inner's power table; needs
        inner(0) = 0.  With self = c / d and inner^k = nums_k / d_k, each
        output coefficient is one integer sum over d * D, D = lcm of the d_k
        that meet a nonzero c_k."""
        powers, n = inner._powers, min(self.order, inner.order)
        used = [(c, p) for c, p in zip(self.nums[: n + 1], powers) if c]
        big_d = lcm(*(p.d for _, p in used))
        terms = [(c * (big_d // p.d), p.nums) for c, p in used]
        out = [sum(w * p[i] for w, p in terms if p[i]) for i in range(n + 1)]
        return FormalPowerSeries(out, self.d * big_d)

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
        if self.nums[0]:
            raise ValueError("reversion requires constant term 0")
        if not self.nums[1]:
            raise ValueError("reversion requires nonzero linear coefficient")
        n = self.order
        resid, d = [0, 1] + [0] * (n - 1), 1  # the residual is resid / d
        inv = [(0, 1)]  # fbar_k as (numerator, denominator > 0) in lowest terms
        for k, power in enumerate(self._powers[1:], 1):
            p, e = power.nums, power.d  # self^k = p / e, and p[k] / e = f_1^k
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
        return FormalPowerSeries([num * (big_d // den) for num, den in inv], big_d)

    # -- transcendental (exact, termwise) -------------------------------------

    def exp(self) -> "FormalPowerSeries":
        """exp(self); requires constant term 0.  Same order.  It stays on
        Fractions: on the assoc m = 2 cycle series at order 191 an integer loop
        over n! d^n took 6.8 s, this one 0.22 s (Python 3.11, 2 vCPU)."""
        from fractions import Fraction
        if self.nums[0]:
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
        return FormalPowerSeries.from_coeffs(out)

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "FormalPowerSeries":
        if self.order < 1:
            raise ValueError("derivative of an order-0 truncation is undefined")
        return FormalPowerSeries([k * c for k, c in enumerate(self.nums)][1:], self.d)

    def scale_arg(self, c) -> "FormalPowerSeries":
        """self(c*z): coefficient k gets multiplied by c**k.  With c = p/q
        that is nums[k] p^k q^(order-k) over d q^order."""
        c = _frac(c)
        p, q, n = c.numerator, c.denominator, self.order
        out = [x * p**k * q ** (n - k) for k, x in enumerate(self.nums)]
        return FormalPowerSeries(out, self.d * q**n)

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        if self.order >= 8:
            shown += ", ..."
        return "FormalPowerSeries([%s]; order=%d)" % (shown, self.order)
