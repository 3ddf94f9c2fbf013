from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from stirlingb.fps import FormalPowerSeries as FPS


def geom(order):
    # 1/(1-x)
    return FPS.from_coeffs([1, -1], order).reciprocal()


def test_from_coeffs_pads_and_truncates():
    s = FPS.from_coeffs([1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = FPS.from_coeffs([1, 2, 3, 4], 1)
    assert t.coeffs == (1, 2)
    assert all(isinstance(c, Fraction) for c in s.coeffs)


def test_coeff_bounds():
    s = FPS.from_coeffs([1, 2, 3])
    assert s.coeff(-1) == 0
    assert s.egf_coeff(-1) == 0
    assert s.coeff(2) == 3
    with pytest.raises(ValueError, match="beyond truncation order"):
        s.coeff(3)


def test_constructors():
    assert FPS.one(2).coeffs == (1, 0, 0)
    assert FPS.x(2).coeffs == (0, 1, 0)


def test_arithmetic_and_scalars():
    a = FPS.from_coeffs([1, 2, 3])
    assert (-a).coeffs == (-1, -2, -3)


def test_mul_truncates_to_min_order():
    a = FPS.from_coeffs([1, 1], 5)
    b = FPS.from_coeffs([1, -1], 2)
    assert (a * b).coeffs == (1, 0, -1)


def test_reciprocal_geometric():
    assert geom(5).coeffs == (1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        FPS.x(3).reciprocal()


def test_pow():
    s = FPS.from_coeffs([1, 1], 4)
    assert (s**3).coeffs == (1, 3, 3, 1, 0)
    assert (s**0).coeffs == FPS.one(4).coeffs
    inv = s**-1
    assert (inv * s).coeffs == FPS.one(4).coeffs


def test_compose():
    outer = geom(4)
    inner = FPS.from_coeffs([0, 2], 4)
    # 1/(1-2x)
    assert outer.compose(inner).coeffs == (1, 2, 4, 8, 16)
    with pytest.raises(ValueError):
        outer.compose(FPS.one(4))


def test_revert_moebius():
    # the compositional inverse of z/(1-z) is z/(1+z)
    f = FPS.x(6) * geom(6)
    fbar = f.revert()
    expected = FPS.x(6) * FPS.from_coeffs([1, 1], 6).reciprocal()
    assert fbar.coeffs == expected.coeffs
    assert f.compose(fbar).coeffs == FPS.x(6).coeffs
    assert fbar.compose(f).coeffs == FPS.x(6).coeffs


def test_revert_requirements():
    with pytest.raises(ValueError):
        FPS.from_coeffs([1, 1], 3).revert()
    with pytest.raises(ValueError):
        FPS.from_coeffs([0, 0, 1], 3).revert()
    with pytest.raises(ValueError):
        FPS.from_coeffs([0], 0).revert()


SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def revertible(draw):
    """A random rational series with f(0) = 0 and f'(0) != 0, order 1..16."""
    order = draw(st.integers(1, 16))
    linear = draw(SMALL_FRACTIONS.filter(bool))
    rest = draw(st.lists(SMALL_FRACTIONS, min_size=order - 1, max_size=order - 1))
    return FPS.from_coeffs([0, linear] + rest, order)


@settings(max_examples=20, deadline=None)
@given(revertible())
def test_revert_is_a_two_sided_involution(f):
    z = FPS.x(f.order)
    fbar = f.revert()
    assert f.compose(fbar) == z
    assert fbar.compose(f) == z
    assert fbar.revert() == f


def schoolbook_mul(a, b):
    """Reference product: one Fraction multiply-add per index pair, no ``*``
    of series."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return FPS.from_coeffs(out)


PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, int(p**0.5) + 1))]


@st.composite
def operands(draw):
    """A series of order 0..16 with zero and negative coefficients, over small
    denominators or over distinct primes below 1000 (a large lcm)."""
    order = draw(st.integers(0, 16))
    if draw(st.booleans()):
        coeffs = draw(st.lists(SMALL_FRACTIONS, min_size=order + 1, max_size=order + 1))
    else:
        size = dict(min_size=order + 1, max_size=order + 1)
        nums = draw(st.lists(st.integers(-60, 60), **size))
        dens = draw(st.lists(st.sampled_from(PRIMES), unique=True, **size))
        coeffs = [Fraction(a, d) for a, d in zip(nums, dens)]
    return FPS.from_coeffs(coeffs, order)


@settings(max_examples=60, deadline=None)
@given(operands(), operands())
def test_mul_matches_schoolbook(a, b):
    product = a * b
    assert product.order == min(a.order, b.order)
    assert product == schoolbook_mul(a, b)
    assert all(type(c) is Fraction for c in product.coeffs)


def schoolbook_reciprocal(s):
    """Reference inverse: out_n = -(1/a_0) sum_{j>=1} a_j out_(n-j), one
    Fraction multiply-add per term."""
    a = s.coeffs
    inv0 = 1 / a[0]
    out = [inv0]
    for n in range(1, s.order + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += a[j] * out[n - j]
        out.append(-inv0 * acc)
    return FPS.from_coeffs(out)


def schoolbook_revert(f):
    """Reference reversion: the triangular solve z = sum_k fbar_k f^k on
    Fractions, over powers formed by the schoolbook product."""
    n = f.order
    powers = [FPS.one(n)]
    for _ in range(n):
        powers.append(schoolbook_mul(powers[-1], f))
    inv = [Fraction(0)] * (n + 1)
    resid = [Fraction(0)] * (n + 1)
    resid[1] = Fraction(1)
    for k in range(1, n + 1):
        power = powers[k].coeffs
        inv[k] = c = resid[k] / power[k]
        for i in range(k + 1, n + 1):
            resid[i] -= c * power[i]
    return FPS.from_coeffs(inv)


@settings(max_examples=60, deadline=None)
@given(operands().filter(lambda s: s.coeffs[0]))
@example(FPS.from_coeffs([-2], 0))
@example(FPS.from_coeffs([Fraction(-3, 7), Fraction(5, 11), 0, Fraction(-2, 13), 1], 16))
@example(FPS.from_coeffs([-1, -2, Fraction(1, 3)], 9))
def test_reciprocal_matches_schoolbook(s):
    inverse = s.reciprocal()
    assert inverse.order == s.order
    _is_canonical_view(inverse, schoolbook_reciprocal(s))


@st.composite
def revertibles(draw):
    """An operand of order 1..16 with constant term 0 and f_1 != 0."""
    s = draw(operands().filter(lambda s: s.order and s.coeffs[1]))
    return FPS.from_coeffs((0,) + s.coeffs[1:], s.order)


@settings(max_examples=60, deadline=None)
@given(revertibles())
@example(FPS.from_coeffs([0, -1], 1))
@example(FPS.from_coeffs([0, Fraction(-5, 3), Fraction(2, 7), 0, Fraction(-1, 11)], 16))
@example(FPS.from_coeffs([0, -2, 0, 0, 3], 12))
def test_revert_matches_schoolbook(f):
    fbar = f.revert()
    assert fbar.order == f.order
    _is_canonical_view(fbar, schoolbook_revert(f))


def test_pow_does_no_wasted_products(monkeypatch):
    s = FPS.from_coeffs([2, Fraction(-1, 3), 0, 5], 7)
    expected = {0: FPS.one(7)}
    for k in range(1, 41):
        expected[k] = schoolbook_mul(expected[k - 1], s)
        expected[-k] = schoolbook_mul(expected[1 - k], s.reciprocal())
    products = []
    mul = FPS.__mul__

    def counted_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(FPS, "__mul__", counted_mul)
    for k, cost in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)]:
        for exponent in (k, -k):
            products.clear()
            assert s**exponent == expected[exponent]
            assert len(products) == cost, exponent
    # square-and-multiply: one squaring below the top bit, one product per
    # set bit above the lowest
    for k in range(1, 41):
        for exponent in (k, -k):
            products.clear()
            assert s**exponent == expected[exponent]
            assert len(products) == k.bit_length() + k.bit_count() - 2, exponent


def horner_compose(outer, inner):
    """Reference composition by Horner's rule, from the top coefficient down,
    on the schoolbook product, so it shares no kernel with ``compose``."""
    n = min(outer.order, inner.order)
    result = FPS.from_coeffs([outer.coeffs[n]], n)
    for k in range(n - 1, -1, -1):
        result = schoolbook_mul(result, FPS.from_coeffs(inner.coeffs, n))
        result = FPS.from_coeffs((result.coeffs[0] + outer.coeffs[k],) + result.coeffs[1:])
    return result


@st.composite
def series(draw, constant=SMALL_FRACTIONS):
    """A random rational series of order 0..16 with the given constant term."""
    order = draw(st.integers(0, 16))
    rest = draw(st.lists(SMALL_FRACTIONS, min_size=order, max_size=order))
    return FPS.from_coeffs([draw(constant)] + rest, order)


ZERO = st.just(Fraction(0))


@st.composite
def inners(draw):
    """A series with constant term 0; its linear coefficient is often 0 too."""
    inner = draw(series(ZERO))
    if inner.order and draw(st.booleans()):
        inner = FPS.from_coeffs((0, 0) + inner.coeffs[2:], inner.order)
    return inner


@settings(max_examples=30, deadline=None)
@given(series(), inners())
def test_compose_matches_horner(outer, inner):
    composed = outer.compose(inner)
    assert composed.order == min(outer.order, inner.order)
    assert composed == horner_compose(outer, inner)


@settings(max_examples=15, deadline=None)
@given(series(), inners(), inners())
def test_compose_is_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=30, deadline=None)
@given(series(SMALL_FRACTIONS.filter(bool)))
def test_reciprocal_is_a_multiplicative_inverse(s):
    assert s * s.reciprocal() == FPS.one(s.order)


@settings(max_examples=30, deadline=None)
@given(series(ZERO))
def test_exp_solves_its_differential_equation(f):
    # E' = f'E with E(0) = 1 determines E = exp(f)
    e = f.exp()
    assert e.coeffs[0] == 1
    if f.order:
        assert e.derivative() == f.derivative() * e


def test_exp_series():
    e = FPS.x(6).exp()
    assert [e.coeff(n) for n in range(7)] == [Fraction(1, factorial(n)) for n in range(7)]


def test_derivative_integral():
    s = FPS.from_coeffs([4, 1, 2, 3], 3)
    assert s.derivative().coeffs == (1, 4, 9)


def test_scale_arg():
    s = FPS.from_coeffs([1, 1, 1, 1], 3)
    assert s.scale_arg(-1).coeffs == (1, -1, 1, -1)
    assert s.scale_arg(2).coeffs == (1, 2, 4, 8)


def test_egf_coeff():
    s = FPS.from_coeffs([1, 1, Fraction(5, 2)], 2)
    assert s.egf_coeff(2) == 5


def test_truncate_and_prefix():
    s = FPS.from_coeffs([1, 2, 3, 4], 3)
    assert s.coeffs[:3] == (1, 2, 3)


def _is_canonical_view(s, expected):
    """``s`` holds the unique integer form of ``expected``'s coefficients,
    reads them as Fractions, and equals and hashes like a Fraction-built twin."""
    nums, d = s.nums, s.d
    assert d > 0 and gcd(d, *nums) == 1
    assert type(s.coeffs) is tuple and all(type(c) is Fraction for c in s.coeffs)
    assert s.coeffs == expected.coeffs
    twin = FPS.from_coeffs(expected.coeffs)  # equal pairs (nums, d)
    assert s == twin and hash(s) == hash(twin)


@settings(max_examples=30, deadline=None)
@given(operands(), operands(), inners(), SMALL_FRACTIONS)
@example(FPS.from_coeffs([Fraction(1, 2), 3, Fraction(-5, 4)], 2),
         FPS.one(0), FPS.x(1), Fraction(0))
@example(FPS.from_coeffs([Fraction(1, 2), 3, Fraction(-5, 4)], 2),
         FPS.one(0), FPS.x(1), Fraction(-2, 3))
def test_integer_form_is_canonical(a, b, inner, c):
    _is_canonical_view(a * b, schoolbook_mul(a, b))
    _is_canonical_view(-a, FPS.from_coeffs([-x for x in a.coeffs]))
    if a.order:
        _is_canonical_view(a.derivative(),
                           FPS.from_coeffs([k * x for k, x in enumerate(a.coeffs)][1:]))
    _is_canonical_view(a.scale_arg(c),
                       FPS.from_coeffs([c**k * x for k, x in enumerate(a.coeffs)]))
    _is_canonical_view(a.compose(inner), horner_compose(a, inner))
    if a.coeffs[0]:
        _is_canonical_view(a.reciprocal(), schoolbook_reciprocal(a))
    if inner.order and inner.coeffs[1]:
        _is_canonical_view(inner.revert(), schoolbook_revert(inner))
    power = FPS.one(inner.order)
    for p in inner._powers:
        _is_canonical_view(p, power)
        power = schoolbook_mul(power, inner)


def test_integer_kernels_form_no_fraction(fractions_formed):
    a = FPS.from_coeffs([Fraction(1, 3), -2, 0, Fraction(5, 7), 1], 6)
    inner = FPS.from_coeffs([0, Fraction(-1, 2), 3, 0, Fraction(2, 9)], 6)
    assert fractions_formed(lambda: a * inner) == 0
    assert fractions_formed(lambda: inner._powers) == 0
    assert fractions_formed(lambda: a.compose(inner)) == 0
    assert fractions_formed(lambda: a.reciprocal()) == 0
    assert fractions_formed(lambda: inner.revert()) == 0
    for result in (a.reciprocal(), inner.revert()):
        assert "coeffs" not in vars(result)
    product = a * inner
    assert "coeffs" not in vars(product)
    # negation, the derivative, equality and hashing stay on the integers;
    # scale_arg forms at most the Fraction of its argument
    other, c = a.compose(inner), Fraction(-1, 2)
    assert fractions_formed(lambda: -product) == 0
    assert fractions_formed(lambda: product.derivative()) == 0
    assert fractions_formed(lambda: product == other) == 0
    assert fractions_formed(lambda: hash(product)) == 0
    assert fractions_formed(lambda: product.scale_arg(c)) == 0
    assert fractions_formed(lambda: product.scale_arg(-1)) <= 1
    assert fractions_formed(lambda: product.coeffs) == product.order + 1
    assert product == schoolbook_mul(a, inner)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FPS.from_coeffs([0.5]), TypeError,
         r"^exact coefficient expected \(int or Fraction\), got 0\.5$"),
        (lambda: FPS.from_coeffs([]), ValueError, r"^empty coefficient list and no order$"),
        (lambda: FPS.from_coeffs([1], -1), ValueError, r"^order must be >= 0$"),
        (lambda: FPS((1,), 0), ValueError, r"^denominator must be positive$"),
        (lambda: FPS((), 1), ValueError, r"^empty numerator list$"),
        # there is no + or -, and * and ** return NotImplemented, so Python raises
        # for both sides
        (lambda: FPS.x(2) + "x", TypeError,
         r"^unsupported operand type\(s\) for \+: 'FormalPowerSeries' and 'str'$"),
        (lambda: "x" - FPS.x(2), TypeError,
         r"^unsupported operand type\(s\) for -: 'str' and 'FormalPowerSeries'$"),
        (lambda: FPS.x(2) * "x", TypeError,
         r"^can't multiply sequence by non-int of type 'FormalPowerSeries'$"),
        # nor is a scalar taken
        (lambda: FPS.x(2) - "x", TypeError,
         r"^unsupported operand type\(s\) for -: 'FormalPowerSeries' and 'str'$"),
        (lambda: FPS.x(2) + 1, TypeError,
         r"^unsupported operand type\(s\) for \+: 'FormalPowerSeries' and 'int'$"),
        (lambda: 1 - FPS.x(2), TypeError,
         r"^unsupported operand type\(s\) for -: 'int' and 'FormalPowerSeries'$"),
        (lambda: 2 * FPS.x(2), TypeError,
         r"^unsupported operand type\(s\) for \*: 'int' and 'FormalPowerSeries'$"),
        (lambda: FPS.x(2) * Fraction(1, 2), TypeError,
         r"^unsupported operand type\(s\) for \*: 'FormalPowerSeries' and 'Fraction'$"),
        (lambda: FPS.x(2) ** 1.5, TypeError, r"^unsupported operand type\(s\) for \*\* "
         r"or pow\(\): 'FormalPowerSeries' and 'float'$"),
        # and series are not added or subtracted at all
        (lambda: FPS.x(2) + FPS.x(2), TypeError, r"^unsupported operand type\(s\) for \+: "
         r"'FormalPowerSeries' and 'FormalPowerSeries'$"),
        (lambda: FPS.from_coeffs([1, 1], 3).exp(), ValueError,
         r"^exp requires constant term 0$"),
        (lambda: FPS.one(0).derivative(), ValueError,
         r"^derivative of an order-0 truncation is undefined$"),
    ],
    ids=["float-coefficient", "empty", "negative-order", "zero-denominator", "no-numerators",
         "add-str", "str-sub", "mul-str", "sub-str", "add-int", "int-sub", "int-mul",
         "mul-fraction", "float-power", "add-series", "exp", "derivative-order-0"],
)
def test_invalid_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
