"""The package's record classes, and the naive model's built on the same
base: constructors, equality, hashing, repr and cached properties."""

from fractions import Fraction
from itertools import combinations

import pytest

from stirlingb.fps import FormalPowerSeries as FPS
from stirlingb.riordan import ExpRiordanArray, make_triangle_B
from stirlingb.sequences import RPolynomial, d_poly
from stirlingb.verify import CheckResult, Mismatch, VerificationReport

from naive import (
    Cycle,
    CycleDecomposition,
    SignedPermutation,
    cycle_decompose,
    enumerate_signed,
)

# the classes whose one field is a tuple, so one value fits all of them
ONE_TUPLE_FIELD = [FPS, RPolynomial, SignedPermutation, Cycle, CycleDecomposition]


@pytest.mark.parametrize(
    "left, right", list(combinations(ONE_TUPLE_FIELD, 2)), ids=lambda c: c.__name__
)
def test_equal_fields_of_different_classes_are_unequal(left, right):
    a, b = left((Fraction(1),)), right((1,))
    assert a != b and b != a
    assert not a == b


def test_cross_class_inequality_with_matching_fields():
    assert FPS((Fraction(1),)) != RPolynomial((1,))
    assert Cycle((1,)) != (1,) and (1,) != Cycle((1,))
    fields = ("check", (("n", 1),), ("a", 1), ("b", 2))
    assert Mismatch(*fields) != fields
    assert CheckResult("x") != VerificationReport("x")


@pytest.mark.parametrize("cls", ONE_TUPLE_FIELD, ids=lambda c: c.__name__)
def test_same_class_equality_follows_the_field(cls):
    assert cls((1,)) == cls((1,))
    assert hash(cls((1,))) == hash(cls((1,)))
    assert cls((1,)) != cls((-1,))


def test_multi_field_equality():
    g, f = FPS.one(3), FPS.x(3)
    assert ExpRiordanArray(g, f) == ExpRiordanArray.identity(3)
    assert ExpRiordanArray(g, FPS.from_coeffs([0, 2], 3)) != ExpRiordanArray(g, f)
    assert ExpRiordanArray(g, f) != ExpRiordanArray(FPS.one(4), FPS.x(4))
    fields = ("check", (("n", 1),), ("a", 1), ("b", 2))
    assert Mismatch(*fields) == Mismatch(*fields)
    assert Mismatch(*fields) != Mismatch("other", *fields[1:])
    assert CheckResult("x", 3) == CheckResult("x", 3)
    assert CheckResult("x", 3) != CheckResult("x", 4)
    assert CheckResult("x", 0, Mismatch(*fields)) != CheckResult("x")
    assert VerificationReport("s", [CheckResult("x")]) == VerificationReport(
        "s", [CheckResult("x")]
    )
    assert VerificationReport("s") != VerificationReport("s", [CheckResult("x")])
    assert VerificationReport("s") != VerificationReport("t")


def test_frozen_records_are_set_members_and_dict_keys():
    perms = list(enumerate_signed(3))
    assert len(set(perms)) == 48
    assert len({cycle_decompose(p) for p in perms}) == 48
    # signed cycles in {1, 2, 3}: 3 * 2 of length 1, 3 * 4 of length 2, 2 * 8 of length 3
    assert len({c for p in perms for c in cycle_decompose(p).cycles}) == 34
    assert {SignedPermutation((2, -1)): "x"}[SignedPermutation((2, -1))] == "x"
    keys = {
        FPS.x(3): "series",
        make_triangle_B(2, 1, order=4): "array",
        d_poly(2): "poly",
        Cycle((1, -2)): "cycle",
        Mismatch("c", (("n", 1),), ("a", 1), ("b", 2)): "mismatch",
    }
    assert keys[FPS.from_coeffs([0, 1], 3)] == "series"
    assert keys[make_triangle_B(2, 1, order=4)] == "array"
    assert keys[RPolynomial(d_poly(2).coeffs)] == "poly"
    assert keys[Cycle((1, -2))] == "cycle"
    assert keys[Mismatch("c", (("n", 1),), ("a", 1), ("b", 2))] == "mismatch"


def test_mutable_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(CheckResult("x"))
    with pytest.raises(TypeError):
        hash(VerificationReport("s"))


def test_constructor_fields_and_defaults():
    res = CheckResult("x")
    assert (res.name, res.comparisons, res.mismatch, res.notes) == ("x", 0, None, ())
    assert res.ok
    res = CheckResult(name="y", comparisons=2, notes=("n",))
    assert (res.comparisons, res.notes) == (2, ("n",))
    first, second = VerificationReport("a"), VerificationReport(scope="b")
    assert first.results == [] and first.results is not second.results
    first.results.append(res)
    assert second.results == []
    m = Mismatch(check="c", coordinates=(("n", 1),), left=("a", 1), right=("b", 2))
    assert m.describe() == "c at (n=1): a gives 1 but b gives 2"
    arr = ExpRiordanArray(g=FPS.one(2), f=FPS.x(2))
    assert (arr.g, arr.f) == (FPS.one(2), FPS.x(2))


NOT_A_SIGNING = "image must be a signing of a permutation of 1..n"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SignedPermutation((1, 1)), NOT_A_SIGNING),
        (lambda: SignedPermutation((0, 1)), NOT_A_SIGNING),
        (lambda: ExpRiordanArray(FPS.x(3), FPS.x(3)), r"Riordan array needs g\(0\) != 0"),
        (
            lambda: ExpRiordanArray(FPS.one(3), FPS.one(3)),
            r"Riordan array needs f\(0\) = 0 and order >= 1",
        ),
        (
            lambda: ExpRiordanArray(FPS.one(0), FPS.from_coeffs([0], 0)),
            r"Riordan array needs f\(0\) = 0 and order >= 1",
        ),
        (
            lambda: ExpRiordanArray(FPS.one(3), FPS.from_coeffs([0, 0, 1], 3)),
            r"Riordan array needs f'\(0\) != 0",
        ),
    ],
)
def test_constructor_value_errors(build, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        build()


def test_repr_is_readable():
    namespace = {
        "Cycle": Cycle,
        "CycleDecomposition": CycleDecomposition,
        "SignedPermutation": SignedPermutation,
        "RPolynomial": RPolynomial,
        "Mismatch": Mismatch,
        "CheckResult": CheckResult,
        "VerificationReport": VerificationReport,
    }
    sigma = SignedPermutation((-2, 1, 3))
    mismatch = Mismatch("c", (("n", 1),), ("a", 1), ("b", 2))
    records = [
        sigma,
        cycle_decompose(sigma),
        d_poly(2),
        mismatch,
        VerificationReport("s", [CheckResult("x", 1, mismatch, ("note",))]),
    ]
    for record in records:
        assert eval(repr(record), namespace) == record
    assert repr(Cycle((1, -2))) == "Cycle((1, -2))"
    assert repr(FPS.x(2)) == "FormalPowerSeries([0, 1, 0]; order=2)"
    assert repr(ExpRiordanArray.identity(1)) == (
        "ExpRiordanArray(g=FormalPowerSeries([1, 0]; order=1), "
        "f=FormalPowerSeries([0, 1]; order=1))"
    )


def test_cached_properties_are_computed_once_per_instance(monkeypatch):
    products = []
    mul = FPS.__mul__

    def counted_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(FPS, "__mul__", counted_mul)
    series = FPS.from_coeffs([0, 1, 1], 5)
    powers = series._powers
    assert len(products) == 5
    assert series._powers is powers and len(products) == 5
    # an equal series is another instance with its own table
    twin = FPS(series.coeffs)
    assert twin == series and twin._powers == powers and twin._powers is not powers
    assert len(products) == 10

    arr = make_triangle_B(2, 1, order=5)
    table, inverse = arr._table, arr._inverse
    products.clear()
    assert arr._table is table and arr._inverse is inverse
    assert arr.invert() is inverse and arr.entry(5, 2) == table[5][2]
    assert products == []
