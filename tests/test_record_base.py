"""The record base: which classes use it and that their `_fields` follow
their constructors.  Equality, hashing and repr are pinned per class in
test_records.py."""

import inspect

import pytest

# every layer that defines a record class; the package loads each on first use
from stirlingb import fps, permcore, riordan, sequences, verify  # noqa: F401
from stirlingb._record import Record

import naive

RECORD_CLASSES = {
    "stirlingb.fps.FormalPowerSeries",
    "stirlingb.riordan.ExpRiordanArray",
    "stirlingb.sequences.RPolynomial",
    "stirlingb.verify.Mismatch",
    "stirlingb.verify.CheckResult",
    "stirlingb.verify.VerificationReport",
}

# the tests' naive model is built on the same base
NAIVE_RECORDS = [naive.Cycle, naive.CycleDecomposition, naive.SignedPermutation]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# the package's own: a test module that defines records of its own must not
# change this list, whichever modules the run has imported before this one
RECORDS = sorted(
    (cls for cls in _subclasses(Record) if cls.__module__.startswith("stirlingb.")),
    key=lambda cls: cls.__qualname__,
)


def test_the_records_are_the_six_classes():
    assert {"%s.%s" % (c.__module__, c.__qualname__) for c in RECORDS} == RECORD_CLASSES


@pytest.mark.parametrize("cls", RECORDS + NAIVE_RECORDS, ids=lambda cls: cls.__qualname__)
def test_fields_are_the_constructor_parameters(cls):
    # a field missing from `_fields` would be ignored by equality and hashing
    params = list(inspect.signature(cls.__init__).parameters)
    assert params[0] == "self"
    assert "_fields" in vars(cls)
    assert cls._fields == tuple(params[1:])
