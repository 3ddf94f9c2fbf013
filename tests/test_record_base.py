"""The record base: which classes use it and that their `_fields` follow
their constructors.  Equality, hashing and repr are pinned per class in
test_records.py."""

import inspect

import pytest

import stirlingb.cli  # noqa: F401  (imports every layer, so every record class)
from stirlingb._record import Record

RECORD_CLASSES = {
    "stirlingb.fps.FormalPowerSeries",
    "stirlingb.riordan.ExpRiordanArray",
    "stirlingb.sequences.RPolynomial",
    "stirlingb.permcore.SignedPermutation",
    "stirlingb.permcore.Cycle",
    "stirlingb.permcore.CycleDecomposition",
    "stirlingb.verify.Mismatch",
    "stirlingb.verify.CheckResult",
    "stirlingb.verify.VerificationReport",
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(_subclasses(Record), key=lambda cls: cls.__qualname__)


def test_the_records_are_the_nine_classes():
    assert {"%s.%s" % (c.__module__, c.__qualname__) for c in RECORDS} == RECORD_CLASSES


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_fields_are_the_constructor_parameters(cls):
    # a field missing from `_fields` would be ignored by equality and hashing
    params = list(inspect.signature(cls.__init__).parameters)
    assert params[0] == "self"
    assert "_fields" in vars(cls)
    assert cls._fields == tuple(params[1:])
