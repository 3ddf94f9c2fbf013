import sys
from fractions import Fraction

import pytest


@pytest.fixture
def fractions_formed():
    """``fractions_formed(action)``: how many Fractions ``action()``
    constructs, counted by a profile hook on ``Fraction.__new__``."""
    new = Fraction.__new__.__code__

    def count(action):
        calls = [0]

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is new:
                calls[0] += 1

        sys.setprofile(hook)
        try:
            action()
        finally:
            sys.setprofile(None)
        return calls[0]

    return count
