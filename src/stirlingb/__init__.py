"""Exact computation of signed-permutation cycle statistics.

The package computes restricted and associated r-Stirling numbers of type B
and the matching derangement-style counts along several independent routes
(recurrences, explicit sums, exponential Riordan arrays, egf coefficients)
and can cross-check all of them against a brute-force enumeration oracle.

The package exports exactly the `__all__` names of `fps`, `permcore`,
`riordan` and `sequences`.
"""

from . import fps, permcore, riordan, sequences
from .fps import *  # noqa: F401,F403
from .permcore import *  # noqa: F401,F403
from .riordan import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (fps, permcore, riordan, sequences)
    for name in module.__all__
) + ["__version__"]
