"""Exact computation of signed-permutation cycle statistics.

The package computes restricted and associated r-Stirling numbers of type B
and the matching derangement-style counts along several independent routes
(recurrences, explicit sums, exponential Riordan arrays, egf coefficients)
and can cross-check all of them against a brute-force enumeration oracle.
"""

from .fps import FormalPowerSeries
from .numeric import binomial, falling_factorial, rising_factorial
from .permcore import (
    DEFAULT_MAX_ENUM,
    Cycle,
    CycleDecomposition,
    EnumerationLimitError,
    SignedPermutation,
    cycle_decompose,
    enumerate_signed,
    enumeration_bound,
    is_derangement_B,
    oracle_total,
    oracle_triangle,
)
from .riordan import (
    DEFAULT_ORDER,
    ExpRiordanArray,
    make_triangle_B,
    production_rebuild,
    unsigned_conjugate,
)
from .sequences import (
    RPolynomial,
    d_asym,
    d_egf,
    d_explicit,
    d_poly,
    d_rec,
    d_series,
    diagonals,
    diagonals_delta,
    howard_check,
    incomplete_factorial,
    inverse_triangle_rec,
    lah,
    lattice_S,
    par_ge,
    par_le,
    rstirling1,
    stirling1,
    stirlingA,
    tree_count,
    triangle_ge2_alt_rec,
    triangle_ge2_rec,
    triangle_gem_rec,
    typeB_factorial_conv,
)

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "CycleDecomposition",
    "DEFAULT_MAX_ENUM",
    "DEFAULT_ORDER",
    "EnumerationLimitError",
    "ExpRiordanArray",
    "FormalPowerSeries",
    "RPolynomial",
    "SignedPermutation",
    "binomial",
    "cycle_decompose",
    "d_asym",
    "d_egf",
    "d_explicit",
    "d_poly",
    "d_rec",
    "d_series",
    "diagonals",
    "diagonals_delta",
    "enumerate_signed",
    "enumeration_bound",
    "falling_factorial",
    "howard_check",
    "incomplete_factorial",
    "inverse_triangle_rec",
    "is_derangement_B",
    "lah",
    "lattice_S",
    "make_triangle_B",
    "oracle_total",
    "oracle_triangle",
    "par_ge",
    "par_le",
    "production_rebuild",
    "rising_factorial",
    "rstirling1",
    "stirling1",
    "stirlingA",
    "tree_count",
    "triangle_ge2_alt_rec",
    "triangle_ge2_rec",
    "triangle_gem_rec",
    "typeB_factorial_conv",
    "unsigned_conjugate",
    "__version__",
]
