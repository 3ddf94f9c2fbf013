"""Cross-route verification suites.

Every quantity the package can compute more than one way is compared here on
bounded grids.  A scope runs its checks in a fixed order and stops at the
first failing check; the report carries the first mismatching cell with both
values and both provenances.

`SCOPE_TABLE` lists the scopes, each with the function that lists its
checks, the options it reads with their defaults and whether "all" runs it;
asymptotic checks r <= 2 only and says so when asked for more.  `run_scope`
runs one, or "all" those marked, in that order up to the first failing
check, through the one collector `_collect`.

Only the riordan and printed scopes read the series layers, so `fps` and
`riordan` are held as modules that load on their first attribute read, and
riordan alone imports `random`.  `fractions` loads only for a tree term of
printed or a cell or note of asymptotic, and `decimal` only for the latter.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import factorial

from . import _on_first_read, sequences
from ._record import Record
from .permcore import check_bound, oracle_total, oracle_triangle

fps, riordan = map(_on_first_read, ("fps", "riordan"))

__all__ = [
    "SCOPES",
    "SCOPE_TABLE",
    "CheckResult",
    "Mismatch",
    "VerificationReport",
    "inv_sqrt_e",
    "run_scope",
]


class Mismatch(Record):
    """The first disagreeing cell of a check: its coordinates as (name,
    value) pairs and each side as (provenance, value)."""

    _fields = ("check", "coordinates", "left", "right")

    def __init__(self, check: str, coordinates: tuple, left: tuple, right: tuple):
        self.check, self.coordinates = check, coordinates
        self.left, self.right = left, right

    def describe(self) -> str:
        coords = ", ".join("%s=%s" % kv for kv in self.coordinates)
        return "%s at (%s): %s gives %s but %s gives %s" % (
            (self.check, coords, *self.left, *self.right)
        )


class CheckResult(Record):
    """One check: its comparison count, its `Mismatch` or None, its notes."""

    _fields = ("name", "comparisons", "mismatch", "notes")
    __hash__ = None  # mutable: `_collect` counts into it

    def __init__(self, name: str, comparisons: int = 0, mismatch=None, notes=()):
        self.name, self.comparisons = name, comparisons
        self.mismatch, self.notes = mismatch, notes

    @property
    def ok(self) -> bool:
        return self.mismatch is None


class VerificationReport(Record):
    _fields = ("scope", "results")
    __hash__ = None  # mutable: its results list grows

    def __init__(self, scope: str, results: list[CheckResult] | None = None):
        self.scope, self.results = scope, [] if results is None else results

    @property
    def ok(self) -> bool:
        return all(res.ok for res in self.results)

    @property
    def comparisons(self) -> int:
        return sum(res.comparisons for res in self.results)

    def lines(self) -> list[str]:
        out = []
        for res in self.results:
            if res.ok:
                out.append("ok   %s (%d comparisons)" % (res.name, res.comparisons))
            else:
                out.append("FAIL %s" % res.mismatch.describe())
            for note in res.notes:
                out.append("     %s" % note)
        verdict = "PASS" if self.ok else "FAIL"
        out.append(
            "scope %s: %s (%d checks, %d comparisons)"
            % (self.scope, verdict, len(self.results), self.comparisons)
        )
        return out


def _collect(scope: str, checks) -> VerificationReport:
    """Run checks in order, each until its first mismatch, and stop after the
    first failing check.  A check is (name, cells) or (name, cells, notes);
    `cells` yields (coordinates, (label, value), (label, value)) triples.
    `checks` and each `cells` are read lazily, so a scope's checks are not
    made before its turn and nothing after a failure is built."""
    report = VerificationReport(scope)
    for name, cells, *notes in checks:
        res = CheckResult(name, notes=tuple(*notes))
        report.results.append(res)
        for coords, left, right in cells:
            res.comparisons += 1
            if left[1] != right[1]:
                res.mismatch = Mismatch(name, tuple(coords), left, right)
                return report
    return report


def _cells(pair, labels, *axes):
    """The cells of a grid for `_collect`: every combination of the (name,
    values) `axes`, the first outermost.  An axis's values may be a function
    of the coordinates before it, as k <= n is.  `pair(*coordinates)` gives
    the values of the two routes that `labels` name, so each cell is
    evaluated once, in grid order."""
    def extend(points, name, values):
        for point, coords in points:
            for value in values(*point) if callable(values) else values:
                yield point + (value,), coords + ((name, value),)

    points = iter([((), ())])
    for name, values in axes:
        points = extend(points, name, values)
    for point, coords in points:
        left, right = pair(*point)
        yield coords, (labels[0], left), (labels[1], right)


def _n_k(size):
    """The axes n <= size and k <= n of a triangle grid."""
    return ("n", range(size + 1)), ("k", lambda *head: range(head[-1] + 1))


def _recurrence_checks(name, label, rs, size, other):
    """The checks `name % m` for m = 2, 3: `triangle_gem_rec` against `other`."""
    def pair(m, r, n, k):
        return sequences.triangle_gem_rec(n, k, r, m), other(m, r, n, k)
    return [(name % m, _cells(pair, ("recurrence", label), ("m", (m,)), rs, *_n_k(size)))
            for m in (2, 3)]


# -- riordan scope ---------------------------------------------------------------


def _random_array(rng: random.Random, order: int) -> riordan.ExpRiordanArray:
    g = [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(order)]
    f = [0, rng.choice((1, -1, 2))] + [rng.randint(-2, 2) for _ in range(max(order - 1, 0))]
    return riordan.ExpRiordanArray(
        fps.FormalPowerSeries.from_coeffs(g, order),
        fps.FormalPowerSeries.from_coeffs(f, order),
    )


def _check_riordan(*, max_n: int, max_r: int, seed: int, samples: int) -> list:
    import random
    order = max(max_n, 1)
    inv_order = min(order, 10)
    law_order = min(max(max_n, 2), 8)
    rs = ("r", range(max_r + 1))
    # each array is built once per run, and with it its table, its inverse,
    # its conjugated inverse, its products and its production-matrix rebuild
    triangle = cache(riordan.make_triangle_B)
    ident = riordan.ExpRiordanArray.identity(inv_order)
    law_ident = riordan.ExpRiordanArray.identity(law_order)
    rng = random.Random(seed)

    @cache
    def conjugate_inverse(r):
        return riordan.unsigned_conjugate(triangle(2, r, order).invert())

    @cache
    def rebuilt(r):
        return riordan.production_rebuild(triangle(2, r, order))

    # the cells read products and laws one r or sample at a time, in order, so
    # one entry each is enough and the samples' arrays are drawn in order
    @lru_cache(maxsize=1)
    def products(r):
        arr = triangle(2, r, inv_order)
        inv = arr.invert()
        return {"right": arr.multiply(inv), "left": inv.multiply(arr)}

    @lru_cache(maxsize=1)
    def laws(sample):
        a, b, c = (_random_array(rng, law_order) for _ in range(3))
        rows = riordan.production_rebuild(a)
        return {
            "unit": (a.multiply(law_ident).entry, a.entry),
            "inverse": (a.multiply(a.invert()).entry, law_ident.entry),
            "associativity": (
                a.multiply(b).multiply(c).entry, a.multiply(b.multiply(c)).entry
            ),
            "production": (lambda n, k: rows[n][k], a.entry),
        }

    def law(sample, n, k, name):
        got, want = laws(sample)[name]
        return got(n, k), want(n, k)

    return [
        *_recurrence_checks("triangle-recurrence-vs-riordan[m=%d]", "riordan", rs, max_n,
                            lambda m, r, n, k: triangle(m, r, order).entry(n, k)),
        ("group-inverse-two-sided", _cells(
            lambda r, n, k, side: (products(r)[side].entry(n, k), ident.entry(n, k)),
            ("riordan", "riordan"), rs, *_n_k(inv_order), ("side", ("right", "left")),
        )),
        ("inverse-recurrence-vs-conjugate", _cells(
            lambda r, n, k: (
                sequences.inverse_triangle_rec(n, k, r), conjugate_inverse(r).entry(n, k)
            ),
            ("recurrence", "riordan"), rs, *_n_k(max_n),
        )),
        ("production-matrix-rebuild", _cells(
            lambda r, n, k: (rebuilt(r)[n][k], triangle(2, r, order).entry(n, k)),
            ("riordan", "riordan"), rs, *_n_k(order),
        )),
        ("random-group-laws", _cells(
            law, ("riordan", "riordan"),
            ("sample", range(samples if max_n > 0 else 0)), *_n_k(law_order),
            ("law", ("unit", "inverse", "associativity", "production")),
        )),
    ]


# -- oracle scope ----------------------------------------------------------------


def _check_oracle(*, max_n: int, max_r: int, bound: int | None) -> list:
    rs = ("r", range(max_r + 1))
    delta_forms = cache(sequences.diagonals_delta)  # both entries of an (m, r, n) in one call
    entries = ("(n+1,n)", "(n+2,n)")

    def subdiagonal(m, r, n, entry):
        d = entries.index(entry)
        return (
            delta_forms(n, r, m)[d],
            oracle_triangle(n + d + 1, r, n, "assoc", m, bound=bound),
        )

    return [
        *_recurrence_checks(
            "triangle-vs-oracle[m=%d]", "oracle", rs, max_n,
            lambda m, r, n, k: oracle_triangle(n, r, k, "assoc", m, bound=bound)),
        ("window-totals-vs-convolution", _cells(
            lambda m, mode, n: (
                sequences.typeB_factorial_conv(n, mode, m),
                oracle_total(n, 0, mode, m, bound=bound),
            ),
            ("explicit", "oracle"),
            ("m", (2, 3)), ("mode", ("assoc", "restr")), ("n", range(max_n + 1)),
        )),
        ("subdiagonal-closed-forms-vs-oracle", _cells(
            subdiagonal, ("explicit", "oracle"), ("m", (1, 2, 3)), rs,
            ("n", range(max_n + 1)), ("entry", lambda m, r, n: entries[:max_n - n]),
        )),
    ]


# -- howard scope ----------------------------------------------------------------


def _check_howard(*, max_n: int, max_r: int) -> list:
    labels, rs, n_k = ("recurrence", "explicit"), ("r", range(max_r + 1)), _n_k(max_n)
    return [
        ("howard-type-a", _cells(
            lambda n, k: (sequences.stirling1(n, n - k), sequences.stirling1_howard(n, n - k)),
            labels, *n_k,
        )),
        ("howard-type-b", _cells(
            lambda m, r, n, k: (
                sequences.triangle_gem_rec(n, k, r, m),
                sequences.triangle_gem_howard(n, k, r, m),
            ),
            labels, ("m", (2, 3)), rs, *n_k,
        )),
        ("howard-free-sign-reduction", _cells(
            lambda r, n, k: (
                2 ** (n + r) * sequences.rstirling1(n, k, r),
                sequences.free_sign_howard(n, k, r),
            ),
            labels, rs, *n_k,
        )),
    ]


# -- asymptotic scope --------------------------------------------------------------


def inv_sqrt_e(digits: int = 80) -> Fraction:
    """e^(-1/2) as an exact Fraction accurate to `digits` significant digits."""
    from decimal import Decimal, localcontext
    from fractions import Fraction
    with localcontext() as ctx:
        ctx.prec = digits
        return Fraction(Decimal(-1).exp().sqrt())


def _format_fraction(value: Fraction, precision: int) -> str:
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = max(precision, 1)
        return str(Decimal(value.numerator) / Decimal(value.denominator))


# d_asym keeps two terms of the expansion: its error at n=30 is 1e-2 for
# r=3 and above the 0.05 threshold from r=4 on, so larger r are not checked.
_ASYMPTOTIC_MAX_R = 2


def _check_asymptotic(*, max_n: int, max_r: int, precision: int) -> list:
    grid = [n for n in (10, 20, 30) if n <= max_n]
    if grid:  # every cell and note is at an n >= 10, and reads e^(-1/2) and Fractions
        from fractions import Fraction
        target = inv_sqrt_e()
    # one pass over r forms that r's errors at the grid points, its cells and its note
    cells, notes = [], []
    for r in range(min(max_r, _ASYMPTOTIC_MAX_R) + 1):
        errors = [abs(Fraction(sequences.d_rec(r, n), factorial(n))
                      / sequences.d_asym(r, n) / target - 1) for n in grid]
        cells += [((("r", r), ("from_n", na), ("to_n", nb)),
                   ("recurrence", a > b), ("explicit", True))
                  for a, b, na, nb in zip(errors, errors[1:], grid, grid[1:])]
        if 30 in grid:
            cells.append(((("r", r), ("n", 30), ("threshold", "0.05")),
                          ("recurrence", errors[-1] < Fraction(1, 20)), ("explicit", True)))
        if grid:
            notes.append("r=%d error at n=%d: %s"
                         % (r, grid[-1], _format_fraction(errors[-1], precision)))
    # the per-r errors are noted only when every cell of the check holds
    if not all(left[1] for _, left, _ in cells):
        notes = []
    if max_r > _ASYMPTOTIC_MAX_R:
        notes.append(
            "r=%d..%d not checked: d_asym keeps two terms, too few for r > %d"
            % (_ASYMPTOTIC_MAX_R + 1, max_r, _ASYMPTOTIC_MAX_R)
        )
    return [
        ("ratio-error-decreasing", cells, tuple(notes)),
        ("plain-ratio-near-limit", _cells(
            lambda n, threshold: (
                abs(Fraction(sequences.d_rec(0, n), factorial(n) * 2**n) - target)
                < Fraction(1, 100),
                True,
            ),
            ("recurrence", "explicit"),
            ("n", (25,) if max_n >= 25 else ()), ("threshold", ("0.01",)),
        )),
    ]


# -- printed scope --------------------------------------------------------------


def _check_printed(*, max_n: int, max_r: int) -> list:
    """The rows `table inverse` and the terms `seq tree` print, against the series routes."""
    @lru_cache(maxsize=1)  # the cells read one r at a time
    def inverse(r):
        array = riordan.make_triangle_B(2, r, order=max(max_n, 1))
        return (list(sequences.inverse_triangle_rows(max_n + 1, r)),
                riordan.unsigned_conjugate(array.invert()))

    @cache
    def trees():
        # n! [z^n] F', F the f of the conjugated inverse at m = 2: -fbar(-x)
        size = max_n + 1
        array = riordan.make_triangle_B(2, 0, order=size)
        series = riordan.unsigned_conjugate(array.invert()).f.derivative()
        return sequences.tree_terms(size), [series.egf_coeff(n) for n in range(size)]

    return [
        ("inverse-rows-vs-conjugate", _cells(
            lambda r, n, k: (inverse(r)[0][n][k], inverse(r)[1].entry(n, k)),
            ("recurrence", "riordan"), ("r", range(max_r + 1)), *_n_k(max_n),
        )),
        ("tree-recurrence-vs-reversion", _cells(
            lambda n: tuple(terms[n] for terms in trees()),
            ("recurrence", "riordan"), ("n", range(max_n + 1)),
        )),
    ]


# -- scope table --------------------------------------------------------------------

# scope -> (lister of its checks, {option: default}, whether `all` runs it), in
# the order `all` runs them; `all` keeps its pinned counts as scopes are added.
# These are the only defaults and the only record of which options a scope
# reads: run_scope hands each lister its own, and the CLI rejects any other.
SCOPE_TABLE = {
    "riordan": (_check_riordan, {"max_n": 8, "max_r": 3, "seed": 20240801, "samples": 12}, True),
    "oracle": (_check_oracle, {"max_n": 4, "max_r": 2, "bound": None}, True),
    "howard": (_check_howard, {"max_n": 5, "max_r": 2}, True),
    "asymptotic": (_check_asymptotic, {"max_n": 30, "max_r": 2, "precision": 30}, True),
    "printed": (_check_printed, {"max_n": 30, "max_r": 3}, False),
}

SCOPES = ("all",) + tuple(SCOPE_TABLE)

# option -> its least value, below which a grid has no point, no digit or no
# size to enumerate; a grid above it may still compare nothing (asymptotic
# max_n < 20, samples 0), and its PASS then reports 0 comparisons
_LEAST = {"max_n": 0, "max_r": 0, "samples": 0, "precision": 1, "bound": 0}


def run_scope(scope: str, **options) -> VerificationReport:
    """Run one scope, or, for "all", every scope marked for it in table order
    until the first failing check.  Each scope takes the options it reads from
    `options`, its SCOPE_TABLE defaults filling in the rest; an option that
    no scope reads is a TypeError, and a max_n, max_r, samples or bound
    below 0 or a precision below 1 is a ValueError, whichever scope runs;
    bound None is the default bound.  A PASS counts its comparisons, which
    may be 0.  When the oracle scope is among those to run, its grid is
    checked against the enumeration bound before any scope starts."""
    if scope != "all" and scope not in SCOPE_TABLE:
        raise ValueError("scope must be one of %s, got %r" % (SCOPES, scope))
    for name in options:
        if not any(name in defaults for _, defaults, _ in SCOPE_TABLE.values()):
            raise TypeError("run_scope() got an unexpected keyword argument %r" % name)
    for name, least in _LEAST.items():
        if options.get(name) is not None and options[name] < least:
            raise ValueError("%s must be >= %d, got %d" % (name, least, options[name]))
    runs = {
        name: (check, {key: options.get(key, value) for key, value in defaults.items()})
        for name, (check, defaults, in_all) in SCOPE_TABLE.items()
        if (in_all if scope == "all" else scope == name)
    }
    if "oracle" in runs:
        # the oracle grid reaches every size up to max_n + max_r in
        # increasing order, so this raises at the size the scope would
        grid = runs["oracle"][1]
        for size in range(grid["max_n"] + grid["max_r"] + 1):
            check_bound(size, grid["bound"])
    return _collect(scope, (c for check, kwargs in runs.values() for c in check(**kwargs)))
