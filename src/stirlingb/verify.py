"""Cross-route verification suites.

Every quantity the package can compute more than one way is compared here on
bounded grids.  A scope runs its checks in a fixed order and stops at the
first failing check; the report carries the first mismatching cell with both
values and both provenances.

`SCOPE_TABLE` lists the scopes with their default grid sizes (max_n, max_r)
and the options they read: riordan (8, 3) seed and samples, oracle (4, 2)
the enumeration bound, howard (5, 2) none, asymptotic (30, 2) precision; the
asymptotic scope checks r <= 2 only and says so when asked for more.
`run_scope` runs one of them, or "all" of them in that order up to the first
failing scope.
"""

from __future__ import annotations

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial

from . import sequences
from ._record import Record
from .fps import FormalPowerSeries
from .permcore import check_bound, oracle_total, oracle_triangle
from .riordan import (
    ExpRiordanArray,
    make_triangle_B,
    production_rebuild,
    unsigned_conjugate,
)

__all__ = [
    "SCOPES",
    "SCOPE_TABLE",
    "CheckResult",
    "Mismatch",
    "VerificationReport",
    "check_asymptotic",
    "check_howard",
    "check_oracle",
    "check_riordan",
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
    """Run (name, cells) checks in order, each until its first mismatch, and
    stop after the first failing check.  `cells` yields (coordinates,
    (label, value), (label, value)) triples; a generator is not started
    before its turn, so checks after a failure cost nothing."""
    report = VerificationReport(scope)
    for name, cells in checks:
        res = CheckResult(name)
        report.results.append(res)
        for coords, left, right in cells:
            res.comparisons += 1
            if left[1] != right[1]:
                res.mismatch = Mismatch(name, tuple(coords), left, right)
                return report
    return report


def _triangle(pair, labels, max_n, *axes):
    """The cells of a triangle grid for `_collect`: every combination of the
    outer `axes`, (name, values) pairs taken in order, then n <= max_n and
    k <= n.  `pair(*outer, n, k)` gives the values of the two routes that
    `labels` name, so each cell is evaluated once."""
    names = [name for name, _ in axes]
    for outer in product(*(values for _, values in axes)):
        head = tuple(zip(names, outer))
        for n in range(max_n + 1):
            for k in range(n + 1):
                left, right = pair(*outer, n, k)
                yield head + (("n", n), ("k", k)), (labels[0], left), (labels[1], right)


# -- riordan scope ---------------------------------------------------------------


def _random_array(rng: random.Random, order: int) -> ExpRiordanArray:
    g = [Fraction(rng.randint(1, 3))] + [
        Fraction(rng.randint(-3, 3)) for _ in range(order)
    ]
    f = [Fraction(0), Fraction(rng.choice((1, -1, 2)))] + [
        Fraction(rng.randint(-2, 2)) for _ in range(max(order - 1, 0))
    ]
    return ExpRiordanArray(
        FormalPowerSeries.from_coeffs(g, order),
        FormalPowerSeries.from_coeffs(f, order),
    )


def check_riordan(
    max_n: int, max_r: int, *, seed: int, samples: int
) -> VerificationReport:
    order = max(max_n, 1)
    rs = range(max_r + 1)
    # each array is built once per run, and with it its table, its inverse,
    # its conjugated inverse and its production-matrix rebuild
    triangle = cache(make_triangle_B)

    @cache
    def conjugate_inverse(r):
        return unsigned_conjugate(triangle(2, r, order).invert())

    @cache
    def rebuilt(r):
        return production_rebuild(triangle(2, r, order))

    def triangle_vs_riordan(m):
        return _triangle(
            lambda m, r, n, k: (
                sequences.triangle_gem_rec(n, k, r, m),
                triangle(m, r, order).entry(n, k),
            ),
            ("recurrence", "riordan"), max_n, ("m", (m,)), ("r", rs),
        )

    def inverse_identity():
        inv_order = min(order, 10)
        for r in rs:
            arr = triangle(2, r, inv_order)
            inv = arr.invert()
            prod = arr.multiply(inv)
            prod2 = inv.multiply(arr)
            ident = ExpRiordanArray.identity(inv_order)
            for n in range(inv_order + 1):
                for k in range(n + 1):
                    want = ("riordan", ident.entry(n, k))
                    for side, got in (("right", prod), ("left", prod2)):
                        coords = (("r", r), ("n", n), ("k", k), ("side", side))
                        yield coords, ("riordan", got.entry(n, k)), want

    def inverse_recurrence():
        return _triangle(
            lambda r, n, k: (
                Fraction(sequences.inverse_triangle_rec(n, k, r)),
                conjugate_inverse(r).entry(n, k),
            ),
            ("recurrence", "riordan"), max_n, ("r", rs),
        )

    def production():
        return _triangle(
            lambda r, n, k: (rebuilt(r)[n][k], triangle(2, r, order).entry(n, k)),
            ("riordan", "riordan"), order, ("r", rs),
        )

    def random_laws():
        rng = random.Random(seed)
        count = samples if max_n > 0 else 0
        law_order = min(max(max_n, 2), 8)
        ident = ExpRiordanArray.identity(law_order)
        for idx in range(count):
            a = _random_array(rng, law_order)
            b = _random_array(rng, law_order)
            c = _random_array(rng, law_order)
            unit = a.multiply(ident)
            inv = a.multiply(a.invert())
            left = a.multiply(b).multiply(c)
            right = a.multiply(b.multiply(c))
            rebuilt = production_rebuild(a)
            for n in range(law_order + 1):
                for k in range(n + 1):
                    base = (("sample", idx), ("n", n), ("k", k))
                    for law, got, want in (
                        ("unit", unit.entry(n, k), a.entry(n, k)),
                        ("inverse", inv.entry(n, k), ident.entry(n, k)),
                        ("associativity", left.entry(n, k), right.entry(n, k)),
                        ("production", rebuilt[n][k], a.entry(n, k)),
                    ):
                        yield (*base, ("law", law)), ("riordan", got), ("riordan", want)

    return _collect(
        "riordan",
        [
            ("triangle-recurrence-vs-riordan[m=2]", triangle_vs_riordan(2)),
            ("triangle-recurrence-vs-riordan[m=3]", triangle_vs_riordan(3)),
            ("group-inverse-two-sided", inverse_identity()),
            ("inverse-recurrence-vs-conjugate", inverse_recurrence()),
            ("production-matrix-rebuild", production()),
            ("random-group-laws", random_laws()),
        ],
    )


# -- oracle scope ----------------------------------------------------------------


def check_oracle(max_n: int, max_r: int, *, bound: int | None) -> VerificationReport:
    def triangle_vs_oracle(m):
        return _triangle(
            lambda m, r, n, k: (
                sequences.triangle_gem_rec(n, k, r, m),
                oracle_triangle(n, r, k, "assoc", m, bound=bound),
            ),
            ("recurrence", "oracle"), max_n, ("m", (m,)), ("r", range(max_r + 1)),
        )

    def totals_vs_convolution():
        for m in (2, 3):
            for mode in ("assoc", "restr"):
                for n in range(max_n + 1):
                    yield (
                        (("m", m), ("mode", mode), ("n", n)),
                        ("explicit", sequences.typeB_factorial_conv(n, mode, m)),
                        ("oracle", oracle_total(n, 0, mode, m, bound=bound)),
                    )

    def diagonals_vs_oracle():
        for m in (1, 2, 3):
            for r in range(max_r + 1):
                for n in range(max_n + 1):
                    for d, value in enumerate(sequences.diagonals_delta(n, r, m), 1):
                        if n + d <= max_n:
                            yield (
                                (("m", m), ("r", r), ("entry", "(n+%d,n)" % d), ("n", n)),
                                ("explicit", value),
                                ("oracle", oracle_triangle(n + d, r, n, "assoc", m, bound=bound)),
                            )

    return _collect(
        "oracle",
        [
            ("triangle-vs-oracle[m=2]", triangle_vs_oracle(2)),
            ("triangle-vs-oracle[m=3]", triangle_vs_oracle(3)),
            ("window-totals-vs-convolution", totals_vs_convolution()),
            ("subdiagonal-closed-forms-vs-oracle", diagonals_vs_oracle()),
        ],
    )


# -- howard scope ----------------------------------------------------------------


def check_howard(max_n: int, max_r: int) -> VerificationReport:
    def type_a(n, k):
        return sequences.howard_check(n, k, variant="type-a")

    def type_b(m, r, n, k):
        return sequences.howard_check(n, k, r, m, "type-b")

    def howard1(r, n, k):
        return sequences.howard_check(n, k, r, 2, "howard1")

    labels, rs = ("recurrence", "explicit"), range(max_r + 1)
    return _collect(
        "howard",
        [
            ("howard-type-a", _triangle(type_a, labels, max_n)),
            ("howard-type-b", _triangle(type_b, labels, max_n, ("m", (2, 3)), ("r", rs))),
            ("howard-free-sign-reduction", _triangle(howard1, labels, max_n, ("r", rs))),
        ],
    )


# -- asymptotic scope --------------------------------------------------------------


def inv_sqrt_e(digits: int = 80) -> Fraction:
    """e^(-1/2) as an exact Fraction accurate to `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return Fraction(Decimal(-1).exp().sqrt())


def _format_fraction(value: Fraction, precision: int) -> str:
    with localcontext() as ctx:
        ctx.prec = max(precision, 1)
        return str(Decimal(value.numerator) / Decimal(value.denominator))


# d_asym keeps two terms of the expansion: its error at n=30 is 1e-2 for
# r=3 and above the 0.05 threshold from r=4 on, so larger r are not checked.
_ASYMPTOTIC_MAX_R = 2


def check_asymptotic(max_n: int, max_r: int, *, precision: int) -> VerificationReport:
    target = inv_sqrt_e()
    grid = [n for n in (10, 20, 30) if n <= max_n]
    checked_r = range(min(max_r, _ASYMPTOTIC_MAX_R) + 1)

    def ratio_error(r, n):
        ratio = Fraction(sequences.d_rec(r, n), factorial(n)) / sequences.d_asym(r, n)
        return abs(ratio / target - 1)

    # formed once per (r, n): the first check reads them all, the notes the last
    errors_by_r = {r: [ratio_error(r, n) for n in grid] for r in checked_r}

    def decreasing():
        for r, errors in errors_by_r.items():
            for a, b, na, nb in zip(errors, errors[1:], grid, grid[1:]):
                yield (
                    (("r", r), ("from_n", na), ("to_n", nb)),
                    ("recurrence", a > b),
                    ("explicit", True),
                )
            if grid and grid[-1] == 30:
                yield (
                    (("r", r), ("n", 30), ("threshold", "0.05")),
                    ("recurrence", errors[-1] < Fraction(1, 20)),
                    ("explicit", True),
                )

    def plain_limit():
        if max_n >= 25:
            n = 25
            ratio = Fraction(sequences.d_rec(0, n), factorial(n) * 2**n)
            yield (
                (("n", n), ("threshold", "0.01")),
                ("recurrence", abs(ratio - target) < Fraction(1, 100)),
                ("explicit", True),
            )

    report = _collect(
        "asymptotic",
        [("ratio-error-decreasing", decreasing()), ("plain-ratio-near-limit", plain_limit())],
    )
    first = report.results[0]
    notes = []
    if first.ok and grid:
        for r, errors in errors_by_r.items():
            notes.append(
                "r=%d error at n=%d: %s"
                % (r, grid[-1], _format_fraction(errors[-1], precision))
            )
    if max_r > _ASYMPTOTIC_MAX_R:
        notes.append(
            "r=%d..%d not checked: d_asym keeps two terms, too few for r > %d"
            % (_ASYMPTOTIC_MAX_R + 1, max_r, _ASYMPTOTIC_MAX_R)
        )
    first.notes = tuple(notes)
    return report


# -- scope table --------------------------------------------------------------------

# scope -> (check, default max_n, default max_r, the options of seed, samples,
# bound and precision it reads), in the order `all` runs them.  run_scope hands
# each check only its own options; the CLI rejects any other it is given.
SCOPE_TABLE = {
    "riordan": (check_riordan, 8, 3, ("seed", "samples")),
    "oracle": (check_oracle, 4, 2, ("bound",)),
    "howard": (check_howard, 5, 2, ()),
    "asymptotic": (check_asymptotic, 30, 2, ("precision",)),
}

SCOPES = ("all",) + tuple(SCOPE_TABLE)


def _grid(scope: str, max_n: int | None, max_r: int | None) -> tuple[int, int]:
    """(max_n, max_r) for a scope, its defaults filling in any None."""
    default_n, default_r = SCOPE_TABLE[scope][1:3]
    return (
        default_n if max_n is None else max_n,
        default_r if max_r is None else max_r,
    )


def run_scope(
    scope: str,
    max_n: int | None = None,
    max_r: int | None = None,
    seed: int = 20240801,
    samples: int = 12,
    bound: int | None = None,
    precision: int = 30,
) -> VerificationReport:
    """Run one scope with its defaults for any size left as None, or, for
    "all", every scope in table order until the first failing one.

    These are the only defaults of seed, samples and precision; the CLI
    passes only the options it is given.  When the oracle scope is among
    those to run, its grid is checked against the enumeration bound before
    any scope starts."""
    if scope != "all" and scope not in SCOPE_TABLE:
        raise ValueError("scope must be one of %s, got %r" % (SCOPES, scope))
    if scope in ("all", "oracle"):
        # the oracle grid reaches every size up to max_n + max_r in
        # increasing order, so this raises at the size the scope would
        for size in range(sum(_grid("oracle", max_n, max_r)) + 1):
            check_bound(size, bound)
    options = dict(seed=seed, samples=samples, bound=bound, precision=precision)
    if scope == "all":
        report = VerificationReport("all")
        for name in SCOPE_TABLE:
            sub = run_scope(name, max_n, max_r, **options)
            report.results.extend(sub.results)
            if not sub.ok:
                break
        return report
    check, _, _, reads = SCOPE_TABLE[scope]
    return check(*_grid(scope, max_n, max_r), **{name: options[name] for name in reads})
