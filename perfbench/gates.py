"""Correctness gate for every benchmark job.

Each reference comes from a route other than the one the CLI used for the
job (the ``provenance`` the CLI reports):

* ``stirling-b`` (recurrence): every row sum against ``d_rec`` (m = 2) or
  against n! [z^n] g e^f of the Riordan pair (m >= 3); the two subdiagonals
  against ``diagonals_delta``; all cells of rows 0..16 against the Riordan
  array.
* ``stirling-a`` (recurrence): row sums against n! [z^n] exp(C) with C the
  cycle series of the window; columns k = 1 and k = n against their closed
  forms.
* ``inverse`` (riordan): every cell against ``inverse_triangle_rec``.
* ``seq d`` (recurrence): against its egf coefficients, in integers (below).
* ``seq tree`` (series reversion): against the integer recurrence of
  y' = (1 + 2y)/(1 - 2y), below.
* ``seq lattice`` (series product): against sum_j C(r, j) C(n - j + r - 1, r - 1).
* ``oracle`` (enumeration): against ``triangle_gem_rec`` or
  ``typeB_factorial_conv``.
* ``verify``: the ``PASS`` verdict, every check line ``ok``, and at least
  the number of checks and comparisons its grid implies.
* ``--help`` (set-up probe): exit 0 with the usage text.
* ``over-bound``: exit 2 with a one-line ``error:`` message and no output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from math import comb, factorial

from stirlingb import sequences
from stirlingb.fps import FormalPowerSeries
from stirlingb.riordan import make_triangle_B

RIORDAN_CELLS = 16  # rows 0..16 of stirling-b are checked cell by cell


def check(job, rc: int, out: str, err: str) -> str | None:
    """None if the job's result is right, else the reason it is not."""
    if rc != job.expect_rc:
        return "exit code %d, expected %d: %s" % (rc, job.expect_rc, err.strip()[-200:])
    if "Traceback" in err:
        return "traceback on stderr"
    if job.kind == "over-bound":
        lines = err.splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("error: "):
            return "over-bound job must print one 'error:' line and nothing else"
        return None
    if err:
        return "unexpected stderr: %s" % err.strip()[-200:]
    if job.kind == "help":
        return None if out.startswith("usage: stirlingb") else "no usage text"
    try:
        return GATES[job.kind](job.params, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "unparseable output: %r" % (exc,)


# -- parsing ---------------------------------------------------------------------


def parse_rows(out: str, fmt: str) -> list[list[int]]:
    if fmt == "json":
        return [[int(v) for v in row] for row in json.loads(out)["rows"]]
    sep = " " if fmt == "pretty" else ","
    return [[int(v) for v in line.split(sep)] for line in out.splitlines()]


def parse_terms(out: str, fmt: str) -> list[int]:
    if fmt == "json":
        payload = json.loads(out)
        terms = [int(v) for v in payload["terms"]]
        if payload["rows"] != [[v] for v in terms]:
            raise ValueError("json rows disagree with terms")
        return terms
    if fmt == "pretty":
        (line,) = out.splitlines()
        return [int(v) for v in line.split(" ")]
    return [int(v) for v in out.splitlines()]


def _first_difference(got, want, what: str) -> str | None:
    if len(got) != len(want):
        return "%s: %d values, expected %d" % (what, len(got), len(want))
    for idx, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return "%s differs at index %d" % (what, idx)
    return None


def _triangle_shape(rows, count) -> str | None:
    if len(rows) != count:
        return "%d rows, expected %d" % (len(rows), count)
    for n, row in enumerate(rows):
        if len(row) != n + 1:
            return "row %d has %d entries" % (n, len(row))
    return None


# -- references --------------------------------------------------------------------


def _egf_terms(series: FormalPowerSeries, count: int) -> list[int]:
    out = []
    for n in range(count):
        v = series.egf_coeff(n)
        if v.denominator != 1:
            raise ArithmeticError("non-integer reference %s" % (v,))
        out.append(int(v))
    return out


@cache
def riordan_rows(m: int, r: int, last: int) -> tuple[tuple[int, ...], ...]:
    arr = make_triangle_B(m, r, order=max(last, 1))
    return tuple(tuple(int(v) for v in arr.row(n)) for n in range(last + 1))


def _bucket(count: int) -> int:
    """Round a size up so that nearby sizes share one cached reference."""
    return -(-count // 16) * 16


def riordan_row_sums(m: int, r: int, count: int) -> tuple[int, ...]:
    return _riordan_row_sums(m, r, _bucket(count))[:count]


@cache
def _riordan_row_sums(m: int, r: int, count: int) -> tuple[int, ...]:
    arr = make_triangle_B(m, r, order=max(count - 1, 1))
    return tuple(_egf_terms(arr.g * arr.f.exp(), count))


def window_row_sums(mode: str, m: int, count: int) -> tuple[int, ...]:
    return _window_row_sums(mode, m, _bucket(count))[:count]


@cache
def _window_row_sums(mode: str, m: int, count: int) -> tuple[int, ...]:
    order = max(count - 1, 1)
    sizes = range(max(m, 1), order + 1) if mode == "assoc" else range(1, min(m, order) + 1)
    cycles = [Fraction(0)] * (order + 1)
    for j in sizes:
        cycles[j] = Fraction(1, j)
    return tuple(_egf_terms(FormalPowerSeries.from_coeffs(cycles, order).exp(), count))


@cache
def d_terms(r: int, count: int) -> tuple[int, ...]:
    """n! [x^n] e^(-x) (1 + 2x)^r / (1 - 2x)^(r + 1), in integers:
    d(r, n) = sum_j (-1)^(n-j) n!/(n-j)! a_j with
    a_j = [x^j] (1 + 2x)^r (1 - 2x)^(-r-1) = 2^j sum_i C(r, i) C(j - i + r, r).
    """
    a = [2**j * sum(comb(r, i) * comb(j - i + r, r) for i in range(min(r, j) + 1)) for j in range(count)]
    out = []
    for n in range(count):
        total, falling = 0, 1  # falling = n!/i! as i = n - j runs n, n-1, ..., 0
        for i in range(n, -1, -1):
            total += (-1) ** i * falling * a[n - i]
            falling *= i
        out.append(total)
    return tuple(out)


@cache
def tree_terms(count: int) -> tuple[int, ...]:
    """n! [z^n] F' where F' = (1 + 2F)/(1 - 2F), F(0) = 0.

    With y = F as an egf, (1 - 2y) y' = 1 + 2y gives
    y_{n+1} = [n = 0] + 2 y_n + 2 sum_{k=1}^{n} C(n, k) y_k y_{n+1-k}.
    """
    y = [0]
    for n in range(count):
        y.append(
            (n == 0) + 2 * y[n] + 2 * sum(comb(n, k) * y[k] * y[n + 1 - k] for k in range(1, n + 1))
        )
    return tuple(y[1:])


def lattice_term(r: int, n: int) -> int:
    """[x^n] (1 + x)^r (1 - x)^(-r)."""
    if r == 0:
        return int(n == 0)
    return sum(comb(r, j) * comb(n - j + r - 1, r - 1) for j in range(min(r, n) + 1))


# -- gates ---------------------------------------------------------------------------


def gate_stirling_b(p, out):
    rows = parse_rows(out, p["fmt"])
    m, r, count = p["m"], p["r"], p["rows"]
    bad = _triangle_shape(rows, count)
    if bad:
        return bad
    if m == 2:
        sums = [sequences.d_rec(r, n) for n in range(count)]
    else:
        sums = riordan_row_sums(m, r, count)
    bad = _first_difference([sum(row) for row in rows], sums, "row sums")
    if bad:
        return bad
    for n in range(count):
        first, second = sequences.diagonals_delta(n, r, m)
        if n + 1 < count and rows[n + 1][n] != first:
            return "subdiagonal (n+1, n) differs at n=%d" % n
        if n + 2 < count and rows[n + 2][n] != second:
            return "subdiagonal (n+2, n) differs at n=%d" % n
    last = min(count - 1, RIORDAN_CELLS)
    return _first_difference(
        [tuple(row) for row in rows[: last + 1]], riordan_rows(m, r, last), "rows vs riordan"
    )


def gate_stirling_a(p, out):
    rows = parse_rows(out, p["fmt"])
    mode, m, count = p["mode"], p["m"], p["rows"]
    bad = _triangle_shape(rows, count)
    if bad:
        return bad

    def allowed(size):
        return size >= m if mode == "assoc" else size <= m

    for n in range(1, count):
        if rows[n][1] != (factorial(n - 1) if allowed(n) else 0):
            return "column k=1 differs at n=%d" % n
        if rows[n][n] != (1 if allowed(1) else 0):
            return "diagonal differs at n=%d" % n
    return _first_difference(
        [sum(row) for row in rows], window_row_sums(mode, m, count), "row sums"
    )


def gate_inverse(p, out):
    rows = parse_rows(out, p["fmt"])
    r, count = p["r"], p["rows"]
    bad = _triangle_shape(rows, count)
    if bad:
        return bad
    want = [[sequences.inverse_triangle_rec(n, k, r) for k in range(n + 1)] for n in range(count)]
    return _first_difference(rows, want, "inverse rows")


def gate_seq_d(p, out):
    want = d_terms(p["r"], _bucket(p["terms"]))[: p["terms"]]
    return _first_difference(parse_terms(out, p["fmt"]), list(want), "d terms")


def gate_seq_tree(p, out):
    return _first_difference(parse_terms(out, p["fmt"]), list(tree_terms(p["terms"])), "tree terms")


def gate_seq_lattice(p, out):
    want = [lattice_term(p["r"], n) for n in range(p["terms"])]
    return _first_difference(parse_terms(out, p["fmt"]), want, "lattice terms")


def gate_oracle(p, out):
    n, r, mode, m, k = p["n"], p["r"], p["mode"], p["m"], p["k"]
    if mode == "assoc":
        ks = range(n + 1) if k is None else (k,)
        want = sum(sequences.triangle_gem_rec(n, j, r, m) for j in ks)
    elif r == 0 and k is None:
        want = sequences.typeB_factorial_conv(n, mode, m)
    else:
        raise ValueError("no independent reference for %r" % (p,))
    return None if out == "%d\n" % want else "oracle value differs"


SCOPE_LINE = re.compile(r"scope (\S+): (PASS|FAIL) \((\d+) checks, (\d+) comparisons\)")
OK_LINE = re.compile(r"ok   \S+ \((\d+) comparisons\)")


def gate_verify(p, out):
    lines = out.splitlines()
    match = SCOPE_LINE.fullmatch(lines[-1]) if lines else None
    if not match or match[1] != p["scope"] or match[2] != "PASS":
        return "no PASS line for scope %s" % p["scope"]
    oks = [OK_LINE.fullmatch(line) for line in lines[:-1] if not line.startswith("     ")]
    if not all(oks) or len(oks) != int(match[3]):
        return "check lines disagree with the scope line"
    comparisons = int(match[4])
    if sum(int(ok[1]) for ok in oks) != comparisons:
        return "comparison counts disagree with the scope line"
    checks_min, comparisons_min = expected_verify(p["scope"], p["max_n"], p["max_r"])
    if len(oks) < checks_min or comparisons < comparisons_min:
        return "%d checks / %d comparisons, grid implies at least %d / %d" % (
            len(oks), comparisons, checks_min, comparisons_min,
        )
    return None


def _tri(n: int) -> int:
    """Cells of a triangle with rows 0..n."""
    return (n + 1) * (n + 2) // 2


def expected_verify(scope: str, max_n: int, max_r: int, samples: int = 12) -> tuple[int, int]:
    """(checks, comparisons) that a passing scope runs on its grid."""
    if scope == "riordan":
        order = max(max_n, 1)
        inv_order = min(order, 10)
        law_order = min(max(max_n, 2), 8)
        laws = (samples if max_n > 0 else 0) * _tri(law_order) * 4
        rs = max_r + 1
        return 6, rs * (3 * _tri(max_n) + 2 * _tri(inv_order) + _tri(order)) + laws
    if scope == "oracle":
        rs = max_r + 1
        return 4, 2 * rs * _tri(max_n) + 4 * (max_n + 1) + 3 * rs * max(2 * max_n - 1, 0)
    if scope == "howard":
        return 3, _tri(max_n) * (1 + 2 * (max_r + 1) + (max_r + 1))
    if scope == "asymptotic":
        grid = [n for n in (10, 20, 30) if n <= max_n]
        per_r = max(len(grid) - 1, 0) + (1 if grid and grid[-1] == 30 else 0)
        return 2, (min(max_r, 2) + 1) * per_r + (1 if max_n >= 25 else 0)
    if scope == "all":
        parts = [expected_verify(s, max_n, max_r, samples) for s in ("riordan", "oracle", "howard", "asymptotic")]
        return sum(c for c, _ in parts), sum(n for _, n in parts)
    raise ValueError("unknown scope %r" % (scope,))


GATES = {
    "stirling-b": gate_stirling_b,
    "stirling-a": gate_stirling_a,
    "inverse": gate_inverse,
    "seq-d": gate_seq_d,
    "seq-tree": gate_seq_tree,
    "seq-lattice": gate_seq_lattice,
    "oracle": gate_oracle,
    "verify": gate_verify,
}
