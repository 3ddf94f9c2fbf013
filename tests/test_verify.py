"""The verify report under a planted mismatch, and the counts that the
benchmark's verify gate expects of each scope."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from stirlingb import cli, verify
from stirlingb.permcore import EnumerationLimitError

# Each check's FAIL line and the scope line when the right-hand value of one
# cell is replaced: the cell's index in the check's walk is the key.  At
# --max-n 5 the asymptotic grid is empty, so its checks run at max_n 30.
PLANT_ARGV = "verify all --max-n 5 --max-r 2 --samples 2"
ASYMPTOTIC_ARGV = "verify asymptotic --max-r 2"
ASYMPTOTIC_CHECKS = ("ratio-error-decreasing", "plain-ratio-near-limit")

# (check, cell) -> (the FAIL line between "at " and " gives planted", the
# scope line).
FAIL_PINS = {
    ("triangle-recurrence-vs-riordan[m=2]", 0): (
        "(m=2, r=0, n=0, k=0): recurrence gives 1 but riordan",
        "scope all: FAIL (1 checks, 1 comparisons)",
    ),
    ("triangle-recurrence-vs-riordan[m=2]", 31): (
        "(m=2, r=1, n=4, k=0): recurrence gives 768 but riordan",
        "scope all: FAIL (1 checks, 32 comparisons)",
    ),
    ("triangle-recurrence-vs-riordan[m=2]", 62): (
        "(m=2, r=2, n=5, k=5): recurrence gives 1 but riordan",
        "scope all: FAIL (1 checks, 63 comparisons)",
    ),
    ("triangle-recurrence-vs-riordan[m=3]", 0): (
        "(m=3, r=0, n=0, k=0): recurrence gives 1 but riordan",
        "scope all: FAIL (2 checks, 64 comparisons)",
    ),
    ("triangle-recurrence-vs-riordan[m=3]", 31): (
        "(m=3, r=1, n=4, k=0): recurrence gives 768 but riordan",
        "scope all: FAIL (2 checks, 95 comparisons)",
    ),
    ("triangle-recurrence-vs-riordan[m=3]", 62): (
        "(m=3, r=2, n=5, k=5): recurrence gives 1 but riordan",
        "scope all: FAIL (2 checks, 126 comparisons)",
    ),
    ("group-inverse-two-sided", 0): (
        "(r=0, n=0, k=0, side=right): riordan gives 1 but riordan",
        "scope all: FAIL (3 checks, 127 comparisons)",
    ),
    ("group-inverse-two-sided", 63): (
        "(r=1, n=4, k=0, side=left): riordan gives 0 but riordan",
        "scope all: FAIL (3 checks, 190 comparisons)",
    ),
    ("group-inverse-two-sided", 125): (
        "(r=2, n=5, k=5, side=left): riordan gives 1 but riordan",
        "scope all: FAIL (3 checks, 252 comparisons)",
    ),
    ("inverse-recurrence-vs-conjugate", 0): (
        "(r=0, n=0, k=0): recurrence gives 1 but riordan",
        "scope all: FAIL (4 checks, 253 comparisons)",
    ),
    ("inverse-recurrence-vs-conjugate", 31): (
        "(r=1, n=4, k=0): recurrence gives 7552 but riordan",
        "scope all: FAIL (4 checks, 284 comparisons)",
    ),
    ("inverse-recurrence-vs-conjugate", 62): (
        "(r=2, n=5, k=5): recurrence gives 1 but riordan",
        "scope all: FAIL (4 checks, 315 comparisons)",
    ),
    ("production-matrix-rebuild", 0): (
        "(r=0, n=0, k=0): riordan gives 1 but riordan",
        "scope all: FAIL (5 checks, 316 comparisons)",
    ),
    ("production-matrix-rebuild", 31): (
        "(r=1, n=4, k=0): riordan gives 768 but riordan",
        "scope all: FAIL (5 checks, 347 comparisons)",
    ),
    ("production-matrix-rebuild", 62): (
        "(r=2, n=5, k=5): riordan gives 1 but riordan",
        "scope all: FAIL (5 checks, 378 comparisons)",
    ),
    ("random-group-laws", 0): (
        "(sample=0, n=0, k=0, law=unit): riordan gives 3 but riordan",
        "scope all: FAIL (6 checks, 379 comparisons)",
    ),
    ("random-group-laws", 84): (
        "(sample=1, n=0, k=0, law=unit): riordan gives 1 but riordan",
        "scope all: FAIL (6 checks, 463 comparisons)",
    ),
    ("random-group-laws", 167): (
        "(sample=1, n=5, k=5, law=production): riordan gives 1 but riordan",
        "scope all: FAIL (6 checks, 546 comparisons)",
    ),
    ("triangle-vs-oracle[m=2]", 0): (
        "(m=2, r=0, n=0, k=0): recurrence gives 1 but oracle",
        "scope all: FAIL (7 checks, 547 comparisons)",
    ),
    ("triangle-vs-oracle[m=2]", 31): (
        "(m=2, r=1, n=4, k=0): recurrence gives 768 but oracle",
        "scope all: FAIL (7 checks, 578 comparisons)",
    ),
    ("triangle-vs-oracle[m=2]", 62): (
        "(m=2, r=2, n=5, k=5): recurrence gives 1 but oracle",
        "scope all: FAIL (7 checks, 609 comparisons)",
    ),
    ("triangle-vs-oracle[m=3]", 0): (
        "(m=3, r=0, n=0, k=0): recurrence gives 1 but oracle",
        "scope all: FAIL (8 checks, 610 comparisons)",
    ),
    ("triangle-vs-oracle[m=3]", 31): (
        "(m=3, r=1, n=4, k=0): recurrence gives 768 but oracle",
        "scope all: FAIL (8 checks, 641 comparisons)",
    ),
    ("triangle-vs-oracle[m=3]", 62): (
        "(m=3, r=2, n=5, k=5): recurrence gives 1 but oracle",
        "scope all: FAIL (8 checks, 672 comparisons)",
    ),
    ("window-totals-vs-convolution", 0): (
        "(m=2, mode=assoc, n=0): explicit gives 1 but oracle",
        "scope all: FAIL (9 checks, 673 comparisons)",
    ),
    ("window-totals-vs-convolution", 12): (
        "(m=3, mode=assoc, n=0): explicit gives 1 but oracle",
        "scope all: FAIL (9 checks, 685 comparisons)",
    ),
    ("window-totals-vs-convolution", 23): (
        "(m=3, mode=restr, n=5): explicit gives 2196 but oracle",
        "scope all: FAIL (9 checks, 696 comparisons)",
    ),
    ("subdiagonal-closed-forms-vs-oracle", 0): (
        "(m=1, r=0, n=0, entry=(n+1,n)): explicit gives 0 but oracle",
        "scope all: FAIL (10 checks, 697 comparisons)",
    ),
    ("subdiagonal-closed-forms-vs-oracle", 40): (
        "(m=2, r=1, n=2, entry=(n+1,n)): explicit gives 24 but oracle",
        "scope all: FAIL (10 checks, 737 comparisons)",
    ),
    ("subdiagonal-closed-forms-vs-oracle", 80): (
        "(m=3, r=2, n=4, entry=(n+1,n)): explicit gives 20 but oracle",
        "scope all: FAIL (10 checks, 777 comparisons)",
    ),
    ("howard-type-a", 0): (
        "(n=0, k=0): recurrence gives 1 but explicit",
        "scope all: FAIL (11 checks, 778 comparisons)",
    ),
    ("howard-type-a", 10): (
        "(n=4, k=0): recurrence gives 1 but explicit",
        "scope all: FAIL (11 checks, 788 comparisons)",
    ),
    ("howard-type-a", 20): (
        "(n=5, k=5): recurrence gives 0 but explicit",
        "scope all: FAIL (11 checks, 798 comparisons)",
    ),
    ("howard-type-b", 0): (
        "(m=2, r=0, n=0, k=0): recurrence gives 1 but explicit",
        "scope all: FAIL (12 checks, 799 comparisons)",
    ),
    ("howard-type-b", 63): (
        "(m=3, r=0, n=0, k=0): recurrence gives 1 but explicit",
        "scope all: FAIL (12 checks, 862 comparisons)",
    ),
    ("howard-type-b", 125): (
        "(m=3, r=2, n=5, k=5): recurrence gives 1 but explicit",
        "scope all: FAIL (12 checks, 924 comparisons)",
    ),
    ("howard-free-sign-reduction", 0): (
        "(r=0, n=0, k=0): recurrence gives 1 but explicit",
        "scope all: FAIL (13 checks, 925 comparisons)",
    ),
    ("howard-free-sign-reduction", 31): (
        "(r=1, n=4, k=0): recurrence gives 768 but explicit",
        "scope all: FAIL (13 checks, 956 comparisons)",
    ),
    ("howard-free-sign-reduction", 62): (
        "(r=2, n=5, k=5): recurrence gives 128 but explicit",
        "scope all: FAIL (13 checks, 987 comparisons)",
    ),
    ("ratio-error-decreasing", 0): (
        "(r=0, from_n=10, to_n=20): recurrence gives True but explicit",
        "scope asymptotic: FAIL (1 checks, 1 comparisons)",
    ),
    ("ratio-error-decreasing", 4): (
        "(r=1, from_n=20, to_n=30): recurrence gives True but explicit",
        "scope asymptotic: FAIL (1 checks, 5 comparisons)",
    ),
    ("ratio-error-decreasing", 8): (
        "(r=2, n=30, threshold=0.05): recurrence gives True but explicit",
        "scope asymptotic: FAIL (1 checks, 9 comparisons)",
    ),
    ("plain-ratio-near-limit", 0): (
        "(n=25, threshold=0.01): recurrence gives True but explicit",
        "scope asymptotic: FAIL (2 checks, 10 comparisons)",
    ),
}


def _run(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def _plant(monkeypatch, check, cell):
    """Make `verify._collect` see "planted" as the right-hand value of cell
    `cell` of `check`; every other cell passes through unchanged."""
    collect = verify._collect

    def planted(name, cells):
        for index, (coords, left, right) in enumerate(cells):
            if name == check and index == cell:
                right = (right[0], "planted")
            yield coords, left, right

    def collect_planted(scope, checks):
        return collect(
            scope, ((name, planted(name, cells), *rest) for name, cells, *rest in checks)
        )

    monkeypatch.setattr(verify, "_collect", collect_planted)


def test_every_check_has_fail_pins(capsys):
    code, lines, _ = _run(capsys, PLANT_ARGV)
    names = [line[5:].split(" (")[0] for line in lines if line.startswith("ok   ")]
    assert code == 0 and len(names) == 15
    assert names == list(dict.fromkeys(check for check, _ in FAIL_PINS))


@pytest.mark.parametrize(
    "check, cell", list(FAIL_PINS), ids=["%s@%d" % key for key in FAIL_PINS]
)
def test_a_planted_mismatch_gives_the_pinned_fail_line(capsys, monkeypatch, check, cell):
    _plant(monkeypatch, check, cell)
    argv = ASYMPTOTIC_ARGV if check in ASYMPTOTIC_CHECKS else PLANT_ARGV
    code, lines, err = _run(capsys, argv)
    fail, scope_line = FAIL_PINS[check, cell]
    assert code == 1 and err == ""
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL %s at %s gives planted" % (check, fail)
    ]
    assert lines[-1] == scope_line


@pytest.mark.parametrize(
    "scope, check",
    [("riordan", "triangle-recurrence-vs-riordan[m=2]"), ("oracle", "triangle-vs-oracle[m=2]")],
)
def test_a_failed_recurrence_check_starts_no_later_check(monkeypatch, scope, check):
    """The m = 3 check after a failing m = 2 one neither reads the recurrence
    nor builds an array."""
    calls = []

    def spy(module, name, m_at):
        real = getattr(module, name)

        def called(*args):
            calls.append((name, args[m_at]))
            return real(*args)

        monkeypatch.setattr(module, name, called)

    spy(verify.sequences, "triangle_gem_rec", 3)
    spy(verify.riordan, "make_triangle_B", 0)
    _plant(monkeypatch, check, 0)
    report = verify.run_scope(scope, max_n=3, max_r=1)
    assert [res.name for res in report.results] == [check] and not report.ok
    assert ("triangle_gem_rec", 2) in calls
    assert all(m != 3 for _, m in calls), calls


def test_a_failing_scope_builds_no_later_scope(monkeypatch):
    """Under "all", a scope's checks are listed only in its turn, so none is
    listed after the first riordan cell fails."""
    real = verify.sequences.triangle_gem_rec
    monkeypatch.setattr(
        verify.sequences, "triangle_gem_rec",
        lambda n, k, r, m: real(n, k, r, m) + (n == k == r == 0),
    )
    listed = []

    def spy(scope):
        def lister(**options):
            listed.append(scope)
            return []
        return lister

    for scope in ("oracle", "howard", "asymptotic"):
        defaults = verify.SCOPE_TABLE[scope][1]
        monkeypatch.setitem(verify.SCOPE_TABLE, scope, (spy(scope), defaults))
    report = verify.run_scope("all", max_n=3, max_r=1, samples=1)
    assert [res.name for res in report.results] == ["triangle-recurrence-vs-riordan[m=2]"]
    assert not report.ok and listed == []


def test_a_failing_asymptotic_check_prints_only_the_cap_note(capsys, monkeypatch):
    """The per-r errors are noted only when their check holds; the r-cap
    note is printed whatever the verdict."""
    real = verify.sequences.d_asym
    monkeypatch.setattr(
        verify.sequences, "d_asym", lambda r, n: real(r, n) * (1 + Fraction(n, 1000))
    )
    assert _run(capsys, "verify asymptotic --max-r 4") == (1, [
        "FAIL ratio-error-decreasing at (r=0, from_n=10, to_n=20): "
        "recurrence gives False but explicit gives True",
        "     r=3..4 not checked: d_asym keeps two terms, too few for r > 2",
        "scope asymptotic: FAIL (1 checks, 1 comparisons)",
    ], "")


@pytest.fixture(scope="module")
def gates():
    """perfbench/gates.py, loaded as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gates.py"
    spec = importlib.util.spec_from_file_location("bench_gates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the grids on which the benchmark's self-test checks its verify gate
@pytest.mark.parametrize(
    "scope, max_n, max_r",
    [
        ("riordan", 3, 1), ("oracle", 3, 1), ("howard", 4, 1),
        ("asymptotic", 30, 1), ("all", 2, 1), ("all", 0, 0),
    ],
)
def test_each_scope_runs_what_the_bench_gate_expects(gates, scope, max_n, max_r):
    report = verify.run_scope(scope, max_n=max_n, max_r=max_r)
    assert report.ok
    assert (len(report.results), report.comparisons) == gates.expected_verify(
        scope, max_n, max_r
    )


@pytest.mark.parametrize("scope", verify.SCOPES)
def test_an_option_no_scope_reads_is_a_type_error(scope):
    with pytest.raises(
        TypeError, match=r"^run_scope\(\) got an unexpected keyword argument 'bogus'$"
    ):
        verify.run_scope(scope, bogus=1)


@pytest.mark.parametrize(
    "scope, option, value, least",
    [
        ("oracle", "max_n", -1, 0), ("all", "max_r", -3, 0), ("riordan", "samples", -2, 0),
        ("asymptotic", "precision", 0, 1), ("howard", "samples", -1, 0),
    ],
)
def test_a_grid_that_would_pass_vacuously_is_a_value_error(scope, option, value, least):
    # the library keeps the CLI's floors: below them a scope passes with 0
    # comparisons; an option another scope reads is held to its floor too
    with pytest.raises(ValueError, match=r"^%s must be >= %d, got %d$" % (option, least, value)):
        verify.run_scope(scope, **{option: value})


@pytest.mark.parametrize("scope", verify.SCOPES)
def test_a_negative_enumeration_bound_is_a_value_error(scope):
    with pytest.raises(ValueError, match=r"^bound must be >= 0, got -1$"):
        verify.run_scope(scope, bound=-1)


@pytest.mark.parametrize("scope", verify.SCOPES)
def test_bound_none_is_the_default_bound(scope):
    grid = dict(max_n=2, max_r=1, samples=1, precision=5)
    assert verify.run_scope(scope, bound=None, **grid) == verify.run_scope(scope, **grid)
    if scope in ("oracle", "all"):  # n + r = 9 is past DEFAULT_MAX_ENUM = 8
        with pytest.raises(EnumerationLimitError, match="over 9 elements exceeds the bound 8"):
            verify.run_scope(scope, max_n=9, max_r=0, bound=None)


def test_a_failing_asymptotic_check_leaves_the_plain_limit_unformed(monkeypatch):
    """plain-ratio-near-limit reads d_rec(0, 25) only in its turn, which a
    failing ratio-error-decreasing check never gives it."""
    real_asym, real_rec, calls = verify.sequences.d_asym, verify.sequences.d_rec, []
    monkeypatch.setattr(
        verify.sequences, "d_asym", lambda r, n: real_asym(r, n) * (1 + Fraction(n, 1000))
    )

    def d_rec(r, n):
        calls.append((r, n))
        return real_rec(r, n)

    monkeypatch.setattr(verify.sequences, "d_rec", d_rec)
    report = verify.run_scope("asymptotic")
    assert [res.name for res in report.results] == ["ratio-error-decreasing"]
    assert not report.ok
    assert (0, 30) in calls and (0, 25) not in calls
