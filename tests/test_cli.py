import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stirlingb import cli, sequences, verify
from stirlingb.cli import FAMILIES, main
from stirlingb.permcore import oracle_triangle
from stirlingb.verify import SCOPES


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_stirling_b_json(capsys):
    code, out, err = _run(
        capsys,
        ["table", "stirling-b", "--r", "3", "--rows", "4", "--format", "json"],
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["rows"] == [[1], [12, 1], [144, 28, 1], [1824, 592, 48, 1]]
    assert payload["family"] == "stirling-b"
    assert payload["m"] == 2
    assert payload["r"] == 3
    assert payload["provenance"] == "recurrence"
    # keys are emitted sorted for byte stability
    assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_table_pretty_and_csv(capsys):
    code, pretty, _ = _run(capsys, ["table", "stirling-b", "--r", "3", "--rows", "3"])
    assert code == 0
    assert pretty == "1\n12 1\n144 28 1\n"
    code, csv_out, _ = _run(
        capsys, ["table", "stirling-b", "--r", "3", "--rows", "3", "--format", "csv"]
    )
    assert code == 0
    assert csv_out == "1\n12,1\n144,28,1\n"


def test_table_inverse_family(capsys):
    code, out, _ = _run(
        capsys, ["table", "inverse", "--r", "3", "--rows", "4", "--format", "csv"]
    )
    assert code == 0
    assert out == "1\n12,1\n192,28,1\n3936,752,48,1\n"
    code, _, err = _run(capsys, ["table", "inverse", "--m", "3", "--rows", "3"])
    assert code == 2
    assert "supports --m 2 only" in err


# sha256 of stdout for Riordan-route sizes no other test reaches
RIORDAN_GOLDEN = {
    "table inverse --rows 31 --r 3 --format csv":
        "1ba2667166b369aba33e431650ee6b0f297182c7535c90955ec5eccd814cc04a",
    "seq tree --terms 30":
        "7a6cfe9b052d439ff088fd5219dc76d4fc9631b24736e7b0b6b5b127cc7287e7",
    "seq lattice --terms 400 --r 4 --format csv":
        "da47e94eae4840d7866cebe54bf86baf12d7146fb924bebe4c4a556e96bfd1a3",
    "table inverse --rows 40 --r 3 --format csv":
        "da2615c60aa69bddb0bb802aaa22142d11ecbabf8df9259747fccf9ed5f89ff6",
}


@pytest.mark.parametrize("argv", sorted(RIORDAN_GOLDEN))
def test_riordan_route_golden(capsys, argv):
    code, out, err = _run(capsys, argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == RIORDAN_GOLDEN[argv]


# sha256 of stdout for large recurrence tables, one per window m = 2..5, so a
# change to any column of the row tables shows
RECURRENCE_GOLDEN = {
    "table stirling-b --rows 80 --m 2 --r 3 --format csv":
        "e120d26921d320ef657df61ab5c8f06afe3b8301d83fca396343cac193b0af4f",
    "table stirling-b --rows 70 --m 3 --r 2 --format csv":
        "c2908e4bb485c02028aac8bdcd2bd6b83cf3340494d95d316cec372d447b16f8",
    "table stirling-b --rows 60 --m 4 --r 3 --format csv":
        "f219451c79230ca86b3b4e914b0c5329659845fcced6707820e390b5b478176a",
    "table stirling-b --rows 50 --m 5 --r 4 --format csv":
        "dbef867ce614d7c52e2b1866946f980d65198912cdf90f7b346735417c5b8a27",
    # the type A tables, recorded before they moved onto the signed rows' rule
    "table stirling-a --rows 104 --m 4 --mode assoc --format csv":
        "c99d14027d2df4ae29ed442793fd9add9862725f08dc5d23465645aef69ee213",
    "table stirling-a --rows 183 --m 3 --mode restr --format json":
        "46c5c6bf7f3bf593cc020b0eff0533409963683280f9a815c07de1db2c66d1dd",
}


@pytest.mark.parametrize("argv", sorted(RECURRENCE_GOLDEN))
def test_recurrence_table_golden(capsys, argv):
    code, out, err = _run(capsys, argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == RECURRENCE_GOLDEN[argv]


# sha256 of the whole stdout of verify reports, so a check renamed, reordered
# or recounted shows even when the last line still passes
VERIFY_GOLDEN = {
    "verify all":
        "6dcb2483f7878f14694eebe6bf5ca77d1ffb8c1a0ed143a22661c10ef1e715b0",
    "verify howard --max-n 10 --max-r 3":
        "2d3ef7219c5629f9ebe3d761bbaf3ad67bdcb4c9a54be2c3ae1cd278b08f8984",
    "verify riordan --max-n 12 --max-r 2 --seed 7":
        "d09a70447183180667f2fd94403e35beda8e0c5c328ed9012e437d3c0ac3e4a2",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_GOLDEN))
def test_verify_report_golden(capsys, argv):
    code, out, err = _run(capsys, argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GOLDEN[argv]


# sha256 of stdout for sequence families in each format, a sequence through
# `table` among them, recorded before sequences and triangles shared one
# renderer
SEQUENCE_GOLDEN = {
    "seq d --terms 300 --r 3 --format json":
        "155c024848ff5bb9e269f77967250091c6b151b5a996538044298b3503b36d1c",
    "seq incomplete --terms 80 --m 3 --mode restr --format csv":
        "f7e744123bf1a79dd1d9be202d8869d8cd8a7251b3e837af5fd18efd316f87df",
    "seq tree --terms 20 --format json":
        "9af02a38c28387c450ce951bda98fb9b198698f11a09d80c1d02515dbd052e9c",
    "table d --rows 40 --r 2":
        "90a79fb0d8679ecb41e48227bf82fdd62c43d454c474cbff82048a4a21c2c585",
}


@pytest.mark.parametrize("argv", sorted(SEQUENCE_GOLDEN))
def test_sequence_golden(capsys, argv):
    code, out, err = _run(capsys, argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SEQUENCE_GOLDEN[argv]


def test_typeb_factorial_golden(capsys):
    # sha256 of stdout recorded before the row sums of stirlingA were kept
    # with their rows; the 300 terms took about 9 s then
    code, out, err = _run(capsys, "seq typeb-factorial --terms 300 --m 3".split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "68a7bc5b41b7a8c58cba282cd1bb155f4544870cb9548fa81342640415228762"
    )


@pytest.mark.parametrize("fmt, tail", [("csv", "\n"), ("json", "]}\n")])
def test_outputs_past_the_int_digit_limit(capsys, fmt, tail):
    argv = ["seq", "d", "--terms", "1600", "--r", "0", "--format", fmt]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        last = str(sequences.d_rec(0, 1599))
        sys.set_int_max_str_digits(4300)  # Python's default
        code, out, err = _run(capsys, argv)
        assert sys.get_int_max_str_digits() == 4300  # restored for library callers
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(last) > 4300
    assert code == 0 and err == ""
    assert out.endswith(last + tail)


def test_table_defaults_to_eight_rows(capsys):
    code, out, _ = _run(capsys, ["table", "stirling-b"])
    assert code == 0
    assert len(out.strip().splitlines()) == 8


def test_seq_d_and_lattice(capsys):
    code, out, _ = _run(capsys, ["seq", "d", "--terms", "6"])
    assert code == 0
    assert out == "1 1 5 29 233 2329\n"
    code, out, _ = _run(capsys, ["seq", "lattice", "--r", "2", "--terms", "4"])
    assert code == 0
    assert out == "1 4 8 12\n"


def test_seq_json_shape(capsys):
    code, out, _ = _run(
        capsys, ["seq", "tree", "--terms", "4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [1, 4, 32, 416]
    assert payload["rows"] == [[1], [4], [32], [416]]
    assert payload["provenance"] == "riordan"


def test_seq_rejects_triangle_families(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "stirling-b"])
    assert exc.value.code == 2


def test_byte_determinism(capsys):
    argv = ["table", "stirling-b", "--r", "2", "--rows", "6", "--format", "json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_oracle_values(capsys):
    code, out, _ = _run(capsys, ["oracle", "--n", "2"])
    assert code == 0 and out == "5\n"
    code, out, _ = _run(capsys, ["oracle", "--n", "0", "--r", "1"])
    assert code == 0 and out == "1\n"
    code, out, _ = _run(capsys, ["oracle", "--n", "3", "--r", "3", "--k", "1"])
    assert code == 0 and out == "592\n"


def test_oracle_bound_exit(capsys):
    code, out, err = _run(capsys, ["oracle", "--n", "9"])
    assert code == 2
    assert out == ""
    assert err == (
        "error: enumeration over 9 elements exceeds the bound 8 "
        "(override with --max-enum)\n"
    )
    # explicit override admits the size (kept tiny by counting k=0 only)
    code, out, err = _run(
        capsys, ["oracle", "--n", "5", "--r", "0", "--k", "0", "--max-enum", "5"]
    )
    assert code == 0


def test_oracle_size_nine_needs_explicit_bound(capsys):
    argv = ["oracle", "--n", "9", "--r", "0", "--mode", "assoc", "--m", "2"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "exceeds the bound 8" in err
    code, out, err = _run(capsys, argv + ["--max-enum", "9"])
    assert code == 0 and err == ""
    total = sum(sequences.triangle_gem_rec(9, k, 0, 2) for k in range(10))
    assert out == "%d\n" % total
    code, out, _ = _run(capsys, argv + ["--k", "3", "--max-enum", "9"])
    assert code == 0 and out == "%d\n" % sequences.triangle_gem_rec(9, 3, 0, 2)


def test_table_stirling_b_m1_prints_oracle_rows(capsys):
    code, out, err = _run(
        capsys, ["table", "stirling-b", "--m", "1", "--rows", "6", "--r", "2"]
    )
    assert code == 0 and err == ""
    want = [
        " ".join(str(oracle_triangle(n, 2, k, "assoc", 1)) for k in range(n + 1))
        for n in range(6)
    ]
    assert out == "\n".join(want) + "\n"


@pytest.mark.parametrize("family", ["stirling-b", "inverse"])
def test_table_assoc_only_families_reject_restr(capsys, family):
    code, out, err = _run(capsys, ["table", family, "--mode", "restr", "--rows", "4"])
    assert code == 2 and out == ""
    assert err == "error: family '%s' supports --mode assoc only\n" % family
    code, _, err = _run(capsys, ["table", family, "--mode", "assoc", "--rows", "4"])
    assert code == 0 and err == ""


def test_usage_error_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "nonsense"])
    assert exc.value.code == 2


def test_verify_trivial_grid_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "all", "--max-n", "0"])
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "flag, value, low",
    [("--max-n", -1, 0), ("--max-r", -1, 0), ("--samples", -1, 0), ("--precision", 0, 1)],
)
def test_verify_rejects_out_of_range_flags(capsys, flag, value, low):
    # an empty grid would otherwise report a vacuous PASS
    code, out, err = _run(capsys, ["verify", "oracle", flag, str(value)])
    assert code == 2
    assert out == ""
    assert err == "error: %s must be >= %d, got %d\n" % (flag, low, value)


def test_verify_scope_passes(capsys):
    code, out, _ = _run(
        capsys, ["verify", "riordan", "--max-n", "4", "--max-r", "2"]
    )
    assert code == 0
    assert out.strip().endswith("PASS (6 checks, %d comparisons)" % _count(out))


def _count(out):
    total = 0
    for line in out.splitlines():
        if line.startswith("ok"):
            total += int(line.rsplit("(", 1)[1].split()[0])
    return total


def test_verify_failure_reports_cell(capsys, monkeypatch):
    orig = sequences.triangle_ge2_rec

    def corrupted(n, k, r):
        v = orig(n, k, r)
        return v + 1 if (n, k, r) == (2, 1, 1) else v

    monkeypatch.setattr(sequences, "triangle_ge2_rec", corrupted)
    code, out, _ = _run(
        capsys, ["verify", "riordan", "--max-n", "3", "--max-r", "1", "--samples", "0"]
    )
    assert code == 1
    fail_lines = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(fail_lines) == 1
    line = fail_lines[0]
    assert "n=2" in line and "k=1" in line and "r=1" in line
    assert "recurrence" in line and "riordan" in line
    # no check runs after the failing one, and "all" runs no scope after it
    assert out.splitlines()[-1] == "scope riordan: FAIL (1 checks, 15 comparisons)"
    code, out, _ = _run(
        capsys, ["verify", "all", "--max-n", "3", "--max-r", "1", "--samples", "0"]
    )
    assert code == 1
    assert out.splitlines()[-1] == "scope all: FAIL (1 checks, 15 comparisons)"


# family -> (command, m, r, mode or None when the key is absent, provenance)
# for the flags the family reads, each given: --m 3 (--m 2 for inverse,
# which takes m = 2 only), --r 1 and --mode restr (no --mode for the
# assoc-only stirling-b and inverse); m and r are null for a family that
# does not read them
FAMILY_PAYLOADS = {
    "stirling-b": ("table", 3, 1, None, "recurrence"),
    "inverse": ("table", 2, 1, None, "riordan"),
    "stirling-a": ("table", 3, None, "restr", "recurrence"),
    "d": ("seq", None, 1, None, "recurrence"),
    "lattice": ("seq", None, 1, None, "explicit"),
    "tree": ("seq", None, None, None, "riordan"),
    "incomplete": ("seq", 3, None, "restr", "recurrence"),
    "typeb-factorial": ("seq", 3, None, "restr", "explicit"),
}


@pytest.mark.parametrize("family", sorted(FAMILY_PAYLOADS))
def test_family_json_payload_keys(capsys, family):
    command, m, r, mode, provenance = FAMILY_PAYLOADS[family]
    flags = [
        arg
        for flag, value in (("--m", m), ("--r", r), ("--mode", mode))
        if value is not None
        for arg in (flag, str(value))
    ]
    size = "--rows" if command == "table" else "--terms"
    code, out, err = _run(capsys, [command, family, *flags, size, "3", "--format", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["m"] == m and payload["r"] == r
    assert payload["provenance"] == provenance
    assert payload.get("mode") == mode
    data_keys = {"rows"} if command == "table" else {"rows", "terms"}
    assert set(payload) == {"family", "m", "r", "provenance"} | data_keys | (
        {"mode"} if mode is not None else set()
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("seq d --terms 5 --m 5 --mode restr", "m"),
        ("seq d --terms 5 --mode assoc", "mode"),
        ("table stirling-a --r 3", "r"),
        ("seq tree --r 3 --m 7", "m"),
        ("seq tree --mode assoc", "mode"),
        ("seq lattice --terms 4 --m 2", "m"),
        ("seq incomplete --r 0", "r"),
        ("table typeb-factorial --r 1", "r"),
    ],
)
def test_unread_flag_exits_2(capsys, argv, flag):
    # a flag the family does not read is an error, not silently dropped
    family = argv.split()[1]
    code, out, err = _run(capsys, argv.split())
    assert code == 2 and out == ""
    assert err == "error: family '%s' does not take --%s\n" % (family, flag)


def test_family_payloads_cover_every_family():
    # a family added to the table cannot skip the payload test
    assert FAMILY_PAYLOADS.keys() == set(FAMILIES)


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


# family -> the library function its table entry calls
LIBRARY_CALLS = {
    "stirling-b": "triangle_gem_rec",
    "inverse": "make_triangle_B",
    "stirling-a": "stirlingA",
    "d": "d_rec",
    "lattice": "lattice_terms",
    "tree": "tree_terms",
    "incomplete": "incomplete_factorial",
    "typeb-factorial": "typeB_factorial_conv",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_families_look_the_library_up_at_call_time(capsys, monkeypatch, family):
    # a profiler may swap cli.sequences and the names cli imports for wrapped
    # copies after import; an entry holding a function captured at import
    # would bypass them
    calls = []
    if family == "inverse":
        for name in ("make_triangle_B", "unsigned_conjugate"):
            monkeypatch.setattr(cli, name, _counting(getattr(cli, name), calls))
    else:
        proxy = types.SimpleNamespace(**{
            name: _counting(value, calls)
            for name, value in vars(sequences).items()
            if isinstance(value, types.FunctionType)
        })
        monkeypatch.setattr(cli, "sequences", proxy)
    code, _, err = _run(capsys, ["table", family, "--rows", "3"])
    assert code == 0 and err == ""
    assert LIBRARY_CALLS[family] in calls


@pytest.mark.parametrize(
    "argv",
    [
        "seq d --rows 3",
        "seq d --rows 3 --terms 5",
        "table stirling-b --terms 3",
        "table stirling-b --rows 3 --terms 5",
    ],
)
def test_each_subcommand_takes_one_size_flag(capsys, argv):
    # --rows sizes a table and --terms a sequence; neither is an alias
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("seq d --r -1", "--r must be >= 0, got -1"),
        ("table lattice --r -4", "--r must be >= 0, got -4"),
        ("table stirling-b --m -2", "--m must be >= 0, got -2"),
        ("table stirling-b --m -1 --r -3", "--m must be >= 0, got -1"),
        ("seq typeb-factorial --m -1 --mode restr", "--m must be >= 0, got -1"),
        ("table d --rows 0", "--rows must be >= 1"),
        ("seq d --terms 0", "--terms must be >= 1"),
        ("table stirling-a --rows -2", "--rows must be >= 1"),
    ],
)
def test_out_of_range_value_flags_exit_2(capsys, argv, message):
    code, out, err = _run(capsys, argv.split())
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("verify howard --seed 5", "--seed"),
        ("verify asymptotic --samples 99 --max-enum -4", "--samples"),
        ("verify riordan --precision 3 --max-enum -1", "--max-enum"),
        ("verify oracle --seed 9", "--seed"),
        ("verify oracle --precision 4", "--precision"),
        ("verify howard --max-enum 8", "--max-enum"),
    ],
)
def test_verify_rejects_options_the_scope_does_not_read(capsys, argv, flag):
    scope = argv.split()[1]
    code, out, err = _run(capsys, argv.split())
    assert code == 2 and out == ""
    assert err == "error: scope '%s' does not take %s\n" % (scope, flag)


@pytest.mark.parametrize(
    "argv",
    [
        "verify riordan --max-n 2 --max-r 1 --seed 3 --samples 1",
        "verify oracle --max-n 2 --max-r 1 --max-enum 3",
        "verify howard --max-n 2 --max-r 1",
        "verify asymptotic --max-n 10 --max-r 0 --precision 5",
        "verify all --max-n 2 --max-r 1 --seed 3 --samples 1 --max-enum 3 --precision 5",
    ],
)
def test_verify_accepts_the_options_the_scope_reads(capsys, argv):
    code, out, err = _run(capsys, argv.split())
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("scope %s: PASS" % argv.split()[1])


def test_bench_jobs_give_each_family_and_scope_only_what_it_reads(monkeypatch):
    # the benchmark runs these argv; a CLI change that would make one of them
    # exit 2 fails here.  A family's flags must be in its table entry (this
    # also rejects --mode assoc for stirling-b and inverse, which the CLI
    # accepts, but no job passes it).
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks it up
    spec.loader.exec_module(workloads)
    parser = cli.build_parser()
    for name in workloads.WORKLOADS:
        for seed in range(1, 11):
            for job in workloads.job_list(name, seed):
                args = parser.parse_args(job.argv)
                if args.command in ("table", "seq"):
                    reads, names = cli._FAMILIES[args.family][2], ("m", "r", "mode")
                elif args.command == "verify" and args.scope != "all":
                    reads = verify.SCOPE_TABLE[args.scope][3]
                    names = ("seed", "samples", "bound", "precision")
                else:
                    continue
                given = {name for name in names if getattr(args, name) is not None}
                assert given <= set(reads), job.argv


def test_verify_all_defaults_pass(capsys):
    code, out, _ = _run(capsys, ["verify", "all"])
    assert code == 0
    assert out.endswith("scope all: PASS (15 checks, 3633 comparisons)\n")


def test_verify_all_is_the_scopes_in_order():
    from stirlingb.verify import SCOPES, run_scope

    assert SCOPES == ("all", "riordan", "oracle", "howard", "asymptotic")
    kwargs = dict(max_n=3, max_r=1, samples=2)
    combined = run_scope("all", **kwargs)
    parts = [run_scope(scope, **kwargs) for scope in SCOPES[1:]]
    assert combined.scope == "all" and combined.ok
    assert [(res.name, res.comparisons) for res in combined.results] == [
        (res.name, res.comparisons) for part in parts for res in part.results
    ]
    with pytest.raises(ValueError, match="scope must be one of"):
        run_scope("nonsense")


def test_verify_checks_the_bound_before_any_scope(capsys, monkeypatch):
    from stirlingb import verify
    from stirlingb.permcore import EnumerationLimitError

    def riordan_must_not_run(*args, **kwargs):
        raise AssertionError("riordan scope ran before the bound check")

    monkeypatch.setitem(
        verify.SCOPE_TABLE, "riordan", (riordan_must_not_run, 8, 3, ("seed", "samples"))
    )
    # oracle defaults max_n = 4: 4 + 5 = 9 elements exceeds the bound 8
    with pytest.raises(EnumerationLimitError, match="over 9 elements"):
        verify.run_scope("all", max_r=5)
    # the error names the first size the oracle grid would reach past the bound
    with pytest.raises(EnumerationLimitError, match="over 4 elements .* bound 3"):
        verify.run_scope("oracle", bound=3)
    code, out, err = _run(capsys, ["verify", "all", "--max-r", "5"])
    assert code == 2 and out == ""
    assert err.startswith("error: enumeration over 9 elements exceeds the bound 8")


def test_verify_asymptotic_reports_r_cap(capsys):
    code, out, _ = _run(capsys, ["verify", "asymptotic", "--max-r", "5"])
    assert code == 0
    lines = out.splitlines()
    head = lines.index("ok   ratio-error-decreasing (9 comparisons)")
    assert lines[head + 4] == (
        "     r=3..5 not checked: d_asym keeps two terms, too few for r > 2"
    )
    assert lines[-1] == "scope asymptotic: PASS (2 checks, 10 comparisons)"
    # at the default max_r = 2 there is nothing to report
    _, out, _ = _run(capsys, ["verify", "asymptotic"])
    assert "not checked" not in out


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, so modules other tests imported do not count
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import stirlingb.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "stirlingb.cli" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


def _ints(low, high):
    return st.integers(low, high).map(str)


# flag -> the values drawn for it, in range or not; fuzzed_argv adds malformed ones
VALUE_FLAGS = {
    "--m": _ints(-1, 4),
    "--r": _ints(-1, 3),
    "--mode": st.sampled_from(["assoc", "restr", "free"]),
    "--format": st.sampled_from(["csv", "json", "pretty", "xml"]),
}
FUZZ_FLAGS = {
    # each subcommand draws only its own size flag
    "table": dict(VALUE_FLAGS, **{"--rows": _ints(-1, 6)}),
    "seq": dict(VALUE_FLAGS, **{"--terms": _ints(-1, 6)}),
    "verify": {
        "--max-n": _ints(-1, 4),
        "--max-r": _ints(-1, 2),
        "--seed": _ints(-5, 5),
        "--samples": _ints(-1, 2),
        "--max-enum": _ints(-1, 5),
        "--precision": _ints(-1, 40),
    },
    "oracle": {
        "--n": _ints(-2, 5),
        "--r": _ints(-2, 2),
        "--k": _ints(-2, 6),
        "--m": _ints(-1, 5),
        "--mode": st.sampled_from(["assoc", "restr", "free"]),
        "--max-enum": _ints(-1, 5),
    },
}
FUZZ_POSITIONAL = {
    "table": FAMILIES + ("bogus",),
    "seq": FAMILIES,
    "verify": SCOPES + ("bogus",),
    "oracle": (),
}


@st.composite
def fuzzed_argv(draw):
    """argv that parses about half the time; the rest carries a value that
    is not an integer or a choice, an unknown flag or a missing one."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS) + ["bogus"]))
    argv = [command]
    if command == "bogus":
        return argv
    malformed = draw(st.booleans())
    junk = st.sampled_from(["x", "1.5", ""]) if malformed else st.nothing()
    if FUZZ_POSITIONAL[command]:
        argv.append(draw(st.sampled_from(FUZZ_POSITIONAL[command])))
    flags = FUZZ_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    if command == "oracle" and not malformed and "--n" not in chosen:
        chosen.append("--n")
    for flag in chosen:
        argv += [flag, draw(flags[flag] | junk)]
    # verify's default grids are large: keep the fuzzed ones small
    if command == "verify":
        argv += ["--max-n", draw(_ints(-1, 4)), "--max-r", draw(_ints(-1, 2))]
    if malformed:
        extra = st.sampled_from(["--help", "--bogus", "7", "--n"])
        argv += draw(st.lists(extra, max_size=1))
    return argv


@settings(max_examples=150, deadline=None)
@given(fuzzed_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            return
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
