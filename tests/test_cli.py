import ast
import io
import json
import os
import re
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stirlingb import cli, sequences, verify
from stirlingb.cli import FAMILIES, main
from stirlingb.permcore import oracle_triangle
from stirlingb.verify import SCOPES

from argparse_reference import build_parser


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


# sha256 of stdout for a 30 MB table, recorded while `table` kept every row
# and took 139 MB to print it
STREAMED_GOLDEN = {
    "csv": "d795ecf9fd151bada9b30acbcf45458026d6671ce1e0b4c22f85c677d1130134",
    "json": "6cc03c80836e775b60b4315089f8a795b11f4cb0c6a30c77531d653069b627c3",
    "pretty": "f01499b6f063f74ff321d2d7aba4b04d919d0b41ff3282f9e73940688044b080",
}


# sha256 of stdout of the deep print-route jobs, the same bytes the series
# routes printed in 33 s and 4.2 s
DEEP_GOLDEN = {
    "table inverse --rows 300 --r 2 --format csv": (2.0, "1ac59978ba38575be29bc69c3b0eb5a9ba89c2004c8fc7ae20aca20ae2ac391d"),
    "seq tree --terms 300": (1.0, "dba9fd5d44e76be621741f939c02ed03bc88c10d6b4a2f0c5154588e07a3ab97"),
}


@pytest.mark.parametrize("argv", sorted(DEEP_GOLDEN))
def test_the_print_routes_run_deep_jobs_fast_in_bounded_memory(cli_peak, argv):
    seconds, want = DEEP_GOLDEN[argv]
    start = time.perf_counter()
    code, peak_mb, digest, err = cli_peak(argv.split())
    assert time.perf_counter() - start < seconds
    assert code == 0 and err == ""
    assert digest == want
    assert peak_mb < 32


@pytest.mark.parametrize("fmt", sorted(STREAMED_GOLDEN))
def test_a_large_table_is_written_in_bounded_memory(cli_peak, fmt):
    argv = ["table", "stirling-b", "--rows", "400", "--m", "3", "--r", "2", "--format", fmt]
    code, peak_mb, digest, err = cli_peak(argv)
    assert code == 0 and err == ""
    assert digest == STREAMED_GOLDEN[fmt]
    assert peak_mb < 32


# A window wider than its rows' longest cycle (n + 1 in row n) prints the rows
# of the narrowest window that gives them, in the memory of a small table;
# csv for stirling-a, whose json payload carries m.
@pytest.mark.parametrize("argv, m, narrow", [
    ("table stirling-b --rows 4", 100000, 5),
    ("table stirling-a --mode restr --rows 6 --format csv", 1000000, 6),
    ("seq typeb-factorial --mode restr --terms 6", 1000000, 6),
], ids=["stirling-b", "stirling-a", "typeb-factorial"])
def test_a_wide_window_costs_what_its_rows_need(cli_peak, argv, m, narrow):
    code, peak_mb, digest, err = cli_peak(argv.split() + ["--m", str(m)])
    assert code == 0 and err == ""
    assert peak_mb < 32
    assert digest == cli_peak(argv.split() + ["--m", str(narrow)])[2]


def test_a_closed_stdout_exits_141_without_a_traceback():
    # about 1 MB of rows, far more than a pipe holds: the reader leaves while
    # the writer still has rows to write
    argv = ["table", "stirling-a", "--rows", "200", "--m", "3", "--mode", "restr"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "stirlingb.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(20) == b"1\n0 1\n0 1 1\n0 2 3 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# A spawned CLI ends with a flush and os._exit: what it writes, through a pipe
# or to a file, must be what main writes in process.
@pytest.mark.parametrize("argv, to_file, code", [
    ("table stirling-a --rows 163 --m 5 --mode restr --format json", False, 0),
    ("table stirling-a --rows 163 --m 5 --mode restr --format json", True, 0),
    ("oracle --n 9 --r 0", False, 2),
    ("verify all --max-n 3 --max-r 1", False, 0),
], ids=["json-pipe", "json-file", "oracle-bound", "verify-all"])
def test_a_spawned_cli_writes_what_main_writes(capsys, tmp_path, argv, to_file, code):
    code_in, out_in, err_in = _run(capsys, argv.split())
    assert code_in == code
    assert code == 0 or err_in.startswith("error: ") and err_in.count("\n") == 1
    with open(tmp_path / "out", "w+b") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "stirlingb.cli", *argv.split()],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=out if to_file else subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
        )
        out.seek(0)
        stdout = out.read() if to_file else proc.stdout
    assert proc.returncode == code
    assert stdout == out_in.encode() and proc.stderr == err_in.encode()


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
    assert payload["provenance"] == "recurrence"


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
    orig = sequences.triangle_gem_rec

    def corrupted(n, k, r, m):
        v = orig(n, k, r, m)
        return v + 1 if (n, k, r, m) == (2, 1, 1, 2) else v

    monkeypatch.setattr(sequences, "triangle_gem_rec", corrupted)
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
    "inverse": ("table", 2, 1, None, "recurrence"),
    "stirling-a": ("table", 3, None, "restr", "recurrence"),
    "d": ("seq", None, 1, None, "recurrence"),
    "lattice": ("seq", None, 1, None, "explicit"),
    "tree": ("seq", None, None, None, "recurrence"),
    "incomplete": ("seq", 3, None, "restr", "recurrence"),
    "typeb-factorial": ("seq", 3, None, "restr", "explicit"),
}


def _payload_flags(family):
    """The flags FAMILY_PAYLOADS gives ``family``, as argv."""
    _, m, r, mode, _ = FAMILY_PAYLOADS[family]
    return [
        arg
        for flag, value in (("--m", m), ("--r", r), ("--mode", mode))
        if value is not None
        for arg in (flag, str(value))
    ]


@pytest.mark.parametrize("family", sorted(FAMILY_PAYLOADS))
def test_family_json_payload_keys(capsys, family):
    command, m, r, mode, provenance = FAMILY_PAYLOADS[family]
    flags = _payload_flags(family)
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


@pytest.mark.parametrize("size", ["1", "5"])
@pytest.mark.parametrize("given", [False, True], ids=["defaults", "flags"])
@pytest.mark.parametrize("command, family", [
    *(("table", family) for family in FAMILIES),
    *(("seq", family) for family in cli.SEQUENCE_FAMILIES),
])
def test_json_is_what_json_dumps_writes(capsys, command, family, given, size):
    # cli writes the json itself: sorted keys, null, quoted names and the rows
    # at their key, as json.dumps(payload, sort_keys=True) would
    flags = _payload_flags(family) if given else []
    size_flag = "--rows" if command == "table" else "--terms"
    code, out, err = _run(capsys, [command, family, *flags, size_flag, size, "--format", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert len(payload["rows"]) == int(size)
    assert out == json.dumps(payload, sort_keys=True) + "\n"


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


def _counting_proxy(module, calls):
    """A stand-in for a layer whose functions append their names to calls."""
    return types.SimpleNamespace(**{
        name: _counting(value, calls)
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType)
    })


# family -> the library function its table entry calls
LIBRARY_CALLS = {
    "stirling-b": "triangle_gem_rows",
    "inverse": "inverse_triangle_rows",
    "stirling-a": "stirlingA_rows",
    "d": "d_rec",
    "lattice": "lattice_terms",
    "tree": "tree_terms",
    "incomplete": "incomplete_factorial",
    "typeb-factorial": "typeB_factorial_conv",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_families_look_the_library_up_at_call_time(capsys, monkeypatch, family):
    # a profiler may swap the layer cli holds (cli.sequences) for a wrapped
    # copy after import; an entry holding a function captured at import would
    # bypass it
    calls = []
    monkeypatch.setattr(cli, "sequences", _counting_proxy(sequences, calls))
    code, _, err = _run(capsys, ["table", family, "--rows", "3"])
    assert code == 0 and err == ""
    assert LIBRARY_CALLS[family] in calls


@pytest.mark.parametrize(
    "family, argv",
    [
        (family, argv)
        for family in ("stirling-a", "stirling-b")
        for argv in ([], ["--m", "3"], ["--rows", "40", "--format", "json"])
    ],
)
def test_recurrence_tables_make_one_library_call(capsys, monkeypatch, family, argv):
    # a whole triangle is one call, not one point query per cell
    calls = []
    monkeypatch.setattr(cli, "sequences", _counting_proxy(sequences, calls))
    code, _, err = _run(capsys, ["table", family, *argv])
    assert code == 0 and err == ""
    assert calls == [LIBRARY_CALLS[family]]


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
        ("table d --rows 0", "--rows must be >= 1, got 0"),
        ("seq d --terms 0", "--terms must be >= 1, got 0"),
        ("table stirling-a --rows -2", "--rows must be >= 1, got -2"),
        ("oracle --n -1", "--n must be >= 0, got -1"),
        ("oracle --n 3 --r -2", "--r must be >= 0, got -2"),
        ("oracle --n 3 --m -1", "--m must be >= 0, got -1"),
        ("oracle --n -2 --r -1 --m -1 --k 2", "--n must be >= 0, got -2"),
        ("oracle --n 2 --r -1 --m -3", "--r must be >= 0, got -1"),
        ("oracle --n 2 --k -1", "--k must be >= 0, got -1"),
        ("oracle --n 3 --max-enum -1", "--max-enum must be >= 0, got -1"),
        ("verify oracle --max-enum -1", "--max-enum must be >= 0, got -1"),
        ("verify all --max-n 0 --max-enum -2", "--max-enum must be >= 0, got -2"),
        # a floor is checked before the family or scope reads the flags, and
        # the floors in table order
        ("seq d --terms -3", "--terms must be >= 1, got -3"),
        ("table d --m -1", "--m must be >= 0, got -1"),
        ("table stirling-b --mode restr --m -1", "--m must be >= 0, got -1"),
        ("verify asymptotic --samples 99 --max-enum -4", "--max-enum must be >= 0, got -4"),
        ("verify riordan --precision 3 --max-enum -1", "--max-enum must be >= 0, got -1"),
        ("verify all --max-enum -1 --precision 0", "--max-enum must be >= 0, got -1"),
    ],
)
def test_out_of_range_value_flags_exit_2(capsys, argv, message):
    code, out, err = _run(capsys, argv.split())
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def _required_argv(command: str) -> list:
    """command with each required argument at its first choice or its floor."""
    _, _, arguments, defaults = cli._COMMANDS[command]
    argv = [command]
    for name, (dest, accepts) in arguments.items():
        if dest not in defaults:
            value = accepts[0] if type(accepts) is tuple else str(accepts)
            argv += [value] if name[0] != "-" else [name, value]
    return argv


# (command, flag, its floor) for every int flag that has one
FLOORS = [
    (command, name, accepts)
    for command, (_, _, arguments, _) in cli._COMMANDS.items() if command
    for name, (_, accepts) in arguments.items() if type(accepts) is int
]


def test_every_int_flag_but_seed_has_a_floor():
    anything = [(command, name) for command, (_, _, arguments, _) in cli._COMMANDS.items()
                for name, (_, accepts) in arguments.items() if accepts is int]
    assert anything == [("verify", "--seed")]
    assert {command for command, _, _ in FLOORS} == set(cli._COMMANDS) - {""}


@pytest.mark.parametrize("command, flag, least", FLOORS)
def test_a_value_below_its_flags_floor_exits_2(capsys, command, flag, least):
    # the last of a repeated flag wins, so this also reaches a required flag's floor
    code, out, err = _run(capsys, _required_argv(command) + [flag, str(least - 1)])
    assert code == 2 and out == ""
    assert err == "error: %s must be >= %d, got %d\n" % (flag, least, least - 1)


def test_the_verify_floors_are_the_librarys():
    floors = dict(cli._COMMANDS["verify"][2].values())
    assert {name: floors[name] for name in verify._LEAST} == verify._LEAST
    # permcore.check_bound's floor, which the oracle scope and command reach
    assert floors["bound"] == cli._COMMANDS["oracle"][2]["--max-enum"][1] == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("verify howard --seed 5", "--seed"),
        ("verify asymptotic --samples 99 --max-enum 4", "--samples"),
        ("verify riordan --precision 3 --max-enum 1", "--max-enum"),
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


def test_bench_jobs_give_each_family_and_scope_only_what_it_reads(bench_jobs):
    # the benchmark runs these argv; a CLI change that would make one of them
    # exit 2 fails here.  A family's flags must be in its table entry (this
    # also rejects --mode assoc for stirling-b and inverse, which the CLI
    # accepts, but no job passes it).
    for job in bench_jobs:
        args = cli.parse_args(job.argv)
        if args.command in ("table", "seq"):
            reads, names = cli._FAMILIES[args.family][2], ("m", "r", "mode")
        elif args.command == "verify" and args.scope != "all":
            reads = verify.SCOPE_TABLE[args.scope][1]
            names = ("max_n", "max_r", "seed", "samples", "bound", "precision")
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

    assert SCOPES == ("all", "riordan", "oracle", "howard", "asymptotic", "printed")
    # the parser offers cli's copy, so that it need not load verify
    assert cli.SCOPES == SCOPES
    kwargs = dict(max_n=3, max_r=1, samples=2)
    combined = run_scope("all", **kwargs)
    # all runs the scopes it is marked for, in order, and no scope added since
    parts = [run_scope(scope, **kwargs) for scope in ("riordan", "oracle", "howard", "asymptotic")]
    assert combined.scope == "all" and combined.ok
    assert [(res.name, res.comparisons) for res in combined.results] == [
        (res.name, res.comparisons) for part in parts for res in part.results
    ]
    with pytest.raises(ValueError, match="scope must be one of"):
        run_scope("nonsense")


def test_verify_printed_runs_the_print_routes_outside_all(capsys):
    code, out, err = _run(capsys, ["verify", "printed"])
    assert (code, err) == (0, "")
    assert [line.split(" (")[0] for line in out.splitlines()[:-1]] == [
        "ok   inverse-rows-vs-conjugate", "ok   tree-recurrence-vs-reversion",
    ]
    assert out.splitlines()[-1] == "scope printed: PASS (2 checks, %d comparisons)" % (
        4 * 31 * 32 // 2 + 31
    )


def _plant_inverse_cell(monkeypatch):
    """A wrong cell (n, k) = (3, 1) in the streamed inverse rows at r = 2."""
    real = sequences._InverseRows._next

    def planted(table, n):
        return [v + (table.r == 2 and (n, k) == (3, 1)) for k, v in enumerate(real(table, n))]

    monkeypatch.setattr(sequences._InverseRows, "_next", planted)


def _plant_tree_term(monkeypatch):
    """A wrong term n = 4 of tree_terms."""
    real = sequences.tree_terms
    monkeypatch.setattr(sequences, "tree_terms",
                        lambda count: [v + (n == 4) for n, v in enumerate(real(count))])


@pytest.mark.parametrize("plant, fail, verdict", [
    # r = 0, 1 and rows 0..2 of r = 2 pass: 15 + 15 + 6 cells, then (3, 0)
    (_plant_inverse_cell, "FAIL inverse-rows-vs-conjugate at (r=2, n=3, k=1): "
     "recurrence gives 417 but riordan gives 416", "FAIL (1 checks, 38 comparisons)"),
    # the inverse check passes its 4 * 15 cells, then n = 0..3
    (_plant_tree_term, "FAIL tree-recurrence-vs-reversion at (n=4): "
     "recurrence gives 7553 but riordan gives 7552", "FAIL (2 checks, 65 comparisons)"),
])
def test_verify_printed_names_a_planted_cell_and_both_routes(capsys, monkeypatch, plant, fail,
                                                               verdict):
    plant(monkeypatch)
    code, out, err = _run(capsys, ["verify", "printed", "--max-n", "4"])
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [fail, "scope printed: " + verdict]


def test_verify_checks_the_bound_before_any_scope(capsys, monkeypatch):
    from stirlingb import verify
    from stirlingb.permcore import EnumerationLimitError

    def riordan_must_not_run(*args, **kwargs):
        raise AssertionError("riordan scope ran before the bound check")

    monkeypatch.setitem(
        verify.SCOPE_TABLE, "riordan", (riordan_must_not_run, *verify.SCOPE_TABLE["riordan"][1:])
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


ROOT = Path(__file__).resolve().parents[1]


def _fresh(args):
    """stdout of a fresh interpreter run with `args`, so modules other
    tests imported do not count."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import stirlingb.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    loaded = set(_fresh(["-c", script]).split())
    assert "stirlingb.cli" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


def test_importing_cli_from_the_package_runs_no_fraction_layer():
    # `from stirlingb import cli` first looks `cli` up on the package
    script = "import sys\nfrom stirlingb import cli\nprint('fractions' in sys.modules)\n"
    assert _fresh(["-c", script]).split() == ["False"]


# argparse and the translation and locale modules it loads; no command reads them
NOT_FOR_ANY = {"argparse", "gettext", "locale"}
# the series layer and the stdlib modules only Fraction arithmetic imports
FRACTION_LAYER = {"fractions", "decimal", "stirlingb.fps"}
# the integer tables read sequences alone, and json in no format: cli writes it
NOT_FOR_INTEGERS = NOT_FOR_ANY | FRACTION_LAYER | {"stirlingb.riordan", "stirlingb.verify", "json"}
# every layer but permcore, and the __future__ module that only the other
# layers import
NOT_FOR_ORACLE = NOT_FOR_INTEGERS | {"__future__", "stirlingb.sequences"}
# the series families read fps on integers: no Fraction, verify or json
NOT_FOR_SERIES = NOT_FOR_ANY | {"fractions", "decimal", "stirlingb.verify", "json"}


@pytest.mark.parametrize(
    "names, read, unread",
    [
        ("d_rec, triangle_gem_rows", {"stirlingb.sequences"},
         FRACTION_LAYER | {"stirlingb.riordan"}),
        ("oracle_triangle", {"stirlingb.permcore"},
         FRACTION_LAYER | {"stirlingb.riordan", "stirlingb.sequences"}),
    ],
)
def test_a_package_name_loads_only_the_layers_it_passes(names, read, unread):
    # the package looks a name up in the layers that load no Fraction first
    script = "import sys\nfrom stirlingb import %s\nprint(' '.join(sys.modules))\n" % names
    loaded = set(_fresh(["-c", script]).split())
    assert read <= loaded and loaded & unread == set()


@pytest.mark.parametrize(
    "argv, read, unread",
    [
        ("oracle --n 3", set(), NOT_FOR_ORACLE),
        ("--help", set(), NOT_FOR_ORACLE),
        ("table stirling-b --format csv", {"stirlingb.sequences"}, NOT_FOR_INTEGERS),
        ("table stirling-a --m 5 --mode restr --format json",
         {"stirlingb.sequences"}, NOT_FOR_INTEGERS),
        ("seq d --r 2 --format csv", {"stirlingb.sequences"}, NOT_FOR_INTEGERS),
        ("seq incomplete", {"stirlingb.sequences"}, NOT_FOR_INTEGERS),
        ("seq typeb-factorial", {"stirlingb.sequences"}, NOT_FOR_INTEGERS),
        ("seq tree --terms 5", {"stirlingb.sequences"}, NOT_FOR_INTEGERS),
        ("verify riordan --max-n 2 --max-r 1",
         {"stirlingb.verify", "stirlingb.riordan", "stirlingb.fps"},
         NOT_FOR_ANY | {"fractions", "decimal"}),
        # the bench smoke job: no asymptotic grid point, so no Fraction
        ("verify all --max-n 3 --max-r 1", {"stirlingb.verify", "stirlingb.riordan"},
         NOT_FOR_ANY | {"fractions", "decimal"}),
        ("verify oracle --max-n 2 --max-r 1", {"stirlingb.verify"},
         NOT_FOR_ANY | FRACTION_LAYER | {"stirlingb.riordan", "json"}),
        ("verify howard --max-n 3 --max-r 1", {"stirlingb.verify"},
         NOT_FOR_ANY | FRACTION_LAYER | {"stirlingb.riordan", "json"}),
        ("table inverse --rows 4 --format csv", {"stirlingb.sequences"}, NOT_FOR_INTEGERS),
        ("seq lattice --r 2 --terms 5", {"stirlingb.sequences", "stirlingb.fps"},
         NOT_FOR_SERIES | {"stirlingb.riordan"}),
        # the asymptotic scope's grid point n = 10 forms Fractions, so the rows
        # above can fail; it reads no series layer
        ("verify asymptotic --max-n 10 --max-r 0", {"stirlingb.verify", "fractions", "decimal"},
         NOT_FOR_ANY | {"stirlingb.fps", "stirlingb.riordan", "json"}),
    ],
)
def test_each_command_runs_only_the_modules_it_reads(argv, read, unread):
    # run as `python -m stirlingb.cli` does, then list the modules whose body
    # ran: a module LazyLoader registered keeps its own class until then
    script = (
        "import os, runpy, sys, types\n"
        "os._exit = sys.exit\n"
        "sys.argv[1:] = %r\n"
        "try:\n"
        "    runpy.run_module('stirlingb.cli', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "ran = [n for n, m in sys.modules.items() if type(m) is types.ModuleType]\n"
        "print(' '.join(ran))\n"
    ) % argv.split()
    ran = set(_fresh(["-c", script]).splitlines()[-1].split())
    assert read | {"stirlingb.permcore"} <= ran
    assert ran & unread == set()


@pytest.mark.parametrize("argv, loads", [
    ("verify oracle --max-n 2 --max-r 1", False),
    ("verify howard --max-n 3 --max-r 1", False),
    ("verify asymptotic --max-n 10 --max-r 0", False),
    ("verify riordan --max-n 2 --max-r 1", True),
])
def test_only_the_riordan_scope_loads_random(argv, loads):
    # -S: a .pth file in site-packages may import random before the CLI does
    script = "import sys\nfrom stirlingb.cli import main\nmain(%r)\nprint('random' in sys.modules)\n"
    assert _fresh(["-S", "-c", script % argv.split()]).split()[-1] == str(loads)


def test_the_installed_command_runs_what_python_m_runs():
    # pyproject's console script and cli's __main__ block call one exit function
    scripts = (ROOT / "pyproject.toml").read_text()
    target = re.search(r'^stirlingb = "stirlingb\.cli:(\w+)"$', scripts, re.M).group(1)
    tree = ast.parse(Path(cli.__file__).read_text())
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(node) for node in block.body] == ["%s()" % target]
    assert target != "main" and callable(getattr(cli, target))


@pytest.mark.parametrize(
    "argv, layer, call",
    [
        ("table stirling-b --rows 5", "sequences", "triangle_gem_rows"),
        ("table inverse --rows 4", "sequences", "inverse_triangle_rows"),
        ("verify riordan --max-n 2 --max-r 1", "verify", "run_scope"),
    ],
)
def test_the_tracer_sees_cli_call_each_layer(tmp_path, argv, layer, call):
    # perfbench/trace_child.py swaps the layers cli holds for wrapped copies
    # after import; a layer cli loaded out of its sight would show no span
    assert _traced_calls(tmp_path, argv, layer, "cli") & {call}


def _traced_calls(tmp_path, argv, layer, parent):
    """The calls into `layer` that a traced run of argv shows made from `parent`."""
    out = tmp_path / "trace.json"
    _fresh([str(ROOT / "perfbench" / "trace_child.py"), str(out), "job", *argv.split()])
    spans = json.loads(out.read_text())["spans"]  # [job, name, layer, start, end, parent]
    return {span[1] for span in spans
            if span[2] == layer and span[5] is not None and spans[span[5]][2] == parent}


def test_the_tracer_sees_verify_call_riordan(tmp_path):
    # verify holds riordan as a module, so the tracer wraps it in verify's sight
    calls = _traced_calls(tmp_path, "verify riordan --max-n 2 --max-r 1", "riordan", "verify")
    assert calls & {"make_triangle_B", "production_rebuild"}


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


def _outcome(parse, argv):
    """("parsed", the namespace's fields), ("help", None) or ("usage error",
    None), with what parse wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = ("parsed", vars(parse(argv)))
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            result = ("help" if exc.code == 0 else "usage error", None)
    return result, out.getvalue(), err.getvalue()


# tokens argparse reads in ways of their own: help, "--", negative numbers,
# strings with a space, the empty string, unknown and ambiguous options and
# '=' values on help or on a prefix of every flag
NOISE = [
    "-h", "--help", "--he", "--help=1", "--", "--", "-1", "-2.5", "-.5", "-1.", "-x", "x y",
    "-x y", "", "-", "--max", "--m", "--mo", "--=3", "--bogus=1", "7", "--n", "--r=-1",
]


@st.composite
def argparse_argv(draw):
    """A fuzzed_argv with its flags moved before or after the positional, some
    shortened to a prefix, some given their value with '=', and noise tokens
    put anywhere, the command's place included."""
    command, *rest = draw(fuzzed_argv())
    units, i = [], 0
    while i < len(rest):
        if rest[i].startswith("--") and i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            units.append(rest[i:i + 2])
            i += 2
        else:
            units.append(rest[i:i + 1])
            i += 1
    for unit in units:
        flag = unit[0]
        if flag.startswith("--") and draw(st.booleans()):
            unit[0] = flag[:draw(st.integers(3, len(flag)))]
        if len(unit) == 2 and draw(st.booleans()):
            unit[:] = ["%s=%s" % tuple(unit)]
    argv = [command] + [arg for unit in draw(st.permutations(units)) for arg in unit]
    for token in draw(st.lists(st.sampled_from(NOISE), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


# the argparse parser the CLI used before
REFERENCE = build_parser()


@settings(max_examples=600, deadline=None)
@given(argparse_argv())
def test_parse_args_agrees_with_the_argparse_parser(argv):
    # each argv parses to the same fields in both, asks both for help, or is
    # a usage error in both
    want, _, _ = _outcome(REFERENCE.parse_args, argv)
    got, out, err = _outcome(cli.parse_args, argv)
    assert got == want, argv
    if got[0] == "help":
        assert out.startswith("usage: stirlingb") and err == ""
    elif got[0] == "usage error":
        usage, message = err.splitlines()
        assert out == "" and usage.startswith("usage: stirlingb")
        progs = {("stirlingb " + command).rstrip() for command in cli._COMMANDS}
        assert message.split(": error: ")[0] in progs


@pytest.mark.parametrize(
    "argv, fields",
    [
        ("table d --ro 5", dict(family="d", size=5)),
        ("table --rows=5 --r=-1 d", dict(family="d", size=5, r=-1)),
        ("seq --te 3 --r 1 --r 2 tree", dict(family="tree", size=3, r=2)),
        ("table -- d", dict(family="d")),
        ("table d --", dict(family="d")),
        ("verify --max-e=-3 all --p 4", dict(scope="all", bound=-3, precision=4)),
        ("oracle --mo restr --n=-2 --ma 9", dict(n=-2, mode="restr", max_enum=9)),
    ],
)
def test_parse_args_reads_argparse_forms(argv, fields):
    # '=' values, unique prefixes, negative values, flags on either side of
    # the positional, the last repeat winning and "--" before a positional
    args = vars(cli.parse_args(argv.split()))
    assert {name: args[name] for name in fields} == fields


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify all --max 3",
         "ambiguous option: --max could match --max-n, --max-r, --max-enum"),
        ("verify --help --s 1 all", "ambiguous option: --s could match --seed, --samples"),
        ("table d --m", "argument --m: expected one argument"),
        ("table d --m -- 3", "argument --m: expected one argument"),
        # argparse read "--" after "=" as no value at all, and --r reached
        # _cmd_values as [], which raised TypeError
        ("seq d --r=--", "argument --r: invalid int value: '--'"),
        ("oracle --r 1", "the following arguments are required: --n"),
        ("--help=1", "argument -h/--help: ignored explicit argument '1'"),
        ("-- table d", "argument command: invalid choice: '--' (choose from 'table', 'seq', "
                       "'verify', 'oracle')"),
        ("--bogus table d", "unrecognized arguments: --bogus"),
        # argparse drops "--" only beside the positional's value
        ("oracle --n 0 --", "unrecognized arguments: --"),
        ("table d --rows 3 --", "unrecognized arguments: --"),
    ],
)
def test_parse_args_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[1].endswith(": error: " + message)


@pytest.mark.parametrize("argv", ["-h", "--he", "table -h", "oracle --help", "seq d --x -h"])
def test_parse_args_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv.split())
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: stirlingb") and captured.err == ""
