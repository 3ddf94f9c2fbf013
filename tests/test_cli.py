import ast
import hashlib
import importlib.util
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
    # recorded before reciprocal and revert moved onto integer numerators
    "table inverse --rows 30 --r 2 --format pretty":
        "e4e9585a84c81a055e8e3842227ae0897b15c4502c5952c1d54700381e1fe7ff",
    # the r = 0 and r = 1 json shapes of the bench jobs, recorded before the
    # array was read from its cycle weights, then with provenance "recurrence"
    # once the rows were printed from it
    "table inverse --rows 26 --r 0 --format json":
        "49fe48f0d7b257127d170acadf2f47822e80949bc49f9c6c7a0984e089145724",
    "table inverse --rows 30 --r 1 --format json":
        "a1ab5837bf7eb83d1e7559b136b3d1164e7bca29b11b8bddaa4fca281590fde3",
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
    # the pretty and json shapes of the bench jobs, recorded before the
    # tables were read a whole row at a time
    "table stirling-b --rows 68 --m 2 --r 2 --format pretty":
        "e3e52c3080201f5d0ee9e220791f1bcdb9e54c9d7d563317ece87afc07148eb4",
    "table stirling-b --rows 103 --m 2 --r 0 --format json":
        "8cdf8ac03ef5fb1741fe6b4c7533f6cb3ed5af601cde6b66c6829cf884c456a9",
    "table stirling-b --rows 67 --m 3 --r 2 --format pretty":
        "c8ada13e8e2f11e6af9069f3f5ab6d28af954c2f91cf3bb85449dbe572e3a595",
    "table stirling-a --rows 100 --m 2 --mode assoc --format pretty":
        "845e170572e34bb55b85cb5910c47cbf18c14e8333e1be731b68935d293d4223",
    # recorded before `table` wrote its rows as they were made: the bench's
    # peak-RSS job, one more bench shape, and the one-row edge of each format
    "table stirling-a --rows 163 --m 5 --mode restr --format json":
        "e3c200a6403f2353dc9ac263cadbb30d9df29fa496ac6b5b758b4f1c4bd595f5",
    "table stirling-b --rows 78 --m 4 --r 1 --format json":
        "1aeb4f53906cfbe11fef5f0b2c70fc9cb2d919b0934267ea1aa243a46b87e84c",
    "table stirling-b --rows 1 --format csv":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "table stirling-b --rows 1 --format json":
        "b11f1596d0abfc409a1c0f05f343f3a256c505119a4e754f331b9b16d89b7c6b",
    "table stirling-b --rows 1 --format pretty":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
}


@pytest.mark.parametrize("argv", sorted(RECURRENCE_GOLDEN))
def test_recurrence_table_golden(capsys, argv):
    code, out, err = _run(capsys, argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == RECURRENCE_GOLDEN[argv]


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
    "seq tree --terms 20 --format json":  # provenance "recurrence"
        "7f44e04d4d0a65ce359d18b256fc6b23e5260805297bc55cd29d51024e01aea7",
    "table d --rows 40 --r 2":
        "90a79fb0d8679ecb41e48227bf82fdd62c43d454c474cbff82048a4a21c2c585",
    # recorded while these three families read one bulk term function each
    "seq d --terms 60 --r 2 --format pretty":
        "e61b4b10f657677de9dc23054ecc7d530485204fe899d98f3a47fbf35c1a51aa",
    "seq d --terms 60 --r 2 --format csv":
        "700ea44e83dffa3f420d4874cca43a5686734ba49a08e94f73b815e419a6da4c",
    "seq d --terms 60 --r 2 --format json":
        "299112e12484b0310c9283a1fcebd454365eb56be89e9298f33200a202c2c42c",
    "seq incomplete --terms 60 --m 4 --mode assoc --format pretty":
        "89f87dd2072fd5d5359d02bfb638d228b618c4c7d09687c1ed52f2a40f25e956",
    "seq incomplete --terms 60 --m 4 --mode assoc --format csv":
        "e485e7a6eb1ff4ece3c946366a91cba02542f8e2a15d66a621538b0d17b6f8ac",
    "seq incomplete --terms 60 --m 4 --mode assoc --format json":
        "d1be73b564d1175dee7ecf4088e3eec2a6d5a09168ed0f5cd4e0181a5b2e7ee5",
    "seq typeb-factorial --terms 60 --m 2 --mode restr --format pretty":
        "43bd23cee010675159fe3711c4d5544e9b207f750d2f4773a209a24c9a8cb5e1",
    "seq typeb-factorial --terms 60 --m 2 --mode restr --format csv":
        "c3fb96730464c3dbbb908aae0efcef3a79ba452b701ad16090bc5b45d2885dfd",
    "seq typeb-factorial --terms 60 --m 2 --mode restr --format json":
        "2318f18cf5e9f2577ccdee5b0b3c4475820ff240f2bae4c6ee4af48b275e554b",
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
    for name in workloads.WORKLOADS:
        for seed in range(1, 11):
            for job in workloads.job_list(name, seed):
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
