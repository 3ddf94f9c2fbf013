"""Command line front end: emit triangles and sequences in machine-readable
formats, run the verification suites, and query the enumeration oracle.

One table, `_FAMILIES`, serves `table` and `seq`: `table` takes every family,
sized by `--rows`, and `seq` the sequence families, sized by `--terms`.

Exit codes: 0 success, 1 verification failure, 2 usage error (including
enumeration bound violations).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import sequences, verify
from .permcore import EnumerationLimitError, MODES, oracle_total, oracle_triangle
from .riordan import make_triangle_B, unsigned_conjugate

FORMATS = ("csv", "json", "pretty")

DEFAULT_SIZE = 8


class UsageError(Exception):
    pass


def _inverse_rows(size: int, m: int, r: int) -> list:
    if m != 2:
        raise UsageError("family 'inverse' supports --m 2 only")
    conj = unsigned_conjugate(make_triangle_B(2, r, order=max(size - 1, 1)).invert())
    rows = []
    for n in range(size):
        row = []
        for k in range(n + 1):
            v = conj.entry(n, k)
            if v.denominator != 1:
                raise UsageError("non-integer inverse entry at (%d, %d)" % (n, k))
            row.append(int(v))
        rows.append(row)
    return rows


# family -> ("rows" for a triangle or "terms" for a sequence, provenance, the
# flags it reads with their defaults, a function (size, **flags) giving its
# first size rows or terms).  The json payload reports provenance and flags,
# and a flag given to a family that does not read it is a usage error.
# stirling-b and inverse also accept --mode assoc, their only mode, and report
# none.  The functions name the library at call time and capture none of it.
_FAMILIES = {
    "stirling-b": ("rows", "recurrence", {"m": 2, "r": 0}, lambda size, m, r: [
        [sequences.triangle_gem_rec(n, k, r, m) for k in range(n + 1)] for n in range(size)
    ]),
    "inverse": ("rows", "riordan", {"m": 2, "r": 0}, _inverse_rows),
    "stirling-a": ("rows", "recurrence", {"m": 2, "mode": "assoc"}, lambda size, m, mode: [
        [sequences.stirlingA(n, k, mode, m) for k in range(n + 1)] for n in range(size)
    ]),
    "d": ("terms", "recurrence", {"r": 0}, lambda size, r: [
        sequences.d_rec(r, n) for n in range(size)
    ]),
    "lattice": (
        "terms", "explicit", {"r": 0}, lambda size, r: sequences.lattice_terms(r, size)
    ),
    "tree": ("terms", "riordan", {}, lambda size: sequences.tree_terms(size)),
    "incomplete": ("terms", "recurrence", {"m": 2, "mode": "assoc"}, lambda size, m, mode: [
        sequences.incomplete_factorial(n, mode, m) for n in range(size)
    ]),
    "typeb-factorial": ("terms", "explicit", {"m": 2, "mode": "assoc"}, lambda size, m, mode: [
        sequences.typeB_factorial_conv(n, mode, m) for n in range(size)
    ]),
}

FAMILIES = tuple(_FAMILIES)
TRIANGLE_FAMILIES = tuple(f for f in FAMILIES if _FAMILIES[f][0] == "rows")
SEQUENCE_FAMILIES = tuple(f for f in FAMILIES if _FAMILIES[f][0] == "terms")


def _render(kind: str, values: list, fmt: str, payload: dict) -> str:
    rows = values
    if kind == "terms":
        # a sequence is rows of one term, but pretty prints them on one line,
        # and its json also carries the terms
        payload["terms"] = values
        rows = [values] if fmt == "pretty" else [[v] for v in values]
    if fmt == "json":
        payload["rows"] = rows
        return json.dumps(payload, sort_keys=True)
    sep = "," if fmt == "csv" else " "
    return "\n".join(sep.join(map(str, row)) for row in rows)


def _cmd_values(args) -> tuple[str, int]:
    family = args.family
    kind, provenance, reads, values = _FAMILIES[family]
    given = {f: v for f in ("m", "r", "mode") if (v := getattr(args, f)) is not None}
    if family in ("stirling-b", "inverse") and given.pop("mode", "assoc") != "assoc":
        raise UsageError("family '%s' supports --mode assoc only" % family)
    for flag in given:
        if flag not in reads:
            raise UsageError("family '%s' does not take --%s" % (family, flag))
    params = dict(reads, **given)
    for flag in ("m", "r"):
        if params.get(flag, 0) < 0:
            raise UsageError("--%s must be >= 0, got %d" % (flag, params[flag]))
    if args.size < 1:
        raise UsageError("%s must be >= 1" % args.size_flag)
    # m and r are always keys, null for a family that does not take them
    payload = {"family": family, "m": None, "r": None, "provenance": provenance}
    payload.update(params)
    return _render(kind, values(args.size, **params), args.format, payload), 0


def _flag(name: str) -> str:
    return "--max-enum" if name == "bound" else "--" + name.replace("_", "-")


def _cmd_verify(args) -> tuple[str, int]:
    # options left unset take run_scope's defaults, the only ones there are
    names = ("max_n", "max_r", "seed", "samples", "bound", "precision")
    options = {name: v for name in names if (v := getattr(args, name)) is not None}
    for name, low in (("max_n", 0), ("max_r", 0), ("samples", 0), ("precision", 1)):
        value = options.get(name, low)
        if value < low:
            raise UsageError("%s must be >= %d, got %d" % (_flag(name), low, value))
    if args.scope != "all":
        reads = ("max_n", "max_r") + verify.SCOPE_TABLE[args.scope][3]
        for name in options:
            if name not in reads:
                raise UsageError("scope '%s' does not take %s" % (args.scope, _flag(name)))
    report = verify.run_scope(args.scope, **options)
    return "\n".join(report.lines()), 0 if report.ok else 1


def _cmd_oracle(args) -> tuple[str, int]:
    if args.k is None:
        value = oracle_total(args.n, args.r, args.mode, args.m, bound=args.max_enum)
    else:
        value = oracle_triangle(
            args.n, args.r, args.k, args.mode, args.m, bound=args.max_enum
        )
    return str(value), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingb",
        description="Exact tables, sequences and cross-checks for signed-"
        "permutation cycle statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a triangle or sequence family")
    _add_value_flags(table, FAMILIES, "--rows")

    seq = sub.add_parser("seq", help="emit a sequence family (one value per n)")
    _add_value_flags(seq, SEQUENCE_FAMILIES, "--terms")

    ver = sub.add_parser("verify", help="run a cross-route verification scope")
    ver.add_argument("scope", choices=verify.SCOPES)
    ver.add_argument("--max-n", dest="max_n", type=int, default=None)
    ver.add_argument("--max-r", dest="max_r", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--max-enum", dest="bound", metavar="MAX_ENUM", type=int, default=None)
    ver.add_argument(
        "--precision",
        type=int,
        default=None,
        help="decimal digits when reporting asymptotic ratios",
    )
    ver.set_defaults(run=_cmd_verify)

    orc = sub.add_parser("oracle", help="brute-force enumeration count")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--r", type=int, default=0)
    orc.add_argument("--mode", choices=MODES, default="assoc")
    orc.add_argument("--m", type=int, default=2)
    orc.add_argument("--k", type=int, default=None)
    orc.add_argument("--max-enum", dest="max_enum", type=int, default=None)
    orc.set_defaults(run=_cmd_oracle)
    return parser


def _add_value_flags(cmd: argparse.ArgumentParser, families, size_flag: str) -> None:
    cmd.add_argument("family", choices=families)
    cmd.add_argument("--m", type=int, default=None)
    cmd.add_argument("--r", type=int, default=None)
    metavar = size_flag[2:].upper()
    cmd.add_argument(size_flag, dest="size", metavar=metavar, type=int, default=DEFAULT_SIZE)
    cmd.add_argument("--mode", choices=MODES, default=None)
    cmd.add_argument("--format", choices=FORMATS, default="pretty")
    cmd.set_defaults(run=_cmd_values, size_flag=size_flag)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # exact terms may pass the int-to-str digit limit; lift it for this call
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text, code = args.run(args)
    except (EnumerationLimitError, UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
