"""Command line front end: emit triangles and sequences in machine-readable
formats, run the verification suites, and query the enumeration oracle.

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

TRIANGLE_FAMILIES = ("stirling-b", "inverse", "stirling-a")
SEQUENCE_FAMILIES = ("d", "lattice", "tree", "incomplete", "typeb-factorial")
FAMILIES = TRIANGLE_FAMILIES + SEQUENCE_FAMILIES

FORMATS = ("csv", "json", "pretty")

DEFAULT_SIZE = 8


class UsageError(Exception):
    pass


# family -> (provenance, the flags it reads with their defaults); the json
# payload reports both, and a flag given to a family that does not read it
# is a usage error.  stirling-b and inverse also accept --mode assoc, their
# only mode, and report none.
_FAMILY_FLAGS = {
    "stirling-b": ("recurrence", {"m": 2, "r": 0}),
    "inverse": ("riordan", {"m": 2, "r": 0}),
    "stirling-a": ("recurrence", {"m": 2, "mode": "assoc"}),
    "d": ("recurrence", {"r": 0}),
    "lattice": ("explicit", {"r": 0}),
    "tree": ("riordan", {}),
    "incomplete": ("recurrence", {"m": 2, "mode": "assoc"}),
    "typeb-factorial": ("explicit", {"m": 2, "mode": "assoc"}),
}


def _values(family: str, size: int, m=None, r=None, mode=None) -> list:
    """The first ``size`` rows of a triangle family, or terms of a sequence."""
    if family == "stirling-b":
        return [
            [sequences.triangle_gem_rec(n, k, r, m) for k in range(n + 1)]
            for n in range(size)
        ]
    if family == "inverse":
        if m != 2:
            raise UsageError("family 'inverse' supports --m 2 only")
        conj = unsigned_conjugate(make_triangle_B(2, r, order=max(size - 1, 1)).invert())
        vals = []
        for n in range(size):
            row = []
            for k in range(n + 1):
                v = conj.entry(n, k)
                if v.denominator != 1:
                    raise UsageError("non-integer inverse entry at (%d, %d)" % (n, k))
                row.append(int(v))
            vals.append(row)
        return vals
    if family == "stirling-a":
        return [[sequences.stirlingA(n, k, mode, m) for k in range(n + 1)] for n in range(size)]
    if family == "d":
        return [sequences.d_rec(r, n) for n in range(size)]
    if family == "lattice":
        return sequences.lattice_terms(r, size)
    if family == "tree":
        return sequences.tree_terms(size)
    if family == "incomplete":
        return [sequences.incomplete_factorial(n, mode, m) for n in range(size)]
    return [sequences.typeB_factorial_conv(n, mode, m) for n in range(size)]


def _render_rows(rows, fmt, payload):
    if fmt == "pretty":
        return "\n".join(" ".join(str(v) for v in row) for row in rows)
    if fmt == "csv":
        return "\n".join(",".join(str(v) for v in row) for row in rows)
    payload["rows"] = rows
    return json.dumps(payload, sort_keys=True)


def _render_terms(terms, fmt, payload):
    if fmt == "pretty":
        return " ".join(str(v) for v in terms)
    if fmt == "csv":
        return "\n".join(str(v) for v in terms)
    payload["terms"] = list(terms)
    payload["rows"] = [[v] for v in terms]
    return json.dumps(payload, sort_keys=True)


def _size(first, second, flag: str) -> int:
    size = next((v for v in (first, second) if v is not None), DEFAULT_SIZE)
    if size < 1:
        raise UsageError("%s must be >= 1" % flag)
    return size


def _cmd_table(args) -> str:
    family = args.family
    provenance, reads = _FAMILY_FLAGS[family]
    given = {
        flag: getattr(args, flag)
        for flag in ("m", "r", "mode")
        if getattr(args, flag) is not None
    }
    if family in ("stirling-b", "inverse") and given.pop("mode", "assoc") != "assoc":
        raise UsageError("family '%s' supports --mode assoc only" % family)
    for flag in given:
        if flag not in reads:
            raise UsageError("family '%s' does not take --%s" % (family, flag))
    params = dict(reads, **given)
    if params.get("m", 0) < 0 or params.get("r", 0) < 0:
        raise UsageError("--m and --r must be >= 0")
    if family in TRIANGLE_FAMILIES:
        size, render = _size(args.rows, args.terms, "--rows"), _render_rows
    else:
        size, render = _size(args.terms, args.rows, "--terms"), _render_terms
    # m and r are always keys, null for a family that does not take them
    payload = {"family": family, "m": None, "r": None, "provenance": provenance}
    payload.update(params)
    return render(_values(family, size, **params), args.format, payload)


def _cmd_verify(args) -> tuple[str, int]:
    # options left unset take run_scope's defaults, the only ones there are
    options = {
        name: getattr(args, name)
        for name in ("max_n", "max_r", "seed", "samples", "precision")
        if getattr(args, name) is not None
    }
    for name, low in (("max_n", 0), ("max_r", 0), ("samples", 0), ("precision", 1)):
        value = options.get(name, low)
        if value < low:
            flag = "--" + name.replace("_", "-")
            raise UsageError("%s must be >= %d, got %d" % (flag, low, value))
    report = verify.run_scope(args.scope, bound=args.max_enum, **options)
    return "\n".join(report.lines()), 0 if report.ok else 1


def _cmd_oracle(args) -> str:
    if args.k is None:
        value = oracle_total(args.n, args.r, args.mode, args.m, bound=args.max_enum)
    else:
        value = oracle_triangle(
            args.n, args.r, args.k, args.mode, args.m, bound=args.max_enum
        )
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingb",
        description="Exact tables, sequences and cross-checks for signed-"
        "permutation cycle statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a triangle or sequence family")
    table.add_argument("family", choices=FAMILIES)
    _add_common_value_flags(table)

    seq = sub.add_parser("seq", help="emit a sequence family (one value per n)")
    seq.add_argument("family", choices=SEQUENCE_FAMILIES)
    _add_common_value_flags(seq)

    ver = sub.add_parser("verify", help="run a cross-route verification scope")
    ver.add_argument("scope", choices=verify.SCOPES)
    ver.add_argument("--max-n", dest="max_n", type=int, default=None)
    ver.add_argument("--max-r", dest="max_r", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--max-enum", dest="max_enum", type=int, default=None)
    ver.add_argument(
        "--precision",
        type=int,
        default=None,
        help="decimal digits when reporting asymptotic ratios",
    )

    orc = sub.add_parser("oracle", help="brute-force enumeration count")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--r", type=int, default=0)
    orc.add_argument("--mode", choices=MODES, default="assoc")
    orc.add_argument("--m", type=int, default=2)
    orc.add_argument("--k", type=int, default=None)
    orc.add_argument("--max-enum", dest="max_enum", type=int, default=None)
    return parser


def _add_common_value_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--m", type=int, default=None)
    cmd.add_argument("--r", type=int, default=None)
    cmd.add_argument("--rows", type=int, default=None)
    cmd.add_argument("--terms", type=int, default=None)
    cmd.add_argument("--mode", choices=MODES, default=None)
    cmd.add_argument("--format", choices=FORMATS, default="pretty")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact terms may pass the int-to-str digit limit; lift it for this call
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.command in ("table", "seq"):
            print(_cmd_table(args))
            return 0
        if args.command == "verify":
            text, code = _cmd_verify(args)
            print(text)
            return code
        if args.command == "oracle":
            print(_cmd_oracle(args))
            return 0
    except (EnumerationLimitError, UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)
    raise AssertionError("unreachable command %r" % (args.command,))


if __name__ == "__main__":
    sys.exit(main())
