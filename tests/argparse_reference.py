"""The argparse parser the CLI used before `cli.parse_args` replaced it,
kept as the reference that `cli.parse_args` is checked against: the same
commands, flags, dests, types, choices and defaults, built by argparse."""

import argparse

from stirlingb import cli
from stirlingb.permcore import MODES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingb",
        description="Exact tables, sequences and cross-checks for signed-"
        "permutation cycle statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a triangle or sequence family")
    _add_value_flags(table, cli.FAMILIES, "--rows")

    seq = sub.add_parser("seq", help="emit a sequence family (one value per n)")
    _add_value_flags(seq, cli.SEQUENCE_FAMILIES, "--terms")

    ver = sub.add_parser("verify", help="run a cross-route verification scope")
    ver.add_argument("scope", choices=cli.SCOPES)
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
    ver.set_defaults(run=cli._cmd_verify)

    orc = sub.add_parser("oracle", help="brute-force enumeration count")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--r", type=int, default=0)
    orc.add_argument("--mode", choices=MODES, default="assoc")
    orc.add_argument("--m", type=int, default=2)
    orc.add_argument("--k", type=int, default=None)
    orc.add_argument("--max-enum", dest="max_enum", type=int, default=None)
    orc.set_defaults(run=cli._cmd_oracle)
    return parser


def _add_value_flags(cmd: argparse.ArgumentParser, families, size_flag: str) -> None:
    cmd.add_argument("family", choices=families)
    cmd.add_argument("--m", type=int, default=None)
    cmd.add_argument("--r", type=int, default=None)
    metavar, default = size_flag[2:].upper(), cli.DEFAULT_SIZE
    cmd.add_argument(size_flag, dest="size", metavar=metavar, type=int, default=default)
    cmd.add_argument("--mode", choices=MODES, default=None)
    cmd.add_argument("--format", choices=cli.FORMATS, default="pretty")
    cmd.set_defaults(run=cli._cmd_values)
