"""Command line front end: emit triangles and sequences in machine-readable
formats, run the verification suites, and query the enumeration oracle.

One table, `_FAMILIES`, serves `table` and `seq`: `table` takes every family,
sized by `--rows`, and `seq` the sequence families, sized by `--terms`.
Another, `_COMMANDS`, reads argv by argparse's rules, writes the help and holds
each int flag's floor; `main` checks those first, in table order.

Exit codes: 0 success, 1 verification failure, 2 usage error (including
enumeration bound violations), 141 when the reader closes stdout early.
"""

import os
import sys
import types
from collections.abc import Iterable

from . import _on_first_read
from .permcore import EnumerationLimitError, MODES, oracle_total, oracle_triangle


# `oracle` and `--help` read neither, and `table` and `seq` only `sequences`,
# which loads `fps` for `lattice` alone
sequences, verify = map(_on_first_read, ("sequences", "verify"))

# verify.SCOPES, which the parser offers without loading verify
SCOPES = ("all", "riordan", "oracle", "howard", "asymptotic", "printed")

FORMATS = ("csv", "json", "pretty")

DEFAULT_SIZE = 8


def _inverse_rows(size: int, m: int, r: int) -> Iterable[list[int]]:
    if m != 2:
        raise ValueError("family 'inverse' supports --m 2 only")
    return sequences.inverse_triangle_rows(size, r)


# family -> ("rows" for a triangle or "terms" for a sequence, provenance, the
# flags it reads with their defaults, a function (size, **flags) giving its
# first size rows or terms).  The json payload reports provenance and flags,
# and a flag given to a family that does not read it is a usage error.
# stirling-b and inverse also accept --mode assoc, their only mode, and report
# none.  The functions name the library at call time and capture none of it.
_FAMILIES = {
    "stirling-b": ("rows", "recurrence", {"m": 2, "r": 0}, lambda size, m, r: (
        sequences.triangle_gem_rows(size, r, m)
    )),
    "inverse": ("rows", "recurrence", {"m": 2, "r": 0}, _inverse_rows),
    "stirling-a": ("rows", "recurrence", {"m": 2, "mode": "assoc"}, lambda size, m, mode: (
        sequences.stirlingA_rows(size, mode, m)
    )),
    "d": ("terms", "recurrence", {"r": 0}, lambda size, r: (
        [sequences.d_rec(r, n) for n in range(size)]
    )),
    "lattice": (
        "terms", "explicit", {"r": 0}, lambda size, r: sequences.lattice_terms(r, size)
    ),
    "tree": ("terms", "recurrence", {}, lambda size: sequences.tree_terms(size)),
    "incomplete": ("terms", "recurrence", {"m": 2, "mode": "assoc"}, lambda size, m, mode: (
        [sequences.incomplete_factorial(n, mode, m) for n in range(size)]
    )),
    "typeb-factorial": ("terms", "explicit", {"m": 2, "mode": "assoc"}, lambda size, m, mode: (
        [sequences.typeB_factorial_conv(n, mode, m) for n in range(size)]
    )),
}

FAMILIES = tuple(_FAMILIES)
SEQUENCE_FAMILIES = tuple(f for f in FAMILIES if _FAMILIES[f][0] == "terms")


def _render(kind: str, values, fmt: str, payload: dict):
    """The output in pieces, without its last newline; a triangle's rows come
    from an iterator, and each is rendered as it comes."""
    rows = values
    if kind == "terms":
        # a sequence is rows of one term, but pretty prints them on one line,
        # and its json also carries the terms
        payload["terms"] = values
        rows = [values] if fmt == "pretty" else [[v] for v in values]
    if fmt != "json":
        sep = "," if fmt == "csv" else " "
        for i, row in enumerate(rows):
            yield ("\n" if i else "") + sep.join(map(str, row))
        return
    # json.dumps(payload, sort_keys=True) by hand: a value is None, an int, an int
    # list or a command-table name, which needs no escaping; rows go in at their key
    fields = {key: '"%s": %s' % (key, "null" if value is None else
                                 '"%s"' % value if type(value) is str else value)
              for key, value in payload.items()}
    yield "{" + ", ".join(fields[key] for key in sorted(fields) if key < "rows") + ', "rows": ['
    for i, row in enumerate(rows):
        yield (", [" if i else "[") + ", ".join(map(str, row)) + "]"
    yield "]" + "".join(", " + fields[key] for key in sorted(fields) if key > "rows") + "}"


def _cmd_values(args) -> tuple[Iterable[str], int]:
    family = args.family
    kind, provenance, reads, values = _FAMILIES[family]
    given = {f: v for f in ("m", "r", "mode") if (v := getattr(args, f)) is not None}
    if family in ("stirling-b", "inverse") and given.pop("mode", "assoc") != "assoc":
        raise ValueError("family '%s' supports --mode assoc only" % family)
    for flag in given:
        if flag not in reads:
            raise ValueError("family '%s' does not take --%s" % (family, flag))
    params = dict(reads, **given)
    # m and r are always keys, null for a family that does not take them
    payload = {"family": family, "m": None, "r": None, "provenance": provenance}
    payload.update(params)
    return _render(kind, values(args.size, **params), args.format, payload), 0


def _cmd_verify(args) -> tuple[Iterable[str], int]:
    # the parser defaults every option to None: one left unset takes its SCOPE_TABLE default
    options = {}
    for flag, (name, _) in _COMMANDS["verify"][2].items():
        if flag[0] == "-" and (value := getattr(args, name)) is not None:
            if args.scope != "all" and name not in verify.SCOPE_TABLE[args.scope][1]:
                raise ValueError("scope '%s' does not take %s" % (args.scope, flag))
            options[name] = value
    report = verify.run_scope(args.scope, **options)
    return ["\n".join(report.lines())], 0 if report.ok else 1


def _cmd_oracle(args) -> tuple[Iterable[str], int]:
    if args.k is None:
        value = oracle_total(args.n, args.r, args.mode, args.m, bound=args.max_enum)
    else:
        value = oracle_triangle(
            args.n, args.r, args.k, args.mode, args.m, bound=args.max_enum
        )
    return [str(value)], 0


def _value_arguments(families: tuple, size_flag: str) -> tuple[dict, dict]:
    # table and seq differ only in their families and their size flag
    arguments = {"family": ("family", families), "--m": ("m", 0), "--r": ("r", 0),
                 size_flag: ("size", 1), "--mode": ("mode", MODES),
                 "--format": ("format", FORMATS)}
    return arguments, dict(m=None, r=None, size=DEFAULT_SIZE, mode=None, format="pretty")


# command -> (the function it runs, its help line, its arguments, their
# defaults), "" being the top level.  An argument maps to its dest and to what
# it accepts: a tuple of choices, the least int it takes, or int for any int;
# the one without leading dashes is positional.  An argument whose dest has no
# default is required.
_COMMANDS = {
    "table": (_cmd_values, "emit a triangle or sequence family",
              *_value_arguments(FAMILIES, "--rows")),
    "seq": (_cmd_values, "emit a sequence family (one value per n)",
            *_value_arguments(SEQUENCE_FAMILIES, "--terms")),
    "verify": (_cmd_verify, "run a cross-route verification scope", {
        "scope": ("scope", SCOPES), "--max-n": ("max_n", 0), "--max-r": ("max_r", 0),
        "--seed": ("seed", int), "--samples": ("samples", 0), "--max-enum": ("bound", 0),
        "--precision": ("precision", 1),
    }, dict.fromkeys(("max_n", "max_r", "seed", "samples", "bound", "precision"))),
    "oracle": (_cmd_oracle, "brute-force enumeration count", {
        "--n": ("n", 0), "--r": ("r", 0), "--mode": ("mode", MODES), "--m": ("m", 0),
        "--k": ("k", 0), "--max-enum": ("max_enum", 0),
    }, dict(r=0, mode="assoc", m=2, k=None, max_enum=None)),
}
_COMMANDS[""] = (None, "Exact tables, sequences and cross-checks for signed-permutation "
                 "cycle statistics.", {"command": ("command", tuple(_COMMANDS))}, {})


def _usage(command: str) -> str:
    _, _, arguments, defaults = _COMMANDS[command]
    words = ["usage:", ("stirlingb " + command).rstrip(), "[-h]"]
    for name, (dest, accepts) in arguments.items():
        word = ("{%s}" % ",".join(accepts) if type(accepts) is tuple
                else name[2:].replace("-", "_").upper())
        word = name + " " + word if name[0] == "-" else word
        words.append("[%s]" % word if dest in defaults else word)
    return " ".join(words)


def _fail(command: str, message: str):
    prog = ("stirlingb " + command).rstrip()
    sys.stderr.write("%s\n%s: error: %s\n" % (_usage(command), prog, message))
    raise SystemExit(2)


def _option(arg: str, names: tuple, command: str):
    """arg as argparse reads it against the option names: (name, the value
    joined to it by '=' or None), (None, None) if unknown, None if a value."""
    if len(arg) < 2 or arg[0] != "-" or arg == "--":
        return None
    name, eq, value = arg.partition("=")
    matches = [name] if name in names else [n for n in names if n.startswith(name)]
    if len(matches) > 1:
        _fail(command, "ambiguous option: %s could match %s" % (arg, ", ".join(matches)))
    if matches:
        return matches[0], value if eq else None
    # a negative number, or anything with a space, is a value
    number = arg[1:].replace(".", "", 1).isdecimal() and arg[-1] != "."
    return None if number or " " in arg else (None, None)


def _parse(command: str, argv: list, extra: list) -> types.SimpleNamespace:
    """argv read as command's arguments; at the top level, the command named
    reads the rest.  extra gathers the arguments no one reads."""
    run, about, arguments, defaults = _COMMANDS[command]
    names = ("-h", "--help", *arguments)  # no option matches the positional's name
    positional = next((n for n in arguments if n[0] != "-"), None)
    # after a command's first "--" every argument is a value
    end = argv.index("--") if command and "--" in argv else len(argv)
    # argparse reads every option before it acts on one: an ambiguous one fails first
    kinds = [_option(arg, names, command) for arg in argv[:end]] + [None] * (len(argv) - end)
    values, i, at = dict(defaults), 0, None  # at: where the positional was read
    while i < len(argv):
        arg, kind, i = argv[i], kinds[i], i + 1
        name, value = kind or (positional if positional not in values else None, arg)
        if i - 1 == end and (at == end - 1 or name and i < len(argv)):
            continue  # argparse drops that "--" only beside the positional's value
        if name is None:
            extra.append(arg)
        elif name in ("-h", "--help"):
            if value is not None:
                _fail(command, "argument -h/--help: ignored explicit argument %r" % value)
            lines = [_usage(command), "", about]
            if not command:  # the top level lists the commands
                lines += ["  %-8s %s" % (c, row[1]) for c, row in _COMMANDS.items() if c]
            print("\n".join(lines))
            raise SystemExit(0)
        else:
            if value is None:
                if i in (len(argv), end) or kinds[i] is not None:
                    _fail(command, "argument %s: expected one argument" % name)
                value, i = argv[i], i + 1
            dest, accepts = arguments[name]
            if type(accepts) is tuple and value not in accepts:
                choices = "%r (choose from %s)" % (value, ", ".join(map(repr, accepts)))
                _fail(command, "argument %s: invalid choice: %s" % (name, choices))
            try:
                values[dest] = value if type(accepts) is tuple else int(value)
            except ValueError:
                _fail(command, "argument %s: invalid int value: %r" % (name, value))
            at = i - 1 if name == positional else at
            if not command:
                return _parse(value, argv[i:], extra)
    missing = [name for name, (dest, _) in arguments.items() if dest not in values]
    if missing:
        _fail(command, "the following arguments are required: %s" % ", ".join(missing))
    if extra:
        _fail("", "unrecognized arguments: %s" % " ".join(extra))
    return types.SimpleNamespace(command=command, run=run, **values)


def parse_args(argv=None) -> types.SimpleNamespace:
    """argv (sys.argv[1:] by default) read against _COMMANDS by argparse's
    rules.  -h prints the help and exits 0; a usage error prints the usage
    and the error to stderr and exits 2."""
    return _parse("", sys.argv[1:] if argv is None else list(argv), [])


def main(argv=None) -> int:
    args = parse_args(argv)
    # exact terms may pass the int-to-str digit limit; lift it for this call
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for name, (dest, least) in _COMMANDS[args.command][2].items():
            value = getattr(args, dest)  # a given int flag below its floor fails first
            if type(least) is int and value is not None and value < least:
                raise ValueError("%s must be >= %d, got %d" % (name, least, value))
        pieces, code = args.run(args)
        for piece in pieces:  # a table's rows are written as they are made
            print(piece, end="")
        print(flush=True)
    except (EnumerationLimitError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left: the flush at exit goes to devnull, and the code is SIGPIPE's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        sys.set_int_max_str_digits(limit)
    return code


def _run():
    """Exit with main's code, skipping the interpreter's teardown: stdout and
    stderr are flushed here, and nothing else is left to close.  --help and a
    usage error raise SystemExit inside main and exit as usual."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    _run()
