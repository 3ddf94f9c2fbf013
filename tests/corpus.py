"""The byte-identity corpus: CLI runs whose exit code, stdout and stderr are
pinned in ``corpus.json``, one row per argv.

A row holds the argv, the exit code, the sha256 of stdout and the whole
stderr.  The argv are stored, not generated, so that a change elsewhere
(the benchmark's job list, say) cannot change the corpus silently.  Each
row runs through ``cli.main`` in this process; help and usage errors
raise ``SystemExit``, whose code is the row's.  In-process rows share the
library's table caches, so the tests that need a cold interpreter spawn
one of their own.  Standard library only: ``make_corpus.py`` imports this.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from stirlingb import cli

PATH = Path(__file__).resolve().with_name("corpus.json")


def run(argv: list) -> dict:
    """The row of argv: its exit code, the sha256 of its stdout and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return {"argv": list(argv), "code": code, "stdout_sha256": digest, "stderr": err.getvalue()}


def load() -> list:
    """The rows of corpus.json, in its order."""
    return json.loads(PATH.read_text())


def dump(rows: list) -> str:
    """rows as corpus.json holds them: sorted by argv, one to a line."""
    lines = [json.dumps(row) for row in sorted(rows, key=lambda row: row["argv"])]
    return "[\n" + ",\n".join(lines) + "\n]\n"
