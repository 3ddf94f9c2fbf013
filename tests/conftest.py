import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest


@pytest.fixture
def fractions_formed():
    """``fractions_formed(action)``: how many Fractions ``action()``
    constructs, counted by a profile hook on ``Fraction.__new__``."""
    new = Fraction.__new__.__code__

    def count(action):
        calls = [0]

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is new:
                calls[0] += 1

        sys.setprofile(hook)
        try:
            action()
        finally:
            sys.setprofile(None)
        return calls[0]

    return count


# Run in a fresh interpreter: Linux carries the high-water RSS of the process
# that starts a child across fork and exec into the child's ru_maxrss, so the
# CLI is started by this small process, not by the test process, and before
# this one loads hashlib.
_SPAWN_CLI = """
import os, sys
read, write = os.pipe()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "stirlingb.cli", *sys.argv[1:]],
                     os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, write, 1)])
os.close(write)
import hashlib
digest = hashlib.sha256()
with open(read, "rb") as out:
    for chunk in iter(lambda: out.read(1 << 16), b""):
        digest.update(chunk)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, digest.hexdigest())
"""


@pytest.fixture
def cli_peak():
    """``cli_peak(argv)``: (exit code, peak RSS in MB, sha256 of stdout,
    stderr) of ``python -m stirlingb.cli argv``, the peak read from
    ``os.wait4``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-c", _SPAWN_CLI, *argv],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        code, rss_kb, digest = proc.stdout.split()
        return int(code), int(rss_kb) / 1024, digest, proc.stderr

    return run


@pytest.fixture
def bench_jobs(monkeypatch):
    """Every job that ``perfbench/workloads.py``'s ``job_list`` makes, for each
    workload at seeds 1-10."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks it up
    spec.loader.exec_module(workloads)
    return [job for name in workloads.WORKLOADS for seed in range(1, 11)
            for job in workloads.job_list(name, seed)]
