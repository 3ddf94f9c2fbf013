"""Seed-generated CLI jobs for each workload.

A workload is a fixed list of slots.  The seed picks each slot's parameters
(``r``, ``m``, ``mode``, ``--format``, sizes) from that slot's ranges; run.py
repeats the resulting job list in seed-shuffled orders.  The row and term
ranges of each slot were sized at the commit that introduced this benchmark
so that a slot costs about the same whichever variant the seed picks, and
the size jitter is kept to a row or a few terms, since cost grows with the
third or fourth power of the size; that keeps every end-to-end metric nearly
independent of the seed.  The program
sees only the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

FORMATS = ("pretty", "csv", "json")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    kind: str  # which gate checks the output, see gates.py
    params: dict = field(default_factory=dict, compare=False, hash=False)
    expect_rc: int = 0


def _table(rng, family, rows, fmt=None, **opts):
    fmt = fmt or rng.choice(FORMATS)
    argv = ["table", family, "--rows", str(rows), "--format", fmt]
    for key, value in opts.items():
        argv += ["--" + key, str(value)]
    return Job(tuple(argv), family, dict(opts, rows=rows, fmt=fmt))


def _seq(rng, family, terms, **opts):
    fmt = rng.choice(FORMATS)
    argv = ["seq", family, "--terms", str(terms), "--format", fmt]
    for key, value in opts.items():
        argv += ["--" + key, str(value)]
    return Job(tuple(argv), "seq-" + family, dict(opts, terms=terms, fmt=fmt))


def _verify(scope, max_n, max_r, seed=None):
    argv = ["verify", scope, "--max-n", str(max_n), "--max-r", str(max_r)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Job(tuple(argv), "verify", dict(scope=scope, max_n=max_n, max_r=max_r))


def _oracle(n, r, mode, m, k=None):
    argv = ["oracle", "--n", str(n), "--r", str(r), "--mode", mode, "--m", str(m)]
    if k is not None:
        argv += ["--k", str(k)]
    return Job(tuple(argv), "oracle", dict(n=n, r=r, mode=mode, m=m, k=k))


def smoke_job() -> Job:
    """A small ``verify all`` that touches every layer.  Every workload runs
    it, so each per-layer metric is measured (small, not absent) everywhere."""
    return _verify("all", 3, 1)


def recurrence_rows(rng: random.Random) -> list[Job]:
    r = rng.choice((1, 2, 3))
    m, r3 = rng.choice(((3, 1), (3, 2), (4, 1), (4, 2)))
    assoc_m = rng.choice((2, 3, 4))
    restr_m = rng.choice((3, 4, 5))
    return [
        _table(rng, "stirling-b", {1: 79, 2: 69, 3: 64}[r] + rng.randint(-1, 1), m=2, r=r),
        _table(rng, "stirling-b", 104 + rng.randint(-1, 1), m=2, r=0),
        _table(
            rng,
            "stirling-b",
            {(3, 1): 77, (3, 2): 68, (4, 1): 78, (4, 2): 68}[m, r3] + rng.randint(-1, 1),
            m=m,
            r=r3,
        ),
        _table(
            rng,
            "stirling-a",
            {2: 101, 3: 103, 4: 104}[assoc_m] + rng.randint(-1, 1),
            m=assoc_m,
            mode="assoc",
        ),
        # The largest output (about 1 MB) and so the peak RSS: sized per m so
        # that the output, not only the time, is about the same, and always
        # json, the format that holds the most in memory.
        _table(
            rng,
            "stirling-a",
            {3: 183, 4: 170, 5: 163}[restr_m] + rng.randint(-1, 1),
            fmt="json",
            m=restr_m,
            mode="restr",
        ),
        _seq(rng, "d", 300 + rng.randint(-5, 5), r=rng.choice((1, 2, 3, 4, 5))),
    ]


def riordan_arrays(rng: random.Random) -> list[Job]:
    r_big = rng.choice((1, 2, 3))
    lattice_r = [rng.choice((2, 3, 4)) for _ in range(2)]
    return [
        # One row more costs about 13% more, so the rows follow from r.
        _table(rng, "inverse", {1: 30, 2: 30, 3: 29}[r_big], m=2, r=r_big),
        _table(rng, "inverse", 26, m=2, r=rng.choice((0, 1, 2, 3))),
        # Each term reverts a series of its own order, so the cost climbs
        # steeply with --terms; the size is fixed and only the format varies.
        _seq(rng, "tree", 22),
    ] + [
        _seq(rng, "lattice", {2: 58, 3: 50, 4: 49}[lr] + rng.randint(-1, 1), r=lr)
        for lr in lattice_r
    ]


def oracle_census(rng: random.Random) -> list[Job]:
    jobs = []
    for _ in range(4):  # 8 elements, at most one special: about equal cost
        r = rng.choice((0, 1))
        k = rng.choice((None, rng.randint(0, 8 - r)))
        jobs.append(_oracle(8 - r, r, "assoc", rng.choice((2, 3, 4)), k))
    jobs.append(_oracle(6, 2, "assoc", rng.choice((2, 3, 4)), rng.choice((None, rng.randint(0, 6)))))
    jobs.append(_oracle(8, 0, "restr", rng.choice((2, 3))))
    r7 = rng.choice((0, 1, 2))
    jobs.append(_oracle(7 - r7, r7, "assoc", rng.choice((2, 3))))
    over_r = rng.choice((0, 1, 2))
    over = _oracle(9 - over_r, over_r, "assoc", 2)
    jobs.append(Job(over.argv, "over-bound", over.params, expect_rc=2))
    return jobs


def verify_grid(rng: random.Random) -> list[Job]:
    seed = rng.randint(1, 10**9)
    return [
        # (12, 2) and (10, 3) cost about the same; (12, 3) costs a fifth more
        _verify("riordan", *rng.choice(((12, 2), (10, 3))), seed),
        # censuses up to n + r = 8, the size acceptance 08 runs; (7, 1) would
        # cost half as much again, so the grid is fixed
        _verify("oracle", 6, 2),
        _verify("howard", rng.choice((8, 9, 10)), rng.choice((2, 3))),
        # (6, 1) would cost a third more; the seed still varies the arrays
        _verify("all", 5, 2, seed),
        _verify("asymptotic", 30, rng.choice((0, 1, 2))),
    ]


WORKLOADS = {
    "recurrence-rows": recurrence_rows,
    "riordan-arrays": riordan_arrays,
    "oracle-census": oracle_census,
    "verify-grid": verify_grid,
}


def job_list(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed, the smoke job included."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed))) + [smoke_job()]


# The set-up probe: interpreter start, import of stirlingb.cli, parser build.
HELP_JOB = Job(("--help",), "help")
