"""stirlingb CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One main process runs a closed loop with one client: each job is
``python -m stirlingb.cli ...`` in a fresh child, the next job starts only
after the previous one has exited, and every job's output is checked (see
gates.py).  The seed generates the workload's job list (see workloads.py);
the list is repeated, in a seed-shuffled order each time, until the next
repeat would end past ``--seconds``.

A shared 2-vCPU virtual machine (Intel Xeon) runs the same code up to
1.9x slower while its neighbours are busy, switching within a second and
drifting over minutes.  So every job is timed together with a speed probe:
a thread of the spawner, pinned to the job's CPU, times a fixed piece of
exact-rational arithmetic every few milliseconds while the job runs.  A
job's time is reported at reference speed, ``raw * REFERENCE_PROBE_S /
mean probe time``: the time the job would take on a CPU on which the probe
takes ``REFERENCE_PROBE_S``.  Raw times are kept in the run record.
``wall_s`` and ``cpu_s`` sum, over the job list, each job's median
reference-speed time across the run's repeats.  ``setup_s`` is the median
of fresh ``--help`` spawns taken at the start of every repeat, after one
untimed warm-up spawn.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones:
every job then runs once untraced and once under trace_child.py, and the
per-layer times are raw, not at reference speed.  The last
line of stdout is one JSON object; a run record with every job's argv,
timings and exit code is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TRACE_CHILD = HERE / "trace_child.py"

JOB_TIMEOUT_S = 60.0
SETUP_PER_REPEAT = 3  # timed --help spawns at the start of each repeat
PROBE_GAP_S = 0.005  # sleep between two speed-probe samples
# The probe's time on a vCPU of the reference machine (Intel Xeon, 2 vCPU,
# Python 3.11.7) at its usual speed; it sets the scale of every time metric.
REFERENCE_PROBE_S = 0.0005


@dataclass
class Spawn:
    argv: list[str]
    wall_s: float
    cpu_s: float
    raw_wall_s: float
    raw_cpu_s: float
    probe_s: float
    max_rss_kb: int
    rc: int
    out: str
    err: str


def child_env() -> dict[str, str]:
    """The caller's environment, minus the settings that change what a job
    does: an enumeration bound override, and a ban on writing .pyc files
    that would make every job compile the package from source."""
    drop = {"STIRLINGB_MAX_ENUM", "PYTHONDONTWRITEBYTECODE"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def fastest_cpu(cpus: list[int]) -> int:
    """The CPU on which a short pure-Python loop runs fastest right now.

    Each vCPU of a shared virtual machine slows down on its own while its
    neighbours are busy; pinning each job to the CPU that is fast when it
    starts keeps the job's slowdown, and so the probe's correction, small.
    """
    best = pick = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        for _ in range(100_000):
            pass
        took = time.perf_counter() - start
        if best is None or took < best:
            best, pick = took, cpu
    return pick


def probe_work() -> int:
    """A fixed piece of the kind of work the package does: Fraction sums
    with growing big-integer denominators and dict stores."""
    total, memo = Fraction(1, 3), {}
    for i in range(60):
        total += Fraction(1, i + 2)
        memo[i] = (total * i).numerator
    return len(memo)


class SpeedProbe:
    """A thread that, while a job runs, times ``probe_work`` on the job's CPU
    every ``PROBE_GAP_S``.  It measures its own thread CPU time, so the time
    the job holds the CPU is not counted, only how fast the CPU runs.  It
    takes about a tenth of the CPU from the job, the same share every time.
    """

    def __init__(self):
        self.cpu = 0
        self.samples: list[float] = []
        self.active = threading.Event()
        self.idle = threading.Event()
        self.idle.set()
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self) -> None:
        while True:
            self.active.wait()
            os.sched_setaffinity(0, {self.cpu})
            while self.active.is_set():
                start = time.thread_time()
                probe_work()
                self.samples.append(time.thread_time() - start)
                time.sleep(PROBE_GAP_S)
            self.idle.set()

    def start(self, cpu: int) -> None:
        self.cpu, self.samples = cpu, []
        self.idle.clear()
        self.active.set()

    def stop(self) -> float:
        """The mean probe time since ``start``."""
        self.active.clear()
        self.idle.wait()
        if not self.samples:  # a job too short for one sample
            start = time.thread_time()
            probe_work()
            self.samples.append(time.thread_time() - start)
        return statistics.fmean(self.samples)


def spawn(argv: list[str], env: dict[str, str], cpus: list[int], probe: SpeedProbe) -> dict:
    """Run one child to completion, pinned to the fastest CPU (it inherits
    this thread's affinity) and timed with the speed probe on that CPU;
    wall time is from spawn to exit, CPU and max-RSS come from the child's
    own rusage."""
    cpu = fastest_cpu(cpus)
    os.sched_setaffinity(0, {cpu})
    with open(OUT / "job.stdout", "wb") as out, open(OUT / "job.stderr", "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        probe.start(cpu)
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], JOB_TIMEOUT_S)
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(pidfd)
        probe_s = probe.stop()
    cpu_s = usage.ru_utime + usage.ru_stime
    scale = REFERENCE_PROBE_S / probe_s
    return {
        "wall_s": wall * scale,
        "cpu_s": cpu_s * scale,
        "raw_wall_s": wall,
        "raw_cpu_s": cpu_s,
        "probe_s": probe_s,
        "max_rss_kb": usage.ru_maxrss,
        "rc": os.waitstatus_to_exitcode(status) if exited else -int(signal.SIGKILL),
    }


class Spawner:
    """A small process, forked before the package is imported, that starts
    every job and reports its timings.

    Linux carries the high-water RSS of the process that starts a child
    across fork and exec into the child's ``ru_maxrss``.  The main process
    grows as it builds references, so it would set a floor under every
    job's max-RSS; this process stays at the size of a bare interpreter.
    """

    def __init__(self, env: dict[str, str]):
        req_r, req_w = os.pipe()
        res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(res_r)
            try:
                cpus = sorted(os.sched_getaffinity(0))
                probe = SpeedProbe()
                with os.fdopen(req_r) as requests, os.fdopen(res_w, "w") as results:
                    for line in requests:
                        results.write(json.dumps(spawn(json.loads(line), env, cpus, probe)) + "\n")
                        results.flush()
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(res_w)
        self.requests = os.fdopen(req_w, "w")
        self.results = os.fdopen(res_r)

    def run(self, argv: list[str]) -> Spawn:
        self.requests.write(json.dumps(argv) + "\n")
        self.requests.flush()
        line = self.results.readline()
        if not line:
            raise RuntimeError("the job spawner exited early")
        return Spawn(
            argv=argv[1:],
            out=(OUT / "job.stdout").read_text(),
            err=(OUT / "job.stderr").read_text(),
            **json.loads(line),
        )

    def close(self) -> None:
        self.requests.close()
        os.waitpid(self.pid, 0)
        self.results.close()


def cli_argv(job_argv) -> list[str]:
    return [sys.executable, "-m", "stirlingb.cli", *job_argv]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def record_entry(job_id, spawn_: Spawn, traced: bool, failure: str | None) -> dict:
    return {
        "job": job_id,
        "traced": traced,
        "argv": ["python3", *spawn_.argv],
        "wall_s": spawn_.wall_s,
        "cpu_s": spawn_.cpu_s,
        "raw_wall_s": spawn_.raw_wall_s,
        "raw_cpu_s": spawn_.raw_cpu_s,
        "probe_s": spawn_.probe_s,
        "max_rss_kb": spawn_.max_rss_kb,
        "exit_code": spawn_.rc,
        "failure": failure,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    spawner = Spawner(child_env())
    try:
        return measure(spawner, workload, seed, seconds, trace)
    finally:
        spawner.close()


def measure(spawner: Spawner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import gates
    import layers
    import workloads

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "commit": git_commit(),
        "env": {"PYTHONPATH": "src", "PYTHONHASHSEED": "0"},
        "jobs": [],
    }
    counts = {"attempted": 0, "failed": 0}

    def run_job(job, job_id, argv, traced):
        result = spawner.run(argv)
        failure = gates.check(job, result.rc, result.out, result.err)
        counts["attempted"] += 1
        counts["failed"] += failure is not None
        record["jobs"].append(record_entry(job_id, result, traced, failure))
        return result, failure

    jobs = workloads.job_list(workload, seed)
    order_rng = random.Random(seed)
    trace_path = OUT / "trace.json"
    walls: list[list[float]] = [[] for _ in jobs]
    cpus: list[list[float]] = [[] for _ in jobs]
    peak_rss_kb = 0
    setup_walls: list[float] = []
    repeat_times: list[float] = []
    collector = layers.Collector()

    # The first spawn writes the .pyc files; it is not timed.
    run_job(workloads.HELP_JOB, "setup.warmup", cli_argv(["--help"]), False)
    begin = time.perf_counter()
    while not repeat_times or (
        time.perf_counter() - begin + statistics.median(repeat_times) <= seconds
    ):
        repeat = len(repeat_times)
        start = time.perf_counter()
        if not trace:
            for idx in range(SETUP_PER_REPEAT):
                result, _ = run_job(
                    workloads.HELP_JOB, "setup.%d.%d" % (repeat, idx), cli_argv(["--help"]), False
                )
                setup_walls.append(result.wall_s)
        collector.start_round()
        order = list(range(len(jobs)))
        order_rng.shuffle(order)
        for pos in order:
            job, job_id = jobs[pos], "%d.%d" % (repeat, pos)
            plain, _ = run_job(job, job_id, cli_argv(job.argv), False)
            walls[pos].append(plain.wall_s)
            cpus[pos].append(plain.cpu_s)
            peak_rss_kb = max(peak_rss_kb, plain.max_rss_kb)
            if trace:
                argv = [sys.executable, str(TRACE_CHILD), str(trace_path), job_id, *job.argv]
                traced, failure = run_job(job, job_id, argv, True)
                if failure is None:
                    collector.add(
                        json.loads(trace_path.read_text()),
                        traced_wall_s=traced.raw_wall_s,
                        plain_wall_s=plain.raw_wall_s,
                        out_bytes=len(traced.out.encode()),
                    )
        repeat_times.append(time.perf_counter() - start)

    if trace:
        metrics = collector.metrics()
    else:
        metrics = {
            "wall_s": (sum(map(statistics.median, walls)), "s"),
            "cpu_s": (sum(map(statistics.median, cpus)), "s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        }
    record["repeats"] = len(repeat_times)
    attempted, failed = counts["attempted"], counts["failed"]
    record["loadavg_after"] = os.getloadavg()
    record["fail_frac"] = failed / attempted
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    path = OUT / ("record-%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    path.write_text(json.dumps(record, indent=1))
    print("run record: %s" % path.relative_to(ROOT), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6f %s" % (name, value, unit))
    print("%-28s %14.6f %s" % ("fail_frac", failed / attempted, "ratio"))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stirlingb" / "cli.py").is_file():
        print("error: no stirlingb sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
