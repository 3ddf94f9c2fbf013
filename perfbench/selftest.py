"""Self-tests of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Not part of the package's test
suite: it tests the benchmark's gates, span arithmetic and metric names.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
ENV.pop("STIRLINGB_MAX_ENUM", None)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def cli(argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "stirlingb.cli", *argv], capture_output=True, text=True, env=ENV
    )


def plant_wrong_digit(text: str) -> str:
    """Change the last digit of the longest number in ``text``."""
    number = max(re.finditer(r"\d+", text), key=lambda m: len(m[0]))
    pos = number.end() - 1
    return text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]


class GateTests(unittest.TestCase):
    JOBS = [
        workloads._table(None, "stirling-b", 12, fmt="pretty", m=2, r=2),
        workloads._table(None, "stirling-b", 20, fmt="csv", m=3, r=1),
        workloads._table(None, "stirling-a", 15, fmt="json", m=3, mode="assoc"),
        workloads._table(None, "stirling-a", 15, fmt="pretty", m=2, mode="restr"),
        workloads._table(None, "inverse", 8, fmt="csv", m=2, r=3),
        workloads.Job(("seq", "d", "--terms", "12", "--r", "3", "--format", "json"), "seq-d",
                      {"terms": 12, "r": 3, "fmt": "json"}),
        workloads.Job(("seq", "tree", "--terms", "8", "--format", "pretty"), "seq-tree",
                      {"terms": 8, "fmt": "pretty"}),
        workloads.Job(("seq", "lattice", "--terms", "9", "--r", "2", "--format", "csv"),
                      "seq-lattice", {"terms": 9, "r": 2, "fmt": "csv"}),
        workloads._oracle(4, 1, "assoc", 3, 2),
        workloads._oracle(5, 0, "restr", 2),
    ]

    def test_right_output_passes_and_planted_wrong_digit_fails(self):
        for job in self.JOBS:
            with self.subTest(argv=job.argv):
                done = cli(job.argv)
                self.assertIsNone(gates.check(job, done.returncode, done.stdout, done.stderr))
                wrong = plant_wrong_digit(done.stdout)
                self.assertIsNotNone(gates.check(job, done.returncode, wrong, done.stderr))

    def test_verify_counts_match_the_grid_and_a_lost_comparison_fails(self):
        for scope, max_n, max_r in [
            ("riordan", 3, 1), ("oracle", 3, 1), ("howard", 4, 1),
            ("asymptotic", 30, 1), ("all", 2, 1), ("all", 0, 0),
        ]:
            with self.subTest(scope=scope, max_n=max_n, max_r=max_r):
                job = workloads._verify(scope, max_n, max_r)
                done = cli(job.argv)
                self.assertIsNone(gates.check(job, done.returncode, done.stdout, done.stderr))
                scope_line = done.stdout.splitlines()[-1]
                checks, comparisons = map(int, re.findall(r"\d+", scope_line)[-2:])
                self.assertEqual(gates.expected_verify(scope, max_n, max_r), (checks, comparisons))
        job = workloads._verify("howard", 4, 1)
        done = cli(job.argv)
        fewer = re.sub(r"\((\d+) comparisons\)", lambda m: "(%d comparisons)" % (int(m[1]) - 1),
                       done.stdout)
        self.assertIsNotNone(gates.check(job, 0, fewer, ""))

    def test_over_bound_job_must_exit_2_without_traceback(self):
        over = workloads._oracle(8, 1, "assoc", 2)
        job = workloads.Job(over.argv, "over-bound", over.params, expect_rc=2)
        done = cli(job.argv)
        self.assertIsNone(gates.check(job, done.returncode, done.stdout, done.stderr))
        self.assertIsNotNone(gates.check(job, 0, "", ""))
        self.assertIsNotNone(gates.check(job, 2, "", "Traceback (most recent call last):\n"))


class SpanTests(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        # cli 0..100 > sequences 10..60 > fps 20..30 and fps 40..45;
        #             cli > riordan 70..90 > fps 75..80
        tree = [
            ["j", "main", "cli", 0, 100, None],
            ["j", "a", "sequences", 10, 60, 0],
            ["j", "b", "fps", 20, 30, 1],
            ["j", "c", "fps", 40, 45, 1],
            ["j", "d", "riordan", 70, 90, 0],
            ["j", "e", "fps", 75, 80, 4],
        ]
        self.assertEqual(spans.self_times(tree), [30, 35, 10, 5, 15, 5])
        self.assertEqual(
            spans.layer_self_seconds(tree),
            {"cli": 30e-9, "sequences": 35e-9, "fps": 20e-9, "riordan": 15e-9},
        )
        self.assertAlmostEqual(spans.layer_inclusive_seconds(tree, "fps"), 20e-9)
        self.assertEqual(spans.span_counts(tree)["fps"], 3)

    def test_overlapping_children_are_counted_once(self):
        tree = [["j", "p", "cli", 0, 10, None], ["j", "x", "fps", 2, 6, 0],
                ["j", "y", "fps", 4, 8, 0]]
        self.assertEqual(spans.self_times(tree)[0], 4)

    def test_traced_child_spans_form_a_tree_rooted_at_cli(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "trace.json"
            done = subprocess.run(
                [sys.executable, str(HERE / "trace_child.py"), str(out), "t",
                 "verify", "all", "--max-n", "2", "--max-r", "1"],
                capture_output=True, text=True, env=ENV,
            )
            self.assertEqual(done.returncode, 0, done.stderr)
            trace = json.loads(out.read_text())
        tree = trace["spans"]
        self.assertEqual(tree[0][spans.LAYER], "cli")
        self.assertIsNone(tree[0][spans.PARENT])
        for idx, span in enumerate(tree[1:], 1):
            parent = tree[span[spans.PARENT]]
            self.assertLess(span[spans.PARENT], idx)
            self.assertNotEqual(parent[spans.LAYER], span[spans.LAYER])
            self.assertLessEqual(parent[spans.START], span[spans.START])
            self.assertLessEqual(span[spans.END], parent[spans.END])
        self.assertEqual(
            set(spans.span_counts(tree)), {"cli", "sequences", "fps", "riordan", "permcore", "verify"}
        )
        self.assertGreater(trace["counts"]["verify.comparisons"], 0)
        self.assertTrue(all(t >= 0 for t in spans.self_times(tree)))


class MetricNameTests(unittest.TestCase):
    def test_names_are_valid_and_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        per_layer = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(end_to_end, {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"})
        self.assertEqual(per_layer, {name for name, _, _ in layers.PER_LAYER})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        for name in end_to_end | per_layer | set(workloads.WORKLOADS):
            self.assertRegex(name, METRIC_NAME)


if __name__ == "__main__":
    unittest.main()
