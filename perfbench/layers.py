"""Per-layer metrics of a traced run, aggregated from the child trace files.

Additive metrics (times, counts, bytes) are summed over the jobs of a round
and reported as the median over rounds, like the end-to-end ``wall_s``.
Ratios (``share``, ``memo_hit_ratio``, ``*_per_s``) are computed from the
sums over the whole run.  ``<layer>.share`` is the layer's self time divided
by the traced wall time of the jobs: the most that layer can save.
"""

from __future__ import annotations

import statistics

import spans as spanlib

LAYERS = ("cli", "sequences", "fps", "riordan", "permcore", "verify")

# (name, unit, better); the order is the order of the report.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.share", "ratio", "lower"),
    ("cli.out_bytes", "B", "lower"),
    ("sequences.self_s", "s", "lower"),
    ("sequences.share", "ratio", "lower"),
    ("sequences.calls", "count", "lower"),
    ("sequences.memo_hit_ratio", "ratio", "higher"),
    ("sequences.memo_entries", "count", "lower"),
    ("fps.self_s", "s", "lower"),
    ("fps.share", "ratio", "lower"),
    ("fps.mul_s", "s", "lower"),
    ("fps.mul_calls", "count", "lower"),
    ("fps.compose_s", "s", "lower"),
    ("fps.revert_s", "s", "lower"),
    ("fps.revert_calls", "count", "lower"),
    ("fps.reciprocal_s", "s", "lower"),
    ("fps.max_order", "count", "lower"),
    ("riordan.self_s", "s", "lower"),
    ("riordan.share", "ratio", "lower"),
    ("riordan.table_build_s", "s", "lower"),
    ("riordan.invert_s", "s", "lower"),
    ("riordan.production_s", "s", "lower"),
    ("riordan.entries_read", "count", "lower"),
    ("permcore.self_s", "s", "lower"),
    ("permcore.share", "ratio", "lower"),
    ("permcore.censuses", "count", "lower"),
    ("permcore.signed_perms", "count", "lower"),
    ("permcore.signed_perms_per_s", "1/s", "higher"),
    ("verify.self_s", "s", "lower"),
    ("verify.share", "ratio", "lower"),
    ("verify.comparisons", "count", "higher"),
    ("verify.comparisons_per_s", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

# Counters the child reports that add up over jobs.
SUMMED_COUNTS = (
    "fps.mul_calls",
    "fps.revert_calls",
    "riordan.entries_read",
    "permcore.censuses",
    "permcore.signed_perms",
    "verify.comparisons",
)


class Collector:
    def __init__(self):
        self.rounds: list[dict[str, float]] = []
        self.import_s: list[float] = []
        self.memo_hits = self.memo_misses = 0
        self.memo_entries = self.max_order = 0

    def start_round(self) -> None:
        self.rounds.append({})

    def add(self, trace: dict, traced_wall_s: float, plain_wall_s: float, out_bytes: int) -> None:
        """Fold one traced job into the current round."""
        cur = self.rounds[-1]

        def bump(key, value):
            cur[key] = cur.get(key, 0) + value

        spans = trace["spans"]
        self_s = spanlib.layer_self_seconds(spans)
        for layer in LAYERS:
            bump(layer + ".self_s", self_s.get(layer, 0.0))
        bump("sequences.calls", spanlib.span_counts(spans).get("sequences", 0))
        bump("verify.inclusive_s", spanlib.layer_inclusive_seconds(spans, "verify"))
        for kernel, seconds in trace["kernel_s"].items():
            bump(kernel + "_s", seconds)
        for name in SUMMED_COUNTS:
            bump(name, trace["counts"].get(name, 0))
        bump("cli.out_bytes", out_bytes)
        bump("traced_wall_s", traced_wall_s)
        bump("trace.overhead_s", traced_wall_s - plain_wall_s)
        self.import_s.append(trace["cli.import_s"])
        self.memo_hits += trace["sequences.memo_hits"]
        self.memo_misses += trace["sequences.memo_misses"]
        self.memo_entries = max(self.memo_entries, trace["sequences.memo_entries"])
        self.max_order = max(self.max_order, trace["counts"]["fps.max_order"])

    def metrics(self) -> dict[str, tuple[float, str]]:
        def total(key):
            return sum(r.get(key, 0) for r in self.rounds)

        values = {
            name: statistics.median(r.get(name, 0) for r in self.rounds)
            for name, _, _ in PER_LAYER
        }
        wall = total("traced_wall_s")
        for layer in LAYERS:
            values[layer + ".share"] = total(layer + ".self_s") / wall
        lookups = self.memo_hits + self.memo_misses
        values["sequences.memo_hit_ratio"] = self.memo_hits / lookups if lookups else 0.0
        values["sequences.memo_entries"] = self.memo_entries
        values["fps.max_order"] = self.max_order
        values["cli.import_s"] = statistics.median(self.import_s)
        permcore_s = total("permcore.self_s")
        values["permcore.signed_perms_per_s"] = (
            total("permcore.signed_perms") / permcore_s if permcore_s else 0.0
        )
        verify_s = total("verify.inclusive_s")
        values["verify.comparisons_per_s"] = (
            total("verify.comparisons") / verify_s if verify_s else 0.0
        )
        return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
