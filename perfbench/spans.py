"""Self-time arithmetic over the span records a traced child writes.

A span is ``[job, name, layer, start_ns, end_ns, parent]`` where ``parent``
is the index of the enclosing span of the same job, or ``None`` for the
root.  A span's self time is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

JOB, NAME, LAYER, START, END, PARENT = range(6)


def self_times(spans: list[list]) -> list[int]:
    """Self time in ns of each span, in the order given."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0
        reach = lo
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    """Self time per layer, in seconds."""
    totals: dict[str, float] = {}
    for span, ns in zip(spans, self_times(spans)):
        totals[span[LAYER]] = totals.get(span[LAYER], 0.0) + ns / 1e9
    return totals


def layer_inclusive_seconds(spans: list[list], layer: str) -> float:
    """Inclusive time of the outermost spans of one layer, in seconds."""
    total = 0
    for span in spans:
        if span[LAYER] != layer:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][LAYER] != layer:
            parent = spans[parent][PARENT]
        if parent is None:
            total += span[END] - span[START]
    return total / 1e9


def span_counts(spans: list[list]) -> dict[str, int]:
    """Number of spans (calls crossing into the layer) per layer."""
    counts: dict[str, int] = {}
    for span in spans:
        counts[span[LAYER]] = counts.get(span[LAYER], 0) + 1
    return counts
