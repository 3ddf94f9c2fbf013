"""Run one stirlingb CLI command with layer-boundary spans recorded.

    python perfbench/trace_child.py TRACE_OUT JOB_ID CLI_ARG...

The package is imported from ``PYTHONPATH`` and left unmodified on disk.
After import, the callables each layer exposes to the other layers are
wrapped in memory:

* a module that another layer holds (``cli``'s ``sequences`` and
  ``verify``, ``verify``'s ``sequences``) is replaced, in the holder only, by
  a copy whose public functions are wrapped;
* a function imported by name from another layer is wrapped in the
  importer's namespace only;
* public methods and arithmetic operators of every class a layer defines
  (``FormalPowerSeries``, ``ExpRiordanArray``, ...) are wrapped on the
  class.

A wrapper opens a span only when the call crosses from one layer into
another, so recursion inside a layer costs nothing and opens no span.
``numeric`` is not a layer: its time counts inside its caller.  Kernel
timers (``fps.mul`` and friends) add the inclusive time of the outermost
call of that kernel.  Spans and counters stay in memory and are written to
TRACE_OUT as JSON when the command returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from math import factorial

LAYERS = ("cli", "sequences", "fps", "riordan", "permcore", "verify")
PACKAGE = "stirlingb"

# Method name -> kernel; a kernel's time is that of its outermost call.
KERNELS = {
    ("fps", "__mul__"): "fps.mul",
    ("fps", "__rmul__"): "fps.mul",
    ("fps", "compose"): "fps.compose",
    ("fps", "revert"): "fps.revert",
    ("fps", "reciprocal"): "fps.reciprocal",
    ("riordan", "_table"): "riordan.table_build",
    ("riordan", "invert"): "riordan.invert",
    ("riordan", "production_sequences"): "riordan.production",
    ("riordan", "production_rebuild"): "riordan.production",
}
# Method name -> counter incremented on every call, crossing or not.
COUNTERS = {
    ("fps", "__mul__"): "fps.mul_calls",
    ("fps", "__rmul__"): "fps.mul_calls",
    ("fps", "revert"): "fps.revert_calls",
    ("riordan", "entry"): "riordan.entries_read",
}
WRAPPED_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__",
}


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent]
        self.stack: list[int] = []
        self.layer: str | None = None
        self.kernel_ns: dict[str, int] = {}
        self.kernel_depth: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.max_order = 0

    def wrap(self, layer: str, name: str, fn, on_return=None):
        """``fn`` wrapped as a call into ``layer``."""
        kernel = KERNELS.get((layer, name))
        counter = COUNTERS.get((layer, name))
        is_mul = kernel == "fps.mul"
        clock = time.perf_counter_ns
        spans, stack, counts = self.spans, self.stack, self.counts
        depth, kernel_ns = self.kernel_depth, self.kernel_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + 1
            if is_mul and len(args[0].coeffs) - 1 > self.max_order:
                self.max_order = len(args[0].coeffs) - 1
            crossing = self.layer != layer
            timed = kernel is not None and not depth.get(kernel)
            if not crossing and not timed:
                if kernel is not None:
                    depth[kernel] += 1
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        depth[kernel] -= 1
                return fn(*args, **kwargs)
            outer = self.layer
            if crossing:
                idx = len(spans)
                spans.append([name, layer, 0, 0, stack[-1] if stack else None])
                stack.append(idx)
                self.layer = layer
            if kernel is not None:
                depth[kernel] = depth.get(kernel, 0) + 1
            start = clock()
            if crossing:
                spans[idx][2] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if kernel is not None:
                    depth[kernel] -= 1
                    if timed:
                        kernel_ns[kernel] = kernel_ns.get(kernel, 0) + end - start
                if crossing:
                    spans[idx][3] = end
                    stack.pop()
                    self.layer = outer
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        proxies = {name: self._proxy(name, mod) for name, mod in modules.items()}
        for holder_name, holder in modules.items():
            for attr, value in list(vars(holder).items()):
                if isinstance(value, types.ModuleType):
                    target = _layer_of(getattr(value, "__name__", ""))
                    if target in proxies and target != holder_name:
                        setattr(holder, attr, proxies[target])
                    continue
                target = _layer_of(getattr(value, "__module__", None) or "")
                if (
                    target is not None
                    and target != holder_name
                    and callable(value)
                    and not isinstance(value, type)
                ):
                    setattr(holder, attr, self.wrap(target, attr, value))
        for layer, mod in modules.items():
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer)
        self._count_censuses(modules["permcore"])

    def _proxy(self, layer: str, mod: types.ModuleType) -> types.ModuleType:
        proxy = types.ModuleType(mod.__name__, mod.__doc__)
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == mod.__name__
            ):
                hook = self._on_report if attr == "run_scope" else None
                value = self.wrap(layer, attr, value, on_return=hook)
            setattr(proxy, attr, value)
        return proxy

    def _on_report(self, report) -> None:
        self.counts["verify.comparisons"] = (
            self.counts.get("verify.comparisons", 0) + report.comparisons
        )

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if isinstance(value, functools.cached_property):
                prop = functools.cached_property(self.wrap(layer, attr, value.func))
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)
            elif attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            elif isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self.wrap(layer, attr, value.__func__)))
            elif isinstance(value, types.FunctionType):
                setattr(cls, attr, self.wrap(layer, attr, value))

    def _count_censuses(self, permcore: types.ModuleType) -> None:
        """Count cold censuses and the signed permutations each enumerates."""
        census = permcore._census
        counts = self.counts

        def counted(n, r, mode, m):
            before = census.cache_info().misses
            result = census(n, r, mode, m)
            if census.cache_info().misses > before:
                size = n + r
                counts["permcore.censuses"] = counts.get("permcore.censuses", 0) + 1
                counts["permcore.signed_perms"] = (
                    counts.get("permcore.signed_perms", 0) + (factorial(size) << size)
                )
            return result

        permcore._census = counted

    # -- output -----------------------------------------------------------------

    def memo_stats(self, sequences: types.ModuleType) -> dict[str, int]:
        hits = misses = entries = 0
        for value in vars(sequences).values():
            info = getattr(value, "cache_info", None)
            if info is not None and getattr(value, "__module__", None) == sequences.__name__:
                stats = info()
                hits += stats.hits
                misses += stats.misses
                entries += stats.currsize
        return {
            "sequences.memo_hits": hits,
            "sequences.memo_misses": misses,
            "sequences.memo_entries": entries,
        }

    def dump(self, path: str, extra: dict) -> None:
        record = {
            "job": self.job,
            "spans": [[self.job, *span] for span in self.spans],
            "kernel_s": {k: v / 1e9 for k, v in self.kernel_ns.items()},
            "counts": dict(self.counts, **{"fps.max_order": self.max_order}),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def _layer_of(module_name: str) -> str | None:
    prefix = PACKAGE + "."
    if module_name.startswith(prefix):
        layer = module_name[len(prefix):]
        if layer in LAYERS:
            return layer
    return None


def main(argv: list[str]) -> int:
    out_path, job, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter_ns()
    import importlib

    cli = importlib.import_module(PACKAGE + ".cli")
    import_s = (time.perf_counter_ns() - start) / 1e9
    modules = {name: importlib.import_module(PACKAGE + "." + name) for name in LAYERS}
    tracer = Tracer(job)
    tracer.install(modules)
    run_cli = tracer.wrap("cli", "main", cli.main)
    try:
        return run_cli(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(
            out_path,
            {"cli.import_s": import_s, **tracer.memo_stats(modules["sequences"])},
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
