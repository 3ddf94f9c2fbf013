"""Exact computation of signed-permutation cycle statistics.

The package computes restricted and associated r-Stirling numbers of type B
and the matching derangement-style counts along several independent routes
(recurrences, explicit sums, exponential Riordan arrays, egf coefficients)
and can cross-check all of them against a brute-force enumeration oracle.

The package exports exactly the `__all__` names of `fps`, `permcore`,
`riordan` and `sequences`.  Each layer loads on first use (PEP 562):
`stirlingb.<layer>` loads it, `__all__` loads all four, and a name loads
the layers up to its own in the order `permcore`, `sequences`, `fps`,
`riordan`, so a `permcore` or `sequences` name loads no series layer.
`cli` and `verify` hold the layers they may not read through `_on_first_read`.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the order a name is looked up in: the layers that need no series first
_LAYERS = ("permcore", "sequences", "fps", "riordan")


def _on_first_read(name: str):
    """The layer `name`, registered in sys.modules now and run on its first
    attribute read (the importlib.util.LazyLoader recipe), unless imported."""
    name = __name__ + "." + name
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module("." + name, __name__)
    if name == "__all__":
        names = (n for layer in _LAYERS for n in __getattr__(layer).__all__)
        return sorted(names) + ["__version__"]
    # a private name or a submodule (cli, verify) is no export: looking one
    # up loads no layer
    if not name.startswith("_") and not importlib.util.find_spec("." + name, __name__):
        for layer in map(__getattr__, _LAYERS):
            if name in layer.__all__:
                # later reads find it in the module dict
                globals()[name] = value = getattr(layer, name)
                return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
