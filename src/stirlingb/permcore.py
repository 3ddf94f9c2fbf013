"""Signed permutations, cycle decomposition, and the exhaustive oracle.

A signed permutation of [n] maps i to +v or -v ("v barred") such that the
absolute images form an ordinary permutation; there are 2^n n! of them.  The
cycle decomposition here follows the convention of computing cycles on
absolute values and reattaching each bar to the value that carries it in
one-line notation, e.g.

    (-4, 6, -3, 5, 1, -2, -9, 8, 7)  ->  (1 4b 5)(2b 6)(3b)(7 9b)(8)

where "b" marks a barred value.  A cycle is *all-barred* when every value in
it is barred; a singleton (v) unbarred is a true fixed point, (vb) is not.

The counting oracle counts, for the first r elements "special", the signed
permutations whose every cycle either has window length inside the mode's
range (order >= m for "assoc", order <= m for "restr") or is all-barred,
with the special elements in distinct cycles.  Bars do not move the cycles,
so it credits each permutation 2^(values outside forced cycles) sign
choices: a cycle outside the window is forced all-barred, any other bar is
free, so that is the number of sign masks an exhaustive count over all 2^n
of them would accept.  Whether a permutation qualifies, and for which k,
depends only on its sorted cycle lengths and on how many leading elements
lie in distinct cycles.  So one walk per size builds every permutation once,
directly in cycle form, and tallies it by those two facts (`_tally`); every
census of that size, for any r, mode and m, is read off the tally.  Both
are cached: the tally per size, the census per query.  The oracle is the
ground truth the closed forms, recurrences and Riordan constructions are
tested against, and shares no counting code with them: it imports only the
standard library and the record base.
"""

import itertools
from functools import lru_cache

from ._record import Record

__all__ = [
    "DEFAULT_MAX_ENUM",
    "EnumerationLimitError",
    "Cycle",
    "CycleDecomposition",
    "SignedPermutation",
    "check_bound",
    "cycle_decompose",
    "enumerate_signed",
    "is_derangement_B",
    "oracle_triangle",
    "oracle_total",
]

DEFAULT_MAX_ENUM = 8

MODES = ("assoc", "restr")


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the size bound."""


def check_bound(size: int, bound: int | None = None) -> None:
    """Raise EnumerationLimitError if enumerating `size` elements would
    exceed `bound` (DEFAULT_MAX_ENUM when None)."""
    limit = DEFAULT_MAX_ENUM if bound is None else bound
    if size > limit:
        raise EnumerationLimitError(
            "enumeration over %d elements exceeds the bound %d "
            "(override with --max-enum)" % (size, limit)
        )


class SignedPermutation(Record):
    """One-line notation: image[i-1] = sigma(i), negative meaning barred."""

    _fields = ("image",)

    def __init__(self, image: tuple[int, ...]):
        if sorted(abs(v) for v in image) != list(range(1, len(image) + 1)):
            raise ValueError("image must be a signing of a permutation of 1..n")
        self.image = image

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        """sigma(i) for i in +-1..+-n; sigma(-i) = -sigma(i)."""
        if i > 0:
            return self.image[i - 1]
        return -self.image[-i - 1]


class Cycle(Record):
    """One cycle, entries signed, starting at the minimal absolute value."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        self.entries = entries

    @property
    def order(self) -> int:
        """Number of values in the cycle window (bars ignored)."""
        return len(self.entries)

    @property
    def all_barred(self) -> bool:
        return all(v < 0 for v in self.entries)

    def contains_special(self, r: int) -> bool:
        """True if any value 1..r (special, by absolute value) is in the cycle."""
        return any(abs(v) <= r for v in self.entries)


class CycleDecomposition(Record):
    _fields = ("cycles",)

    def __init__(self, cycles: tuple[Cycle, ...]):
        self.cycles = cycles

    def reconstruct(self) -> SignedPermutation:
        size = sum(c.order for c in self.cycles)
        image = [0] * size
        for cycle in self.cycles:
            es = cycle.entries
            for i, e in enumerate(es):
                image[abs(e) - 1] = es[(i + 1) % len(es)]
        return SignedPermutation(tuple(image))


def enumerate_signed(n: int, *, bound: int | None = None):
    """Yield all 2^n n! signed permutations of [n], deterministically."""
    if n < 0:
        raise ValueError("n must be >= 0")
    check_bound(n, bound)
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(p * s for p, s in zip(perm, signs)))


def cycle_decompose(sigma: SignedPermutation) -> CycleDecomposition:
    """Cycles on absolute values, bars reattached from one-line notation.

    Each cycle starts at its minimal absolute value; cycles are sorted by
    that minimum.  The bar on a value is the sign it carries as an image,
    i.e. entry w in a cycle is barred exactly when sigma(predecessor) = -w.
    """
    img = sigma.image
    n = len(img)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        orbit = []
        v = start
        while not seen[v]:
            seen[v] = True
            orbit.append(v)
            v = abs(img[v - 1])
        signed = tuple(img[orbit[i - 1] - 1] for i in range(len(orbit)))
        cycles.append(Cycle(signed))
    return CycleDecomposition(tuple(cycles))


def is_derangement_B(sigma: SignedPermutation) -> bool:
    """No i with sigma(i) = +i (barred 'fixed points' are allowed)."""
    return all(v != i + 1 for i, v in enumerate(sigma.image))


def _window_ok(length: int, mode: str, m: int) -> bool:
    if mode == "assoc":
        return length >= m
    return length <= m


def _check_query(n: int, r: int, mode: str, m: int, bound: int | None) -> None:
    """The argument checks of the oracle queries, in order: n and r, mode, m,
    then the enumeration bound."""
    if n < 0 or r < 0:
        raise ValueError("n and r must be >= 0")
    if mode not in MODES:
        raise ValueError("mode must be one of %s, got %r" % (MODES, mode))
    if m < 0:
        raise ValueError("m must be >= 0")
    check_bound(n + r, bound)


@lru_cache(maxsize=None)
def _tally(size: int) -> dict[tuple[tuple[int, ...], int], int]:
    """(sorted cycle lengths, R) -> number of permutations of 0..size-1, R
    the largest r with 0..r-1 in distinct cycles.  Callers share the dict.

    The walk builds each permutation once, in cycle form: element j opens a
    new cycle or goes right after one of 0..j-1, and each of those j+1
    choices gives a distinct permutation.  Insertions never merge cycles, so
    R is the first element that joins a cycle (size if none does).  A leaf's
    key is R plus (size+1)^L summed over the cycles, L their lengths: digit
    L in base size+1 counts cycles of length L, and digit 0 is R.
    """
    base = size + 1
    grow = [base ** (length + 1) - base**length for length in range(size)]
    owner = [0] * size  # the cycle of each placed element
    lens = [0] * size  # the length of each open cycle
    keys: dict[int, int] = {}
    last = size - 1

    def walk(j: int, cycles: int, key: int) -> None:
        # elements 0..j-1 are placed in `cycles` cycles; while each of them
        # opened its own (cycles == j), placing j in a cycle fixes R = j
        leading = cycles == j
        joined = key + j if leading else key
        if j == last:
            leaf = key + base + (size if leading else 0)
            keys[leaf] = keys.get(leaf, 0) + 1
            for c in owner[:j]:
                leaf = joined + grow[lens[c]]
                keys[leaf] = keys.get(leaf, 0) + 1
            return
        owner[j] = cycles
        lens[cycles] = 1
        walk(j + 1, cycles + 1, key + base)
        for c in owner[:j]:
            length = lens[c]
            owner[j] = c
            lens[c] = length + 1
            walk(j + 1, cycles, joined + grow[length])
            lens[c] = length

    if size == 0:
        keys[0] = 1
    else:
        walk(0, 0, 0)
    tally = {}
    for key, count in keys.items():
        code, lead = divmod(key, base)
        lengths: list[int] = []
        length = 1
        while code:
            code, digit = divmod(code, base)
            lengths += [length] * digit
            length += 1
        tally[tuple(lengths), lead] = count
    return tally


@lru_cache(maxsize=None)
def _census(n: int, r: int, mode: str, m: int) -> tuple[int, ...]:
    """counts[k] = signed permutations of [n+r] with k+r cycles such that
    every cycle is inside the mode/m window or all-barred and the special
    values 1..r lie in distinct cycles, read off the tally of size n+r: a
    key qualifies when R >= r (specials 0..r-1, 0-based), and each of its
    permutations is credited 2^free, free = values outside window-breaking
    cycles: their bars are forced and the rest are free, which is exactly
    how many of the 2^(n+r) sign masks the exhaustive count would accept.
    """
    size = n + r
    counts = [0] * (n + 1)
    inside = [_window_ok(length, mode, m) for length in range(size + 1)]
    for (lengths, lead), count in _tally(size).items():
        if lead >= r:
            free = size - sum(length for length in lengths if not inside[length])
            counts[len(lengths) - r] += count << free
    return tuple(counts)


def oracle_triangle(
    n: int, r: int, k: int, mode: str, m: int, *, bound: int | None = None
) -> int:
    """Exhaustive count of signed permutations of [n+r] with k+r cycles,
    special elements 1..r in distinct cycles, and every cycle either inside
    the mode/m window or all-barred.
    """
    _check_query(n, r, mode, m, bound)
    if k < 0 or k > n:
        return 0
    return _census(n, r, mode, m)[k]


def oracle_total(n: int, r: int, mode: str, m: int, *, bound: int | None = None) -> int:
    """Sum of oracle_triangle over all k (0..n)."""
    _check_query(n, r, mode, m, bound)
    return sum(_census(n, r, mode, m))
