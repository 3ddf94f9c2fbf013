"""The exhaustive oracle: signed permutations counted by their cycles.

A signed permutation of [n] maps i to +v or -v ("v barred"); there are
2^n n! of them.  Its cycles are taken on absolute values, and a cycle is
*all-barred* when every value in it is barred.

The counting oracle counts, for the first r elements "special", the signed
permutations whose every cycle either has window length inside the mode's
range (order >= m for "assoc", order <= m for "restr") or is all-barred,
with the special elements in distinct cycles.  Bars do not move the cycles,
so it credits each permutation 2^(values outside forced cycles) sign
choices: a cycle outside the window is forced all-barred, any other bar is
free, so that is the number of sign masks an exhaustive count over all 2^n
of them would accept.  Whether a permutation qualifies, and for which k,
depends only on its sorted cycle lengths and on how many leading elements
lie in distinct cycles, and both are fixed by its set partition into
cycles.  So one walk per size visits each set partition once, credits it
the (L-1)! cyclic orders of each block of L elements, and tallies it by
those two facts (`_tally`); every census of that size, for any r, mode and
m, is read off the tally.  Both are cached: the tally per size, the census
per query.  The oracle is the ground truth the closed forms, recurrences
and Riordan constructions are tested against, and shares no counting code
with them: it imports only the standard library.
"""

from functools import lru_cache

__all__ = [
    "DEFAULT_MAX_ENUM",
    "EnumerationLimitError",
    "check_bound",
    "oracle_triangle",
    "oracle_total",
]

DEFAULT_MAX_ENUM = 8

MODES = ("assoc", "restr")


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the size bound."""


def check_bound(size: int, bound: int | None = None) -> None:
    """Raise EnumerationLimitError if enumerating `size` elements would
    exceed `bound` (DEFAULT_MAX_ENUM when None), ValueError if bound < 0."""
    limit = DEFAULT_MAX_ENUM if bound is None else bound
    if limit < 0:
        raise ValueError("bound must be >= 0, got %d" % limit)
    if size > limit:
        raise EnumerationLimitError(
            "enumeration over %d elements exceeds the bound %d "
            "(override with --max-enum)" % (size, limit)
        )


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

    The walk builds each set partition once, its blocks the cycles: element
    j opens a new block or joins one.  Inserting j after any of the L
    elements of a block gives L permutations with the same key, so a join
    counts them at once: `weight`, the product of L over the joins, is
    prod (L_B - 1)!, the permutations with those blocks as cycles.  Joins
    never merge blocks, so R is the first element that joins a block (size
    if none does).  A leaf adds `weight` to its key, R plus (size+1)^L over
    the blocks: digit L in base size+1 counts cycles of length L.
    """
    base = size + 1
    grow = [base ** (length + 1) - base**length for length in range(size)]
    lens = [0] * size  # the length of each open block
    keys: dict[int, int] = {}
    last = size - 1

    def walk(j: int, cycles: int, key: int, weight: int) -> None:
        # elements 0..j-1 are placed in `cycles` blocks; while each of them
        # opened its own (cycles == j), placing j in a block fixes R = j
        leading = cycles == j
        joined = key + j if leading else key
        if j == last:
            leaf = key + base + (size if leading else 0)
            keys[leaf] = keys.get(leaf, 0) + weight
            for length in lens[:cycles]:
                leaf = joined + grow[length]
                keys[leaf] = keys.get(leaf, 0) + weight * length
            return
        lens[cycles] = 1
        walk(j + 1, cycles + 1, key + base, weight)
        for c in range(cycles):
            length = lens[c]
            lens[c] = length + 1
            walk(j + 1, cycles, joined + grow[length], weight * length)
            lens[c] = length

    if size == 0:
        keys[0] = 1
    else:
        walk(0, 0, 0, 1)
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
