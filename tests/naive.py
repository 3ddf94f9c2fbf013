"""The naive signed-permutation model: the tests' reference for the oracle.

A signed permutation of [n] maps i to +v or -v ("v barred") such that the
absolute images form an ordinary permutation; there are 2^n n! of them.  The
cycle decomposition here follows the convention of computing cycles on
absolute values and reattaching each bar to the value that carries it in
one-line notation, e.g.

    (-4, 6, -3, 5, 1, -2, -9, 8, 7)  ->  (1 4b 5)(2b 6)(3b)(7 9b)(8)

where "b" marks a barred value.  A cycle is *all-barred* when every value in
it is barred; a singleton (v) unbarred is a true fixed point, (vb) is not.

Every permutation is built as an object and decomposed one at a time, so
this model shares no counting code with `stirlingb.permcore`, whose oracle
counts sign choices in closed form; the tests check one against the other.
"""

import itertools

from stirlingb._record import Record
from stirlingb.permcore import check_bound


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
