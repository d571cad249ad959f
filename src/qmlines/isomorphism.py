"""Relabelings of betweenness relations, canonical forms, isomorphism witnesses.

Canonical forms and witnesses are read off :func:`qmlines.encoding.orbit`,
the images of an encoding under all n! relabelings in lexicographic
permutation order; at the sizes this package verifies (n <= 4, i.e. 24
permutations) anything cleverer would be noise.  That brute force is capped
at n! <= 8!; :func:`apply_relabeling` maps triples directly and works at any n.
"""

from .core import Betweenness, _Value
from .encoding import nth_permutation, orbit


class Relabeling(_Value):
    """A bijection on 0..n-1, stored as the image sequence."""

    __slots__ = _compared = ("perm",)
    perm: tuple[int, ...]

    def __init__(self, perm):
        perm = tuple(perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
        object.__setattr__(self, "perm", perm)

    @property
    def n(self) -> int:
        return len(self.perm)

    def __call__(self, i: int) -> int:
        return self.perm[i]


def apply_relabeling(b: Betweenness, f: Relabeling) -> Betweenness:
    """The image relation {(f(x), f(y), f(z)) : (x,y,z) in b}."""
    if f.n != b.n:
        raise ValueError(f"relabeling size {f.n} does not match point count {b.n}")
    p = f.perm
    return Betweenness.from_triples(b.n, ((p[x], p[y], p[z]) for (x, y, z) in b.triples))


def canonical_form(b: Betweenness) -> tuple[Betweenness, Relabeling]:
    """The minimum-encoding representative of b's isomorphism class.

    Also returns a relabeling achieving it; among minimizers, the
    lexicographically smallest permutation is chosen, so the witness is
    deterministic.  Idempotent on its own output.
    """
    images = orbit(b.n, b.mask)
    best = min(images)
    return Betweenness(b.n, best), Relabeling(nth_permutation(b.n, images.index(best)))


def isomorphism_witness(b1: Betweenness, b2: Betweenness) -> Relabeling | None:
    """Some relabeling f with f(b1) = b2, or None if the two are not isomorphic.

    Returns the lexicographically smallest such f.
    """
    if b1.n != b2.n:
        raise ValueError(f"point counts differ: {b1.n} vs {b2.n}")
    images = orbit(b1.n, b1.mask)
    if b2.mask not in images:
        return None
    return Relabeling(nth_permutation(b1.n, images.index(b2.mask)))
