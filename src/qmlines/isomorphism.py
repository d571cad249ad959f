"""Relabelings of betweenness relations, canonical forms, isomorphism witnesses.

Canonical forms and witnesses are read off :func:`qmlines.encoding.orbit`,
the images of an encoding under all n! relabelings in lexicographic
permutation order, capped at n! <= 8! (`encoding.RELABELING_CAP`): 24
relabelings for the classification at n <= 4, 120 for the n=5 maps and
queries.  :func:`apply_relabeling` maps triples directly and works at any n.
"""

from .core import Betweenness, _Value, as_index
from .encoding import _relabelings, orbit


class Relabeling(_Value):
    """A bijection on 0..n-1, stored as the image sequence."""

    __slots__ = _compared = ("perm",)
    perm: tuple[int, ...]

    def __init__(self, perm):
        perm = tuple(as_index(v, "relabeling image") for v in perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
        object.__setattr__(self, "perm", perm)

    @classmethod
    def _of(cls, perm: tuple[int, ...]) -> "Relabeling":
        """The relabeling with image sequence perm, a tuple that is known to
        be a permutation, without __init__'s check: for relabelings read
        off encoding._relabelings, which itertools.permutations built.
        Copies and pickles still go through __init__ (see `_Value`)."""
        f = object.__new__(cls)
        object.__setattr__(f, "perm", perm)
        return f

    @property
    def n(self) -> int:
        return len(self.perm)

    def __call__(self, i: int) -> int:
        i = as_index(i, "point")
        if not 0 <= i < self.n:
            raise ValueError(f"point {i} out of range for n={self.n}")
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
    deterministic.  Idempotent on its own output.  One :func:`orbit` call;
    the relabeling is the argmin's entry of the cached lex-ordered tuple of
    all relabelings, not checked again.  The representative's `class_key`
    is its own mask and comes set, so the sweep lookups on it call orbit no
    more.
    """
    images = orbit(b.n, b.mask)
    best = min(images)
    canon = Betweenness(b.n, best)
    object.__setattr__(canon, "_class_key", best)
    return canon, Relabeling._of(_relabelings(b.n)[images.index(best)])


def isomorphism_witness(b1: Betweenness, b2: Betweenness) -> Relabeling | None:
    """Some relabeling f with f(b1) = b2, or None if the two are not isomorphic.

    Returns the lexicographically smallest such f.
    """
    if b1.n != b2.n:
        raise ValueError(f"point counts differ: {b1.n} vs {b2.n}")
    images = orbit(b1.n, b1.mask)
    if b2.mask not in images:
        return None
    return Relabeling._of(_relabelings(b1.n)[images.index(b2.mask)])
