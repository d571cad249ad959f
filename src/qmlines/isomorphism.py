"""Relabelings of betweenness relations, canonical forms, isomorphism witnesses.

Canonicalization is brute force over all n! relabelings; at the sizes this
package verifies (n <= 4, i.e. 24 permutations) anything cleverer would be
noise.
"""

from dataclasses import dataclass

from .core import Betweenness
from .encoding import all_permutations, apply_bit_map, permutation_bit_maps


@dataclass(frozen=True)
class Relabeling:
    """A bijection on 0..n-1, stored as the image sequence."""

    perm: tuple[int, ...]

    def __post_init__(self):
        perm = tuple(self.perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
        object.__setattr__(self, "perm", perm)

    @property
    def n(self) -> int:
        return len(self.perm)

    def __call__(self, i: int) -> int:
        return self.perm[i]

    def inverse(self) -> "Relabeling":
        inv = [0] * self.n
        for i, j in enumerate(self.perm):
            inv[j] = i
        return Relabeling(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "Relabeling":
        return cls(tuple(range(n)))


def apply_relabeling(b: Betweenness, f: Relabeling) -> Betweenness:
    """The image relation {(f(x), f(y), f(z)) : (x,y,z) in b}."""
    if f.n != b.n:
        raise ValueError(f"relabeling size {f.n} does not match point count {b.n}")
    perms = all_permutations(b.n)
    bit_map = permutation_bit_maps(b.n)[perms.index(f.perm)]
    return Betweenness(b.n, apply_bit_map(b.mask, bit_map))


def canonical_form(b: Betweenness) -> tuple[Betweenness, Relabeling]:
    """The minimum-encoding representative of b's isomorphism class.

    Also returns a relabeling achieving it; among minimizers, the
    lexicographically smallest permutation is chosen, so the witness is
    deterministic.  Idempotent on its own output.
    """
    best = b.mask
    best_perm = tuple(range(b.n))
    for perm, bit_map in zip(all_permutations(b.n), permutation_bit_maps(b.n)):
        image = apply_bit_map(b.mask, bit_map)
        if image < best:
            best = image
            best_perm = perm
    return Betweenness(b.n, best), Relabeling(best_perm)


def isomorphism_witness(b1: Betweenness, b2: Betweenness) -> Relabeling | None:
    """Some relabeling f with f(b1) = b2, or None if the two are not isomorphic.

    Returns the lexicographically smallest such f.
    """
    if b1.n != b2.n:
        raise ValueError(f"point counts differ: {b1.n} vs {b2.n}")
    for perm, bit_map in zip(all_permutations(b1.n), permutation_bit_maps(b1.n)):
        if apply_bit_map(b1.mask, bit_map) == b2.mask:
            return Relabeling(perm)
    return None
