"""Quasi-metric spaces: validation, segments, betweenness, lines, DBE verdicts.

All distances are exact rationals (`fractions.Fraction`); every comparison in
this module is an exact equality or inequality, never tolerance-based.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from string import ascii_lowercase
from typing import Iterable, Mapping

from .encoding import (
    conflict_masks,
    mask_from_triples,
    ordered_pairs,
    ordered_triples,
    triple_count,
    triples_from_mask,
)


def as_rational(value) -> Fraction:
    """Coerce to an exact rational; floats are refused, not rounded."""
    if isinstance(value, float):
        raise TypeError(f"refusing to convert float {value!r}; pass an exact rational")
    return Fraction(value)


def default_labels(n: int) -> tuple[str, ...]:
    if n <= len(ascii_lowercase):
        return tuple(ascii_lowercase[:n])
    return tuple(f"x{i}" for i in range(n))


@dataclass(frozen=True)
class DistanceMatrix:
    """A labeled n-by-n rational matrix, candidate for a quasi-metric.

    Construction enforces shape and label sanity only; the axioms (zero
    diagonal, positive off-diagonal, triangle inequality) are checked by
    :func:`validate_quasi_metric`.
    """

    labels: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]
    # the entries times the lcm of their denominators, for exact comparisons
    # on integers: a positive scaling keeps every <, = and >
    _scaled: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        n = len(labels)
        if n < 2:
            raise ValueError(f"need at least 2 points, got {n}")
        if len(set(labels)) != n:
            raise ValueError(f"duplicate labels in {labels}")
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError(f"entries must form a {n}x{n} square matrix")
        entries = tuple(tuple(as_rational(v) for v in row) for row in self.entries)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)
        scale = lcm(*(v.denominator for row in entries for v in row))
        scaled = tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in entries)
        object.__setattr__(self, "_scaled", scaled)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown point label {label!r}") from None

    def scaled(self, factor) -> "DistanceMatrix":
        """The matrix with every entry multiplied by a positive rational."""
        f = as_rational(factor)
        if f <= 0:
            raise ValueError(f"scaling factor must be positive, got {f}")
        return DistanceMatrix(self.labels, tuple(tuple(f * v for v in row) for row in self.entries))


@dataclass(frozen=True)
class Violation:
    """One broken quasi-metric axiom, with the offending points."""

    kind: str  # "diagonal" | "positivity" | "triangle"
    points: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[Violation, ...]


def validate_quasi_metric(m: DistanceMatrix) -> ValidationResult:
    """Check zero diagonal, positive off-diagonal and all triangle inequalities.

    A triangle violation d(x,y) > d(x,z) + d(z,y) is reported as the index
    triple (x, z, y), i.e. with the failed via-point in the middle.  The
    comparisons read the integer table `m._scaled`; the messages print the
    rational entries.
    """
    s = m._scaled
    d = m.entries
    lab = m.labels
    n = m.n
    violations = []
    for i in range(n):
        if s[i][i] != 0:
            violations.append(
                Violation("diagonal", (i,), f"d({lab[i]},{lab[i]}) = {d[i][i]} != 0")
            )
    for i in range(n):
        for j in range(n):
            if i != j and s[i][j] <= 0:
                violations.append(
                    Violation("positivity", (i, j), f"d({lab[i]},{lab[j]}) = {d[i][j]} <= 0")
                )
    for x in range(n):
        for z in range(n):
            for y in range(n):
                if s[x][y] > s[x][z] + s[z][y]:
                    violations.append(
                        Violation(
                            "triangle",
                            (x, z, y),
                            f"d({lab[x]},{lab[y]}) = {d[x][y]} > "
                            f"d({lab[x]},{lab[z]}) + d({lab[z]},{lab[y]}) = {d[x][z] + d[z][y]}",
                        )
                    )
    return ValidationResult(not violations, tuple(violations))


@dataclass(frozen=True)
class Betweenness:
    """An ordered-triple relation on n points, stored as a fixed-width bit set.

    Bit i corresponds to the i-th ordered triple of distinct indices in
    lexicographic order (see :mod:`qmlines.encoding`).
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 points, got {self.n}")
        if not 0 <= self.mask < 1 << triple_count(self.n):
            raise ValueError(f"mask {self.mask} out of range for n={self.n}")

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "Betweenness":
        return cls(n, mask_from_triples(n, triples))

    @property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return triples_from_mask(self.n, self.mask)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, triple) -> bool:
        return bool(self.mask & mask_from_triples(self.n, [triple]))


def betweenness_mask(n: int, d) -> int:
    """The betweenness encoding of any n-by-n distance table d, rational or
    integer: bit i is set iff the i-th ordered triple (x,y,z) has
    d(x,z) = d(x,y) + d(y,z)."""
    mask = 0
    for bit, (x, y, z) in enumerate(ordered_triples(n)):
        if d[x][z] == d[x][y] + d[y][z]:
            mask |= 1 << bit
    return mask


def betweenness_of(m: DistanceMatrix) -> Betweenness:
    """All triples (x,y,z) of distinct points with d(x,z) = d(x,y) + d(y,z),
    read by :func:`betweenness_mask` from the integer table `m._scaled`.

    The matrix is assumed to have passed validation.
    """
    return Betweenness(m.n, betweenness_mask(m.n, m._scaled))


def segment(m: DistanceMatrix, x: int, y: int) -> frozenset[int]:
    """The segment of (x, y): all z with d(x,y) = d(x,z) + d(z,y).

    Always contains both endpoints.
    """
    if x == y:
        raise ValueError(f"segment endpoints must differ, got {x} twice")
    s = m._scaled
    return frozenset(z for z in range(m.n) if s[x][y] == s[x][z] + s[z][y])


@lru_cache(maxsize=None)
def _line_table(n: int) -> dict[tuple[int, int], tuple[int, tuple[tuple[int, int], ...]]]:
    """For each ordered pair (x, y), in ordered_pairs(n) order: the point bits
    of x and y, and for every other point z its bit and the bits of the
    triples zxy, xzy and xyz, any of which puts z on the line of (x, y)."""

    def others(x, y):
        for z in range(n):
            if z != x and z != y:
                yield 1 << z, mask_from_triples(n, ((z, x, y), (x, z, y), (x, y, z)))

    return {(x, y): (1 << x | 1 << y, tuple(others(x, y))) for (x, y) in ordered_pairs(n)}


@lru_cache(maxsize=None)
def _points(bits: int) -> frozenset[int]:
    """The point set of a bitmask, one shared frozenset per mask."""
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


def _line_bits(mask: int, bits: int, others) -> int:
    # z is on the line iff one of zxy, xzy, xyz is in the relation
    for zbit, trigger in others:
        if mask & trigger:
            bits |= zbit
    return bits


def line_of_pair(b: Betweenness, x: int, y: int) -> frozenset[int]:
    """The line of the ordered pair (x, y), determined by the betweenness alone.

    z lies on it iff one of zxy, xzy, xyz is in the relation; x and y always do.
    Note line(x, y) and line(y, x) may differ.
    """
    if x == y:
        raise ValueError(f"line endpoints must differ, got {x} twice")
    return _points(_line_bits(b.mask, *_line_table(b.n)[(x, y)]))


@dataclass(frozen=True)
class LineSet:
    """The lines of all n(n-1) ordered pairs, plus the deduplicated family."""

    n: int
    by_pair: Mapping[tuple[int, int], frozenset[int]]
    lines: frozenset[frozenset[int]]

    @property
    def line_count(self) -> int:
        return len(self.lines)

    @property
    def has_universal(self) -> bool:
        return any(len(line) == self.n for line in self.lines)

    @property
    def satisfies_dbe(self) -> bool:
        return _dbe_rule(self.n, self.line_count, self.has_universal)


def _dbe_rule(n: int, line_count: int, has_universal: bool) -> bool:
    """The DBE property: a universal line, or at least n distinct lines."""
    return has_universal or line_count >= n


def _line_masks(n: int, mask: int) -> set[int]:
    """`line_set(Betweenness(n, mask)).lines` as a set of point bitmasks,
    with no `LineSet` built."""
    return {_line_bits(mask, bits, others) for bits, others in _line_table(n).values()}


def line_set(b: Betweenness) -> LineSet:
    """The lines of every ordered pair, keyed in ordered_pairs(n) order."""
    mask = b.mask
    by_pair = {
        pair: _points(_line_bits(mask, bits, others))
        for pair, (bits, others) in _line_table(b.n).items()
    }
    return LineSet(b.n, by_pair, frozenset(by_pair.values()))


def consistency_check(b: Betweenness) -> bool:
    """True iff no member triple xyz coexists with yxz or xzy.

    Necessary for the relation to come from any quasi-metric.
    """
    conflicts = conflict_masks(b.n)
    mask = b.mask
    m = mask
    while m:
        low = m & -m
        if mask & conflicts[low.bit_length() - 1]:
            return False
        m ^= low
    return True
