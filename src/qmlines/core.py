"""Quasi-metric spaces: validation, segments, betweenness, lines, DBE verdicts.

All distances are exact rationals (`fractions.Fraction`); every comparison in
this module is an exact equality or inequality, never tolerance-based.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import attrgetter
from string import ascii_lowercase
from typing import Iterable, Mapping, NamedTuple

from .encoding import (
    conflict_masks,
    mask_from_triples,
    ordered_pairs,
    ordered_triples,
    triple_count,
    triple_position,
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


class _Value:
    """Base of the validated value types: immutable, slotted, compared and
    hashed by the fields named in `_compared`, which are also the
    constructor's arguments and what repr shows.  Derived fields (in
    `__slots__` but not in `_compared`) take no part in either.  Fields are
    set once, in `__init__`, through `object.__setattr__`.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # _key(obj) is the tuple of the compared fields, read in C
        get = attrgetter(*cls._compared)
        cls._key = staticmethod(get if len(cls._compared) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through the constructor, so copies and pickles are checked too
        return self.__class__, self._key(self)


class DistanceMatrix(_Value):
    """A labeled n-by-n rational matrix, candidate for a quasi-metric.

    Construction enforces shape and label sanity only; the axioms (zero
    diagonal, positive off-diagonal, triangle inequality) are checked by
    :func:`validate_quasi_metric`.
    """

    # _scaled: the entries times the lcm of their denominators, for exact
    # comparisons on integers: a positive scaling keeps every <, = and >
    __slots__ = ("labels", "entries", "_scaled")
    _compared = ("labels", "entries")
    labels: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]
    _scaled: tuple[tuple[int, ...], ...]

    def __init__(self, labels, entries):
        labels = tuple(str(l) for l in labels)
        n = len(labels)
        if n < 2:
            raise ValueError(f"need at least 2 points, got {n}")
        if len(set(labels)) != n:
            raise ValueError(f"duplicate labels in {labels}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entries must form a {n}x{n} square matrix")
        entries = tuple(tuple(as_rational(v) for v in row) for row in entries)
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


class Violation(NamedTuple):
    """One broken quasi-metric axiom, with the offending points."""

    kind: str  # "diagonal" | "positivity" | "triangle"
    points: tuple[int, ...]
    detail: str


class ValidationResult(NamedTuple):
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


class Betweenness(_Value):
    """An ordered-triple relation on n points, stored as a fixed-width bit set.

    Bit i corresponds to the i-th ordered triple of distinct indices in
    lexicographic order (see :mod:`qmlines.encoding`).
    """

    __slots__ = _compared = ("n", "mask")
    n: int
    mask: int

    def __init__(self, n: int, mask: int):
        if n < 2:
            raise ValueError(f"need at least 2 points, got {n}")
        if not 0 <= mask < 1 << triple_count(n):
            raise ValueError(f"mask {mask} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "Betweenness":
        return cls(n, mask_from_triples(n, triples))

    @property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return triples_from_mask(self.n, self.mask)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, triple) -> bool:
        """False for a triple that is not an ordered triple of distinct
        points in 0..n-1, as for a non-member."""
        bit = triple_position(self.n).get(tuple(triple))
        return bit is not None and bool(self.mask >> bit & 1)


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


def _check_points(n: int, x: int, y: int, what: str) -> None:
    """Refuse endpoints outside 0..n-1 or equal, naming the point and n."""
    for z in (x, y):
        if not 0 <= z < n:
            raise ValueError(f"{what} endpoint {z} out of range for n={n}")
    if x == y:
        raise ValueError(f"{what} endpoints must differ, got {x} twice")


def segment(m: DistanceMatrix, x: int, y: int) -> frozenset[int]:
    """The segment of (x, y): all z with d(x,y) = d(x,z) + d(z,y).

    Always contains both endpoints.
    """
    _check_points(m.n, x, y, "segment")
    s = m._scaled
    return frozenset(z for z in range(m.n) if s[x][y] == s[x][z] + s[z][y])


class _PackedTable(NamedTuple):
    """The packed line table on n points: the lines of all n(n-1) ordered
    pairs held in one int.

    The k-th pair of ordered_pairs(n) owns the n + 1 bits from bit
    (n + 1) * k: point z is its bit z, and bit n is a guard, 0 in every
    packed state.  base holds {x, y} in the field of (x, y).  parts[i] holds
    the points the i-th ordered triple abc puts on lines: c on line(a, b),
    b on line(a, c) and a on line(b, c), since z is on line(x, y) iff zxy,
    xzy or xyz is a member.  So a relation's packed lines are base OR the
    parts of its member triples, and the packed lines of a union are the OR
    of theirs.  Adding ones, a 1 at the bottom of every field, carries into
    a field's guard bit exactly when all its n point bits are set: packed
    lines have a universal line iff (packed + ones) & guards.
    """

    base: int
    ones: int
    guards: int
    parts: tuple[int, ...]


@lru_cache(maxsize=None)
def _packed_table(n: int) -> _PackedTable:
    field = {pair: (n + 1) * k for k, pair in enumerate(ordered_pairs(n))}
    base = sum((1 << x | 1 << y) << field[x, y] for (x, y) in field)
    parts = tuple(
        1 << c + field[a, b] | 1 << b + field[a, c] | 1 << a + field[b, c]
        for (a, b, c) in ordered_triples(n)
    )
    ones = sum(1 << shift for shift in field.values())
    return _PackedTable(base, ones, ones << n, parts)


def _packed_lines(n: int, mask: int) -> int:
    """The packed lines (see :class:`_PackedTable`) of the relation with
    encoding mask on n points."""
    table = _packed_table(n)
    parts = table.parts
    packed = table.base
    while mask:
        low = mask & -mask
        packed |= parts[low.bit_length() - 1]
        mask ^= low
    return packed


def _line_fields(n: int, packed: int) -> list[int]:
    """The point bitmask of every ordered pair's line in packed lines, in
    ordered_pairs(n) order."""
    width = n + 1
    points = (1 << n) - 1
    return [packed >> shift & points for shift in range(0, width * n * (n - 1), width)]


@lru_cache(maxsize=None)
def _points(bits: int) -> frozenset[int]:
    """The point set of a bitmask, one shared frozenset per mask."""
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


def line_of_pair(b: Betweenness, x: int, y: int) -> frozenset[int]:
    """The line of the ordered pair (x, y), determined by the betweenness alone.

    z lies on it iff one of zxy, xzy, xyz is in the relation; x and y always
    do.  Read from the field of (x, y) in the relation's packed lines.
    Note line(x, y) and line(y, x) may differ.
    """
    _check_points(b.n, x, y, "line")
    fields = _line_fields(b.n, _packed_lines(b.n, b.mask))
    return _points(fields[ordered_pairs(b.n).index((x, y))])


class LineSet(NamedTuple):
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


def line_set(b: Betweenness) -> LineSet:
    """The lines of every ordered pair, keyed in ordered_pairs(n) order:
    the fields of the relation's packed lines (see :class:`_PackedTable`)."""
    fields = _line_fields(b.n, _packed_lines(b.n, b.mask))
    by_pair = dict(zip(ordered_pairs(b.n), map(_points, fields)))
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
