"""Quasi-metric spaces: validation, segments, betweenness, lines, DBE verdicts.

All distances are exact rationals (`fractions.Fraction`); every comparison in
this module is an exact equality or inequality, never tolerance-based.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import lcm
from operator import attrgetter, index
from typing import Iterable, Mapping, NamedTuple

from .encoding import (
    LINE_TABLE_CAP,
    _about,
    _chunk_or,
    _conflict_table,
    mask_from_bits,
    mask_from_triples,
    orbit,
    ordered_pairs,
    ordered_triples,
    pair_position,
    set_bits,
    triple_at,
    triple_bit,
    triple_count,
    triple_rows,
    triples_from_mask,
)


def as_rational(value) -> Fraction:
    """Coerce to an exact rational; floats are refused, not rounded."""
    if isinstance(value, float):
        raise TypeError(f"refusing to convert float {value!r}; pass an exact rational")
    return Fraction(value)


def as_index(value, what: str) -> int:
    """value as an int, read by `operator.index`, for point counts, point
    indices and masks: 2.0 and "2" are refused with a ValueError naming
    what, not truncated or compared as numbers."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    return tuple(f"x{i}" for i in range(n))


class _Value:
    """Base of the validated value types: immutable, slotted, compared and
    hashed by the fields named in `_compared`, which are also the
    constructor's arguments and what repr shows.  Derived fields (in
    `__slots__` but not in `_compared`) take no part in either.  Fields are
    set once, through `object.__setattr__`: in `__init__`, or in a private
    constructor that skips its checks for values already known to pass them
    (`Relabeling._of`, `LineSet._of`).  A derived slot may instead be left
    unset and filled on its first read, as `Betweenness._class_key` and
    `LinearSystem._constraints` are; a compared field may be such a slot's
    property, as `LineSet.by_pair` and `LineSet.lines` are.
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
        labels = tuple(map(str, labels))
        n = len(labels)
        if n < 2:
            raise ValueError(f"need at least 2 points, got {n}")
        if len(set(labels)) != n:
            raise ValueError(f"duplicate labels in {labels}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entries must form a {n}x{n} square matrix")
        entries = tuple(tuple(as_rational(v) for v in row) for row in entries)
        scale = lcm(*(v.denominator for row in entries for v in row))
        scaled = tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in entries)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)
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

    # _class_key stays unset until class_key is first read, unless
    # canonical_form set it
    __slots__ = ("n", "mask", "_class_key")
    _compared = ("n", "mask")
    n: int
    mask: int
    _class_key: int

    def __init__(self, n: int, mask: int):
        n, mask = as_index(n, "point count"), as_index(mask, "mask")
        if n < 2:
            raise ValueError(f"need at least 2 points, got {n}")
        if not 0 <= mask < 1 << triple_count(n):
            raise ValueError(f"mask {mask} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "Betweenness":
        n = as_index(n, "point count")
        return cls(n, mask_from_triples(n, triples))

    @property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return triples_from_mask(self.n, self.mask)

    @property
    def class_key(self) -> int:
        """The least image of the relation's :func:`orbit`, the mask of its
        canonical form, which names its isomorphism class.  Computed on the
        first read and kept, so each relation pays for one orbit at most;
        the output of `canonical_form` carries it from the start.  Refuses
        n! > RELABELING_CAP with a ValueError, as orbit does."""
        key = getattr(self, "_class_key", None)
        if key is None:
            key = min(orbit(self.n, self.mask))
            object.__setattr__(self, "_class_key", key)
        return key

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, triple) -> bool:
        """False for a triple that is not an ordered triple of distinct
        points in 0..n-1, as for a non-member."""
        bit = triple_bit(self.n, triple)
        return bit is not None and bool(self.mask >> bit & 1)


def _between_bits(n: int, d):
    bit = 0
    for x, y, zs in triple_rows(n):
        dx, dy, dxy = d[x], d[y], d[x][y]
        for z in zs:
            if dx[z] == dxy + dy[z]:
                yield bit
            bit += 1


def betweenness_mask(n: int, d) -> int:
    """The betweenness encoding of any n-by-n distance table d, rational or
    integer: bit i is set iff the i-th ordered triple (x,y,z) has
    d(x,z) = d(x,y) + d(y,z).  Linear in the triples: it counts their bits
    along :func:`qmlines.encoding.triple_rows` and writes the members
    through :func:`qmlines.encoding.mask_from_bits`."""
    return mask_from_bits(_between_bits(n, d), triple_count(n))


def betweenness_of(m: DistanceMatrix) -> Betweenness:
    """All triples (x,y,z) of distinct points with d(x,z) = d(x,y) + d(y,z),
    read by :func:`betweenness_mask` from the integer table `m._scaled`.

    The matrix is assumed to have passed validation.
    """
    return Betweenness(m.n, betweenness_mask(m.n, m._scaled))


def _check_points(n: int, x, y, what: str) -> tuple[int, int]:
    """(x, y) as ints; refuse endpoints that are not integers, outside
    0..n-1 or equal, naming the point and n."""
    x, y = as_index(x, f"{what} endpoint"), as_index(y, f"{what} endpoint")
    for z in (x, y):
        if not 0 <= z < n:
            raise ValueError(f"{what} endpoint {z} out of range for n={n}")
    if x == y:
        raise ValueError(f"{what} endpoints must differ, got {x} twice")
    return x, y


def segment(m: DistanceMatrix, x: int, y: int) -> frozenset[int]:
    """The segment of (x, y): all z with d(x,y) = d(x,z) + d(z,y).

    Always contains both endpoints.
    """
    x, y = _check_points(m.n, x, y, "segment")
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
    of theirs.  Their fields are read by :func:`_line_fields`, and their
    universal line by one carry (:func:`_line_carry`).
    """

    base: int
    parts: tuple[int, ...]


@lru_cache(maxsize=None)
def _packed_table(n: int) -> _PackedTable:
    """The packed line table on n points.  Refuses with a ValueError, before
    building any part, a table whose parts could pass LINE_TABLE_CAP bytes."""
    width = (n + 1) * n * (n - 1)
    size = triple_count(n) * width // 8
    if size > LINE_TABLE_CAP:
        raise ValueError(
            f"lines are read from a packed table, one int of up to {width} bits per "
            f"ordered triple; n={n} means {triple_count(n)} triples, {_about(size)} bytes, "
            f"over the cap of {LINE_TABLE_CAP} (2^27)"
        )
    field = {pair: (n + 1) * k for k, pair in enumerate(ordered_pairs(n))}
    base = mask_from_bits((p + field[x, y] for (x, y) in field for p in (x, y)), width)
    parts = tuple(
        1 << c + field[a, b] | 1 << b + field[a, c] | 1 << a + field[b, c]
        for (a, b, c) in ordered_triples(n)
    )
    return _PackedTable(base, parts)


@lru_cache(maxsize=None)
def _line_carry(n: int) -> tuple[int, int]:
    """(ones, guards) of packed lines on n points, at any n: ones has a 1 at
    the bottom of every field, guards every field's guard bit.  Adding ones
    carries into a field's guard exactly when all its n point bits are set,
    so packed lines have a universal line iff (packed + ones) & guards."""
    width = (n + 1) * n * (n - 1)
    ones = mask_from_bits(range(0, width, n + 1), width)
    return ones, ones << n


def _packed_lines(n: int, mask: int) -> int:
    """The packed lines (see :class:`_PackedTable`) of the relation with
    encoding mask on n points."""
    table = _packed_table(n)
    parts = table.parts
    packed = table.base
    # set bits inline: under every line_set, set_bits made it 1.0 -> 1.8 us per 4-point class
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
    return frozenset(set_bits(bits))


def line_of_pair(b: Betweenness, x: int, y: int) -> frozenset[int]:
    """The line of the ordered pair (x, y), determined by the betweenness alone.

    z lies on it iff one of zxy, xzy, xyz is in the relation; x and y always
    do.  Read as the one field of (x, y) in the relation's packed lines (see
    :class:`_PackedTable`), so no other pair's line is built.  Note
    line(x, y) and line(y, x) may differ.
    """
    n = b.n
    x, y = _check_points(n, x, y, "line")
    return _points(_packed_lines(n, b.mask) >> (n + 1) * pair_position(n)[x, y] & (1 << n) - 1)


def _packed_line_bits(n: int, by_pair):
    """The bits of by_pair's lines in packed lines on n points, checked: by_pair
    maps the n(n-1) ordered pairs, and nothing else, to sets of points in
    0..n-1 that hold both points of their pair."""
    pairs = ordered_pairs(n)
    if by_pair.keys() != set(pairs):
        raise ValueError(f"by_pair must map exactly the {len(pairs)} ordered pairs of {n} points")
    for shift, (x, y) in zip(range(0, (n + 1) * len(pairs), n + 1), pairs):
        line = {as_index(z, "line point") for z in by_pair[x, y]}
        if not (x in line and y in line and 0 <= min(line) and max(line) < n):
            raise ValueError(
                f"line {sorted(line)} of pair {(x, y)} must hold {x} and {y} within 0..{n - 1}"
            )
        yield from (shift + z for z in line)


class LineSet(_Value):
    """The lines of all n(n-1) ordered pairs, plus the deduplicated family,
    held as the relation's packed lines (see :class:`_PackedTable`).

    line_count is the number of distinct fields and has_universal one carry
    (:func:`_line_carry`), so neither builds a point set.  by_pair, a dict
    in ordered_pairs(n) order, and lines, the frozenset of distinct lines,
    are built from the fields on their first read and kept.  The constructor
    packs by_pair into that int, with a ValueError unless by_pair gives each
    ordered pair a line through both its points and lines are by_pair's
    distinct lines; :func:`line_set` hands over the packed lines it built,
    through the private `_of`.
    """

    # _by_pair and _lines are derived from _packed; each stays unset until
    # its field is first read
    __slots__ = ("n", "_packed", "_by_pair", "_lines")
    _compared = ("n", "by_pair", "lines")
    n: int
    _packed: int
    _by_pair: dict[tuple[int, int], frozenset[int]]
    _lines: frozenset[frozenset[int]]

    def __init__(self, n: int, by_pair: Mapping[tuple[int, int], Iterable[int]], lines):
        n = as_index(n, "point count")
        if n < 2:
            raise ValueError(f"need at least 2 points, got {n}")
        object.__setattr__(self, "n", n)
        packed = mask_from_bits(_packed_line_bits(n, by_pair), (n + 1) * n * (n - 1))
        object.__setattr__(self, "_packed", packed)
        if frozenset(map(frozenset, lines)) != self.lines:
            raise ValueError("lines must be the distinct lines of by_pair")

    @classmethod
    def _of(cls, n: int, packed: int) -> "LineSet":
        """The line set of packed lines on n points, without __init__'s
        checks: for :func:`line_set`, whose packed lines `_packed_lines`
        built.  Copies and pickles still go through __init__ (see `_Value`)."""
        ls = object.__new__(cls)
        object.__setattr__(ls, "n", n)
        object.__setattr__(ls, "_packed", packed)
        return ls

    @property
    def by_pair(self) -> dict[tuple[int, int], frozenset[int]]:
        by_pair = getattr(self, "_by_pair", None)
        if by_pair is None:
            fields = _line_fields(self.n, self._packed)
            by_pair = dict(zip(ordered_pairs(self.n), map(_points, fields)))
            object.__setattr__(self, "_by_pair", by_pair)
        return by_pair

    @property
    def lines(self) -> frozenset[frozenset[int]]:
        lines = getattr(self, "_lines", None)
        if lines is None:
            lines = frozenset(map(_points, _line_fields(self.n, self._packed)))
            object.__setattr__(self, "_lines", lines)
        return lines

    @property
    def line_count(self) -> int:
        return len(set(_line_fields(self.n, self._packed)))

    @property
    def has_universal(self) -> bool:
        ones, guards = _line_carry(self.n)
        return bool((self._packed + ones) & guards)

    @property
    def satisfies_dbe(self) -> bool:
        return _dbe_rule(self.n, self.line_count, self.has_universal)


def _dbe_rule(n: int, line_count: int, has_universal: bool) -> bool:
    """The DBE property: a universal line, or at least n distinct lines."""
    return has_universal or line_count >= n


def line_set(b: Betweenness) -> LineSet:
    """The lines of every ordered pair: the relation's packed lines (see
    :class:`_PackedTable`), wrapped as they are, so that reading the counts
    builds no point set."""
    return LineSet._of(b.n, _packed_lines(b.n, b.mask))


def consistency_check(b: Betweenness) -> bool:
    """True iff no member triple xyz coexists with yxz or xzy.

    Necessary for the relation to come from any quasi-metric.  Up to n=10
    it ORs the conflict table's rows (see
    :func:`qmlines.encoding._conflict_table`) of the mask's nonzero chunks,
    the excluded companions of their triples, and tests the mask against
    them all at once; above, it reads the members alone
    (:func:`qmlines.encoding.set_bits`) and places each and its two
    companions by arithmetic (:func:`qmlines.encoding.triple_at` and
    :func:`qmlines.encoding.triple_bit`), with no table of all the triples.
    """
    n, mask = b.n, b.mask
    rows = _conflict_table(n)
    if rows is None:
        members = set(set_bits(mask))
        return not any(
            triple_bit(n, (y, x, z)) in members or triple_bit(n, (x, z, y)) in members
            for x, y, z in map(triple_at, repeat(n), members)
        )
    return not mask & _chunk_or(rows, mask)
