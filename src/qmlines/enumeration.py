"""Exhaustive enumeration and classification of consistent betweenness
relations on 3 and 4 points.

Candidates are assembled as products of consistent per-support patterns:
the exclusion rule only ever relates triples on the same 3-point support,
so the product construction is complete.  That rule is the only one that
prunes the class enumeration; no stronger inference is assumed.

The four-point theorem check walks the same product one support at a time
and cuts a prefix as soon as one of its lines is universal.  The cut is
sound because a line only gains points as member triples are added (z is on
line(x, y) iff zxy, xzy or xyz is a member), so a universal line stays
universal in every completion, and such a relation satisfies DBE.  No
cut on the line count is made: lines merge as triples are added, so a
prefix with n lines or more can still end with fewer.  The walk keeps each
prefix's lines packed in one int, as :func:`qmlines.core.line_set` reads
them, so a step is one OR and the universal-line test one addition.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, combinations, compress, permutations, repeat
from math import comb, factorial
from operator import and_, ne, or_, sub
from typing import Iterator, Mapping, NamedTuple

from . import kernels
from .core import (
    Betweenness,
    DistanceMatrix,
    _dbe_rule,
    _line_carry,
    _line_fields,
    _packed_lines,
    _packed_table,
    as_index,
    consistency_check,
    line_set,
)
from .encoding import _chunk_or, _lanes, _orbit_table, _pack_lanes, mask_from_triples, orbit
from .encoding import orbit_class, set_bits, supports
from .isomorphism import canonical_form
from .realizability import _sign, realize

SUPPORTED_N = (3, 4)


def consistent_patterns_on_support() -> tuple[frozenset[tuple[int, int, int]], ...]:
    """All subsets of the 6 ordered triples on one 3-point support that obey
    the exclusion rule (xyz rules out yxz and xzy), as checked by
    :func:`qmlines.core.consistency_check`; there are 18."""
    triples = list(permutations(range(3)))
    return tuple(
        frozenset(chosen)
        for k in range(len(triples) + 1)
        for chosen in combinations(triples, k)
        if consistency_check(Betweenness.from_triples(3, chosen))
    )


def _support_pattern_masks(n: int) -> list[list[int]]:
    base = consistent_patterns_on_support()
    groups = []
    for sup in supports(n):
        masks = []
        for pattern in base:
            placed = [(sup[x], sup[y], sup[z]) for (x, y, z) in pattern]
            masks.append(mask_from_triples(n, placed))
        groups.append(masks)
    return groups


def _check_supported(n: int) -> None:
    """Refuse n outside SUPPORTED_N; above it, with the size of the product
    that the class walk would cover, in full while it has at most 100 factors."""
    if n not in SUPPORTED_N:
        k = comb(n, 3) if n > SUPPORTED_N[-1] else 0
        exact = f" = {18 ** k:,}" if k <= 100 else ""
        cost = f": its walk covers 18^C({n},3) = 18^{k}{exact} candidates"
        raise ValueError(f"enumeration supports n in {SUPPORTED_N}, got {n}{cost if k else ''}")


def _half_rows(n: int, groups) -> memoryview:
    """The images of every relation on the supports of groups under every
    relabeling, one row per combined pattern digit, in the orbit table's
    lanes: row r's image under the i-th relabeling is lane r * n! + i.  Each
    pattern's images are its packed rows ORed in place, so a row is one OR."""
    table = _orbit_table(n, 3)
    _, size, chunks = table
    rows = [0]
    for masks in groups:
        images = [_chunk_or(chunks, m) for m in masks]
        rows = [row | more for more in images for row in rows]
    return _lanes(table, _pack_lanes(rows, size), len(rows))


@lru_cache(maxsize=None)
def canonical_classes(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical encoding, orbit size) for every isomorphism class of
    consistent relations, in increasing encoding order.

    The relations are the product of per-support patterns, and the walk
    keeps each one that is the least of its orbit (McKay 1998), by
    comparison alone.  The supports are split in two halves, the first
    ceil(C(n,3)/2) and the rest, with one row of images per combined digit
    (:func:`_half_rows`): 324 rows per half at n=4.  The halves hold
    disjoint triples under every relabeling g, so relation (i, j) is the
    least of its orbit iff, for every g, what g takes off its left half is
    at most what g adds to its right half: left[i][id] - left[i][g] <=
    right[j][g] - right[j][id].  Per g the left drops are sorted once, with
    prefix bitsets of their rows, so each right row is one bisect and one
    AND.  The drops equal to a gain are the relations g fixes, so an
    orbit's size is n! over one plus their count.  At n=4 that is 72 reads
    of packed rows and 23 * 324 threshold tests; nothing is unpacked.
    """
    _check_supported(n)
    count = factorial(n)
    groups = _support_pattern_masks(n)
    split = (len(groups) + 1) // 2
    left, right = _half_rows(n, groups[:split]), _half_rows(n, groups[split:])
    # the identity comes first: column 0 holds the halves' own encodings
    left_id, right_id = left[::count].tolist(), right[::count].tolist()
    rows = range(len(left_id))
    bits = [1 << i for i in rows]
    # per right row j, bit i is set while (i, j) is the least of every
    # image met so far
    least = [(1 << len(rows)) - 1] * len(right_id)
    # per right row j, the left row of each relation that a relabeling
    # other than the identity fixes, once per such relabeling
    fixed = [[] for _ in right_id]
    for g in range(1, count):
        drop = list(map(sub, left_id, left[g::count]))
        order = sorted(rows, key=drop.__getitem__)
        drop.sort()
        upto = list(accumulate(map(bits.__getitem__, order), or_, initial=0))
        gain = list(map(sub, right[g::count], right_id))
        ends = list(map(bisect_right, repeat(drop), gain))
        least = list(map(and_, least, map(upto.__getitem__, ends)))
        starts = list(map(bisect_left, repeat(drop), gain))
        for j in compress(range(len(right_id)), map(ne, starts, ends)):
            fixed[j] += order[starts[j] : ends[j]]
    classes = []
    for j, kept in enumerate(least):
        for i in set_bits(kept):
            classes.append((left_id[i] + right_id[j], count // (1 + fixed[j].count(i))))
    return tuple(sorted(classes))


def enumerate_consistent(n: int) -> Iterator[Betweenness]:
    """Each canonical consistent relation exactly once, increasing encoding."""
    for mask, _ in canonical_classes(n):
        yield Betweenness(n, mask)


class ClassificationRecord(NamedTuple):
    """One isomorphism class of consistent relations with its line structure
    and realizability verdicts."""

    canonical: Betweenness
    class_size: int
    line_count: int
    has_universal: bool
    satisfies_dbe: bool
    realizable_quasi: bool
    realizable_metric: bool
    realizable_int: Mapping[int, bool]
    realizable_digraph: bool
    witness: DistanceMatrix | None


def _base_record(n, mask, orbit_size) -> ClassificationRecord:
    """The record of one class, with no integer verdicts: its line counts,
    read off the packed lines, and its LP verdicts.  At n=4 a class whose
    quasi sign (`realizability._sign`) is not 1 breaks a Horn rule, so it
    is neither quasi- nor metric-realizable and has no witness, and
    `realize` is not called; the 273 quasi-positive classes and every class
    at other n ask `realize` for their witness and metric verdict."""
    b = Betweenness(n, mask)
    ls = line_set(b)
    quasi = realizable_metric = False
    witness = None
    if n != 4 or _sign(mask, "quasi") == 1:
        outcome = realize(b, "quasi")
        quasi, witness = outcome.realizable, outcome.witness
        # metric realizability implies quasi realizability
        realizable_metric = quasi and realize(b, "metric").realizable
    return ClassificationRecord(
        canonical=b,
        class_size=orbit_size,
        line_count=ls.line_count,
        has_universal=ls.has_universal,
        satisfies_dbe=ls.satisfies_dbe,
        realizable_quasi=quasi,
        realizable_metric=realizable_metric,
        realizable_int={},
        realizable_digraph=mask in kernels.digraph_canon_witnesses(n),
        witness=witness,
    )


@lru_cache(maxsize=None)
def _base_records(n: int) -> tuple[ClassificationRecord, ...]:
    return tuple(_base_record(n, mask, size) for mask, size in canonical_classes(n))


def classify(n: int, kmax_list=()) -> tuple[ClassificationRecord, ...]:
    """Classify every canonical consistent relation on n points.

    Decides each class by `realize` (quasi, then metric when quasi
    succeeds); at n=4 the sign tables refute 4,182 classes before that, so
    only the 273 quasi-positive ones ask it: 282 vertex LPs and 24 value
    LPs in all.  Then runs the digraph sweep and one integer sweep per
    requested bound.  Records are sorted by canonical encoding.
    """
    _check_supported(n)
    # checked before the maps' cache, whose key 2.0 is 2
    bounds = tuple(sorted({as_index(k, "kmax") for k in kmax_list}))
    int_canons = {k: kernels.integer_canon_witnesses(n, k) for k in bounds}
    records = []
    for rec in _base_records(n):
        realizable_int = {k: rec.canonical.mask in int_canons[k] for k in bounds}
        records.append(rec._replace(realizable_int=realizable_int))
    return tuple(records)


class TheoremReport(NamedTuple):
    """Outcome of the four-point uniqueness check: the quasi-realizable
    classes with no universal line and fewer than four lines, and whether
    they are exactly one class, Q4's (``matches_q4``)."""

    n: int
    exceptional_classes: tuple[ClassificationRecord, ...]
    matches_q4: bool


def _dbe_failing_masks(n: int) -> list[int]:
    """Every consistent relation on n points that fails DBE, as encodings in
    raw-stream order: a depth-first walk that ORs in one consistent pattern
    per support and drops each prefix whose lines include the universal
    line (sound: see the module docstring).

    The walk carries the prefix's packed lines (see
    :class:`qmlines.core._PackedTable`) along with its encoding: a node ORs
    in its pattern's packed lines, and one addition tests all n(n-1) lines
    for the universal one.  At a leaf the line count is the number of
    distinct fields.
    """
    table = _packed_table(n)
    ones, guards = _line_carry(n)
    groups = [
        [(pattern, _packed_lines(n, pattern)) for pattern in masks]
        for masks in _support_pattern_masks(n)
    ]
    failing = []

    def walk(depth, prefix, packed):
        for pattern, part in groups[depth]:
            lines = packed | part
            if (lines + ones) & guards:
                continue  # a universal line
            mask = prefix | pattern
            if depth + 1 < len(groups):
                walk(depth + 1, mask, lines)
            elif not _dbe_rule(n, len(set(_line_fields(n, lines))), False):
                failing.append(mask)

    walk(0, 0, table.base)
    return failing


def verify_theorem_four_points() -> TheoremReport:
    """Check that exactly one 4-point class is quasi-realizable with no
    universal line and fewer than four lines, and that it is the class of
    Q4's betweenness, as :func:`qmlines.fixtures.q4_betweenness` gives it.

    The classes come from :func:`_dbe_failing_masks`, not from the class
    list: its walk visits 4,680 nodes, 3,132 of them complete relations (of
    the 104,976 consistent ones), with one OR and one universal-line test
    each; 383 of the complete ones have no universal line and 12 have fewer
    than four lines.  Their distinct canonical forms, with orbit sizes read
    from the same relabeling images, are checked in increasing encoding
    order; the LP runs on those alone.  The records are _base_record's:
    no integer sweep runs, and ``realizable_int`` is empty.
    """
    from . import fixtures

    ref_canon, _ = canonical_form(fixtures.q4_betweenness())
    sizes = dict(orbit_class(orbit(4, mask)) for mask in _dbe_failing_masks(4))
    exceptional = []
    for mask in sorted(sizes):
        rec = _base_record(4, mask, sizes[mask])
        if rec.realizable_quasi:
            exceptional.append(rec)
    matches = len(exceptional) == 1 and exceptional[0].canonical == ref_canon
    return TheoremReport(4, tuple(exceptional), matches)
