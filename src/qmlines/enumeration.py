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

from functools import lru_cache
from itertools import combinations, permutations
from operator import add, or_
from typing import Iterator, Mapping, NamedTuple

from . import kernels
from .core import (
    Betweenness,
    DistanceMatrix,
    _dbe_rule,
    _line_fields,
    _packed_lines,
    _packed_table,
    consistency_check,
    line_set,
)
from .encoding import mask_from_triples, orbit, supports
from .isomorphism import canonical_form
from .realizability import realize

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
    if n not in SUPPORTED_N:
        raise ValueError(f"enumeration supports n in {SUPPORTED_N}, got {n}")


@lru_cache(maxsize=None)
def canonical_classes(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical encoding, orbit size) for every isomorphism class of
    consistent relations, in increasing encoding order.

    An orbit-marking walk over the product of per-support patterns, which
    meets every consistent relation once: a relation's position there is
    its mixed-radix vector of per-support pattern digits, and one byte
    per position marks the relations already met.  Two digit tables are
    built once, with one orbit call per (support, pattern): the pattern
    mask's images under every relabeling, and each image's digit times the
    stride of the support it lands on.  The first unmarked position gives a
    new class; ORing its nonzero digits' image rows and adding their
    position rows gives all its members, as encodings and as positions, so
    the class's canonical form and size are read off and its positions
    marked.  So the walk takes C(n,3) * 18 orbit calls, whatever the class
    count, and 18^C(n,3) bytes of marks (105 KB at n=4).
    """
    _check_supported(n)
    groups = _support_pattern_masks(n)
    # from the last (fastest) digit: each pattern mask's digit times its
    # support's stride (the empty pattern, digit 0, is 0 on every support)
    offset = {}
    stride = 1
    for masks in reversed(groups):
        offset.update((m, d * stride) for d, m in enumerate(masks))
        stride *= len(masks)
    # per support, from the last digit: (images, positions) per pattern digit
    tables = []
    for masks in reversed(groups):
        rows = []
        for m in masks:
            images = orbit(n, m)
            rows.append((images, [offset[x] for x in images]))
        tables.append(rows)
    marks = bytearray(stride)
    classes = []
    i = 0
    while i >= 0:
        rest, digit = divmod(i, len(tables[0]))
        images, positions = tables[0][digit]
        for rows in tables[1:]:
            rest, digit = divmod(rest, len(rows))
            if digit:
                more, at = rows[digit]
                images = list(map(or_, images, more))
                positions = list(map(add, positions, at))
        classes.append((min(images), len(set(images))))
        for p in positions:
            marks[p] = 1
        i = marks.find(0, i + 1)
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
    b = Betweenness(n, mask)
    ls = line_set(b)
    quasi = realize(b, "quasi")
    if quasi.realizable:
        realizable_metric = realize(b, "metric").realizable
    else:
        # metric realizability implies quasi realizability
        realizable_metric = False
    return ClassificationRecord(
        canonical=b,
        class_size=orbit_size,
        line_count=ls.line_count,
        has_universal=ls.has_universal,
        satisfies_dbe=ls.satisfies_dbe,
        realizable_quasi=quasi.realizable,
        realizable_metric=realizable_metric,
        realizable_int={},
        realizable_digraph=mask in kernels.digraph_canon_witnesses(n),
        witness=quasi.witness,
    )


@lru_cache(maxsize=None)
def _base_records(n: int) -> tuple[ClassificationRecord, ...]:
    return tuple(_base_record(n, mask, size) for mask, size in canonical_classes(n))


def classify(n: int, kmax_list=()) -> tuple[ClassificationRecord, ...]:
    """Classify every canonical consistent relation on n points.

    Runs the slack-maximization LP for every class (quasi always, metric
    whenever quasi succeeds), the exhaustive digraph sweep, and one
    exhaustive integer sweep per requested bound.  Records are sorted by
    canonical encoding.
    """
    _check_supported(n)
    bounds = tuple(sorted(set(kmax_list)))
    int_canons = {k: kernels.integer_canon_witnesses(n, k) for k in bounds}
    records = []
    for rec in _base_records(n):
        realizable_int = {k: rec.canonical.mask in int_canons[k] for k in bounds}
        records.append(rec._replace(realizable_int=realizable_int))
    return tuple(records)


class TheoremReport(NamedTuple):
    """Outcome of the four-point uniqueness check: the quasi-realizable
    classes with no universal line and fewer than four lines."""

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
    ones, guards = table.ones, table.guards
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


def verify_theorem_four_points(reference: Betweenness | None = None) -> TheoremReport:
    """Check that exactly one 4-point class is quasi-realizable with no
    universal line and fewer than four lines, and that it is the class of
    the reference relation (Q4's betweenness by default).

    The classes come from :func:`_dbe_failing_masks`, not from the class
    list: its walk visits 4,680 nodes, 3,132 of them complete relations (of
    the 104,976 consistent ones), with one OR and one universal-line test
    each; 383 of the complete ones have no universal line and 12 have fewer
    than four lines.  Their distinct canonical forms, with orbit sizes read
    from the same relabeling images, are checked in increasing encoding
    order; the LP runs on those alone.
    """
    from .fixtures import q4_betweenness

    ref = reference if reference is not None else q4_betweenness()
    ref_canon, _ = canonical_form(ref)
    int2 = kernels.integer_canon_witnesses(4, 2)
    sizes = {}
    for mask in _dbe_failing_masks(4):
        images = orbit(4, mask)
        sizes[min(images)] = len(set(images))
    exceptional = []
    for mask in sorted(sizes):
        rec = _base_record(4, mask, sizes[mask])
        rec = rec._replace(realizable_int={2: mask in int2})
        if rec.realizable_quasi:
            exceptional.append(rec)
    matches = len(exceptional) == 1 and exceptional[0].canonical == ref_canon
    return TheoremReport(4, tuple(exceptional), matches)
