"""Bit-set encoding of betweenness relations.

The n(n-1)(n-2) ordered triples of distinct point indices, sorted
lexicographically, define the bit positions of the encoding.  Everything
downstream (canonical forms, enumeration order, file output) relies on this
fixed order, so it lives in one place, with the lex order of ordered pairs
(digraph arc masks) and the one relabeling action on both, :func:`orbit`,
with the one rule for a class's least image and orbit size, :func:`orbit_class`.

The relabelings themselves are built once per n, in lex order, and shared.
Orbits, consistency and the 4-point signs read chunk tables: one row per
8-bit chunk of the encoding, one value per chunk value, so an answer is the
OR of the rows of its nonzero chunks (:func:`_chunk_or`).  Up to n=5 for
triples and n=6 for pairs, an orbit table value packs all n! images into one
int, lane by lane (:func:`_lanes`); past that an orbit reads its members'
images alone.  The conflict table holds the excluded companions of each
chunk value's triples, up to n=10.  :func:`set_bits` lists members; only two
hot loops list set bits inline (`core._packed_lines`, `kernels.shortest_paths`).
The one writer, :func:`mask_from_bits`, mirrors `set_bits`: a mask costs
time linear in its members plus its width, through :func:`mask_from_triples`
or `core.betweenness_mask`, which walks :func:`triple_rows` and builds no
table of all the triples.

The cost caps of the routes that grow with n live here too, where every
module that checks one can import it.
"""

import sys
from functools import lru_cache
from itertools import combinations, permutations, repeat
from math import factorial, log2, perm
from operator import index, itemgetter, or_


def triple_count(n: int) -> int:
    return n * (n - 1) * (n - 2)


@lru_cache(maxsize=None)
def ordered_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All ordered k-tuples of distinct indices in 0..n-1, lex order."""
    return tuple(permutations(range(n), k))


def ordered_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All ordered triples of distinct indices in 0..n-1, lex order."""
    return ordered_tuples(n, 3)


@lru_cache(maxsize=None)
def triple_rows(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """ordered_triples(n) grouped by their first pair: (x, y, zs) for each
    ordered pair in lex order, zs the third points in increasing order.  Row
    r holds bits r(n-2) to r(n-2) + n-3 in order, so counting along the rows
    counts the bits.  (x, y) and (y, x) share one tuple of n-2 points, where
    ordered_triples(n) holds one tuple per triple: 1.2 MB against 15 MB at
    n=60, 8.4 MB at n=121."""
    rest = {
        (x, y): (*range(x), *range(x + 1, y), *range(y + 1, n))
        for x, y in combinations(range(n), 2)
    }
    return tuple((x, y, rest[min(x, y), max(x, y)]) for x, y in ordered_pairs(n))


def triple_bit(n: int, triple) -> int | None:
    """The bit of triple (x, y, z) in the encoding, its index in
    ordered_triples(n), computed from x, y and z with no table: each x leads
    (n-1)(n-2) triples, each y after it n-2.  None if triple is not an
    ordered triple of distinct points in 0..n-1; a point must be an integer,
    as `operator.index` reads one, so 2.0 is not a point."""
    try:
        x, y, z = map(index, triple)
    except (TypeError, ValueError):
        return None
    if not (0 <= x < n and 0 <= y < n and 0 <= z < n) or x == y or y == z or z == x:
        return None
    return (x * (n - 1) + y - (y > x)) * (n - 2) + z - (z > x) - (z > y)


def triple_at(n: int, bit: int) -> tuple[int, int, int]:
    """ordered_triples(n)[bit], the inverse of :func:`triple_bit`, with no table."""
    x, rest = divmod(bit, (n - 1) * (n - 2))
    y, z = divmod(rest, n - 2)
    y += y >= x
    # z skips x and y, the lower first
    z += z >= (x if x < y else y)
    z += z >= (y if x < y else x)
    return x, y, z


def mask_from_bits(bits, width: int) -> int:
    """The mask of width bits whose set bits are bits, each in 0..width-1:
    the one writer of bit sets, the mirror of :func:`set_bits`.  It sets
    each bit in a bytearray as wide as the mask and converts it once, so its
    cost is linear in the bits plus the width, where `mask |= 1 << bit`
    copies the whole mask per bit."""
    buf = bytearray(-(-width // 8))
    for bit in bits:
        buf[bit >> 3] |= 1 << (bit & 7)
    return int.from_bytes(buf, "little")


def _placed_bits(n: int, triples):
    for t in triples:
        bit = triple_bit(n, t)
        if bit is None:
            raise ValueError(f"not an ordered triple of distinct points in range: {t}")
        yield bit


def mask_from_triples(n, triples) -> int:
    """The encoding of triples on n points, duplicates collapsed, each
    placed by :func:`triple_bit` and written by :func:`mask_from_bits`.
    ValueError, naming it, for a triple that is not an ordered triple of
    distinct points in 0..n-1."""
    return mask_from_bits(_placed_bits(n, triples), triple_count(n))


def set_bits(mask: int):
    """mask's set bits, lowest first, lazily, by 64-bit words: linear in its
    width; :func:`mask_from_bits` writes them back."""
    base = 0
    words = mask.to_bytes(-(-mask.bit_length() // 64) * 8, sys.byteorder)
    for word in memoryview(words).cast("Q"):
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low
        base += 64


def triples_from_mask(n: int, mask: int) -> tuple[tuple[int, int, int], ...]:
    """mask's members in bit order, placed by :func:`triple_at`, with no table."""
    return tuple(triple_at(n, i) for i in set_bits(mask))


@lru_cache(maxsize=None)
def conflict_masks(n: int) -> tuple[int, ...]:
    """conflict_masks(n)[i] has the bits of the two triples excluded by triple i.

    Membership of xyz rules out yxz and xzy.
    """
    return tuple(
        1 << triple_bit(n, (y, x, z)) | 1 << triple_bit(n, (x, z, y))
        for (x, y, z) in ordered_triples(n)
    )


@lru_cache(maxsize=None)
def _conflict_table(n: int) -> tuple[tuple[int, ...], ...] | None:
    """rows[c][v] is the OR of conflict_masks(n) over the set bits of value
    v in the 8-bit chunk c of an encoding, so the excluded companions of a
    mask's triples are the OR of its chunks' rows.  None, with nothing
    built, once the table would pass 2^24 bits (n > 10)."""
    nbits = triple_count(n)
    if -(-nbits // 8) * 256 * nbits > 1 << 24:
        return None
    return _chunk_rows(conflict_masks(n))


# The cost caps of the routes that grow with n, each checked against an
# estimate from n before anything is built.

# most relabelings a brute-force canonical form may try: 8! = 40,320; an
# orbit at n=8 already ORs 40,320 images per member triple
RELABELING_CAP = factorial(8)

# most integer matrices the bounded-integer sweeps may face: 4**12 covers
# n=4 up to K=4, and n=5 with K=2
INTEGER_SWEEP_CAP = 2**24

# most bytes of the packed line table (core._packed_table), one int of
# (n+1)n(n-1) bits per ordered triple, about n^6/8 bytes: 82 MB at n=30, and
# n=32, at 122 MB, is the largest it admits
LINE_TABLE_CAP = 2**27

# most entries of the realization LP's template rows
# (realizability._realization_rows), about 2n^5: 5.4 million at n=20, the
# largest n it admits in both variants
LP_TEMPLATE_CAP = 6 * 10**6


def _about(count: int) -> str:
    """count in decimal while it has at most 9 digits, else as a power of 2."""
    return str(count) if count < 10**9 else f"about 2^{log2(count):.1f}"


@lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple[tuple[int, ...], ...]:
    """Every relabeling of 0..n-1, in lexicographic order, the order of
    :func:`orbit`'s images.  Built once per n and shared by the orbits,
    canonical forms and isomorphism witnesses: 4.8 MB at n=8.  Refuses
    n! > RELABELING_CAP with a ValueError."""
    count = factorial(n)
    if count > RELABELING_CAP:
        raise ValueError(
            f"canonical forms are brute force over all relabelings; n={n} means "
            f"{n}! = {count} relabelings, over the cap of {RELABELING_CAP} (8!)"
        )
    return tuple(permutations(range(n)))


def ordered_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All ordered pairs of distinct indices in 0..n-1, lex order.

    The order of the off-diagonal entries in the sweeps' flat distance
    vectors, the digraph arc masks and the LP's pair variables.
    """
    return ordered_tuples(n, 2)


@lru_cache(maxsize=None)
def pair_position(n: int) -> dict[tuple[int, int], int]:
    return {p: k for k, p in enumerate(ordered_pairs(n))}


def pairs_from_mask(n: int, mask: int) -> tuple[tuple[int, int], ...]:
    return tuple(map(ordered_pairs(n).__getitem__, set_bits(mask)))


def _chunk_rows(singles) -> tuple[tuple[int, ...], ...]:
    """rows[c][v]: the OR of singles[8*c + j] over the set bits j of v, one
    row per 8-bit chunk; each value is one OR of an earlier value and a
    single.  :func:`_chunk_or` reads them."""
    rows = []
    for c in range(0, len(singles), 8):
        chunk = singles[c : c + 8]
        row = [0]
        for v in range(1, 1 << len(chunk)):
            row.append(row[v & (v - 1)] | chunk[(v & -v).bit_length() - 1])
        rows.append(tuple(row))
    return tuple(rows)


def _single_images(n: int, k: int, mask: int):
    """For each member of the k-tuple encoding mask, the images of its bit
    alone under every relabeling of 0..n-1 in lexicographic order, lazily."""
    tuples = ordered_tuples(n, k)
    bit = {t: 1 << i for i, t in enumerate(tuples)}
    perms = _relabelings(n)
    for i in set_bits(mask):
        yield map(bit.__getitem__, map(itemgetter(*tuples[i]), perms))


@lru_cache(maxsize=None)
def _orbit_table(n: int, k: int) -> tuple[str, int, tuple[tuple[int, ...], ...]] | None:
    """(lane, size, rows): rows[c][v] packs into one int the images, under
    every relabeling of 0..n-1 in lexicographic order, of the k-tuple
    encoding whose only nonzero 8-bit chunk is chunk c, with value v (SWAR,
    "SIMD within a register": Lamport 1975, "Multiple byte processing with
    full-word instructions"): :func:`_lanes` lists them, lane i the image
    under the i-th relabeling.  A lane is "I" (4 bytes) for encodings of at
    most 32 bits, else "Q" (8 bytes).  The rows are ORs of packed
    single-bit rows, so ORing a mask's rows (:func:`_chunk_or`) ORs its
    images lane by lane, and no lane carries into the next.  None, with
    nothing built, past about 2^20 images: above n=5 for triples and n=6
    for pairs, where a triple lane would be wider than 64 bits.
    """
    count, nbits = factorial(n), perm(n, k)
    if -(-nbits // 8) * 256 * count > 1 << 20:
        return None
    lane, lane_bytes = ("I", 4) if nbits <= 32 else ("Q", 8)
    singles = [_pack_lanes(row, lane_bytes) for row in _single_images(n, k, (1 << nbits) - 1)]
    return lane, count * lane_bytes, _chunk_rows(singles)


def _pack_lanes(values, width: int) -> int:
    """values packed into one int, value i in the i-th lane of width bytes,
    which :func:`_lanes` lists again."""
    order = sys.byteorder
    return int.from_bytes(b"".join([v.to_bytes(width, order) for v in values]), order)


def _lanes(table, packed: int, rows: int = 1) -> memoryview:
    """The lanes of rows :func:`_orbit_table` values packed one after another
    (:func:`_pack_lanes`): lane r * n! + i is row r's i-th image."""
    return memoryview(packed.to_bytes(rows * table[1], sys.byteorder)).cast(table[0])


def _chunk_or(rows, mask: int) -> int:
    """The OR of the :func:`_chunk_rows` rows of mask's nonzero 8-bit
    chunks, row c read at chunk c's value: the one reader of chunk tables."""
    packed = 0
    for row in rows:
        if not mask:
            break
        packed |= row[mask & 255]
        mask >>= 8
    return packed


def orbit(n: int, mask: int, k: int = 3) -> list[int]:
    """The images of an encoding under every relabeling of 0..n-1, in
    lexicographic order of the relabelings, so the identity's image comes
    first and the i-th image is that of `_relabelings(n)[i]`.

    Bit i of mask is ordered_tuples(n, k)[i]: triples by default, pairs for
    arc masks.  Reads :func:`_orbit_table` once.  With a table it unpacks
    the lanes of :func:`_chunk_or`; past it, it ORs the images of the
    mask's members alone.  Refuses n! > RELABELING_CAP with a ValueError.
    """
    table = _orbit_table(n, k)
    if table:
        return _lanes(table, _chunk_or(table[2], mask)).tolist()
    images = repeat(0, len(_relabelings(n)))
    for single in _single_images(n, k, mask):
        images = map(or_, images, single)
    return list(images)


def orbit_class(images) -> tuple[int, int]:
    """(least image, orbit size) of an encoding from its :func:`orbit`
    images.  images[0] is the identity's image, the encoding itself, so its
    count is the order of the encoding's stabilizer, and by orbit-stabilizer
    the orbit has len(images) // that count members."""
    return min(images), len(images) // images.count(images[0])


@lru_cache(maxsize=None)
def supports(n: int) -> tuple[tuple[int, int, int], ...]:
    """All 3-point supports (unordered, as sorted tuples)."""
    return tuple(combinations(range(n), 3))
