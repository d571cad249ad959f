"""Bit-set encoding of betweenness relations.

The n(n-1)(n-2) ordered triples of distinct point indices, sorted
lexicographically, define the bit positions of the encoding.  Everything
downstream (canonical forms, enumeration order, file output) relies on this
fixed order, so it lives in one place, with the lex order of ordered pairs
(digraph arc masks) and the one relabeling action on both, :func:`orbit`,
with the one rule for a class's least image and orbit size, :func:`orbit_class`.
"""

from functools import lru_cache
from itertools import combinations, islice, permutations, product
from math import factorial
from operator import itemgetter, or_


def triple_count(n: int) -> int:
    return n * (n - 1) * (n - 2)


@lru_cache(maxsize=None)
def ordered_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All ordered k-tuples of distinct indices in 0..n-1, lex order."""
    return tuple(t for t in product(range(n), repeat=k) if len(set(t)) == k)


def ordered_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All ordered triples of distinct indices in 0..n-1, lex order."""
    return ordered_tuples(n, 3)


@lru_cache(maxsize=None)
def triple_position(n: int) -> dict[tuple[int, int, int], int]:
    return {t: i for i, t in enumerate(ordered_triples(n))}


def mask_from_triples(n, triples) -> int:
    pos = triple_position(n)
    mask = 0
    for t in triples:
        t = tuple(t)
        if t not in pos:
            raise ValueError(f"not an ordered triple of distinct points in range: {t}")
        mask |= 1 << pos[t]
    return mask


def triples_from_mask(n: int, mask: int) -> tuple[tuple[int, int, int], ...]:
    lt = ordered_triples(n)
    return tuple(lt[i] for i in range(len(lt)) if mask >> i & 1)


@lru_cache(maxsize=None)
def conflict_masks(n: int) -> tuple[int, ...]:
    """conflict_masks(n)[i] has the bits of the two triples excluded by triple i.

    Membership of xyz rules out yxz and xzy.
    """
    pos = triple_position(n)
    out = []
    for (x, y, z) in ordered_triples(n):
        out.append(1 << pos[(y, x, z)] | 1 << pos[(x, z, y)])
    return tuple(out)


def nth_permutation(n: int, i: int) -> tuple[int, ...]:
    """The i-th relabeling of 0..n-1 in lexicographic order, the order of
    :func:`orbit`.  Not cached: all 8! relabelings would hold 5 MB."""
    return next(islice(permutations(range(n)), i, None))


# most relabelings a brute-force canonical form may try: 8! = 40,320; the
# one-bit orbit table at n=8 already holds 336 * 40,320 references
RELABELING_CAP = factorial(8)


def ordered_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All ordered pairs of distinct indices in 0..n-1, lex order.

    The order of the off-diagonal entries in the sweeps' flat distance
    vectors, the digraph arc masks and the LP's pair variables.
    """
    return ordered_tuples(n, 2)


@lru_cache(maxsize=None)
def _orbit_table(n: int, k: int) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """(width, rows): rows[c][v] holds the images, under every relabeling of
    0..n-1 in lexicographic order, of the k-tuple encoding whose only nonzero
    chunk is chunk c (bits width*c .. width*c + width - 1), with value v.

    Chunks are 8 bits wide while the table stays under about 2^20 entries
    (n <= 5) and 1 bit wide above that.  Single-bit rows share their
    ``1 << k`` ints and one zero row, which keeps the n=8 table at about
    108 MB (336 rows of 40,320 references).
    """
    count = factorial(n)
    if count > RELABELING_CAP:
        raise ValueError(
            f"canonical forms are brute force over all relabelings; n={n} means "
            f"{n}! = {count} relabelings, over the cap of {RELABELING_CAP} (8!)"
        )
    tuples = ordered_tuples(n, k)
    nbits = len(tuples)
    width = 8 if -(-nbits // 8) * 256 * count <= 1 << 20 else 1
    pos = {t: i for i, t in enumerate(tuples)}
    perms = list(permutations(range(n)))
    powers = [1 << i for i in range(nbits)]
    zero = (0,) * count
    bit_rows = [
        tuple(powers[pos[u]] for u in map(itemgetter(*t), perms)) for t in tuples
    ]
    rows = []
    for c in range(-(-nbits // width)):
        row = [zero]
        for v in range(1, 1 << width):
            low = (v & -v).bit_length() - 1
            bit = width * c + low
            single = bit_rows[bit] if bit < nbits else zero
            rest = v & (v - 1)
            row.append(single if not rest else tuple(map(or_, row[rest], single)))
        rows.append(tuple(row))
    return width, tuple(rows)


def orbit(n: int, mask: int, k: int = 3) -> list[int]:
    """The images of an encoding under every relabeling of 0..n-1, in
    lexicographic order of the relabelings, so the identity's image comes
    first and the i-th image is that of nth_permutation(n, i).

    Bit i of mask is ordered_tuples(n, k)[i]: triples by default, pairs for
    arc masks.  ORs the table rows of the nonzero chunks of mask.  Refuses
    n! > RELABELING_CAP with a ValueError.
    """
    width, rows = _orbit_table(n, k)
    ones = (1 << width) - 1
    images = None
    for row in rows:
        if not mask:
            break
        value = mask & ones
        if value:
            images = row[value] if images is None else map(or_, images, row[value])
        mask >>= width
    return [0] * factorial(n) if images is None else list(images)


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
