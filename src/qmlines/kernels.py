"""Kernels for the exhaustive hot loops: the integer and digraph sweeps.

Both sweeps compare betweenness encodings up to relabeling through
:func:`qmlines.encoding.orbit`.  The integer sweep is one depth-first walk
over the matrices with entries in 1..K; it is exhaustive, so its verdicts are
exact.  It cuts the branches of matrices with a lex-smaller relabeling
(lex-leader pruning, McKay 1998) and skips the leaves whose betweenness
mask it has met already; the first leaf of each class is then the
lex-first witness that a walk over every matrix would return.  The integer
sweep refuses more than INTEGER_SWEEP_CAP matrices, or more than RELABELING_CAP
relabelings, before it visits any.  The two canonical-witness sweeps are
memoized, so each (n, bound) is swept at most once per process, and an
integer or digraph query is a lookup in the map of its sweep.  One
breadth-first search per source over bit sets, :func:`shortest_paths`,
gives the digraph distances for the sweep and for single digraphs.

The digraph sweep reads the betweenness of its shortest-path rows through
:func:`qmlines.core.betweenness_mask`, the writer of every distance table's
encoding.  The integer walk keeps its own test: it bounds every entry once
per node by the triangles whose last pair it is, and the sums that set the
bounds also set the triples' bits, so the bits cost nothing extra; reading
each of the 254,602 leaves at n=4, K=4 again would be new work.
"""

from functools import lru_cache

from .core import as_index, betweenness_mask
from .encoding import (
    INTEGER_SWEEP_CAP,
    _relabelings,
    ordered_triples,
    orbit,
    pair_position,
    pairs_from_mask,
)

# the consistent classes on n points, as the class lists count them (a test
# checks these): the betweenness of every quasi-metric is consistent, so an
# integer map that holds this many classes is complete.  n=4 has no entry:
# only 273 of its 4,455 classes are quasi-realizable, so no map reaches the
# count, and a stop at 273 would take that count from the LP, which the
# integer maps are tested against
CONSISTENT_CLASSES = {2: 1, 3: 5}


def _bounds_by_depth(n):
    """Per depth, (tops, floors): the triangles that bound the entry of the
    pair at that depth once the pairs before it are assigned, each with the
    bit of its triple.  A top (a, b, bit) reads v <= vals[a] + vals[b], a
    floor (a, b, bit) reads v >= vals[a] - vals[b]; equality sets the bit.

    Pair variables are assigned in lex order.  The ordered triple (x, y, z)
    gives d(x,z) <= d(x,y) + d(y,z) at the depth of its last pair: a top if
    that pair is xz, else a floor.
    """
    pair_index = pair_position(n)
    bounds = [([], []) for _ in pair_index]
    for pos, (x, y, z) in enumerate(ordered_triples(n)):
        xz, xy, yz = pair_index[x, z], pair_index[x, y], pair_index[y, z]
        if xz > xy and xz > yz:
            bounds[xz][0].append((xy, yz, 1 << pos))
        else:
            bounds[max(xy, yz)][1].append((xz, min(xy, yz), 1 << pos))
    return bounds


@lru_cache(maxsize=None)
def _pair_relabelings(n):
    """The position maps of the non-identity relabelings on the flat entry
    vector, in the order of :func:`qmlines.encoding._relabelings`: entry k
    of the relabeled matrix is entry p[k] of the original."""
    pos = pair_position(n)
    # the identity is the first relabeling
    return tuple(tuple(pos[p[i], p[j]] for (i, j) in pos) for p in _relabelings(n)[1:])


def _integer_dfs(n, kmax, seen):
    """Yield (values, betweenness_mask) for each leaf whose mask is not in
    seen, in lex order of values (one flat list over ordered_pairs(n),
    reused between yields), of a DFS over the valid quasi-metrics with
    off-diagonal entries in 1..kmax, pruned by the triangle checks and by
    lex-leader comparisons.  The caller may add masks to seen between
    yields.  It builds its own tables.

    Every entry is bounded once per node: the triangles of
    :func:`_bounds_by_depth` leave it lo..hi, only those values are tried,
    and the sums that set the bounds also give the equality bits, which can
    hold only at lo or hi.

    For each relabeling p the walk compares vals with its image, entry k
    against entry p[k], as far as both are assigned.  It cuts the branch
    once some image is lex-smaller and forgets p once its image is
    lex-greater, so it reaches every lex-least matrix.  A comparison stuck
    at k waits in watch[max(k, p[k])], the depth whose assignment lets it
    go on.  Leaves take no comparison: with an empty seen, the walk yields
    254,602 at n=4, K=4, for 200,897 orbits.
    """
    relabelings = _pair_relabelings(n)
    bounds = _bounds_by_depth(n)
    npairs = n * (n - 1)
    last = npairs - 1
    vals = [0] * npairs
    # nodes[d] is (lo, hi, lo_bits, hi_bits, base) for the node at depth d:
    # its entry's range, the bits tight at each end, and the bits set before it
    nodes = [(1, kmax, 0, 0, 0)] * npairs
    # watch[w] holds (p, k): the image of p equals vals before entry k;
    # moved[d] lists the watch lists that depth d's current value appended
    # to, popped again before its next value
    watch = [[] for _ in range(npairs)]
    for p in relabelings:
        watch[p[0]].append((p, 0))
    moved = [[] for _ in range(npairs)]
    depth = 0
    while depth >= 0:
        log = moved[depth]
        while log:
            watch[log.pop()].pop()
        lo, hi, lo_bits, hi_bits, mask = nodes[depth]
        v = vals[depth] + 1
        if v > hi:
            depth -= 1
            continue
        vals[depth] = v
        if v == lo:
            mask |= lo_bits
        if v == hi:
            mask |= hi_bits
        if depth == last:
            if mask not in seen:
                yield vals, mask
            continue
        for p, k in watch[depth]:
            a = p[k]
            while vals[k] == vals[a]:
                k += 1
                a = p[k]
                if k > depth or a > depth:
                    w = k if k > a else a
                    watch[w].append((p, k))
                    log.append(w)
                    break
            else:
                if vals[k] > vals[a]:
                    break  # the image of p is lex-smaller
        else:
            depth += 1
            tops, floors = bounds[depth]
            hi, hi_bits = kmax, 0
            for (a, b, bit) in tops:
                s = vals[a] + vals[b]
                if s < hi:
                    hi, hi_bits = s, bit
                elif s == hi:
                    hi_bits |= bit
            lo, lo_bits = 1, 0
            for (a, b, bit) in floors:
                s = vals[a] - vals[b]
                if s > lo:
                    lo, lo_bits = s, bit
                elif s == lo:
                    lo_bits |= bit
            nodes[depth] = lo, hi, lo_bits, hi_bits, mask
            vals[depth] = lo - 1


@lru_cache(maxsize=None)
def integer_canon_witnesses(n: int, kmax: int) -> dict[int, tuple[int, ...]]:
    """Sweep the quasi-metrics with entries in 1..kmax; map canonical
    betweenness encodings to the lexicographically first witness entries.

    The walk gets the set of raw masks met so far and skips a leaf with one
    of them: the first leaf of a mask already put its class in the map.  At
    n=4, K=3 it asks 14,553 times and 1,348 masks are new.  The first leaf
    L of a class is the lex-least L* of its orbit: if L* < L, the walk
    reached L* first and yielded it or met its mask before.

    The sweep stops once the map holds all CONSISTENT_CLASSES[n] classes,
    since no later matrix can add one: at n=2 after the first matrix.

    Refuses with a ValueError, before the walk builds any table, a bound
    kmax that is not an integer or is below 1, and a sweep that could face
    more than INTEGER_SWEEP_CAP matrices or more than
    encoding.RELABELING_CAP relabelings.
    """
    kmax = as_index(kmax, "kmax")
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    estimate = kmax ** (n * (n - 1))
    if estimate > INTEGER_SWEEP_CAP:
        # the decimal while it is short: str() refuses over 4,300 digits
        exact = f" = {estimate}" if estimate < 10**99 else ""
        raise ValueError(
            f"integer search is exhaustive; n={n}, K={kmax} means up to "
            f"{kmax}^{n * (n - 1)}{exact} matrices, over the cap of "
            f"{INTEGER_SWEEP_CAP} (2^24)"
        )
    # refuses n! over the cap; the walk needs the relabelings anyway
    _relabelings(n)
    complete = CONSISTENT_CLASSES.get(n)
    result: dict[int, tuple[int, ...]] = {}
    # each distinct raw mask is yielded, and canonicalized, once
    seen: set[int] = set()
    for vals, mask in _integer_dfs(n, kmax, seen):
        seen.add(mask)
        best = min(orbit(n, mask))
        if best not in result:
            result[best] = tuple(vals)
            if len(result) == complete:
                break
    return result


@lru_cache(maxsize=None)
def digraph_canon_witnesses(n: int) -> dict[int, int]:
    """Map canonical betweenness encodings of strongly connected digraphs to
    their least arc mask (bit k: the k-th lex ordered pair).

    Relabeling commutes with shortest paths, so that mask is the least of
    its arc orbit: taking arc masks in increasing order and skipping those
    in the orbit of one taken before costs one APSP per digraph class (218
    at n=4, 9,608 at n=5).  Refuses n > 5 before any allocation.
    """
    if n > 5:
        # the GiB of marks, as a power of 2 once its decimal has 100 digits
        e = n * (n - 1) - 30
        raise ValueError(
            f"digraph search is exhaustive; n={n} exceeds the cap of 5: 2^{n * (n - 1)} "
            f"arc sets, one byte of marks each, {1 << e if e < 329 else f'2^{e}'} GiB"
        )
    marked = bytearray(1 << n * (n - 1))
    result: dict[int, int] = {}
    arc_mask = 0
    while arc_mask >= 0:
        for image in orbit(n, arc_mask, 2):
            marked[image] = 1
        d = shortest_paths(n, pairs_from_mask(n, arc_mask))
        if d is not None:
            result.setdefault(min(orbit(n, betweenness_mask(n, d))), arc_mask)
        arc_mask = marked.find(0, arc_mask + 1)
    return result


def shortest_paths(n: int, arcs) -> list[list[int]] | None:
    """Unweighted shortest-path lengths of the digraph on n vertices with
    the given arcs (i, j): one breadth-first search per source, over bit
    sets of out-neighbours.  None, at the first source that misses a
    vertex, unless the digraph is strongly connected."""
    out = [0] * n
    for (i, j) in arcs:
        out[i] |= 1 << j
    everyone = (1 << n) - 1
    rows = []
    for source in range(n):
        row = [0] * n
        reached = frontier = 1 << source
        level = 0
        while frontier:
            step = 0
            # set bits inline: set_bits, a generator per level, made an n=5 call 5.6 -> 14 us
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                row[v] = level
                step |= out[v]
                frontier ^= low
            level += 1
            frontier = step & ~reached
            reached |= frontier
        if reached != everyone:
            return None
        rows.append(row)
    return rows
