"""Kernels for the exhaustive hot loops: the integer and digraph sweeps.

Both sweeps compare betweenness encodings up to relabeling through
:func:`qmlines.encoding.orbit`.  The integer sweep is one depth-first walk
over the matrices with entries in 1..K; it is exhaustive, so its verdicts are
exact.  It keeps only the lex-least matrix of each relabeling orbit
(lex-leader pruning, McKay 1998).  The lex-first witness of a class is the
lex-least of its own orbit, so the sweep returns the same witness as a walk
over every matrix would.  The integer sweep refuses more than
INTEGER_SWEEP_CAP matrices, or more than RELABELING_CAP relabelings, before
it visits any.  The two canonical-witness sweeps are memoized, so each
(n, bound) is swept at most once per process, and an integer or digraph
query is a lookup in the map of its sweep.  One Floyd-Warshall pass,
:func:`shortest_paths`, gives the digraph distances for the sweep and for
single digraphs.

The digraph sweep reads the betweenness of its shortest-path rows through
:func:`qmlines.core.betweenness_mask`, the reader behind every distance
table.  The integer walk keeps its own test: it sets a triple's bit in the
same comparison that prunes the triangle inequality, at the depth where the
triple's last pair is assigned, so the bits cost nothing extra; reading
each of the 200,897 leaves at n=4, K=4 again would be new work.
"""

from functools import lru_cache

from .core import betweenness_mask
from .encoding import ordered_pairs, ordered_triples, orbit

# most integer matrices the bounded-integer sweeps may face: 4**12 covers
# n=4 up to K=4, and n=5 with K=2
INTEGER_SWEEP_CAP = 2**24


def _triples_by_depth(n):
    """Per depth, (xz, xy, yz, bit) for each ordered triple (x, y, z) whose
    three pairs are all assigned once the pair at that depth is.

    Pair variables are assigned in lex order.  The triple gives the triangle
    check d(x,z) <= d(x,y) + d(y,z); equality sets its betweenness bit.
    """
    pair_index = {p: k for k, p in enumerate(ordered_pairs(n))}
    by_depth = [[] for _ in range(len(pair_index))]
    for pos, (x, y, z) in enumerate(ordered_triples(n)):
        xz, xy, yz = pair_index[(x, z)], pair_index[(x, y)], pair_index[(y, z)]
        by_depth[max(xz, xy, yz)].append((xz, xy, yz, 1 << pos))
    return by_depth


@lru_cache(maxsize=None)
def _pair_relabelings(n):
    """The position maps of the non-identity relabelings on the flat entry
    vector: entry k of the relabeled matrix is entry p[k] of the original,
    read off :func:`orbit` on the one-pair arc masks.  Each map ends in the
    sentinel n(n-1) + 1, past every depth, so a comparison that finds every
    entry equal waits forever instead of running off the end."""
    npairs = n * (n - 1)
    images = [orbit(n, 1 << k, 2) for k in range(npairs)]
    maps = zip(*([image.bit_length() - 1 for image in row] for row in images))
    identity, sentinel = tuple(range(npairs)), (npairs + 1,)
    return tuple(p + sentinel for p in maps if p != identity)


def _integer_dfs(n, kmax, by_depth, relabelings):
    """Yield (values, betweenness_mask) for the lex-least matrix of each
    relabeling orbit of the valid quasi-metrics with off-diagonal entries in
    1..kmax, in lex order of values (one flat list over ordered_pairs(n),
    reused between yields): a DFS over the entries in lex order, pruned by
    the triangle checks and by lex-leader comparisons.

    For each relabeling p the walk compares vals with its image, entry k
    against entry p[k], as far as both are assigned.  It cuts the branch
    once some image is lex-smaller and forgets p once its image is
    lex-greater; at a leaf every comparison is decided, so the leaves are
    the lex-least matrices of their orbits.  A comparison stuck at k waits
    in watch[max(k, p[k])], the depth whose assignment lets it go on.
    """
    npairs = n * (n - 1)
    last = npairs - 1
    vals = [0] * npairs
    # masks[d] holds the betweenness bits set before depth d is assigned
    masks = [0] * (npairs + 1)
    # watch[w] holds (p, k): the image of p equals vals before entry k;
    # moved[d] lists the watch lists that depth d's current value appended
    # to, popped again before its next value
    watch = [[] for _ in range(npairs + 2)]
    for p in relabelings:
        watch[p[0]].append((p, 0))
    moved = [[] for _ in range(npairs)]
    depth = 0
    while depth >= 0:
        log = moved[depth]
        while log:
            watch[log.pop()].pop()
        v = vals[depth] + 1
        if v > kmax:
            vals[depth] = 0
            depth -= 1
            continue
        vals[depth] = v
        bits = 0
        for (xz, xy, yz, bit) in by_depth[depth]:
            s = vals[xy] + vals[yz]
            if vals[xz] > s:
                break
            if vals[xz] == s:
                bits |= bit
        else:  # every triangle check passed
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
                masks[depth + 1] = masks[depth] | bits
                if depth == last:
                    yield vals, masks[npairs]
                else:
                    depth += 1


@lru_cache(maxsize=None)
def integer_canon_witnesses(n: int, kmax: int) -> dict[int, tuple[int, ...]]:
    """Sweep the lex-least matrix of each orbit of quasi-metrics with entries
    in 1..kmax; map canonical betweenness encodings to the lexicographically
    first witness entries.

    Refuses with a ValueError, before any table is built, a sweep that could
    face more than INTEGER_SWEEP_CAP matrices or more than
    encoding.RELABELING_CAP relabelings.
    """
    estimate = kmax ** (n * (n - 1))
    if estimate > INTEGER_SWEEP_CAP:
        raise ValueError(
            f"integer search is exhaustive; n={n}, K={kmax} means up to "
            f"{kmax}^{n * (n - 1)} = {estimate} matrices, over the cap of "
            f"{INTEGER_SWEEP_CAP} (2^24)"
        )
    relabelings = _pair_relabelings(n)
    result: dict[int, tuple[int, ...]] = {}
    # a raw mask's first leaf already put its class in result, so each
    # distinct raw mask is canonicalized once
    seen: set[int] = set()
    for vals, mask in _integer_dfs(n, kmax, _triples_by_depth(n), relabelings):
        if mask not in seen:
            seen.add(mask)
            best = min(orbit(n, mask))
            if best not in result:
                result[best] = tuple(vals)
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
    if n > 5:  # the marks take one byte per arc set, 1 GiB at n=6
        raise ValueError(f"digraph search is exhaustive; n={n} exceeds the cap of 5")
    pairs = ordered_pairs(n)
    marked = bytearray(1 << len(pairs))
    result: dict[int, int] = {}
    arc_mask = 0
    while arc_mask >= 0:
        for image in orbit(n, arc_mask, 2):
            marked[image] = 1
        d = shortest_paths(n, (p for k, p in enumerate(pairs) if arc_mask >> k & 1))
        if d is not None:
            result.setdefault(min(orbit(n, betweenness_mask(n, d))), arc_mask)
        arc_mask = marked.find(0, arc_mask + 1)
    return result


def shortest_paths(n: int, arcs) -> list[list[int]] | None:
    """Unweighted shortest-path lengths (Floyd-Warshall) of the digraph on
    n vertices with the given arcs (i, j); None if some vertex cannot reach
    another, that is, unless the digraph is strongly connected."""
    inf = n + 1  # longer than any simple path
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for (i, j) in arcs:
        d[i][j] = 1
    for m in range(n):
        dm = d[m]
        for i in range(n):
            dim = d[i][m]
            if dim >= inf:
                continue
            di = d[i]
            for j in range(n):
                v = dim + dm[j]
                if v < di[j]:
                    di[j] = v
    if any(v >= inf for row in d for v in row):
        return None
    return d
