"""Kernels for the exhaustive hot loops: the integer and digraph sweeps.

Both sweeps compare betweenness encodings up to relabeling through
:func:`qmlines.encoding.orbit`.  The integer sweeps refuse more than
INTEGER_SWEEP_CAP matrices before they visit any.  The two canonical-witness
sweeps are memoized, so each (n, bound) is swept at most once per process.
"""

from functools import lru_cache

from .encoding import ordered_pairs, ordered_triples, orbit

# most integer matrices the bounded-integer sweeps may face: 4**12 covers
# n=4 up to K=4, and n=5 with K=2
INTEGER_SWEEP_CAP = 2**24


def _triangle_checks_by_depth(n):
    """Triangle checks d[a] <= d[b] + d[c] grouped by the depth that completes them.

    Pair variables are assigned in lex order; check (x,z,y), i.e.
    d(x,y) <= d(x,z) + d(z,y), fires once all three pairs have values.
    """
    pair_index = {p: k for k, p in enumerate(ordered_pairs(n))}
    by_depth = [[] for _ in range(len(pair_index))]
    for x in range(n):
        for z in range(n):
            for y in range(n):
                if x == y or x == z or y == z:
                    continue
                a, b, c = pair_index[(x, y)], pair_index[(x, z)], pair_index[(z, y)]
                by_depth[max(a, b, c)].append((a, b, c))
    return by_depth


def _betweenness_pair_indices(n):
    """Per encoding bit, the pair indices (xz, xy, yz) whose equality sets it."""
    pair_index = {p: k for k, p in enumerate(ordered_pairs(n))}
    return [
        (pair_index[(x, z)], pair_index[(x, y)], pair_index[(y, z)])
        for (x, y, z) in ordered_triples(n)
    ]


def _integer_sweep(n, kmax):
    """The sweep of _iter_valid_integer_matrices, refused with a ValueError
    when it could face more than INTEGER_SWEEP_CAP matrices.

    The check runs on the call, before the generator starts, so a refused
    sweep visits no matrix.
    """
    estimate = kmax ** (n * (n - 1))
    if estimate > INTEGER_SWEEP_CAP:
        raise ValueError(
            f"integer search is exhaustive; n={n}, K={kmax} means up to "
            f"{kmax}^{n * (n - 1)} = {estimate} matrices, over the cap of "
            f"{INTEGER_SWEEP_CAP} (2^24)"
        )
    return _iter_valid_integer_matrices(n, kmax)


def _iter_valid_integer_matrices(n, kmax):
    """DFS over off-diagonal entries in 1..kmax, lex order, triangle-pruned.

    Yields (values, betweenness_mask) for every valid quasi-metric.
    """
    npairs = n * (n - 1)
    checks = _triangle_checks_by_depth(n)
    bet = _betweenness_pair_indices(n)
    vals = [0] * npairs
    depth = 0
    while depth >= 0:
        vals[depth] += 1
        if vals[depth] > kmax:
            vals[depth] = 0
            depth -= 1
            continue
        ok = True
        for (a, b, c) in checks[depth]:
            if vals[a] > vals[b] + vals[c]:
                ok = False
                break
        if not ok:
            continue
        if depth == npairs - 1:
            mask = 0
            for bit, (xz, xy, yz) in enumerate(bet):
                if vals[xz] == vals[xy] + vals[yz]:
                    mask |= 1 << bit
            yield vals, mask
        else:
            depth += 1


@lru_cache(maxsize=None)
def integer_canon_witnesses(n: int, kmax: int) -> dict[int, tuple[int, ...]]:
    """Sweep all quasi-metrics with entries in 1..kmax; map canonical
    betweenness encodings to the lexicographically first witness entries."""
    result: dict[int, tuple[int, ...]] = {}
    for vals, mask in _integer_sweep(n, kmax):
        best = min(orbit(n, mask))
        if best not in result:
            result[best] = tuple(vals)
    return result


def find_integer_witness(n: int, kmax: int, mask: int) -> tuple[int, ...] | None:
    """First (lex order) valid integer matrix whose raw betweenness mask is a
    relabeling of mask, or None after exhausting the search space."""
    matrices = _integer_sweep(n, kmax)  # refuses before the orbit table is built
    targets = frozenset(orbit(n, mask))
    for vals, m in matrices:
        if m in targets:
            return tuple(vals)
    return None


def _digraph_distance_masks(n):
    """Yield (arc_mask, betweenness_mask) over strongly connected digraphs.

    Arc bit k corresponds to the k-th lex ordered pair; distances are
    unweighted shortest-path lengths.
    """
    pairs = ordered_pairs(n)
    npairs = len(pairs)
    trips = ordered_triples(n)
    inf = n + 1  # longer than any simple path
    for arc_mask in range(1 << npairs):
        d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for k in range(npairs):
            if arc_mask >> k & 1:
                i, j = pairs[k]
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
        if any(d[i][j] >= inf for i in range(n) for j in range(n)):
            continue
        mask = 0
        for bit, (x, y, z) in enumerate(trips):
            if d[x][z] == d[x][y] + d[y][z]:
                mask |= 1 << bit
        yield arc_mask, mask


@lru_cache(maxsize=None)
def digraph_canon_witnesses(n: int) -> dict[int, int]:
    """Sweep all strongly connected digraphs; map canonical betweenness
    encodings to the first realizing arc mask."""
    result: dict[int, int] = {}
    for arc_mask, mask in _digraph_distance_masks(n):
        best = min(orbit(n, mask))
        if best not in result:
            result[best] = arc_mask
    return result


def find_digraph_witness(n: int, mask: int) -> int | None:
    """First arc mask of a strongly connected digraph whose betweenness mask
    is a relabeling of mask, or None."""
    targets = frozenset(orbit(n, mask))
    for arc_mask, m in _digraph_distance_masks(n):
        if m in targets:
            return arc_mask
    return None
