"""Independent oracles for the test suite.

Everything here recomputes expected values from first principles, sharing as
little code as possible with the implementation under test: lines straight
from distance entries, LP optima by exhaustive vertex enumeration, random
quasi-metrics by min-plus closure, bounded-integer realizations and
digraph classes by trying every matrix or arc set, lines straight from the
member triples, isomorphism classes by canonicalizing every relation, and
realization systems built row by row for each relation.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

from qmlines.core import betweenness_of
from qmlines.encoding import orbit, ordered_triples
from qmlines.enumeration import raw_consistent_masks
from qmlines.isomorphism import canonical_form
from qmlines.lp import EPS_VAR, Constraint, LinearSystem, pair_var, pair_variables
from qmlines.realizability import Digraph, digraph_distances, is_strongly_connected


def line_from_distances(entries, n: int, x: int, y: int) -> frozenset[int]:
    """The line of (x, y) read off the distance matrix directly:
    z is on it iff x is in [zy], z is in [xy], or y is in [xz]."""
    d = entries
    pts = set()
    for z in range(n):
        if z == x or z == y:
            pts.add(z)
        elif d[z][y] == d[z][x] + d[x][y]:
            pts.add(z)
        elif d[x][y] == d[x][z] + d[z][y]:
            pts.add(z)
        elif d[x][z] == d[x][y] + d[y][z]:
            pts.add(z)
    return frozenset(pts)


def line_from_triples(b, x: int, y: int) -> frozenset[int]:
    """The line of (x, y) read off the member triples directly:
    z is on it iff (z,x,y), (x,z,y) or (x,y,z) is a member."""
    members = set(b.triples)
    return frozenset(
        z
        for z in range(b.n)
        if z in (x, y) or {(z, x, y), (x, z, y), (x, y, z)} & members
    )


def classes_by_counting(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical encoding, orbit size) per class, by canonicalizing every
    relation of the raw stream: it meets each orbit member once, so a
    class's multiplicity is its orbit size."""
    canons = Counter(min(orbit(n, m)) for m in raw_consistent_masks(n))
    return tuple(sorted(canons.items()))


def min_plus_closure(rows):
    """Floyd-Warshall closure; turns any positive off-diagonal matrix into a
    quasi-metric (zero diagonal, triangle inequality by construction)."""
    n = len(rows)
    d = [[Fraction(0) if i == j else Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return tuple(tuple(row) for row in d)


def _solve_square(matrix, rhs):
    """Exact Gaussian elimination; None when singular."""
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        piv = a[col][col]
        a[col] = [v / piv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def brute_force_lp_max(variables, constraints, objective):
    """Maximize objective over {x : constraints}, by checking every vertex.

    constraints: (coeffs dict, relation in {"=", "<="}, rhs) triples.  Only
    sound when the feasible region is a polytope (callers add box bounds),
    so every feasible instance has an optimal vertex.  Returns
    ("infeasible", None) or ("optimal", value).
    """
    n = len(variables)
    vindex = {v: k for k, v in enumerate(variables)}
    rows = []
    for coeffs, rel, rhs in constraints:
        vec = [Fraction(0)] * n
        for v, c in coeffs.items():
            vec[vindex[v]] += Fraction(c)
        rows.append((vec, rel, Fraction(rhs)))
    obj = [Fraction(0)] * n
    for v, c in objective.items():
        obj[vindex[v]] += Fraction(c)

    def feasible(x):
        for vec, rel, rhs in rows:
            lhs = sum(c * xi for c, xi in zip(vec, x))
            if rel == "=" and lhs != rhs:
                return False
            if rel == "<=" and lhs > rhs:
                return False
        return True

    best = None
    for subset in combinations(range(len(rows)), n):
        matrix = [rows[i][0] for i in subset]
        rhs = [rows[i][2] for i in subset]
        x = _solve_square(matrix, rhs)
        if x is None or not feasible(x):
            continue
        value = sum(c * xi for c, xi in zip(obj, x))
        if best is None or value > best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def first_integer_realization(n: int, triples, kmax: int):
    """The first matrix, in itertools.product order over the off-diagonal
    entries (row by row) in 1..kmax, that is a quasi-metric and whose
    betweenness is a relabeling of the set of ordered triples; None if none.

    Zero diagonal and positive entries hold by construction, so validity is
    the triangle inequality.  Returns the rows as tuples of ints.
    """
    target = frozenset(map(tuple, triples))
    pts = range(n)
    pairs = [(i, j) for i in pts for j in pts if i != j]
    distinct = [(x, y, z) for x in pts for y in pts for z in pts if len({x, y, z}) == 3]
    relabeled = {
        frozenset((p[x], p[y], p[z]) for (x, y, z) in target) for p in permutations(pts)
    }
    for flat in product(range(1, kmax + 1), repeat=len(pairs)):
        d = [[0] * n for _ in pts]
        for (i, j), v in zip(pairs, flat):
            d[i][j] = v
        if any(d[x][z] > d[x][y] + d[y][z] for (x, y, z) in distinct):
            continue
        between = frozenset((x, y, z) for (x, y, z) in distinct if d[x][z] == d[x][y] + d[y][z])
        if between in relabeled:
            return tuple(map(tuple, d))
    return None


def first_digraph_per_class(n: int) -> dict[int, int]:
    """Canonical betweenness encoding -> first arc mask, walking all
    2^(n(n-1)) arc masks in increasing order (bit k is the k-th ordered pair
    of distinct points, row by row) with no orbit skipping."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    first: dict[int, int] = {}
    for arc_mask in range(1 << len(pairs)):
        g = Digraph(n, frozenset(p for k, p in enumerate(pairs) if arc_mask >> k & 1))
        if is_strongly_connected(g):
            canon, _ = canonical_form(betweenness_of(digraph_distances(g)))
            first.setdefault(canon.mask, arc_mask)
    return first


def realization_system_by_construction(b, variant: str):
    """The realization system of a consistent relation b, every row built
    afresh: positivity rows, one row per ordered triple (the member equality
    or the non-member row with eps), symmetry rows (metric), normalization."""
    n = b.n
    one = Fraction(1)
    cons = []
    for d in pair_variables(n):
        cons.append(Constraint({EPS_VAR: one, d: -one}, "<=", 0))
    for (x, y, z) in ordered_triples(n):
        coeffs = {pair_var(x, z): one, pair_var(x, y): -one, pair_var(y, z): -one}
        if (x, y, z) in b:
            cons.append(Constraint(coeffs, "=", 0))
        else:
            coeffs[EPS_VAR] = one
            cons.append(Constraint(coeffs, "<=", 0))
    if variant == "metric":
        for i in range(n):
            for j in range(i + 1, n):
                cons.append(Constraint({pair_var(i, j): one, pair_var(j, i): -one}, "=", 0))
    cons.append(Constraint({d: one for d in pair_variables(n)}, "=", 1))
    return LinearSystem(n, tuple(cons))
