"""Independent oracles for the test suite.

Everything here recomputes expected values from first principles, sharing as
little code as possible with the implementation under test: lines straight
from distance entries, LP optima by exhaustive vertex enumeration, random
quasi-metrics by min-plus closure, bounded-integer realizations, integer
witness maps and digraph classes by trying every matrix or arc set (digraph
distances by Floyd-Warshall), lines straight from the member triples,
a relation's whole line set, counts and DBE verdict from its encoding,
every consistent relation as the product of per-support patterns,
isomorphism classes by canonicalizing every relation, realization systems
built row by row for each relation, the simplex with two stored columns
(x+ and x-) per free variable, whose pivots the solver must repeat, and the
relations with too few lines by a stdlib brute force over every consistent
relation, quasi-metric axiom violations on the Fraction entries of a
matrix, with no integer table, the images of an encoding under every
relabeling by relabeling its member triples or pairs one by one,
encodings by setting the bit of each member triple one by one,
consistency by the set-bit loop over the conflict masks that the chunked
conflict table replaced, quasi-semimetrics by their axioms, one
integer certificate per 4-point Horn rule and one for the metric reversal
bound, with their checker, the cut semimetrics by definition, and the
zero-slack check by loops over the relabeled rules and tight masks.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

from qmlines.core import DistanceMatrix, betweenness_of
from qmlines.encoding import conflict_masks, orbit
from qmlines.isomorphism import canonical_form


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


def violations_by_fractions(m) -> list[tuple[str, tuple[int, ...], str]]:
    """Every broken quasi-metric axiom of m, as (kind, points, detail), in the
    order and words of `validate_quasi_metric`, with every comparison made
    on the Fraction entries themselves."""
    d, lab, n = m.entries, m.labels, m.n
    found = [
        ("diagonal", (i,), f"d({lab[i]},{lab[i]}) = {d[i][i]} != 0")
        for i in range(n)
        if d[i][i] != 0
    ]
    found += [
        ("positivity", (i, j), f"d({lab[i]},{lab[j]}) = {d[i][j]} <= 0")
        for i in range(n)
        for j in range(n)
        if i != j and d[i][j] <= 0
    ]
    found += [
        (
            "triangle",
            (x, z, y),
            f"d({lab[x]},{lab[y]}) = {d[x][y]} > "
            f"d({lab[x]},{lab[z]}) + d({lab[z]},{lab[y]}) = {d[x][z] + d[z][y]}",
        )
        for x in range(n)
        for z in range(n)
        for y in range(n)
        if d[x][y] > d[x][z] + d[z][y]
    ]
    return found


def line_from_triples(b, x: int, y: int) -> frozenset[int]:
    """The line of (x, y) read off the member triples directly:
    z is on it iff (z,x,y), (x,z,y) or (x,y,z) is a member."""
    members = set(b.triples)
    return frozenset(
        z
        for z in range(b.n)
        if z in (x, y) or {(z, x, y), (x, z, y), (x, y, z)} & members
    )


def lines_by_members(n: int, mask: int):
    """(by_pair, lines, line_count, has_universal, satisfies_dbe) of the
    relation with encoding mask (bit i for the i-th ordered triple of
    distinct points, lex order), from its member triples alone: z is on
    line(x, y) iff zxy, xzy or xyz is a member; DBE holds iff some line is
    universal or there are at least n distinct lines."""
    members = {t for i, t in enumerate(permutations(range(n), 3)) if mask >> i & 1}
    by_pair = {
        (x, y): frozenset(
            z for z in range(n) if z in (x, y) or {(z, x, y), (x, z, y), (x, y, z)} & members
        )
        for x, y in permutations(range(n), 2)
    }
    lines = frozenset(by_pair.values())
    universal = frozenset(range(n)) in lines
    return by_pair, lines, len(lines), universal, universal or len(lines) >= n


def support_patterns() -> list[tuple[tuple[int, int, int], ...]]:
    """The consistent patterns of one 3-point support, listed here from the
    rule as written (xyz rules out yxz and xzy): every subset of the 6
    ordered triples, by size, then in combinations order."""
    perms = list(permutations(range(3)))
    patterns = [
        chosen
        for k in range(len(perms) + 1)
        for chosen in combinations(perms, k)
        if not any((y, x, z) in chosen or (x, z, y) in chosen for (x, y, z) in chosen)
    ]
    assert len(patterns) == 18
    return patterns


def consistent_masks(n: int):
    """Every consistent relation on n points exactly once, as its encoding
    (bit i for the i-th ordered triple in lex order): the product over the
    supports, in lex order, of their patterns, the last support fastest."""
    bit = {t: 1 << i for i, t in enumerate(permutations(range(n), 3))}
    per_support = [
        [sum(bit[s[x], s[y], s[z]] for (x, y, z) in p) for p in support_patterns()]
        for s in combinations(range(n), 3)
    ]
    for parts in product(*per_support):
        yield sum(parts)


def orbit_by_relabeling(n: int, mask: int, k: int = 3) -> list[int]:
    """The images of an encoding (bit i for the i-th ordered k-tuple of
    distinct points, lex order) under every relabeling of 0..n-1 in lex
    order, each member tuple relabeled and its bit set one at a time."""
    tuples = list(permutations(range(n), k))
    bit = {t: 1 << i for i, t in enumerate(tuples)}
    members = [t for i, t in enumerate(tuples) if mask >> i & 1]
    return [
        sum(bit[tuple(p[x] for x in t)] for t in members)
        for p in permutations(range(n))
    ]


def triples_by_table_filter(n: int, mask: int) -> tuple[tuple[int, int, int], ...]:
    """The member triples of an encoding, by filtering the lex-ordered table
    of every ordered triple on the mask's bits."""
    return tuple(t for i, t in enumerate(permutations(range(n), 3)) if mask >> i & 1)


def mask_triple_by_triple(n: int, member) -> int:
    """The encoding on n points whose bit i is set iff member(t) holds for
    the i-th ordered triple t of distinct points in lex order, set one
    triple at a time by `mask |= 1 << i`."""
    mask = 0
    for i, t in enumerate(permutations(range(n), 3)):
        if member(t):
            mask |= 1 << i
    return mask


def pairs_by_table_filter(n: int, mask: int) -> tuple[tuple[int, int], ...]:
    """The member pairs of an arc mask, by filtering the lex-ordered table
    of every ordered pair on the mask's bits."""
    return tuple(p for i, p in enumerate(permutations(range(n), 2)) if mask >> i & 1)


def consistent_by_set_bits(n: int, mask: int) -> bool:
    """Consistency one member triple at a time: no set bit's conflict mask
    (its two excluded companions) meets the mask."""
    conflicts = conflict_masks(n)
    m = mask
    while m:
        low = m & -m
        if mask & conflicts[low.bit_length() - 1]:
            return False
        m ^= low
    return True


def classes_by_counting(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical encoding, orbit size) per class, by canonicalizing every
    consistent relation: the stream meets each orbit member once, so a
    class's multiplicity is its orbit size."""
    canons = Counter(min(orbit(n, m)) for m in consistent_masks(n))
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


def first_integer_per_class(n: int, kmax: int) -> dict[int, tuple[int, ...]]:
    """Canonical betweenness encoding -> first off-diagonal entry tuple,
    walking every matrix with entries in 1..kmax in itertools.product order
    (row by row) with no pruning.

    Uses nothing from qmlines: bit i is the i-th ordered triple of distinct
    points in lex order, a matrix is valid iff every triangle inequality
    holds, and the canonical encoding is the least encoding over all
    relabelings of the members.
    """
    pts = range(n)
    pairs = [(i, j) for i in pts for j in pts if i != j]
    triples = [t for t in product(pts, repeat=3) if len(set(t)) == 3]
    bit = {t: 1 << i for i, t in enumerate(triples)}
    perms = list(permutations(pts))
    first: dict[int, tuple[int, ...]] = {}
    canon_of: dict[int, int] = {}
    for flat in product(range(1, kmax + 1), repeat=len(pairs)):
        d = dict(zip(pairs, flat))
        if any(d[(x, z)] > d[(x, y)] + d[(y, z)] for (x, y, z) in triples):
            continue
        members = [(x, y, z) for (x, y, z) in triples if d[(x, z)] == d[(x, y)] + d[(y, z)]]
        mask = sum(bit[t] for t in members)
        if mask not in canon_of:
            canon_of[mask] = min(
                sum(bit[(p[x], p[y], p[z])] for (x, y, z) in members) for p in perms
            )
        first.setdefault(canon_of[mask], flat)
    return first


def first_digraph_per_class(n: int) -> dict[int, int]:
    """Canonical betweenness encoding -> first arc mask, walking all
    2^(n(n-1)) arc masks in increasing order (bit k is the k-th ordered pair
    of distinct points, row by row) with no orbit skipping."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    first: dict[int, int] = {}
    for arc_mask in range(1 << len(pairs)):
        d = floyd_warshall_distances(n, [p for k, p in enumerate(pairs) if arc_mask >> k & 1])
        if d is not None:
            m = DistanceMatrix(tuple(map(str, range(n))), d)
            canon, _ = canonical_form(betweenness_of(m))
            first.setdefault(canon.mask, arc_mask)
    return first


def floyd_warshall_distances(n: int, arcs) -> list[list[int]] | None:
    """Shortest-path lengths as the min-plus closure of the arc lengths: 1
    for an arc, n (longer than any simple path) for a missing one.  None
    unless every vertex reaches every other (strong connectivity)."""
    arcs = set(arcs)
    d = min_plus_closure([[1 if (i, j) in arcs else n for j in range(n)] for i in range(n)])
    if any(n in row for row in d):
        return None
    return [[int(v) for v in row] for row in d]


def realization_system_by_construction(b, variant: str) -> tuple:
    """The integer rows of the realization system of a consistent relation
    b, every row built afresh over the variables d(i, j), (i, j) in lex
    order, then eps: positivity rows, one row per ordered triple (the member
    equality or the non-member row with eps), symmetry rows (metric),
    normalization."""
    n = b.n
    eps = n * (n - 1)

    def d(i, j):
        # row i of the matrix without its diagonal entry
        return i * (n - 1) + j - (j > i)

    def row(coeffs, relation, rhs=0):
        return tuple(coeffs.get(k, 0) for k in range(eps + 1)), relation, rhs

    rows = [row({eps: 1, k: -1}, "<=") for k in range(eps)]
    for (x, y, z) in permutations(range(n), 3):
        coeffs = {d(x, z): 1, d(x, y): -1, d(y, z): -1}
        if (x, y, z) in b:
            rows.append(row(coeffs, "="))
        else:
            rows.append(row({**coeffs, eps: 1}, "<="))
    if variant == "metric":
        rows += [row({d(i, j): 1, d(j, i): -1}, "=") for i, j in combinations(range(n), 2)]
    rows.append(row(dict.fromkeys(range(eps), 1), "=", 1))
    return tuple(rows)


# ----------------------------- the zero-slack check's certificates and loops


def is_quasi_semimetric(d) -> bool:
    """A square table with zero diagonal, no negative entry and every
    triangle inequality d(x,z) <= d(x,y) + d(y,z): a quasi-metric that may
    put distance 0 between distinct points."""
    n = len(d)
    points = range(n)
    return (
        all(len(row) == n for row in d)
        and all(d[x][x] == 0 for x in points)
        and all(v >= 0 for row in d for v in row)
        and all(d[x][z] <= d[x][y] + d[y][z] for x in points for y in points for z in points)
    )


# One integer vector per 4-point Horn rule, "abc" the triple (a, b, c) with
# b between a and c.  Its entries weight the rule's rows in order: each
# member's equality d(x,z) - d(x,y) - d(y,z) = 0, the implied triple's
# strict row d(x,z) - d(x,y) - d(y,z) + eps <= 0, then the weak row
# d(x,z) - d(x,y) - d(y,z) <= 0 of each ordered triple of abcd in lex order
# (abc abd acb acd adb adc, then those starting with b, c and d).
RULE_CERTIFICATES = {
    "abc acd bcd": (
        -1, -1, 1,
        0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "abc acd abd": (
        -1, -1, 1,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "abc bdc adc": (
        -1, -1, 1,
        0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "abc bdc abd": (
        -1, -1, 1,
        0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ),
    "abc bad cda dcb adc": (
        -1, -1, -1, -1, 1,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0,
    ),
    "abc bda cad dcb adc": (
        -1, -1, -1, -1, 1,
        0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0,
    ),
    "abc bad cdb dca adc": (
        -1, -1, -1, -1, 1,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
    ),
}


def _triangle(triple: str, strict: int = 0):
    """The row d(x,z) - d(x,y) - d(y,z) of triple "xyz", plus eps if strict,
    as (distance terms, eps coefficient)."""
    x, y, z = triple
    return [(x + z, 1), (x + y, -1), (y + z, -1)], strict


def _sums_to_eps(rows, vector, equalities: int) -> bool:
    """True iff vector, entries in {-1, 0, 1} and none negative past the
    first `equalities` rows (the "=" rows; the rest are "<="), sums the rows
    to k*eps <= 0 with k >= 1 and every distance coefficient 0.  A space
    with eps > 0 meets every row, so the rows force eps <= 0."""
    if len(vector) != len(rows) or not set(vector) <= {-1, 0, 1} or -1 in vector[equalities:]:
        return False
    total = Counter()
    for c, (terms, eps) in zip(vector, rows):
        for term, sign in terms:
            total[term] += c * sign
        total["eps"] += c * eps
    return total.pop("eps") >= 1 and not any(total.values())


def rule_certificate_holds(rule: str, vector) -> bool:
    """True iff vector sums the rule's rows (see RULE_CERTIFICATES) to
    k*eps <= 0 (see :func:`_sums_to_eps`): its members without the implied
    triple force eps <= 0, on any 4 points of any n."""
    *members, implied = rule.split()
    rows = [_triangle(t) for t in members] + [_triangle(implied, 1)]
    rows += [_triangle("".join(t)) for t in permutations("abcd", 3)]
    return _sums_to_eps(rows, vector, len(members))


# "A member without its reversal forces metric slack <= 0", on points a, b,
# c: one integer vector over the member abc's equality, the symmetry rows
# d(x,y) - d(y,x) = 0 of ab, ac and bc, and the strict row of the non-member
# cba.  Symmetry turns abc's equality around into cba's, and cba's strict
# row then reads eps <= 0.
REVERSAL_CERTIFICATE = (-1, -1, 1, -1, 1)


def reversal_certificate_holds(vector) -> bool:
    """True iff vector sums the rows of REVERSAL_CERTIFICATE to k*eps <= 0
    (see :func:`_sums_to_eps`)."""
    symmetry = [([(x + y, 1), (y + x, -1)], 0) for x, y in ("ab", "ac", "bc")]
    return _sums_to_eps([_triangle("abc"), *symmetry, _triangle("cba", 1)], vector, 4)


def cut_semimetrics() -> list[list[list[int]]]:
    """The cut semimetric d(x,y) = [S splits x and y] of each S with
    0 in S != {0, 1, 2, 3}: 7 on 4 points."""
    sides = [{0, *rest} for k in range(3) for rest in combinations(range(1, 4), k)]
    return [[[int((x in s) != (y in s)) for y in range(4)] for x in range(4)] for s in sides]


class ZeroSlackByLoops:
    """`realizability._sign(...) == 0` one rule instance and one tight mask
    at a time, the loops that its chunk tables replaced.  The rules and zero
    witnesses are relabeled here, one member triple at a time.  Metric zeros
    are read from the 7 cuts, which come from their definition, where
    `_sign` reads the zero witnesses on the relation and its reversal: the
    two agree by MET4 = CUT4 (Deza & Laurent 1997), not by construction."""

    def __init__(self, rules, zero_witnesses):
        triples = list(permutations(range(4), 3))
        self.bit = {t: 1 << i for i, t in enumerate(triples)}
        self.instances = set()
        for rule in rules:
            *members, implied = [tuple(map("abcd".index, w)) for w in rule.split()]
            images = zip(
                orbit_by_relabeling(4, sum(self.bit[t] for t in members)),
                orbit_by_relabeling(4, self.bit[implied]),
            )
            self.instances.update(images)
        self.zero_masks = {
            image for w in zero_witnesses for image in orbit_by_relabeling(4, self._tight(w))
        }
        self.cut_masks = [self._tight(d) for d in cut_semimetrics()]

    def _tight(self, d) -> int:
        return sum(b for (x, y, z), b in self.bit.items() if d[x][z] == d[x][y] + d[y][z])

    def breaks_a_rule(self, mask: int) -> bool:
        return any(mask & m == m and not mask & i for m, i in self.instances)

    def closed_under_reversal(self, mask: int) -> bool:
        return all(mask & self.bit[z, y, x] for (x, y, z), b in self.bit.items() if mask & b)

    def settles(self, mask: int) -> tuple[bool, bool]:
        """(quasi, metric): whether the certificates show optimal slack 0."""
        broken = self.breaks_a_rule(mask)
        quasi = broken and any(mask & t == mask for t in self.zero_masks)
        metric = broken or not self.closed_under_reversal(mask)
        return quasi, metric and any(mask & t == mask for t in self.cut_masks)


# ------------------------------------------- the split-column simplex solver


def _clear_denominators(values) -> int:
    """The least positive integer whose product with each value is integral."""
    return lcm(*(v.denominator for v in values))


def split_simplex_max(variables, constraints, objective):
    """Maximize objective . x subject to the constraints, x free;
    constraints are (coeffs dict, relation, rhs) triples, as for
    `brute_force_lp_max`.

    Returns (status, value, assignment); status is "optimal", "infeasible"
    or "unbounded".  Two-phase simplex on the split nonnegative form with
    Bland's least-index pivot rule (finite by anti-cycling).  Columns are
    numbered x+/x- per variable, then slacks, then artificials.

    The tableau is fraction-free: integer rows T and one common denominator
    D > 0, so that entry (i, j) stands for T[i][j] / D.  A row holds one
    entry per nonbasic column (a basic column is D in its own row and 0
    elsewhere, so it is not stored), then its right-hand side.  One more
    integer row over the same D holds the reduced costs, and minus the
    objective value last.  Each constraint, and the objective, is first
    scaled by the lcm of its denominators.

    A pivot on (r, c) with p = T[r][c] negates row r first if p < 0.  It
    then replaces every other row k by (p*T[k] - T[k][c]*T[r]) // D, keeps
    row r and sets D = p; slot c passes to the leaving variable, whose
    column entries follow from its old unit column by the same rule; an
    artificial that leaves the basis is dropped, as it may never enter.  The
    division is exact: every entry is, up to one common sign, a minor of the
    starting tableau, and D is the previous pivot (Edmonds 1967; Bareiss
    1968).  Since D > 0, each sign test, and each ratio comparison done by
    cross-multiplying (a/b < c/d iff a*d < c*b for b, d > 0), decides as on
    the rational tableau, so the pivot sequence is the rational simplex's.
    Fractions are formed only when the result is read out.
    """
    nvars = len(variables)
    vindex = {v: k for k, v in enumerate(variables)}

    # split x = x+ - x-, clear denominators, normalize rhs >= 0
    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs, rhs = {v: Fraction(cf) for v, cf in coeffs.items()}, Fraction(rhs)
        scale = _clear_denominators((rhs, *coeffs.values()))
        arr = [0] * (2 * nvars)
        for v, cf in coeffs.items():
            k = vindex[v]
            q = cf.numerator * (scale // cf.denominator)
            arr[2 * k] += q
            arr[2 * k + 1] -= q
        rhs = rhs.numerator * (scale // rhs.denominator)
        if rhs < 0:
            arr = [-a for a in arr]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((arr, rel, rhs))

    col = 2 * nvars
    slack_col = {}
    for i, (_, rel, _) in enumerate(rows):
        if rel in ("<=", ">="):
            slack_col[i] = col
            col += 1
    first_art = col
    art_col = {}
    for i, (_, rel, _) in enumerate(rows):
        if rel in ("=", ">="):
            art_col[i] = col
            col += 1

    # every row starts with its artificial, else its slack, basic
    basis = [art_col[i] if i in art_col else slack_col[i] for i in range(len(rows))]
    surplus_rows = [i for i in art_col if i in slack_col]  # the ">=" rows
    nonbasic = [*range(2 * nvars), *(slack_col[i] for i in surplus_rows)]
    tableau = [
        arr + [-1 if k == i else 0 for k in surplus_rows] + [rhs]
        for i, (arr, _, rhs) in enumerate(rows)
    ]
    denom = 1

    def objective_row(cost):
        obj = [denom * cost[j] for j in nonbasic] + [0]
        for i, row in enumerate(tableau):
            cb = cost[basis[i]]
            if cb:
                obj = [z - cb * v for z, v in zip(obj, row)]
        return obj

    def pivot(r, c, obj):
        nonlocal denom
        pivot_row = tableau[r]
        p = pivot_row[c]
        flip = p < 0
        if flip:
            tableau[r] = pivot_row = [-v for v in pivot_row]
            p = -p

        def exchange(row):
            f = row[c]
            if f:
                row = [(p * a - f * b) // denom for a, b in zip(row, pivot_row)]
                row[c] = f if flip else -f
            elif p != denom:
                row = [a * p // denom for a in row]
            return row

        for k, row in enumerate(tableau):
            if k != r:
                tableau[k] = exchange(row)
        obj[:] = exchange(obj)
        pivot_row[c] = -denom if flip else denom
        denom = p
        basis[r], nonbasic[c] = nonbasic[c], basis[r]
        if nonbasic[c] >= first_art:
            del nonbasic[c]
            for row in tableau:
                del row[c]
            del obj[c]

    def least(slots):
        return min(slots, key=nonbasic.__getitem__, default=None)

    def bland(obj):
        # pivot until optimal
        while True:
            enter = least(s for s in range(len(nonbasic)) if obj[s] > 0)
            if enter is None:
                return "optimal"
            leave = None
            for i, row in enumerate(tableau):
                t = row[enter]
                if t <= 0:
                    continue
                if leave is not None:
                    # row i leaves instead if row[-1] / t is smaller, or
                    # equal with a smaller basic column
                    lhs, rhs = row[-1] * den, num * t
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, num, den = i, row[-1], t
            if leave is None:
                return "unbounded"
            pivot(leave, enter, obj)

    if art_col:
        cost1 = [0] * col
        for j in art_col.values():
            cost1[j] = -1
        obj = objective_row(cost1)
        bland(obj)
        if obj[-1] > 0:  # the phase-1 optimum -obj[-1] / D is negative
            return "infeasible", None, None
        # drive zero-level artificials out of the basis; drop redundant rows
        # (an artificial's starting column is a unit column, so D stays the
        # common denominator of the remaining rows)
        i = 0
        while i < len(tableau):
            if basis[i] >= first_art:
                row = tableau[i]
                enter = least(s for s in range(len(nonbasic)) if row[s])
                if enter is None:
                    del tableau[i]
                    del basis[i]
                    continue
                pivot(i, enter, obj)
            i += 1

    obj_scale = _clear_denominators(objective.values())
    cost2 = [0] * first_art
    for v, cf in objective.items():
        k = vindex[v]
        q = cf.numerator * (obj_scale // cf.denominator)
        cost2[2 * k] += q
        cost2[2 * k + 1] -= q
    obj = objective_row(cost2)
    if bland(obj) == "unbounded":
        return "unbounded", None, None

    col_value = {basis[i]: row[-1] for i, row in enumerate(tableau)}
    assignment = {
        v: Fraction(col_value.get(2 * k, 0) - col_value.get(2 * k + 1, 0), denom)
        for v, k in vindex.items()
    }
    return "optimal", Fraction(-obj[-1], denom * obj_scale), assignment


def dbe_failing_relations(n: int) -> set[frozenset[tuple[int, int, int]]]:
    """Every consistent relation on n points with no universal line and
    fewer than n lines, each as its set of member triples.

    Uses nothing from qmlines: it takes the product of `support_patterns()`
    over the supports, and puts z on line(x, y) iff zxy, xzy or xyz is a
    member.
    """
    per_support = [
        [frozenset((s[x], s[y], s[z]) for (x, y, z) in p) for p in support_patterns()]
        for s in combinations(range(n), 3)
    ]
    pairs = [
        (x, y, [z for z in range(n) if z not in (x, y)]) for x, y in permutations(range(n), 2)
    ]
    failing = set()
    for parts in product(*per_support):
        b = frozenset().union(*parts)
        lines = {
            frozenset([x, y, *(z for z in others if {(z, x, y), (x, z, y), (x, y, z)} & b)])
            for x, y, others in pairs
        }
        if len(lines) < n and all(len(line) < n for line in lines):
            failing.add(b)
    return failing
