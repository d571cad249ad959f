"""Deciding whether a betweenness relation is realized by a quasi-metric,
a metric, a bounded-integer-distance space, or a digraph.

The rational variants reduce to exact slack maximization: the constraint
system is homogeneous, so after normalizing the distance sum to 1, the
relation is realizable iff the shared strictness margin has a positive
optimum.  The integer and digraph variants are exhaustive searches.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import kernels
from .core import (
    Betweenness,
    DistanceMatrix,
    betweenness_of,
    consistency_check,
    default_labels,
    validate_quasi_metric,
)
from .encoding import orbit, ordered_pairs, ordered_triples
from .lp import (
    EPS_VAR,
    Constraint,
    FeasibilityOutcome,
    LinearSystem,
    maximize_slack,
    pair_var,
    pair_variables,
)

VARIANTS = ("quasi", "metric")


class InconsistentRelationError(ValueError):
    """The relation violates the membership exclusion rule and cannot come
    from any quasi-metric."""


def _require_consistent(b: Betweenness) -> None:
    if not consistency_check(b):
        raise InconsistentRelationError(
            "relation contains a triple together with one of its excluded companions"
        )


@lru_cache(maxsize=None)
def _realization_rows(n: int, variant: str):
    """The rows shared by every system of (n, variant): positivity rows, one
    (non-member, member) row pair per ordered triple, symmetry and normalization."""
    pairs = []
    for (x, y, z) in ordered_triples(n):
        coeffs = {pair_var(x, z): 1, pair_var(x, y): -1, pair_var(y, z): -1}
        pairs.append((Constraint({**coeffs, EPS_VAR: 1}, "<=", 0), Constraint(coeffs, "=", 0)))
    head = tuple(Constraint({EPS_VAR: 1, d: -1}, "<=", 0) for d in pair_variables(n))
    symmetry = [(i, j) for (i, j) in ordered_pairs(n) if i < j] if variant == "metric" else []
    tail = [Constraint({pair_var(i, j): 1, pair_var(j, i): -1}, "=", 0) for i, j in symmetry]
    tail.append(Constraint(dict.fromkeys(pair_variables(n), 1), "=", 1))
    return head, tuple(pairs), tuple(tail)


def build_realization_system(b: Betweenness, variant: str = "quasi") -> LinearSystem:
    """The linear feasibility system whose strict solutions are exactly the
    (quasi-)metrics with betweenness b.

    Members force distance equalities, non-members force slack-strict
    triangle inequalities, all distances are slack-positive, and the metric
    variant adds symmetry.  The distance sum is normalized to 1.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _require_consistent(b)
    head, pairs, tail = _realization_rows(b.n, variant)
    return LinearSystem(b.n, (*head, *(p[b.mask >> i & 1] for i, p in enumerate(pairs)), *tail))


def verify_witness(m: DistanceMatrix, b: Betweenness) -> bool:
    """True iff m is a valid quasi-metric whose betweenness equals b exactly."""
    if m.n != b.n:
        return False
    return validate_quasi_metric(m).ok and betweenness_of(m) == b


def realize(b: Betweenness, variant: str = "quasi") -> FeasibilityOutcome:
    """Decide realizability of b by a quasi-metric (or metric) space.

    Any returned witness is re-verified against b before being handed out.
    """
    outcome = maximize_slack(build_realization_system(b, variant))
    if outcome.witness is not None and not verify_witness(outcome.witness, b):
        raise RuntimeError(
            f"solver produced an invalid witness for {b}; this is a bug"
        )
    return outcome


def realize_bounded_integer(b: Betweenness, kmax: int) -> DistanceMatrix | None:
    """Search all quasi-metrics with off-diagonal distances in 1..kmax for one
    whose betweenness is isomorphic to b; None if the exhaustive search fails.

    "Distances in {0..kmax}" places 0 on the diagonal only, since d(x,y) = 0
    forces x = y.  The search is exhaustive over up to kmax^(n(n-1))
    matrices in lex order, so that worst case is capped at
    kernels.INTEGER_SWEEP_CAP; it is pruned by the triangle inequality and by
    b itself, cutting every partial matrix whose decided triples match no
    relabeling of b.  The witness is the lex-first matrix that realizes a
    relabeling of b.
    """
    _require_consistent(b)
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    entries = kernels.find_integer_witness(b.n, kmax, b.mask)
    if entries is None:
        return None
    return _matrix_from_flat(b.n, entries)


def _matrix_from_flat(n: int, flat) -> DistanceMatrix:
    """The matrix whose off-diagonal entries, in ordered_pairs(n) order, are flat."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in zip(ordered_pairs(n), flat):
        rows[i][j] = v
    return DistanceMatrix(default_labels(n), tuple(map(tuple, rows)))


@dataclass(frozen=True)
class Digraph:
    """A loopless directed graph; induces a quasi-metric by shortest paths
    once strongly connected."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        arcs = frozenset((int(i), int(j)) for (i, j) in self.arcs)
        for (i, j) in arcs:
            if i == j:
                raise ValueError(f"loop arc ({i},{i}) not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"arc ({i},{j}) out of range for n={self.n}")
        object.__setattr__(self, "arcs", arcs)


def is_strongly_connected(g: Digraph) -> bool:
    out_adj = {i: set() for i in range(g.n)}
    in_adj = {i: set() for i in range(g.n)}
    for (i, j) in g.arcs:
        out_adj[i].add(j)
        in_adj[j].add(i)

    def reaches_all(adj):
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == g.n

    return reaches_all(out_adj) and reaches_all(in_adj)


def digraph_distances(g: Digraph) -> DistanceMatrix:
    """Unweighted shortest-path distance matrix of a strongly connected digraph."""
    if not is_strongly_connected(g):
        raise ValueError("digraph is not strongly connected; distances would be infinite")
    n = g.n
    inf = n + 1
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for (i, j) in g.arcs:
        d[i][j] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return DistanceMatrix(
        default_labels(n), tuple(tuple(Fraction(v) for v in row) for row in d)
    )


def _arcs_from_mask(n: int, arc_mask: int) -> frozenset[tuple[int, int]]:
    return frozenset(p for k, p in enumerate(ordered_pairs(n)) if arc_mask >> k & 1)


def realize_digraph(b: Betweenness) -> Digraph | None:
    """The strongly connected digraph with the least arc mask whose
    shortest-path betweenness is isomorphic to b; None if none exists.

    A lookup in kernels.digraph_canon_witnesses(b.n), built once per process.
    """
    _require_consistent(b)
    arc_mask = kernels.digraph_canon_witnesses(b.n).get(min(orbit(b.n, b.mask)))
    if arc_mask is None:
        return None
    return Digraph(b.n, _arcs_from_mask(b.n, arc_mask))
