"""Deciding whether a betweenness relation is realized by a quasi-metric,
a metric, a bounded-integer-distance space, or a digraph.

The rational variants reduce to exact slack maximization: the constraint
system is homogeneous, so after normalizing the distance sum to 1, the
relation is realizable iff the shared strictness margin has a positive
optimum.  The integer and digraph variants are lookups in the maps of
exhaustive sweeps, each built once per process and size.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import kernels
from .core import (
    Betweenness,
    _Value,
    DistanceMatrix,
    betweenness_mask,
    betweenness_of,
    consistency_check,
    default_labels,
    validate_quasi_metric,
)
from .encoding import mask_from_triples, orbit, ordered_pairs, ordered_triples
from .lp import _optimum, _simplex_max

VARIANTS = ("quasi", "metric")


class InconsistentRelationError(ValueError):
    """The relation violates the membership exclusion rule and cannot come
    from any quasi-metric."""


def _require_consistent(b: Betweenness) -> None:
    if not consistency_check(b):
        raise InconsistentRelationError(
            "relation contains a triple together with one of its excluded companions"
        )


# ------------------------------------------------------ the realization LP

@lru_cache(maxsize=None)
def _realization_rows(n: int, variant: str):
    """The rows shared by every system of (n, variant), as the solver's
    integer rows over one column per ordered pair, in `ordered_pairs(n)`
    order, then eps: the n(n-1) positivity rows eps - d <= 0, one
    (non-member, member) row pair per ordered triple, then symmetry and
    normalization.  `LinearSystem.constraints` keeps this order; the value
    LP takes the positivity rows last."""
    index = {p: k for k, p in enumerate(ordered_pairs(n))}
    eps = len(index)

    def row(entries, relation, rhs=0):
        coeffs = [0] * (eps + 1)
        for k, c in entries:
            coeffs[k] = c
        return tuple(coeffs), relation, rhs

    pairs = []
    for (x, y, z) in ordered_triples(n):
        triangle = [(index[x, z], 1), (index[x, y], -1), (index[y, z], -1)]
        pairs.append((row([*triangle, (eps, 1)], "<="), row(triangle, "=")))
    head = tuple(row([(eps, 1), (k, -1)], "<=") for k in range(eps))
    symmetry = [(i, j) for (i, j) in ordered_pairs(n) if i < j] if variant == "metric" else []
    tail = [row([(index[i, j], 1), (index[j, i], -1)], "=") for i, j in symmetry]
    tail.append(row([(k, 1) for k in range(eps)], "=", 1))
    return head, tuple(pairs), tuple(tail)


def _picked(pairs, mask: int):
    """One row of each triple's (non-member, member) pair, by the triple's bit."""
    return (p[mask >> i & 1] for i, p in enumerate(pairs))


class LinearSystem(_Value):
    """The realization system of one consistent relation and one variant,
    over one variable per ordered pair, in `ordered_pairs(n)` order, then
    the shared slack eps; the objective is always to maximize the slack.

    Its rows are the cached template of (n, variant) with one row of each
    triple's pair picked by the relation's bit, so every system is well
    formed by construction.  A row is (coefficients, relation, rhs): one
    integer per variable, "=" or "<=", and rhs 0 or 1, as `lp` takes it.
    A point satisfies the row iff coefficients . point <= rhs, with
    equality for "=".
    """

    # constraints is derived from the other two, so compared by them
    __slots__ = ("relation", "variant", "constraints")
    _compared = ("relation", "variant")
    relation: Betweenness
    variant: str
    constraints: tuple[tuple, ...]

    def __init__(self, relation: Betweenness, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        _require_consistent(relation)
        head, pairs, tail = _realization_rows(relation.n, variant)
        rows = (*head, *_picked(pairs, relation.mask), *tail)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "constraints", rows)

    @property
    def variables(self) -> tuple[str, ...]:
        """The column names, for reports: d(i,j) per ordered pair, then eps."""
        return (*(f"d({i},{j})" for (i, j) in ordered_pairs(self.relation.n)), "eps")


def build_realization_system(b: Betweenness, variant: str = "quasi") -> LinearSystem:
    """The linear feasibility system whose strict solutions are exactly the
    (quasi-)metrics with betweenness b.

    Members force distance equalities, non-members force slack-strict
    triangle inequalities, all distances are slack-positive, and the metric
    variant adds symmetry.  The distance sum is normalized to 1.
    """
    return LinearSystem(b, variant)


class FeasibilityOutcome(NamedTuple):
    """Result of slack maximization; realizable means strictly positive slack."""

    status: str  # "feasible" | "infeasible"
    optimal_slack: Fraction | None
    witness: DistanceMatrix | None

    @property
    def realizable(self) -> bool:
        return self.status == "feasible" and self.optimal_slack > 0


# Horn rules of 4-point quasi-realizability, on points a, b, c, d = 0..3
# ("abc": b between a and c): no quasi-metric holds the members without the
# last triple.  The realizable relations are closed under intersection, so
# they are the models of a Horn formula (Dechter & Pearl 1992); at n=4 its
# definite part is these rules under relabeling.
_RULES = (
    "abc acd bcd", "abc acd abd", "abc bdc adc", "abc bdc abd",
    "abc bad cda dcb adc", "abc bda cad dcb adc", "abc bad cdb dca adc",
)

# quasi-semimetrics (zero distances allowed): directed cuts out of {0} and
# {0,1}, the weak order 3 > 2 > {0,1}, d = [i > j], and that with d(3,0) = 2
_ZERO_WITNESSES = (
    ((0, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)),
    ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)),
    ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0)),
)


@lru_cache(maxsize=None)
def _rule_instances() -> tuple[tuple[int, int], ...]:
    """(members, implied bit) of each rule under each relabeling: 168,
    all distinct."""
    pairs = []
    for rule in _RULES:
        *members, implied = [tuple(map("abcd".index, w)) for w in rule.split()]
        members, implied = mask_from_triples(4, members), mask_from_triples(4, [implied])
        pairs += zip(orbit(4, members), orbit(4, implied))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _zero_tight_masks() -> frozenset[int]:
    """The tight triples of each zero witness under each relabeling: 37."""
    return frozenset(t for w in _ZERO_WITNESSES for t in orbit(4, betweenness_mask(4, w)))


def _breaks_a_rule(mask: int) -> bool:
    """Some rule instance has its members in mask but not its implied triple."""
    return any(mask & m == m and not mask & i for m, i in _rule_instances())


def _zero_slack(mask: int) -> bool:
    """Slack <= 0 by a broken rule and >= 0 by a zero witness tight on mask."""
    return _breaks_a_rule(mask) and any(mask & t == mask for t in _zero_tight_masks())


def maximize_slack(system: LinearSystem) -> FeasibilityOutcome:
    """Exact optimum of the slack variable over the system's polytope.

    A 4-point quasi system whose optimum is exactly 0 needs no LP when two
    certificates show it: a broken rule proves slack <= 0, and a zero
    witness, scaled to sum 1, is a feasible point with eps = 0, since every
    member is tight in it and every other triangle holds weakly.  That
    settles 3,048 of the 4,455 classes.  Every other system runs the LPs.

    `lp._optimum` decides it with the member equalities substituted out, on
    the system's rows in another order: the triple rows, then symmetry and
    normalization, the n(n-1) positivity rows eps - d <= 0 last.  Its status
    and optimum do not depend on row order, but Bland's rule prefers least
    ids, and slack ids follow row order: with the positivity slacks last it
    takes about half the pivots, most of those saved degenerate.
    Only a positive optimum needs a point, and only the point depends on the
    pivot path, so then `lp._simplex_max` solves the system's rows in
    template order: its optimum must agree, and its vertex, integer
    numerators over one denominator, rescaled to the smallest integer matrix
    on its ray, is the witness (any positive scaling is equally valid).
    """
    b = system.relation
    if b.n == 4 and system.variant == "quasi" and _zero_slack(b.mask):
        return FeasibilityOutcome("feasible", Fraction(0), None)
    rows = system.constraints
    k = b.n * (b.n - 1)  # the positivity rows come first, one per distance
    cost = [0] * k + [1]  # maximize eps, the last variable
    status, slack = _optimum([*rows[k:], *rows[:k]], cost)
    if status == "infeasible":
        return FeasibilityOutcome("infeasible", None, None)
    if status == "unbounded":
        # eps <= min d <= 1/(n(n-1)) under the positivity and normalization rows
        raise RuntimeError(f"slack is unbounded for {b}; this is a bug")
    if slack <= 0:
        return FeasibilityOutcome("feasible", slack, None)
    status, value, point = _simplex_max(rows, cost)
    if (status, value) != ("optimal", slack):
        raise RuntimeError(f"the two simplex paths disagree on {b}; this is a bug")
    return FeasibilityOutcome("feasible", slack, _witness_matrix(b.n, point[0][:-1]))


def _witness_matrix(n: int, numerators) -> DistanceMatrix:
    """The LP vertex's distance numerators, in ordered_pairs(n) order, over
    their gcd: the smallest integer matrix on the vertex's ray.  The
    normalization row makes them sum to the denominator D > 0, so they are
    not all 0."""
    g = gcd(*numerators)
    return _matrix_from_flat(n, [v // g for v in numerators])


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
    """The lex-first quasi-metric with off-diagonal distances in 1..kmax
    whose betweenness is isomorphic to b; None if none exists.

    "Distances in {0..kmax}" places 0 on the diagonal only, since d(x,y) = 0
    forces x = y.  A lookup in kernels.integer_canon_witnesses(b.n, kmax),
    built once per process: an exhaustive sweep over up to kmax^(n(n-1))
    matrices in lex order, capped at kernels.INTEGER_SWEEP_CAP, that keeps
    the lex-least matrix of each relabeling orbit, keyed by `class_key`.
    The consistency check and then the map come before b's key, so an
    inconsistent relation is refused before its orbit is computed, and a
    query over either cap before any orbit table is built for it.
    """
    _require_consistent(b)
    entries = kernels.integer_canon_witnesses(b.n, kmax).get(b.class_key)
    if entries is None:
        return None
    return _matrix_from_flat(b.n, entries)


def _matrix_from_flat(n: int, flat) -> DistanceMatrix:
    """The matrix whose off-diagonal entries, in ordered_pairs(n) order, are flat."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in zip(ordered_pairs(n), flat):
        rows[i][j] = v
    return DistanceMatrix(default_labels(n), rows)


class Digraph(_Value):
    """A loopless directed graph; induces a quasi-metric by shortest paths
    once strongly connected."""

    __slots__ = _compared = ("n", "arcs")
    n: int
    arcs: frozenset[tuple[int, int]]

    def __init__(self, n: int, arcs):
        if n < 2:
            raise ValueError(f"need at least 2 points, got {n}")
        arcs = frozenset((int(i), int(j)) for (i, j) in arcs)
        for (i, j) in arcs:
            if i == j:
                raise ValueError(f"loop arc ({i},{i}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"arc ({i},{j}) out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)


def digraph_distances(g: Digraph) -> DistanceMatrix:
    """Unweighted shortest-path distance matrix of a strongly connected digraph."""
    d = kernels.shortest_paths(g.n, g.arcs)
    if d is None:
        raise ValueError("digraph is not strongly connected; distances would be infinite")
    return DistanceMatrix(default_labels(g.n), d)


def _arcs_from_mask(n: int, arc_mask: int) -> frozenset[tuple[int, int]]:
    return frozenset(p for k, p in enumerate(ordered_pairs(n)) if arc_mask >> k & 1)


def realize_digraph(b: Betweenness) -> Digraph | None:
    """The strongly connected digraph with the least arc mask whose
    shortest-path betweenness is isomorphic to b; None if none exists.

    A lookup of b's `class_key` in kernels.digraph_canon_witnesses(b.n),
    built once per process, after the consistency check and the map, as in
    :func:`realize_bounded_integer`.
    """
    _require_consistent(b)
    arc_mask = kernels.digraph_canon_witnesses(b.n).get(b.class_key)
    if arc_mask is None:
        return None
    return Digraph(b.n, _arcs_from_mask(b.n, arc_mask))
