"""Deciding whether a betweenness relation is realized by a quasi-metric,
a metric, a bounded-integer-distance space, or a digraph.

The rational variants reduce to exact slack maximization: the constraint
system is homogeneous, so after normalizing the distance sum to 1, the
relation is realizable iff the shared strictness margin has a positive
optimum.  The integer and digraph variants are lookups in the maps of
exhaustive sweeps, each built once per process and size.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping

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
from .lp import Constraint, _integer_rows, _optimum, _simplex_max

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

EPS_VAR = "eps"


def pair_var(i: int, j: int) -> str:
    return f"d({i},{j})"


@lru_cache(maxsize=None)
def pair_variables(n: int) -> tuple[str, ...]:
    return tuple(pair_var(i, j) for (i, j) in ordered_pairs(n))


@lru_cache(maxsize=None)
def _realization_rows(n: int, variant: str):
    """The rows shared by every system of (n, variant): the n(n-1)
    positivity rows, one (non-member, member) row pair per ordered triple,
    then symmetry and normalization.  `LinearSystem.constraints` keeps this
    order; the value LP takes the positivity rows last (`_value_rows`)."""
    pairs = []
    for (x, y, z) in ordered_triples(n):
        coeffs = {pair_var(x, z): 1, pair_var(x, y): -1, pair_var(y, z): -1}
        pairs.append((Constraint({**coeffs, EPS_VAR: 1}, "<=", 0), Constraint(coeffs, "=", 0)))
    head = tuple(Constraint({EPS_VAR: 1, d: -1}, "<=", 0) for d in pair_variables(n))
    symmetry = [(i, j) for (i, j) in ordered_pairs(n) if i < j] if variant == "metric" else []
    tail = [Constraint({pair_var(i, j): 1, pair_var(j, i): -1}, "=", 0) for i, j in symmetry]
    tail.append(Constraint(dict.fromkeys(pair_variables(n), 1), "=", 1))
    return head, tuple(pairs), tuple(tail)


def _picked(pairs, mask: int):
    """One row of each triple's (non-member, member) pair, by the triple's bit."""
    return (p[mask >> i & 1] for i, p in enumerate(pairs))


@lru_cache(maxsize=None)
def _value_rows(n: int, variant: str):
    """`_realization_rows(n, variant)` as the solver's integer rows, in the
    value LP's order: the triple row pairs, then the rest, the positivity
    rows last (see `maximize_slack`)."""
    variables = pair_variables(n) + (EPS_VAR,)
    head, pairs, tail = _realization_rows(n, variant)
    return (
        tuple(tuple(_integer_rows(variables, pair)) for pair in pairs),
        tuple(_integer_rows(variables, (*tail, *head))),
    )


@dataclass(frozen=True)
class LinearSystem:
    """The realization system of one consistent relation and one variant,
    over one variable per ordered pair plus the shared slack eps; the
    objective is always to maximize the slack.

    Its rows are the cached template of (n, variant) with one row of each
    triple's pair picked by the relation's bit, so every system is well
    formed by construction.
    """

    relation: Betweenness
    variant: str
    constraints: tuple[Constraint, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        b = self.relation
        _require_consistent(b)
        head, pairs, tail = _realization_rows(b.n, self.variant)
        rows = (*head, *_picked(pairs, b.mask), *tail)
        object.__setattr__(self, "constraints", rows)

    @property
    def variables(self) -> tuple[str, ...]:
        return pair_variables(self.relation.n) + (EPS_VAR,)

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        return all(c.satisfied_by(assignment) for c in self.constraints)


def build_realization_system(b: Betweenness, variant: str = "quasi") -> LinearSystem:
    """The linear feasibility system whose strict solutions are exactly the
    (quasi-)metrics with betweenness b.

    Members force distance equalities, non-members force slack-strict
    triangle inequalities, all distances are slack-positive, and the metric
    variant adds symmetry.  The distance sum is normalized to 1.
    """
    return LinearSystem(b, variant)


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Result of slack maximization; realizable means strictly positive slack."""

    status: str  # "feasible" | "infeasible"
    optimal_slack: Fraction | None
    witness: DistanceMatrix | None

    @property
    def realizable(self) -> bool:
        return self.status == "feasible" and self.optimal_slack > 0


def maximize_slack(system: LinearSystem) -> FeasibilityOutcome:
    """Exact optimum of the slack variable over the system's polytope.

    `lp._optimum` decides it with the member equalities substituted out,
    on the system's rows with the n(n-1) positivity rows eps - d <= 0 moved
    to the end, as integer rows built once per (n, variant) and picked by
    the relation.  Its status and optimum do not depend on row order, but
    Bland's rule prefers least ids, and slack ids follow row order: with
    the positivity slacks last, it takes about half the pivots (19,863
    against 37,125 on the 4,455 4-point quasi systems), most of those saved
    degenerate.  The presolve's pivots depend only on the order of the "="
    rows, which the move leaves alone.
    Only a positive optimum needs a point, and only the point depends on the
    pivot path, so then `lp._simplex_max` solves the full system in template
    order: its optimum must agree, and its vertex, rescaled to the smallest
    integer matrix on its ray, is the witness (any positive scaling is
    equally valid).
    """
    objective = {EPS_VAR: Fraction(1)}
    b = system.relation
    pairs, rest = _value_rows(b.n, system.variant)
    cost = [objective.get(v, 0) for v in system.variables]
    status, slack = _optimum([*_picked(pairs, b.mask), *rest], cost)
    if status == "infeasible":
        return FeasibilityOutcome("infeasible", None, None)
    if status == "unbounded":
        # eps <= min d <= 1/(n(n-1)) under the positivity and normalization rows
        raise RuntimeError(f"slack is unbounded for {system.relation}; this is a bug")
    if slack <= 0:
        return FeasibilityOutcome("feasible", slack, None)
    status, value, assignment = _simplex_max(system.variables, system.constraints, objective)
    if (status, value) != ("optimal", slack):
        raise RuntimeError(f"the two simplex paths disagree on {system.relation}; this is a bug")
    return FeasibilityOutcome("feasible", slack, _witness_matrix(system.relation.n, assignment))


def _witness_matrix(n: int, assignment) -> DistanceMatrix:
    """The LP vertex's distances as their coprime integer vector: times the
    lcm of the denominators, then divided by the gcd."""
    values = [assignment[pair_var(i, j)] for (i, j) in ordered_pairs(n)]
    scale = lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    common = gcd(*ints)
    return _matrix_from_flat(n, [v // common for v in ints])


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
    the lex-least matrix of each relabeling orbit.  The map is asked for
    before b's orbit, so a query over either cap is refused before any
    orbit table is built for it.
    """
    _require_consistent(b)
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    entries = kernels.integer_canon_witnesses(b.n, kmax).get(min(orbit(b.n, b.mask)))
    if entries is None:
        return None
    return _matrix_from_flat(b.n, entries)


def _matrix_from_flat(n: int, flat) -> DistanceMatrix:
    """The matrix whose off-diagonal entries, in ordered_pairs(n) order, are flat."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in zip(ordered_pairs(n), flat):
        rows[i][j] = v
    return DistanceMatrix(default_labels(n), rows)


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

    A lookup in kernels.digraph_canon_witnesses(b.n), built once per process.
    """
    _require_consistent(b)
    arc_mask = kernels.digraph_canon_witnesses(b.n).get(min(orbit(b.n, b.mask)))
    if arc_mask is None:
        return None
    return Digraph(b.n, _arcs_from_mask(b.n, arc_mask))
