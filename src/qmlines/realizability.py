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
from math import lcm
from typing import Mapping, NamedTuple

from . import kernels
from .core import (
    Betweenness,
    _Value,
    DistanceMatrix,
    betweenness_of,
    consistency_check,
    default_labels,
    validate_quasi_metric,
)
from .encoding import orbit, ordered_pairs, ordered_triples
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

EPS_VAR = "eps"


def pair_var(i: int, j: int) -> str:
    return f"d({i},{j})"


@lru_cache(maxsize=None)
def pair_variables(n: int) -> tuple[str, ...]:
    return tuple(pair_var(i, j) for (i, j) in ordered_pairs(n))


@lru_cache(maxsize=None)
def _realization_rows(n: int, variant: str):
    """The rows shared by every system of (n, variant), as the solver's
    integer rows over `pair_variables(n)` then eps: the n(n-1) positivity
    rows eps - d <= 0, one (non-member, member) row pair per ordered
    triple, then symmetry and normalization.  `LinearSystem.constraints`
    keeps this order; the value LP takes the positivity rows last."""
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
    over one variable per ordered pair plus the shared slack eps; the
    objective is always to maximize the slack.

    Its rows are the cached template of (n, variant) with one row of each
    triple's pair picked by the relation's bit, so every system is well
    formed by construction.  A row is (coefficients, relation, rhs): one
    integer per variable, "=" or "<=", and rhs 0 or 1, as `lp` takes it.
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
        return pair_variables(self.relation.n) + (EPS_VAR,)

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        """Whether the values, one per variable, satisfy every row."""
        x = [assignment[v] for v in self.variables]
        for coeffs, relation, rhs in self.constraints:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if lhs > rhs or (relation == "=" and lhs != rhs):
                return False
        return True


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


def maximize_slack(system: LinearSystem) -> FeasibilityOutcome:
    """Exact optimum of the slack variable over the system's polytope.

    `lp._optimum` decides it with the member equalities substituted out, on
    the system's rows in another order: the triple rows, then symmetry and
    normalization, the n(n-1) positivity rows eps - d <= 0 last.  Its status
    and optimum do not depend on row order, but Bland's rule prefers least
    ids, and slack ids follow row order: with the positivity slacks last it
    takes about half the pivots, most of those saved degenerate.
    Only a positive optimum needs a point, and only the point depends on the
    pivot path, so then `lp._simplex_max` solves the system's rows in
    template order: its optimum must agree, and its vertex, rescaled to the
    smallest integer matrix on its ray, is the witness (any positive
    scaling is equally valid).
    """
    b = system.relation
    rows = system.constraints
    k = len(system.variables) - 1  # the positivity rows come first, one per distance
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
    return FeasibilityOutcome("feasible", slack, _witness_matrix(b.n, point[:-1]))


def _witness_matrix(n: int, distances) -> DistanceMatrix:
    """The LP vertex's distances, in ordered_pairs(n) order, times the lcm L
    of their denominators.  These integers are coprime: the normalization
    row makes the distances sum to 1, so the integers sum to L, and a common
    factor g > 1 would make L/g a smaller common multiple of the
    denominators."""
    scale = lcm(*(v.denominator for v in distances))
    return _matrix_from_flat(n, [int(v * scale) for v in distances])


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


class Digraph(_Value):
    """A loopless directed graph; induces a quasi-metric by shortest paths
    once strongly connected."""

    __slots__ = _compared = ("n", "arcs")
    n: int
    arcs: frozenset[tuple[int, int]]

    def __init__(self, n: int, arcs):
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

    A lookup in kernels.digraph_canon_witnesses(b.n), built once per process.
    """
    _require_consistent(b)
    arc_mask = kernels.digraph_canon_witnesses(b.n).get(min(orbit(b.n, b.mask)))
    if arc_mask is None:
        return None
    return Digraph(b.n, _arcs_from_mask(b.n, arc_mask))
