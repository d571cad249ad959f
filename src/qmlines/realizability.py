"""Deciding whether a betweenness relation is realized by a quasi-metric,
a metric, a bounded-integer-distance space, or a digraph.

The rational variants reduce to exact slack maximization: the constraint
system is homogeneous, so after normalizing the distance sum to 1, the
relation is realizable iff the shared strictness margin has a positive
optimum.  The integer and digraph variants are lookups in the maps of
exhaustive sweeps, each built once per process and size.

A 4-point system's sign is read from certificate tables that only this
module lays out and reads: `_sign` for the signs, `_reversal` for a
relation's reversal, which claim 8 asks for.
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
    as_index,
    as_point,
    betweenness_mask,
    betweenness_of,
    consistency_check,
    default_labels,
    validate_quasi_metric,
)
from .encoding import (
    LP_TEMPLATE_CAP,
    _about,
    _chunk_or,
    _chunk_rows,
    mask_from_bits,
    mask_from_triples,
    orbit,
    ordered_pairs,
    ordered_triples,
    pair_position,
    pairs_from_mask,
    triple_bit,
    triple_count,
)
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
    LP takes the positivity rows last.

    Refuses with a ValueError, before building any row, a template of more
    than LP_TEMPLATE_CAP entries, rows times columns: n <= 20 is admitted."""
    eps = n * (n - 1)
    count = eps + 2 * triple_count(n) + (eps // 2 if variant == "metric" else 0) + 1
    if count * (eps + 1) > LP_TEMPLATE_CAP:
        raise ValueError(
            f"the realization LP is exact and dense; n={n} means {count} template rows "
            f"of {eps + 1} entries, {_about(count * (eps + 1))} in all, over the cap of "
            f"{LP_TEMPLATE_CAP} (n <= 20)"
        )
    index = pair_position(n)

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
    formed by construction.  They are picked on the first read of
    `constraints`, so a system that `maximize_slack` settles by certificate
    never builds them.  A row is (coefficients, relation, rhs): one integer
    per variable, "=" or "<=", and rhs 0 or 1, as `lp` takes it.  A point
    satisfies the row iff coefficients . point <= rhs, with equality for
    "=".
    """

    # _constraints is derived from the other two, so compared by them; it
    # stays unset until constraints is first read
    __slots__ = ("relation", "variant", "_constraints")
    _compared = ("relation", "variant")
    relation: Betweenness
    variant: str
    _constraints: tuple[tuple, ...]

    def __init__(self, relation: Betweenness, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        _require_consistent(relation)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "variant", variant)

    @property
    def constraints(self) -> tuple[tuple, ...]:
        """The system's rows, picked from the template on the first read and kept."""
        rows = getattr(self, "_constraints", None)
        if rows is None:
            b = self.relation
            head, pairs, tail = _realization_rows(b.n, self.variant)
            rows = (*head, *_picked(pairs, b.mask), *tail)
            object.__setattr__(self, "_constraints", rows)
        return rows

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
        """Feasible with optimal_slack > 0, read off the sign of its
        numerator, since a Fraction's denominator is positive."""
        return self.status == "feasible" and self.optimal_slack.numerator > 0


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
# {0,1}, the weak order 3 > 2 > {0,1}, d = [i > j], and that with d(3,0) = 2.
# They certify metric zeros too: q tight on R and on its reversal makes the
# symmetric q + q^T tight on R
_ZERO_WITNESSES = (
    ((0, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)),
    ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)),
    ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0)),
)


@lru_cache(maxsize=None)
def _certificate_tables():
    """(implied, zeros, reversal, absent, present): the chunk tables
    (`encoding._chunk_rows`) over the 24 triple bits from which `_sign`
    reads its certificates with `encoding._chunk_or`, and their lanes, laid
    out from `_RULES` and `_ZERO_WITNESSES` as read.

    Rule instance k, a rule under a relabeling, has lane k for its members
    and lane implied + k for its implied triple in the absent-bit rows: ORed
    over the triples missing from a mask, k is broken iff the second is set
    and the first clear.  Each distinct tight mask of a relabeled zero
    witness has a lane in the present-bit rows, below reversal (lane mask
    zeros), set in the rows of the triples it lacks: ORed over a mask's
    triples, it is tight on every member iff its lane is clear.  From lane
    reversal on, the row of triple j holds the bit of j's reversal, so
    those lanes read the relation's reversal, for both the metric rule and
    the metric zero test on R | R^T."""
    members, implied = [], []
    for rule in _RULES:
        *body, head = [tuple(map("abcd".index, w)) for w in rule.split()]
        members += orbit(4, mask_from_triples(4, body))
        implied += orbit(4, mask_from_triples(4, [head]))
    zeros = [*dict.fromkeys(t for d in _ZERO_WITNESSES for t in orbit(4, betweenness_mask(4, d)))]
    # bit k of row j is set iff lane k's mask has triple j
    absent, tight = (
        [
            mask_from_bits((k for k, m in enumerate(lanes) if m >> j & 1), len(lanes))
            for j in range(24)
        ]
        for lanes in (members + implied, zeros)
    )
    reversal = len(zeros)
    zeros = (1 << reversal) - 1
    present = [
        ~t & zeros | 1 << reversal + triple_bit(4, (z, y, x))
        for t, (x, y, z) in zip(tight, ordered_triples(4))
    ]
    return len(members), zeros, reversal, _chunk_rows(absent), _chunk_rows(present)


def _sign(mask: int, variant: str) -> int | None:
    """The sign of the 4-point relation mask's optimal slack in variant, by
    certificate: 1, 0, or None for a negative optimum or an infeasible
    system, which the tables do not tell apart.

    Slack <= 0: the relation breaks a rule, or for a metric it holds a
    member xyz without its reversal zyx, whose strict row reads eps <= 0
    once symmetry turns the member's equality around; otherwise it is
    positive (the rules are the definite part of the Horn formula).
    Slack >= 0: a relabeled zero witness q tight on every member, scaled to
    sum 1, is a feasible point with eps = 0, since every other triangle
    holds weakly in it; for a metric, q tight on R | R^T makes q + q^T one.
    That settles all that the 7 cuts of 4 points would: each is tight on a
    subset of some zero witness's tight mask."""
    implied, zeros, reversal, absent_rows, present_rows = _certificate_tables()
    present = _chunk_or(present_rows, mask)
    absent = _chunk_or(absent_rows, 0xFFFFFF ^ mask)
    if variant == "metric" and present >> reversal != mask:
        mask |= present >> reversal
        present = _chunk_or(present_rows, mask)
    elif not absent >> implied & ~absent:
        return 1
    return None if present & zeros == zeros else 0


def _reversal(mask: int) -> int:
    """The reversal {zyx : xyz in R} of the 4-point relation mask: one read
    of the present-bit rows of `_certificate_tables`, from lane reversal on."""
    *_, reversal, _, present_rows = _certificate_tables()
    return _chunk_or(present_rows, mask) >> reversal


# the outcome of every system that _sign settles, one for all
_SETTLED = FeasibilityOutcome("feasible", Fraction(0), None)


def maximize_slack(system: LinearSystem) -> FeasibilityOutcome:
    """Exact optimum of the slack variable over the system's polytope.

    A 4-point system is first read by `_sign`, with a few lookups in
    `_certificate_tables` and no rows built.  Sign 0 needs no LP: 3,048 of
    the 4,455 classes as quasi systems, 2,220 as metric ones.  Sign 1 (273
    quasi, 9 metric) solves `lp._simplex_max` on the system's rows in
    template order, whose Bland vertex is the pinned witness.

    Every other system is decided by `lp._optimum` alone, with the member
    equalities substituted out, on the system's rows in another order: the
    triple rows, then symmetry and normalization, the n(n-1) positivity
    rows eps - d <= 0 last.  Its status and optimum do not depend on row
    order, but Bland's rule prefers least ids, and slack ids follow row
    order: with the positivity slacks last it takes about half the pivots,
    most of those saved degenerate.  Either LP's point, integer numerators
    over one denominator, rescaled to the smallest integer matrix on its
    ray, is the witness (any positive scaling is equally valid).
    """
    b = system.relation
    sign = _sign(b.mask, system.variant) if b.n == 4 else None
    if sign == 0:
        return _SETTLED
    rows = system.constraints
    k = b.n * (b.n - 1)  # the positivity rows come first, one per distance
    cost = [0] * k + [1]  # maximize eps, the last variable
    if sign == 1:
        status, slack, point = _simplex_max(rows, cost)
        if status != "optimal" or slack <= 0:
            raise RuntimeError(f"the vertex LP is not positive on {b}; this is a bug")
    else:
        status, slack, point = _optimum([*rows[k:], *rows[:k]], cost)
        if status == "infeasible":
            return FeasibilityOutcome("infeasible", None, None)
        if status == "unbounded":
            # eps <= min d <= 1/(n(n-1)) under the positivity and normalization rows
            raise RuntimeError(f"slack is unbounded for {b}; this is a bug")
        if slack <= 0:
            return FeasibilityOutcome("feasible", slack, None)
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
    query over either cap before any orbit table is built for it.  kmax
    must be an integer, read before the map's cache, whose key 2.0 is 2.
    """
    kmax = as_index(kmax, "kmax")
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
        n = as_index(n, "point count")
        if n < 2:
            raise ValueError(f"need at least 2 points, got {n}")
        checked = set()
        for arc in arcs:
            try:
                i, j = arc
            except (TypeError, ValueError):
                raise ValueError(f"arc {arc!r} is not a pair of points") from None
            i, j = as_point(i, n, "arc endpoint"), as_point(j, n, "arc endpoint")
            if i == j:
                raise ValueError(f"loop arc ({i},{i}) not allowed")
            checked.add((i, j))
        arcs = frozenset(checked)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)


def digraph_distances(g: Digraph) -> DistanceMatrix:
    """Unweighted shortest-path distance matrix of a strongly connected digraph."""
    d = kernels.shortest_paths(g.n, g.arcs)
    if d is None:
        raise ValueError("digraph is not strongly connected; distances would be infinite")
    return DistanceMatrix(default_labels(g.n), d)


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
    return Digraph(b.n, pairs_from_mask(b.n, arc_mask))
