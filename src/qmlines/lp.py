"""Exact rational linear programming: two-phase simplex, Bland's rule.

The instances solved here are tiny (at n=4, 13 variables and about 40
constraints), so everything favors exactness and simplicity over speed:
dense tableaus, least-index pivoting, no scaling heuristics.  Arithmetic is
exact rational throughout, in `fractions.Fraction`.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .core import DistanceMatrix, as_rational, default_labels

EPS_VAR = "eps"

RELATIONS = ("=", "<=")


def pair_var(i: int, j: int) -> str:
    return f"d({i},{j})"


def pair_variables(n: int) -> tuple[str, ...]:
    return tuple(pair_var(i, j) for i in range(n) for j in range(n) if i != j)


class MalformedSystemError(ValueError):
    """A LinearSystem that cannot be handed to the solver."""


@dataclass(frozen=True)
class Constraint:
    """coeffs . x  (relation)  rhs, with relation one of "=" and "<="."""

    coeffs: Mapping[str, Fraction]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")
        coeffs = {v: as_rational(c) for v, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", as_rational(self.rhs))

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        lhs = sum((c * assignment[v] for v, c in self.coeffs.items()), start=Fraction(0))
        return lhs == self.rhs if self.relation == "=" else lhs <= self.rhs


@dataclass(frozen=True)
class LinearSystem:
    """Feasibility system over one variable per ordered pair plus the shared
    slack variable; the objective is always to maximize the slack."""

    n: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 points, got {self.n}")
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @property
    def variables(self) -> tuple[str, ...]:
        return pair_variables(self.n) + (EPS_VAR,)

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        return all(c.satisfied_by(assignment) for c in self.constraints)


def _validate(system: LinearSystem) -> None:
    declared = set(system.variables)
    used = set()
    normalizations = 0
    pair_vars = set(pair_variables(system.n))
    for con in system.constraints:
        extra = set(con.coeffs) - declared
        if extra:
            raise MalformedSystemError(f"constraint references undeclared variables {sorted(extra)}")
        used |= set(con.coeffs)
        if (
            con.relation == "="
            and con.rhs == 1
            and set(con.coeffs) == pair_vars
            and all(c == 1 for c in con.coeffs.values())
        ):
            normalizations += 1
    unused = declared - used
    if unused:
        raise MalformedSystemError(f"declared variables never referenced: {sorted(unused)}")
    if normalizations != 1:
        raise MalformedSystemError(
            f"normalization constraint (sum of pair variables = 1) present {normalizations} times"
        )


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

    The witness, present iff the optimum is positive, is the optimal point
    rescaled to the smallest integer matrix on its ray (any positive scaling
    is equally valid).
    """
    _validate(system)
    status, _, assignment = _simplex_max(
        system.variables, system.constraints, {EPS_VAR: Fraction(1)}
    )
    if status == "infeasible":
        return FeasibilityOutcome("infeasible", None, None)
    if status == "unbounded":
        raise MalformedSystemError("slack is unbounded; system lacks effective normalization")
    slack = assignment[EPS_VAR]
    witness = _witness_matrix(system.n, assignment) if slack > 0 else None
    return FeasibilityOutcome("feasible", slack, witness)


def _witness_matrix(n: int, assignment) -> DistanceMatrix:
    values = {
        (i, j): assignment[pair_var(i, j)] for i in range(n) for j in range(n) if i != j
    }
    scale = Fraction(lcm(*(v.denominator for v in values.values())))
    ints = [v * scale for v in values.values()]
    common = gcd(*(int(v) for v in ints))
    if common > 1:
        scale /= common
    zero = Fraction(0)
    entries = tuple(
        tuple(zero if i == j else values[(i, j)] * scale for j in range(n)) for i in range(n)
    )
    return DistanceMatrix(default_labels(n), entries)


# --------------------------------------------------------------- the solver


def _simplex_max(variables, constraints, objective):
    """Maximize objective . x subject to the constraints, x free.

    Returns (status, value, assignment); status is "optimal", "infeasible"
    or "unbounded".  Two-phase simplex on the split nonnegative form with
    Bland's least-index pivot rule (finite by anti-cycling).
    """
    zero = Fraction(0)
    one = Fraction(1)
    nvars = len(variables)
    vindex = {v: k for k, v in enumerate(variables)}

    # split x = x+ - x-, normalize rhs >= 0
    rows = []
    for con in constraints:
        arr = [zero] * (2 * nvars)
        for v, cf in con.coeffs.items():
            k = vindex[v]
            arr[2 * k] += cf
            arr[2 * k + 1] -= cf
        rel = con.relation
        rhs = con.rhs
        if rhs < 0:
            arr = [-a for a in arr]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((arr, rel, rhs))

    m = len(rows)
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
    ncols = col

    tableau = []
    rhs_col = []
    basis = []
    for i, (arr, rel, rhs) in enumerate(rows):
        row = arr + [zero] * (ncols - 2 * nvars)
        if rel == "<=":
            row[slack_col[i]] = one
        elif rel == ">=":
            row[slack_col[i]] = -one
        if i in art_col:
            row[art_col[i]] = one
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        tableau.append(row)
        rhs_col.append(rhs)

    def reduced_costs(cost):
        red = list(cost)
        value = zero
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                value += cb * rhs_col[i]
                row = tableau[i]
                for j in range(ncols):
                    if row[j]:
                        red[j] -= cb * row[j]
        return red, value

    def pivot(i, j, red, value):
        row = tableau[i]
        piv = row[j]
        if piv != one:
            tableau[i] = row = [v / piv for v in row]
            rhs_col[i] = rhs_col[i] / piv
        nonzero = [(jj, v) for jj, v in enumerate(row) if v]
        bi = rhs_col[i]
        for k in range(m):
            if k == i:
                continue
            f = tableau[k][j]
            if f:
                rk = tableau[k]
                for jj, v in nonzero:
                    rk[jj] -= f * v
                rhs_col[k] -= f * bi
        f = red[j]
        if f:
            for jj, v in nonzero:
                red[jj] -= f * v
            value += f * bi
        basis[i] = j
        return value

    def bland(red, value, limit):
        # pivot until optimal; columns >= limit may never enter
        while True:
            enter = next((j for j in range(limit) if red[j] > 0), None)
            if enter is None:
                return "optimal", value
            leave = None
            best = None
            for i in range(m):
                t = tableau[i][enter]
                if t > 0:
                    ratio = rhs_col[i] / t
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded", value
            value = pivot(leave, enter, red, value)

    if art_col:
        cost1 = [zero] * ncols
        for j in art_col.values():
            cost1[j] = -one
        red, value = reduced_costs(cost1)
        status, value = bland(red, value, first_art)
        if value < 0:
            return "infeasible", None, None
        # drive zero-level artificials out of the basis; drop redundant rows
        i = 0
        while i < m:
            if basis[i] >= first_art:
                enter = next((j for j in range(first_art) if tableau[i][j] != 0), None)
                if enter is None:
                    del tableau[i]
                    del rhs_col[i]
                    del basis[i]
                    m -= 1
                    continue
                pivot(i, enter, red, value)
            i += 1
        for i in range(m):
            tableau[i] = tableau[i][:first_art]
        ncols = first_art

    cost2 = [zero] * ncols
    for v, cf in objective.items():
        k = vindex[v]
        cost2[2 * k] += cf
        cost2[2 * k + 1] -= cf
    red, value = reduced_costs(cost2)
    status, value = bland(red, value, ncols)
    if status == "unbounded":
        return "unbounded", None, None

    col_value = {}
    for i in range(m):
        col_value[basis[i]] = rhs_col[i]
    assignment = {}
    for v, k in vindex.items():
        assignment[v] = col_value.get(2 * k, zero) - col_value.get(2 * k + 1, zero)
    return "optimal", value, assignment
