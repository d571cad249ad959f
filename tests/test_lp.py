import hashlib
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlines import lp, realizability
from qmlines.core import Betweenness
from qmlines.enumeration import canonical_classes, classify
from qmlines.fixtures import q4_betweenness, q4_matrix
from qmlines.lp import _optimum, _simplex_max
from qmlines.encoding import ordered_pairs
from qmlines.realizability import (
    VARIANTS,
    _realization_rows,
    build_realization_system,
    maximize_slack,
    realize,
)

from conftest import random_consistent
from oracles import brute_force_lp_max, consistent_masks, split_simplex_max


def support(system, row):
    """The variables with a nonzero coefficient in one of the system's rows."""
    return {v for v, c in zip(system.variables, row[0]) if c}


def violated(system, point, denominator):
    """The rows that a point, integer numerators over one denominator, breaks."""
    broken = []
    for row in system.constraints:
        coeffs, relation, rhs = row
        lhs = sum(c * v for c, v in zip(coeffs, point))
        if lhs > rhs * denominator or (relation == "=" and lhs != rhs * denominator):
            broken.append(row)
    return broken


class TestSystemStructure:
    def test_q4_quasi_constraint_census(self):
        # 12 ordered pairs on 4 points, 24 ordered triples of which 4 are members
        system = build_realization_system(q4_betweenness(), "quasi")
        assert len(system.variables) == 13

        def rows(relation, size):
            return [
                r for r in system.constraints if r[1] == relation and len(support(system, r)) == size
            ]

        positivity = [r for r in rows("<=", 2) if "eps" in support(system, r)]
        assert len(positivity) == 12
        assert len(rows("=", 3)) == 4
        assert len(rows("<=", 4)) == 20
        assert len(rows("=", 12)) == 1
        assert len(system.constraints) == 37

    def test_empty_relation_on_three_points(self):
        system = build_realization_system(Betweenness(3, 0), "quasi")
        assert len(system.variables) == 7
        sizes = [(r[1], len(support(system, r))) for r in system.constraints]
        assert ("=", 3) not in sizes
        assert sizes.count(("<=", 4)) == 6

    def test_metric_variant_adds_symmetry(self):
        b = Betweenness.from_triples(3, [(0, 1, 2), (2, 1, 0)])  # abc, cba
        system = build_realization_system(b, "metric")
        sym = [
            r
            for r in system.constraints
            if r[1] == "="
            and sorted(c for c in r[0] if c) == [-1, 1]
            and "eps" not in support(system, r)
        ]
        assert len(sym) == 3
        equalities = [r for r in system.constraints if r[1] == "=" and len(support(system, r)) == 3]
        # d(a,c) = d(a,b) + d(b,c) and d(c,a) = d(c,b) + d(b,a)
        wanted = {
            frozenset({"d(0,2)", "d(0,1)", "d(1,2)"}),
            frozenset({"d(2,0)", "d(2,1)", "d(1,0)"}),
        }
        assert {frozenset(support(system, r)) for r in equalities} == wanted

    def test_variables_name_the_pairs_then_eps(self):
        for n in range(2, 7):
            names = build_realization_system(Betweenness(n, 0), "quasi").variables
            assert names == (*(f"d({i},{j})" for i, j in ordered_pairs(n)), "eps")
        assert build_realization_system(Betweenness(3, 1), "metric").variables == (
            "d(0,1)", "d(0,2)", "d(1,0)", "d(1,2)", "d(2,0)", "d(2,1)", "eps"
        )

    def test_integer_rows_hold_q4_over_its_entry_sum(self):
        # Q4 over its entry sum 22, with eps = 1/22, its least margin
        system = build_realization_system(q4_betweenness(), "quasi")
        d = q4_matrix().entries
        entries = [d[i][j] for i, j in ordered_pairs(4)]
        assert sum(entries) == 22
        assert violated(system, (*entries, 1), 22) == []
        # a larger margin breaks a positivity row; the point halved keeps
        # every homogeneous row and breaks the normalization equality alone
        positivity = system.constraints[:12]
        assert set(violated(system, (*entries, 2), 22)) & set(positivity)
        assert violated(system, (*entries, 1), 44) == [system.constraints[-1]]


def templates():
    """Each (n, variant) template, both variants at n = 2..6: n, the rows in
    every system, the per-triple row pairs and the variable count."""
    for variant in VARIANTS:
        for n in range(2, 7):
            head, pairs, tail = _realization_rows(n, variant)
            yield n, (*head, *tail), pairs, n * (n - 1) + 1


def normalization(n):
    return (1,) * (n * (n - 1)) + (0,), "=", 1


# What makes any system of (n, variant) a bounded slack LP, checked once per
# template: a system is a relation plus a variant, and its rows come from the
# template, so these hold for every system that can be built.
class TestValidation:
    def test_rows_are_the_solver_format(self):
        # integer coefficients -1, 0 or 1, "=" or "<=", rhs 0 or 1, as tuples
        for _, every_system, pairs, width in templates():
            for coeffs, relation, rhs in (*every_system, *(r for pair in pairs for r in pair)):
                assert type(coeffs) is tuple and len(coeffs) == width
                assert set(coeffs) <= {-1, 0, 1}
                assert all(type(c) is int for c in coeffs)
                assert relation in ("=", "<=") and rhs in (0, 1)

    def test_missing_normalization(self):
        for n, every_system, _, _ in templates():
            assert normalization(n) in every_system

    def test_duplicate_normalization(self):
        for n, every_system, pairs, _ in templates():
            assert every_system.count(normalization(n)) == 1
            assert all(normalization(n) not in pair for pair in pairs)

    def test_undeclared_variable(self):
        # one coefficient per declared variable, so no row can name another
        for _, every_system, pairs, width in templates():
            for coeffs, _, _ in (*every_system, *(r for pair in pairs for r in pair)):
                assert len(coeffs) == width

    def test_unreferenced_variable(self):
        # eps and every pair variable appear in the rows of every system
        for _, every_system, _, width in templates():
            assert all(any(r[0][k] for r in every_system) for k in range(width))


POSITIVE_N4_WITNESSES_SHA256 = "1fae5c2ed4ba41be8311c8699ed005aee66cf9730ad9e268d9cce4f0d1a1c6a1"


class TestMaximizeSlack:
    def test_two_point_space(self):
        system = build_realization_system(Betweenness(2, 0), "quasi")
        outcome = maximize_slack(system)
        assert outcome.status == "feasible"
        assert outcome.optimal_slack == Fraction(1, 2)
        assert outcome.witness is not None

    def test_q4_quasi_is_realizable(self):
        outcome = maximize_slack(build_realization_system(q4_betweenness(), "quasi"))
        assert outcome.realizable
        # Q4 itself, scaled by its entry sum 22, achieves slack 1/22
        assert outcome.optimal_slack >= Fraction(1, 22)

    def test_q4_metric_slack_is_exactly_zero(self):
        # the member equalities force d(p,q) = 0 under symmetry, so the slack
        # cannot be positive, yet the relaxed system remains feasible
        outcome = maximize_slack(build_realization_system(q4_betweenness(), "metric"))
        assert outcome.status == "feasible"
        assert outcome.optimal_slack == 0
        assert not outcome.realizable
        assert outcome.witness is None

    def test_reversal_pair_metric_realizable(self):
        b = Betweenness.from_triples(3, [(0, 1, 2), (2, 1, 0)])
        outcome = maximize_slack(build_realization_system(b, "metric"))
        assert outcome.realizable
        w = outcome.witness
        assert w.entries[0][2] == w.entries[0][1] + w.entries[1][2]
        for i in range(3):
            for j in range(3):
                assert w.entries[i][j] == w.entries[j][i]

    def test_witness_entries_are_coprime_integers(self):
        outcome = maximize_slack(build_realization_system(q4_betweenness(), "quasi"))
        values = [v for row in outcome.witness.entries for v in row]
        assert all(v.denominator == 1 for v in values)
        assert gcd(*(int(v) for v in values if v)) == 1

    def test_positive_four_point_witnesses_are_coprime(self):
        # every positive n=4 witness, pinned as SHA-256 over one
        # "mask|variant|entries" line each, in classify(4) order with quasi
        # before metric, as the Fraction read-out with lcm scaling gave them
        witnesses = []
        for rec in classify(4):
            if rec.realizable_quasi:
                witnesses.append((rec.canonical.mask, "quasi", rec.witness))
            if rec.realizable_metric:
                metric = realize(rec.canonical, "metric").witness
                witnesses.append((rec.canonical.mask, "metric", metric))
        assert len(witnesses) == 273 + 9
        digest = hashlib.sha256()
        for mask, variant, w in witnesses:
            assert gcd(*(int(v) for row in w.entries for v in row)) == 1
            digest.update(f"{mask}|{variant}|{w.entries!r}\n".encode())
        assert digest.hexdigest() == POSITIVE_N4_WITNESSES_SHA256


# ------------------------------------------------- solver vs vertex oracle


def rows_of(variables, constraints):
    """(coeffs dict, relation, rhs) triples as the solver's integer rows over
    variables; an "=" row whose rhs is negative is negated."""
    rows = []
    for coeffs, relation, rhs in constraints:
        arr = tuple(coeffs.get(v, 0) for v in variables)
        if rhs < 0 and relation == "=":
            arr, rhs = tuple(-a for a in arr), -rhs
        rows.append((arr, relation, rhs))
    return rows


def cost_of(variables, objective):
    return [objective.get(v, 0) for v in variables]


def optimum_of(variables, constraints, objective):
    """`_optimum` on the rows and cost of the triples and objective."""
    return _optimum(rows_of(variables, constraints), cost_of(variables, objective))


def assignment_of(variables, point):
    """The solver's point (numerators, D) as one Fraction per variable."""
    if point is None:
        return None
    numerators, denom = point
    return {v: Fraction(x, denom) for v, x in zip(variables, numerators)}


def simplex_of(variables, constraints, objective):
    """`_simplex_max` on the same, with its point as a dict by variable."""
    status, value, point = _simplex_max(
        rows_of(variables, constraints), cost_of(variables, objective)
    )
    return status, value, assignment_of(variables, point)


def holds(constraint, assignment):
    coeffs, relation, rhs = constraint
    lhs = sum(c * assignment[v] for v, c in coeffs.items())
    return lhs == rhs if relation == "=" else lhs <= rhs


_VARS = ("x0", "x1", "x2")


@st.composite
def small_lps(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    variables = _VARS[:nvars]
    coeff = st.integers(min_value=-3, max_value=3)
    objective = {v: draw(st.one_of(st.just(0), coeff)) for v in variables}
    ncons = draw(st.integers(min_value=1, max_value=4))
    constraints = []
    for _ in range(ncons):
        rel = draw(st.sampled_from(["<=", "<=", "<=", "=", "=0", "=0"]))
        support = variables
        if rel == "=0":
            # an "=" row with rhs 0, which _optimum substitutes out unless
            # it touches objective variables only; then it stays a row
            rel = "="
            if draw(st.booleans()):
                support = [v for v in variables if objective[v]]
            rhs = 0
        else:
            # the solver takes rhs >= 0: rows_of negates an "=" row
            rhs = draw(st.integers(min_value=0 if rel == "<=" else -5, max_value=5))
        coeffs = {v: draw(coeff) if v in support else 0 for v in variables}
        constraints.append((coeffs, rel, rhs))
    # box bounds keep the region a polytope, so the vertex oracle is sound
    for v in variables:
        constraints.append(({v: 1}, "<=", 5))
        constraints.append(({v: -1}, "<=", 5))
    return variables, constraints, objective


@settings(max_examples=120, deadline=None)
@given(small_lps())
def test_simplex_agrees_with_vertex_enumeration(problem):
    variables, constraints, objective = problem
    status, value, assignment = simplex_of(variables, constraints, objective)
    oracle_status, oracle_value = brute_force_lp_max(variables, constraints, objective)
    assert status == oracle_status
    assert optimum_of(variables, constraints, objective) == (status, value)
    if status == "optimal":
        assert value == oracle_value
        # the reported point must be feasible and achieve the optimum
        assert all(holds(c, assignment) for c in constraints)
        achieved = sum(c * assignment[v] for v, c in objective.items())
        assert achieved == value
    # without the box the region may be unbounded; the two entries agree
    unboxed = constraints[: -2 * len(variables)]
    assert optimum_of(variables, unboxed, objective) == simplex_of(variables, unboxed, objective)[:2]


# ----------------------------------------- solver vs the split-column solver

# One stored column per free variable must take the pivots of the tableau
# that stores both x+ and x-, so status, value and the whole assignment agree.
# The solver is replayed live against the split-column solver on the 3-point
# relations and Q4; on all 9,026 LPs it must repeat the split-column solver's
# outputs, pinned as SHA-256 over one repr((status, value, sorted assignment))
# line per LP, in the order below, as split_simplex_max computed them.
SPLIT_SOLVER_SHA256 = {
    "quasi": "521ad368b824fced29193ff0c3792bf84b0e49cefb704718352ffba97b150ab7",
    "metric": "f6c419c5fc92de1eacc715d725d95f1cdf134c076a8ee33d41c80004d12c83ab",
}


def slack_cost(system):
    """The cost maximize_slack hands the solver: 1 on eps, the last variable."""
    return [0] * (len(system.variables) - 1) + [1]


def triples_of(system):
    """The system's rows as (coeffs dict, relation, rhs) triples."""
    return [
        ({v: c for v, c in zip(system.variables, coeffs) if c}, relation, rhs)
        for coeffs, relation, rhs in system.constraints
    ]


@pytest.mark.parametrize("variant", ["quasi", "metric"])
def test_realization_lps_repeat_the_split_column_solver(variant):
    three_points = [Betweenness(3, mask) for mask in consistent_masks(3)]
    relations = [
        *three_points,
        *(Betweenness(4, mask) for mask, _ in canonical_classes(4)),
        *(
            random_consistent(n, rng)
            for n, rng in ((5, random.Random(5)), (6, random.Random(6)))
            for _ in range(20)
        ),
    ]
    assert len(set(relations)) == 18 + 4455 + 40

    def solved(system):
        status, value, point = _simplex_max(system.constraints, slack_cost(system))
        return status, value, assignment_of(system.variables, point)

    for b in (*three_points, q4_betweenness()):
        system = build_realization_system(b, variant)
        oracle = split_simplex_max(system.variables, triples_of(system), {"eps": 1})
        assert solved(system) == oracle
    digest = hashlib.sha256()
    for b in relations:
        system = build_realization_system(b, variant)
        status, value, assignment = solved(system)
        # the value entry, on the equality-reduced system, gives the same verdict
        assert _optimum(system.constraints, slack_cost(system)) == (status, value)
        digest.update(f"{(status, value, sorted((assignment or {}).items()))!r}\n".encode())
    assert digest.hexdigest() == SPLIT_SOLVER_SHA256[variant]


# more pivots than any of these small LPs takes: a solver past it is cycling
PIVOT_CAP = 1000


def _traced(solver, *args):
    """The solver's result on args and its pivots, as (entering id, leaving
    id) pairs read from the locals of its inner `pivot` function at each call."""
    pivots = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "pivot":
            local = frame.f_locals
            pivots.append((local["nonbasic"][local["c"]], local["basis"][local["r"]]))
            if len(pivots) > PIVOT_CAP:
                raise AssertionError(f"more than {PIVOT_CAP} pivots: the pivot rule cycles")

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = solver(*args)
    finally:
        sys.setprofile(previous)
    return result, pivots


def _same_pivots(variables, constraints, objective):
    """Solve with both solvers; the results and the pivot sequences agree."""
    got = _traced(simplex_of, variables, constraints, objective)
    assert got == _traced(split_simplex_max, variables, constraints, objective)
    return got


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_simplex_repeats_the_split_column_pivots(problem):
    _same_pivots(*problem)


def _box(variables, bound=5):
    return [({v: sign}, "<=", bound) for v in variables for sign in (1, -1)]


def _check_hand_lp(variables, constraints, objective, value, assignment):
    result, pivots = _same_pivots(variables, constraints, objective)
    assert result == ("optimal", value, assignment)
    assert brute_force_lp_max(variables, constraints, objective) == ("optimal", value)
    return pivots


def test_free_variable_enters_as_its_negative_part():
    # maximize -x subject to x >= -3: x's reduced cost is negative, so x-
    # (id 1) enters, and the one stored column is negated first
    pivots = _check_hand_lp(
        ("x",), [({"x": -1}, "<=", 3), ({"x": 1}, "<=", 5)], {"x": -1}, 3, {"x": -3}
    )
    assert pivots == [(1, 2)]


def test_free_variable_leaves_the_basis_and_reenters_negated():
    # x+ enters first (least id), y then drives it out at x = 0, and x comes
    # back as x- through the slot it left: maximum 8 at x = -1, y = 3
    variables = ("x", "y")
    constraints = [({"x": 1, "y": 1}, "<=", 2), ({"y": 1}, "<=", 3), *_box(variables)]
    pivots = _check_hand_lp(variables, constraints, {"x": 1, "y": 3}, 8, {"x": -1, "y": 3})
    assert pivots == [(0, 4), (2, 0), (1, 5)]


def test_redundant_equality_is_driven_out_through_x_plus_and_dropped():
    # both equalities say x = y, so phase 1 ends at once with both
    # artificials (ids 9 and 10) basic at zero; the first is driven out by
    # x+ (id 0, the least id with a nonzero entry, not x-), and the second
    # row, now all zero, is dropped; phase 2 then raises y to 2
    variables = ("x", "y")
    constraints = [
        ({"x": 1, "y": -1}, "=", 0),
        ({"x": -1, "y": 1}, "=", 0),
        ({"y": 1}, "<=", 2),
        *_box(variables),
    ]
    pivots = _check_hand_lp(variables, constraints, {"y": 1}, 2, {"x": 2, "y": 2})
    assert pivots == [(0, 9), (2, 4)]


# ---------------------------------------------------- the value presolve


def _rank(rows):
    """Rank of integer rows, by exact elimination."""
    rows = [[Fraction(a) for a in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pick = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[rank], rows[pick] = rows[pick], rows[rank]
        top = rows[rank]
        for i, r in enumerate(rows):
            if i != rank and r[col]:
                f = r[col] / top[col]
                rows[i] = [a - f * b for a, b in zip(r, top)]
        rank += 1
    return rank


def test_value_lp_gets_distinct_rows_over_the_columns_left(monkeypatch):
    # _optimum hands _simplex_max each distinct row once, over the columns
    # that no "=" row with rhs 0 eliminated.  In a realization system every
    # such row has a column with no cost, so as many columns go as their rank.
    handed = []

    def recording(rows, cost):
        handed.append((rows, cost))
        return simplex_max(rows, cost)

    simplex_max = lp._simplex_max
    monkeypatch.setattr(lp, "_simplex_max", recording)
    reached = 0
    for mask, _ in canonical_classes(4)[::9]:
        for variant in VARIANTS:
            system = build_realization_system(Betweenness(4, mask), variant)
            handed.clear()
            status, _ = _optimum(system.constraints, slack_cost(system))
            if not handed:
                assert status == "infeasible"
                continue
            reached += 1
            (rows, cost), = handed
            assert len(set(rows)) == len(rows)
            equalities = [
                coeffs for coeffs, relation, rhs in system.constraints if relation == "=" and not rhs
            ]
            assert len(cost) == len(system.variables) - _rank(equalities)
            # an eliminated column would be zero in every row
            assert all(any(arr[k] for arr, _, _ in rows) for k in range(len(cost)))
    assert reached == 736  # the other 254 LPs end in the presolve, infeasible


# ------------------------------------------------ row order of the value LP


@settings(max_examples=120, deadline=None)
@given(small_lps(), st.data())
def test_value_does_not_depend_on_row_or_variable_order(problem, data):
    variables, constraints, objective = problem
    expected = optimum_of(variables, constraints, objective)
    shuffled_variables = tuple(data.draw(st.permutations(variables)))
    shuffled_constraints = data.draw(st.permutations(constraints))
    assert optimum_of(shuffled_variables, shuffled_constraints, objective) == expected


# quasi systems among those of value_lps that the zero-slack check settles
SETTLED_BY_CHECK = 331


@pytest.fixture(scope="module")
def value_lps():
    """(system, rows, cost) of the value LP that maximize_slack hands
    lp._optimum, for the quasi and the metric system of every 9th class of
    canonical_classes(4).  A quasi system that its zero-slack check settles
    hands nothing; for it the fixture builds the rows the LP would get, the
    template with its 12 positivity rows moved last, and checks that they
    solve to exactly 0."""
    handed = []
    optimum = realizability._optimum

    def recording(rows, cost):
        handed.append((rows, cost))
        return optimum(rows, cost)

    lps = []
    settled = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realizability, "_optimum", recording)
        for mask, _ in canonical_classes(4)[::9]:
            for variant in VARIANTS:
                system = build_realization_system(Betweenness(4, mask), variant)
                maximize_slack(system)
                if handed:
                    (rows, cost), = handed
                    handed.clear()
                else:
                    settled += 1
                    template = list(system.constraints)
                    rows, cost = template[12:] + template[:12], slack_cost(system)
                    assert optimum(rows, cost) == ("optimal", 0)
                lps.append((system, rows, cost))
    assert settled == SETTLED_BY_CHECK
    return lps


def test_value_lp_takes_the_positivity_rows_last(value_lps):
    # the system's own rows, with the 12 positivity rows moved from the front
    # to the end, and the same status and value as in template order
    for system, rows, cost in value_lps:
        template = list(system.constraints)
        assert rows == template[12:] + template[:12]
        assert cost == [0] * 12 + [1]
        assert _optimum(rows, cost) == _optimum(template, cost)


# Pivots of the value LPs above in maximize_slack's order; in template order
# (the positivity rows first) they take 4,783.
VALUE_LP_PIVOTS = 2836


def test_value_lp_pivots_are_pinned(value_lps):
    ours = template = 0
    for system, rows, cost in value_lps:
        ours += len(_traced(_optimum, rows, cost)[1])
        template += len(_traced(_optimum, system.constraints, cost)[1])
    assert ours == VALUE_LP_PIVOTS
    assert ours < template


# ------------------------------------------------------ pinned LP outputs

# SHA-256 over one "status|optimal_slack|witness entries" line per LP, the
# quasi then the metric system of every 9th class of canonical_classes(4),
# in class order; recorded from the rational (Fraction) tableau solver.
LP_OUTPUTS_SHA256 = "6badcde8b275b84661b9dc122f907f3f0c3eb7402c7d46e05a086b6c01dec329"


def test_lp_outputs_are_pinned():
    digest = hashlib.sha256()
    for mask, _ in canonical_classes(4)[::9]:
        for variant in ("quasi", "metric"):
            outcome = maximize_slack(build_realization_system(Betweenness(4, mask), variant))
            w = outcome.witness
            entries = "" if w is None else ",".join(str(v) for row in w.entries for v in row)
            digest.update(f"{outcome.status}|{outcome.optimal_slack}|{entries}\n".encode())
    assert digest.hexdigest() == LP_OUTPUTS_SHA256
