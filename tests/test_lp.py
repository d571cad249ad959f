import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlines import lp, realizability
from qmlines.core import Betweenness
from qmlines.encoding import ordered_pairs
from qmlines.enumeration import canonical_classes, raw_consistent_masks
from qmlines.fixtures import q4_betweenness
from qmlines.lp import Constraint, _integer_rows, _optimum, _simplex_max
from qmlines.realizability import (
    EPS_VAR,
    VARIANTS,
    _realization_rows,
    _witness_matrix,
    build_realization_system,
    maximize_slack,
    pair_var,
    pair_variables,
)

from conftest import random_consistent
from oracles import brute_force_lp_max, split_simplex_max


class TestConstraint:
    def test_zero_coefficients_dropped(self):
        c = Constraint({"d(0,1)": 0, "d(1,0)": 2}, "<=", 1)
        assert set(c.coeffs) == {"d(1,0)"}

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Constraint({"d(0,1)": 0.5}, "<=", 1)

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            Constraint({"d(0,1)": 1}, ">=", 0)

    def test_satisfied_by(self):
        c = Constraint({"d(0,1)": 2, "d(1,0)": -1}, "<=", 1)
        assert c.satisfied_by({"d(0,1)": Fraction(1, 2), "d(1,0)": Fraction(0)})
        assert not c.satisfied_by({"d(0,1)": Fraction(2), "d(1,0)": Fraction(1)})


class TestSystemStructure:
    def test_q4_quasi_constraint_census(self):
        # 12 ordered pairs on 4 points, 24 ordered triples of which 4 are members
        system = build_realization_system(q4_betweenness(), "quasi")
        assert len(system.variables) == 13
        positivity = [c for c in system.constraints if EPS_VAR in c.coeffs and len(c.coeffs) == 2]
        equalities = [c for c in system.constraints if c.relation == "=" and len(c.coeffs) == 3]
        slack_ineqs = [
            c for c in system.constraints if c.relation == "<=" and len(c.coeffs) == 4
        ]
        norms = [c for c in system.constraints if c.relation == "=" and len(c.coeffs) == 12]
        assert len(positivity) == 12
        assert len(equalities) == 4
        assert len(slack_ineqs) == 20
        assert len(norms) == 1
        assert len(system.constraints) == 37

    def test_empty_relation_on_three_points(self):
        system = build_realization_system(Betweenness(3, 0), "quasi")
        assert len(pair_variables(3)) == 6
        equalities = [
            c for c in system.constraints if c.relation == "=" and len(c.coeffs) == 3
        ]
        slack_ineqs = [
            c for c in system.constraints if c.relation == "<=" and len(c.coeffs) == 4
        ]
        assert not equalities
        assert len(slack_ineqs) == 6

    def test_metric_variant_adds_symmetry(self):
        b = Betweenness.from_triples(3, [(0, 1, 2), (2, 1, 0)])  # abc, cba
        system = build_realization_system(b, "metric")
        sym = [
            c
            for c in system.constraints
            if c.relation == "="
            and len(c.coeffs) == 2
            and set(c.coeffs.values()) == {Fraction(1), Fraction(-1)}
            and EPS_VAR not in c.coeffs
        ]
        assert len(sym) == 3
        equalities = [
            c for c in system.constraints if c.relation == "=" and len(c.coeffs) == 3
        ]
        # d(a,c) = d(a,b) + d(b,c) and d(c,a) = d(c,b) + d(b,a)
        assert len(equalities) == 2
        wanted = {
            frozenset({pair_var(0, 2), pair_var(0, 1), pair_var(1, 2)}),
            frozenset({pair_var(2, 0), pair_var(2, 1), pair_var(1, 0)}),
        }
        assert {frozenset(c.coeffs) for c in equalities} == wanted


def templates():
    """Each (n, variant) template, both variants at n = 2..6: n, the rows in
    every system, the per-triple row pairs and the declared variables."""
    for variant in VARIANTS:
        for n in range(2, 7):
            head, pairs, tail = _realization_rows(n, variant)
            yield n, (*head, *tail), pairs, {*pair_variables(n), EPS_VAR}


def normalization(n):
    return Constraint(dict.fromkeys(pair_variables(n), 1), "=", 1)


# What makes any system of (n, variant) a bounded slack LP, checked once per
# template: a system is a relation plus a variant, and its rows come from the
# template, so these hold for every system that can be built.
class TestValidation:
    def test_missing_normalization(self):
        for n, every_system, _, _ in templates():
            assert normalization(n) in every_system

    def test_duplicate_normalization(self):
        for n, every_system, pairs, _ in templates():
            assert every_system.count(normalization(n)) == 1
            assert all(normalization(n) not in pair for pair in pairs)

    def test_undeclared_variable(self):
        for _, every_system, pairs, declared in templates():
            for con in (*every_system, *(c for pair in pairs for c in pair)):
                assert set(con.coeffs) <= declared

    def test_unreferenced_variable(self):
        # eps and every pair variable appear in the rows of every system
        for _, every_system, _, declared in templates():
            assert set().union(*(c.coeffs for c in every_system)) == declared


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
        from math import gcd

        assert gcd(*(int(v) for v in values if v)) == 1

    def test_witness_matrix_divides_out_a_common_factor(self):
        # a vertex normalized to distance sum 1 is already coprime after the
        # lcm, so only an unnormalized vector shows the division
        values = [Fraction(v) for v in ("4/3", "2", "2/3", "2", "4/3", "2")]
        assignment = {pair_var(i, j): v for (i, j), v in zip(ordered_pairs(3), values)}
        w = _witness_matrix(3, assignment)
        assert [v for row in w.entries for v in row] == [0, 2, 3, 1, 0, 3, 2, 3, 0]


# ------------------------------------------------- solver vs vertex oracle


def optimum_of(variables, constraints, objective):
    """`_optimum` on the integer rows and cost of the LP `_simplex_max` takes."""
    return _optimum(_integer_rows(variables, constraints), [objective.get(v, 0) for v in variables])


_VARS = ("x0", "x1", "x2")


@st.composite
def small_lps(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    variables = _VARS[:nvars]
    # some fractions, so that the solver's denominator clearing is exercised
    def number(bound):
        return st.one_of(
            st.integers(min_value=-bound, max_value=bound),
            st.fractions(min_value=-bound, max_value=bound, max_denominator=4),
        )

    coeff = number(3)
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
            rhs = draw(number(5))
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
    variables, raw_constraints, objective = problem
    constraints = [Constraint(c, rel, rhs) for c, rel, rhs in raw_constraints]
    objective = {v: Fraction(c) for v, c in objective.items()}
    status, value, assignment = _simplex_max(variables, constraints, objective)
    oracle_status, oracle_value = brute_force_lp_max(
        variables, raw_constraints, objective
    )
    assert status == oracle_status
    assert optimum_of(variables, constraints, objective) == (status, value)
    if status == "optimal":
        assert value == oracle_value
        # the reported point must be feasible and achieve the optimum
        assert all(c.satisfied_by(assignment) for c in constraints)
        achieved = sum(
            Fraction(c) * assignment[v] for v, c in objective.items()
        )
        assert achieved == value
    # without the box the region may be unbounded; the two entries agree
    unboxed = constraints[: -2 * len(variables)]
    assert optimum_of(variables, unboxed, objective) == _simplex_max(variables, unboxed, objective)[:2]


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


@pytest.mark.parametrize("variant", ["quasi", "metric"])
def test_realization_lps_repeat_the_split_column_solver(variant):
    three_points = [Betweenness(3, mask) for mask in raw_consistent_masks(3)]
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
    objective = {EPS_VAR: Fraction(1)}

    def args(b):
        system = build_realization_system(b, variant)
        return system.variables, system.constraints, objective

    for b in (*three_points, q4_betweenness()):
        assert _simplex_max(*args(b)) == split_simplex_max(*args(b))
    digest = hashlib.sha256()
    for b in relations:
        status, value, assignment = _simplex_max(*args(b))
        # the value entry, on the equality-reduced system, gives the same verdict
        assert optimum_of(*args(b)) == (status, value)
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


def _same_pivots(variables, raw_constraints, objective):
    """Solve with both solvers; the results and the pivot sequences agree."""
    constraints = [Constraint(c, rel, rhs) for c, rel, rhs in raw_constraints]
    objective = {v: Fraction(c) for v, c in objective.items()}
    got = _traced(_simplex_max, variables, constraints, objective)
    assert got == _traced(split_simplex_max, variables, constraints, objective)
    return got


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_simplex_repeats_the_split_column_pivots(problem):
    _same_pivots(*problem)


def _box(variables, bound=5):
    return [({v: sign}, "<=", bound) for v in variables for sign in (1, -1)]


def _check_hand_lp(variables, raw_constraints, objective, value, assignment):
    result, pivots = _same_pivots(variables, raw_constraints, objective)
    assert result == ("optimal", value, assignment)
    assert brute_force_lp_max(variables, raw_constraints, objective) == ("optimal", value)
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
    # _optimum hands _two_phase each distinct row once, over the columns that
    # no "=" row with rhs 0 eliminated.  In a realization system every such
    # row has a column with no cost, so as many columns go as their rank.
    handed = []

    def recording(rows, cost):
        handed.append((rows, cost))
        return two_phase(rows, cost)

    two_phase = lp._two_phase
    monkeypatch.setattr(lp, "_two_phase", recording)
    objective = {EPS_VAR: Fraction(1)}
    reached = 0
    for mask, _ in canonical_classes(4)[::9]:
        for variant in VARIANTS:
            system = build_realization_system(Betweenness(4, mask), variant)
            handed.clear()
            status, _ = optimum_of(system.variables, system.constraints, objective)
            if not handed:
                assert status == "infeasible"
                continue
            reached += 1
            (rows, cost), = handed
            assert len(set(rows)) == len(rows)
            equalities = [
                [c.coeffs.get(v, 0) for v in system.variables]
                for c in system.constraints
                if c.relation == "=" and not c.rhs
            ]
            assert len(cost) == len(system.variables) - _rank(equalities)
            # an eliminated column would be zero in every row
            assert all(any(arr[k] for arr, _, _ in rows) for k in range(len(cost)))
    assert reached == 736  # the other 254 LPs end in the presolve, infeasible


# ------------------------------------------------ row order of the value LP


@settings(max_examples=120, deadline=None)
@given(small_lps(), st.data())
def test_value_does_not_depend_on_row_or_variable_order(problem, data):
    variables, raw_constraints, objective = problem
    constraints = [Constraint(c, rel, rhs) for c, rel, rhs in raw_constraints]
    objective = {v: Fraction(c) for v, c in objective.items()}
    expected = optimum_of(variables, constraints, objective)
    shuffled_variables = tuple(data.draw(st.permutations(variables)))
    shuffled_constraints = data.draw(st.permutations(constraints))
    assert optimum_of(shuffled_variables, shuffled_constraints, objective) == expected


@pytest.fixture(scope="module")
def value_lps():
    """(system, rows, cost) of the value LP that maximize_slack hands
    lp._optimum, for the quasi and the metric system of every 9th class of
    canonical_classes(4)."""
    handed = []
    optimum = realizability._optimum

    def recording(rows, cost):
        handed.append((rows, cost))
        return optimum(rows, cost)

    lps = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realizability, "_optimum", recording)
        for mask, _ in canonical_classes(4)[::9]:
            for variant in VARIANTS:
                system = build_realization_system(Betweenness(4, mask), variant)
                maximize_slack(system)
                (rows, cost), = handed
                handed.clear()
                lps.append((system, rows, cost))
    return lps


def test_value_lp_takes_the_positivity_rows_last(value_lps):
    # the system's own rows, with the 12 positivity rows moved from the front
    # to the end, and the same status and value as in template order
    for system, rows, cost in value_lps:
        template = _integer_rows(system.variables, system.constraints)
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
        in_template_order = _integer_rows(system.variables, system.constraints)
        template += len(_traced(_optimum, in_template_order, cost)[1])
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
