import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlines.core import (
    Betweenness,
    DistanceMatrix,
    _line_fields,
    _packed_lines,
    _packed_table,
    betweenness_of,
    consistency_check,
    line_of_pair,
    line_set,
    segment,
    validate_quasi_metric,
)
from qmlines.encoding import mask_from_triples, ordered_pairs, ordered_triples, triple_count
from qmlines.enumeration import canonical_classes
from qmlines.fixtures import (
    THREE_POINT_TABLE,
    q4_betweenness,
    q4_lines,
    q4_matrix,
    three_point_lines_expected,
    three_point_relation,
)

from conftest import quasi_metrics, random_consistent, rational_tables
from oracles import (
    consistent_masks,
    line_from_distances,
    line_from_triples,
    violations_by_fractions,
)


def uniform(n):
    rows = tuple(
        tuple(Fraction(0) if i == j else Fraction(1) for j in range(n)) for i in range(n)
    )
    return DistanceMatrix(tuple("abcdefgh"[:n]), rows)


def cycle3():
    # directed 3-cycle a->b->c->a, shortest-path distances
    return DistanceMatrix(
        ("a", "b", "c"),
        ((0, 1, 2), (2, 0, 1), (1, 2, 0)),
    )


class TestDistanceMatrix:
    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            DistanceMatrix(("a",), ((0,),))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            DistanceMatrix(("a", "a"), ((0, 1), (1, 0)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DistanceMatrix(("a", "b"), ((0, 1, 2), (1, 0, 2)))

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="float"):
            DistanceMatrix(("a", "b"), ((0, 0.5), (1, 0)))

    def test_scaled_requires_positive_factor(self, q4):
        with pytest.raises(ValueError, match="positive"):
            q4.scaled(0)


class TestValidation:
    def test_q4_is_a_quasi_metric(self, q4):
        assert validate_quasi_metric(q4).ok

    def test_uniform_matrix_is_valid(self):
        assert validate_quasi_metric(uniform(4)).ok

    def test_triangle_violation_reports_witness(self):
        m = DistanceMatrix(("a", "b", "c"), ((0, 5, 1), (5, 0, 1), (1, 1, 0)))
        result = validate_quasi_metric(m)
        assert not result.ok
        triangle = [v for v in result.violations if v.kind == "triangle"]
        assert (0, 2, 1) in {v.points for v in triangle}
        assert any("5 > " in v.detail for v in triangle)

    def test_nonzero_diagonal_detected(self):
        m = DistanceMatrix(("a", "b"), ((1, 1), (1, 0)))
        result = validate_quasi_metric(m)
        assert not result.ok
        assert any(v.kind == "diagonal" and v.points == (0,) for v in result.violations)

    def test_zero_off_diagonal_detected(self):
        m = DistanceMatrix(("a", "b"), ((0, 0), (1, 0)))
        result = validate_quasi_metric(m)
        assert any(v.kind == "positivity" and v.points == (0, 1) for v in result.violations)

    def test_asymmetry_is_allowed(self, q4):
        # d(p,r) = 3 but d(r,p) = 1
        assert q4.entries[0][3] == 3
        assert q4.entries[3][0] == 1
        assert validate_quasi_metric(q4).ok


class TestBetweenness:
    def test_q4_betweenness_matches_reference(self, q4):
        assert betweenness_of(q4) == q4_betweenness()

    def test_directed_cycle(self):
        b = betweenness_of(cycle3())
        assert b == Betweenness.from_triples(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])

    def test_uniform_matrix_has_empty_betweenness(self):
        assert betweenness_of(uniform(3)).mask == 0

    def test_from_triples_rejects_repeats(self):
        with pytest.raises(ValueError):
            Betweenness.from_triples(3, [(0, 0, 1)])

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            Betweenness(3, 1 << 6)

    def test_contains(self):
        b = q4_betweenness()
        assert (0, 2, 3) in b  # p q r
        assert (3, 2, 0) not in b  # r q p

    @pytest.mark.parametrize(
        "triple", [(0, 0, 2), (0, 2, 2), (1, 1, 1), (0, 1, 3), (-1, 1, 2), (0, 1)]
    )
    def test_impossible_triples_are_not_members(self, triple):
        assert triple not in Betweenness(3, (1 << 6) - 1)

    def test_bit_positions_follow_lex_triple_order(self):
        # triples on 3 points, lex: 012, 021, 102, 120, 201, 210
        assert Betweenness.from_triples(3, [(0, 1, 2)]).mask == 1
        assert Betweenness.from_triples(3, [(0, 2, 1)]).mask == 2
        assert Betweenness.from_triples(3, [(2, 1, 0)]).mask == 32
        assert Betweenness.from_triples(3, [(0, 1, 2), (2, 1, 0)]).mask == 33


class TestSegment:
    def test_q4_segment_p_r(self, q4):
        p, q, r = q4.index("p"), q4.index("q"), q4.index("r")
        assert segment(q4, p, r) == frozenset({p, q, r})

    def test_q4_segment_r_s(self, q4):
        r, s = q4.index("r"), q4.index("s")
        assert segment(q4, r, s) == frozenset({r, s})

    def test_uniform_segment_is_endpoints(self):
        assert segment(uniform(3), 0, 1) == frozenset({0, 1})

    def test_equal_endpoints_rejected(self, q4):
        with pytest.raises(ValueError):
            segment(q4, 1, 1)

    # -1 used to index from the end: segment(q4, -1, 0) was segment(q4, 3, 0)
    @pytest.mark.parametrize("x, y, bad", [(-1, 0, -1), (0, -1, -1), (0, 7, 7), (4, 0, 4)])
    def test_out_of_range_endpoints_rejected(self, q4, x, y, bad):
        with pytest.raises(ValueError, match=f"endpoint {bad} out of range for n=4"):
            segment(q4, x, y)


class TestLines:
    def test_q4_line_p_q(self, q4):
        b = betweenness_of(q4)
        p, q, r, s = (q4.index(x) for x in "pqrs")
        assert line_of_pair(b, p, q) == frozenset({p, q, r})
        assert line_of_pair(b, q, p) == frozenset({p, q, s})

    def test_line_is_order_sensitive(self, q4):
        b = betweenness_of(q4)
        p, q = q4.index("p"), q4.index("q")
        assert line_of_pair(b, p, q) != line_of_pair(b, q, p)

    def test_singleton_relation_line(self):
        b = Betweenness.from_triples(3, [(0, 1, 2)])  # abc
        assert line_of_pair(b, 1, 0) == frozenset({0, 1})  # ba stays short

    def test_q4_line_set(self, q4):
        ls = line_set(betweenness_of(q4))
        assert ls.lines == q4_lines()
        assert ls.line_count == 3
        assert not ls.has_universal

    def test_empty_relation_lines(self):
        ls = line_set(Betweenness(3, 0))
        assert ls.line_count == 3
        assert ls.lines == frozenset(
            {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}
        )

    def test_reversal_pair_gives_universal_line(self):
        b = Betweenness.from_triples(3, [(0, 1, 2), (2, 1, 0)])  # abc, cba
        ls = line_set(b)
        assert ls.line_count == 1
        assert ls.has_universal

    @pytest.mark.parametrize("row", THREE_POINT_TABLE, ids=lambda r: ",".join(r["triples"]) or "empty")
    def test_three_point_table_cell_for_cell(self, row):
        b = three_point_relation(row)
        for pair, expected in three_point_lines_expected(row).items():
            assert line_of_pair(b, *pair) == expected
        assert line_set(b).line_count == row["line_count"]

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            line_of_pair(Betweenness(3, 0), 2, 2)

    @pytest.mark.parametrize("x, y, bad", [(-1, 0, -1), (0, -1, -1), (0, 7, 7), (3, 0, 3)])
    def test_out_of_range_endpoints_rejected(self, x, y, bad):
        with pytest.raises(ValueError, match=f"endpoint {bad} out of range for n=3"):
            line_of_pair(Betweenness(3, 0), x, y)


def _relations_for_line_check(n):
    """All 18 raw relations at n=3, all 4,455 classes at n=4, and 50 seeded
    random consistent relations above that."""
    if n == 3:
        return [Betweenness(3, m) for m in consistent_masks(3)]
    if n == 4:
        return [Betweenness(4, m) for m, _ in canonical_classes(4)]
    rng = random.Random(n)
    return [random_consistent(n, rng) for _ in range(50)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_line_set_matches_member_triples(n):
    for b in _relations_for_line_check(n):
        expected = {(x, y): line_from_triples(b, x, y) for (x, y) in ordered_pairs(n)}
        ls = line_set(b)
        assert list(ls.by_pair) == list(ordered_pairs(n))
        assert ls.by_pair == expected
        assert ls.lines == frozenset(ls.by_pair.values())
        for (x, y), line in expected.items():
            assert line_of_pair(b, x, y) == line


@st.composite
def any_relations(draw, min_n=3, max_n=6):
    """Relations on n points, consistent or not: any encoding, a few member
    triples (so that lines need not be universal), or a consistent one."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    few = st.lists(st.sampled_from(ordered_triples(n)), max_size=2 * n)
    mask = draw(
        st.one_of(
            st.integers(min_value=0, max_value=(1 << triple_count(n)) - 1),
            few.map(lambda triples: mask_from_triples(n, triples)),
            st.randoms(use_true_random=False).map(lambda rng: random_consistent(n, rng).mask),
        )
    )
    return Betweenness(n, mask)


@given(any_relations(), st.data())
def test_packed_lines_match_member_triples(b, data):
    n = b.n
    table = _packed_table(n)
    packed = _packed_lines(n, b.mask)
    expected = [line_from_triples(b, x, y) for (x, y) in ordered_pairs(n)]
    assert packed & table.guards == 0
    fields = _line_fields(n, packed)
    assert [frozenset(z for z in range(n) if f >> z & 1) for f in fields] == expected
    # one addition finds a universal line; the fields count the lines
    universal = any(len(line) == n for line in expected)
    assert bool((packed + table.ones) & table.guards) == universal
    assert len(set(fields)) == len(set(expected))
    ls = line_set(b)
    assert ls.has_universal == universal
    assert ls.line_count == len(set(expected))
    # the packed lines of a union are the OR of theirs, as the theorem walk
    # assumes when it ORs in one pattern at a time
    other = data.draw(st.integers(min_value=0, max_value=(1 << triple_count(n)) - 1))
    assert _packed_lines(n, b.mask | other) == packed | _packed_lines(n, other)


class TestDbe:
    def test_q4_fails_dbe(self, q4):
        verdict = line_set(betweenness_of(q4))
        assert verdict.line_count == 3
        assert not verdict.has_universal
        assert not verdict.satisfies_dbe

    def test_singleton_relation_on_three_points(self):
        verdict = line_set(Betweenness.from_triples(3, [(0, 1, 2)]))
        assert verdict.line_count == 4
        assert verdict.satisfies_dbe

    def test_empty_relation_on_three_points(self):
        verdict = line_set(Betweenness(3, 0))
        assert verdict.line_count == 3
        assert verdict.satisfies_dbe

    def test_two_points_always_satisfy(self):
        verdict = line_set(Betweenness(2, 0))
        assert verdict.has_universal
        assert verdict.satisfies_dbe


class TestConsistency:
    def test_q4_consistent(self, q4):
        assert consistency_check(betweenness_of(q4))

    def test_first_swap_conflict(self):
        assert not consistency_check(Betweenness.from_triples(3, [(0, 1, 2), (1, 0, 2)]))

    def test_last_swap_conflict(self):
        assert not consistency_check(Betweenness.from_triples(3, [(0, 1, 2), (0, 2, 1)]))


# ------------------------------------------------------------- property tests


@given(quasi_metrics())
def test_betweenness_of_valid_matrix_is_consistent(m):
    assert consistency_check(betweenness_of(m))


@given(st.one_of(rational_tables(), quasi_metrics()))
def test_betweenness_matches_the_definition_triple_by_triple(m):
    # the rule as written on the Fraction entries, shares no code with the
    # bit reader or its lcm-scaled integer table
    d = m.entries
    expected = {
        (x, y, z) for (x, y, z) in permutations(range(m.n), 3) if d[x][z] == d[x][y] + d[y][z]
    }
    assert set(betweenness_of(m).triples) == expected


@given(st.one_of(rational_tables(), quasi_metrics()))
def test_validation_matches_the_fraction_reference(m):
    # validation compares the lcm-scaled integer table; the reference
    # compares the Fraction entries
    expected = violations_by_fractions(m)
    result = validate_quasi_metric(m)
    assert [(v.kind, v.points, v.detail) for v in result.violations] == expected
    assert result.ok == (not expected)


@given(quasi_metrics())
def test_lines_match_distance_level_oracle(m):
    b = betweenness_of(m)
    for x in range(m.n):
        for y in range(m.n):
            if x != y:
                assert line_of_pair(b, x, y) == line_from_distances(m.entries, m.n, x, y)


@given(quasi_metrics())
def test_betweenness_size_bound(m):
    n = m.n
    assert len(betweenness_of(m)) <= n * (n - 1) * (n - 2)


@given(quasi_metrics(min_n=3, max_n=3))
def test_three_point_spaces_always_satisfy_dbe(m):
    assert line_set(betweenness_of(m)).satisfies_dbe


@settings(max_examples=50)
@given(
    quasi_metrics(),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100), max_denominator=100),
)
def test_scaling_invariance(m, factor):
    scaled = m.scaled(factor)
    assert betweenness_of(scaled) == betweenness_of(m)
    assert line_set(betweenness_of(scaled)).lines == line_set(betweenness_of(m)).lines
    assert line_set(betweenness_of(scaled)) == line_set(betweenness_of(m))


@given(quasi_metrics())
def test_segments_always_contain_endpoints(m):
    for x in range(m.n):
        for y in range(m.n):
            if x != y:
                assert {x, y} <= segment(m, x, y)


@given(quasi_metrics())
def test_segment_interior_is_the_middle_of_member_triples(m):
    b = betweenness_of(m)
    for x in range(m.n):
        for y in range(m.n):
            if x != y:
                middles = {z for (u, z, v) in b.triples if (u, v) == (x, y)}
                assert segment(m, x, y) - {x, y} == middles
                # membership is False for the impossible triples xxy and xyy
                assert {z for z in range(m.n) if (x, z, y) in b} == middles
