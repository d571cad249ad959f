import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlines import core
from qmlines.core import (
    Betweenness,
    DistanceMatrix,
    LineSet,
    _line_carry,
    _line_fields,
    _packed_lines,
    _packed_table,
    betweenness_mask,
    betweenness_of,
    consistency_check,
    default_labels,
    line_of_pair,
    line_set,
    segment,
    validate_quasi_metric,
)
from qmlines.encoding import (
    _conflict_table,
    mask_from_bits,
    mask_from_triples,
    ordered_pairs,
    ordered_triples,
    ordered_tuples,
    pairs_from_mask,
    set_bits,
    triple_at,
    triple_bit,
    triple_count,
    triple_rows,
    triples_from_mask,
)
from qmlines.enumeration import canonical_classes
from qmlines.isomorphism import Relabeling
from qmlines.realizability import Digraph, realize_bounded_integer
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
    consistent_by_set_bits,
    consistent_masks,
    line_from_distances,
    line_from_triples,
    lines_by_members,
    mask_triple_by_triple,
    pairs_by_table_filter,
    triples_by_table_filter,
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

    def test_index_of_an_unknown_label_is_a_key_error(self, q4):
        assert q4.index("q") == 2
        with pytest.raises(KeyError) as exc:
            q4.index("x")
        assert exc.value.args == ("unknown point label 'x'",)

    @pytest.mark.parametrize(
        "n, labels",
        [
            (2, ("a", "b")),
            (26, tuple("abcdefghijklmnopqrstuvwxyz")),
            (27, tuple(f"x{i}" for i in range(27))),
        ],
    )
    def test_default_labels_are_letters_up_to_26_points(self, n, labels):
        assert default_labels(n) == labels


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
        assert Betweenness(3, (1 << 6) - 1).mask == 63
        # str() refuses an int of over 4,300 digits: past 99 digits the
        # mask is written as a power of 2
        for mask, text in [
            (-1, "-1"),
            (1 << 6, "64"),
            (10**99 - 1, str(10**99 - 1)),
            (1 << 20000, r"about 2\^20000\.0"),
            (-(1 << 20000), r"about -2\^20000\.0"),
        ]:
            with pytest.raises(ValueError, match=f"^mask {text} out of range for n=3$"):
                Betweenness(3, mask)

    def test_a_sparse_mask_builds_nothing_as_wide_as_the_encoding(self):
        # 997,002,000 triples: an int of that many bits is 119 MiB
        tracemalloc.start()
        try:
            b = Betweenness(1000, 1)
            count = len(b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1
        assert peak < 2**20

    @pytest.mark.parametrize("n", range(3, 13))
    def test_len_counts_the_members(self, n):
        rng = random.Random(5400 + n)
        nbits = triple_count(n)
        masks = [0, 1 << nbits - 1, (1 << nbits) - 1]
        masks += [rng.getrandbits(nbits) for _ in range(3)]
        for mask in masks:
            assert len(Betweenness(n, mask)) == len(triples_by_table_filter(n, mask))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="^need at least 2 points, got 1$"):
            Betweenness(1, 0)

    # a point count, a mask or a point is an integer as operator.index reads
    # one: 3.0 compares equal to 3 and would pass a range check
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Betweenness(3.0, 1), "point count must be an integer, got 3.0"),
            (lambda: Betweenness(3, 1.0), "mask must be an integer, got 1.0"),
            (lambda: Betweenness(3, "1"), "mask must be an integer, got '1'"),
            (lambda: Betweenness.from_triples(3.0, []), "point count must be an integer"),
            (lambda: Betweenness.from_triples(3, [5]), "in range: 5$"),
            (lambda: Betweenness.from_triples(3, [(0, 1, 2.0)]), r"in range: \(0, 1, 2.0\)$"),
        ],
        ids=["float-n", "float-mask", "str-mask", "from-float-n", "from-int", "from-float-point"],
    )
    def test_non_integers_are_refused_with_a_value_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_integer_likes_are_read_as_ints(self):
        b = Betweenness(True + 2, True)
        assert (b.n, b.mask) == (3, 1) and type(b.n) is type(b.mask) is int
        assert Betweenness.from_triples(3, [(False, True, 2)]).mask == 1

    def test_contains(self):
        b = q4_betweenness()
        assert (0, 2, 3) in b  # p q r
        assert (3, 2, 0) not in b  # r q p

    # the last five are not triples of integers: 2.0 is in range(3) as a
    # number, and 5 is not even iterable
    @pytest.mark.parametrize(
        "triple",
        [(0, 0, 2), (0, 2, 2), (1, 1, 1), (0, 1, 3), (-1, 1, 2), (0, 1)]
        + [(0, 1, 2.0), (0.0, 1.0, 2.0), 5, None, "012"],
    )
    def test_impossible_triples_are_not_members(self, triple):
        assert triple not in Betweenness(3, (1 << 6) - 1)

    def test_from_triples_names_the_triple_it_cannot_place(self):
        # a negative point, left unchecked, would index the writer's buffer
        # from its end
        for bad in [(0, 0, 1), (0, 1, 3), (0, 1), (-1, 0, 1)]:
            with pytest.raises(ValueError) as refused:
                Betweenness.from_triples(3, [(0, 1, 2), bad])
            assert str(refused.value) == (
                f"not an ordered triple of distinct points in range: {bad}"
            )

    # triple_bit places a triple by arithmetic, triple_at reads it back; both
    # against the position table of the encoding, the index of each triple
    # in the lex-ordered ordered_triples(n)
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_arithmetic_bit_agrees_with_the_position_table(self, n):
        for i, t in enumerate(ordered_triples(n)):
            assert triple_bit(n, t) == triple_bit(n, list(t)) == i
            assert triple_at(n, i) == t
        bad = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (0, 1, n), (-1, 0, 1), (0, 1), (0, 1, 2, 3)]
        for t in [*bad, (0, 1, 2.0), (0.0, 1, 2), ("0", 1, 2), 5, None, "012"]:
            assert triple_bit(n, t) is None

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ordered_tuples_are_the_distinct_tuples_in_lex_order(self, n):
        for k in (2, 3):
            distinct = [t for t in product(range(n), repeat=k) if len(set(t)) == k]
            assert list(ordered_tuples(n, k)) == distinct

    # the members are read off the set bits and placed by arithmetic; the
    # oracle filters the table of every triple (or pair) on the mask
    @pytest.mark.parametrize("n", range(2, 9))
    def test_members_of_a_mask_are_the_table_filtered(self, n):
        rng = random.Random(5000 + n)
        for count, members_of, oracle in (
            (triple_count(n), triples_from_mask, triples_by_table_filter),
            (len(ordered_pairs(n)), pairs_from_mask, pairs_by_table_filter),
        ):
            masks = [0]
            if count:  # two points hold no triple
                masks += [1 << count - 1, (1 << count) - 1]
                masks += [rng.getrandbits(count) for _ in range(5)]
                masks += [sum({1 << rng.randrange(count) for _ in range(3)}) for _ in range(5)]
            for mask in masks:
                assert members_of(n, mask) == oracle(n, mask)
                assert list(set_bits(mask)) == [i for i in range(count) if mask >> i & 1]

    # one member among the 1,727,880 triples of 121 points: listing it built
    # every triple, about 122 MB
    def test_members_of_a_sparse_121_point_relation_build_no_table(self):
        b = Betweenness(121, 1)
        ordered_tuples.cache_clear()
        tracemalloc.start()
        try:
            triples = b.triples
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert triples == ((0, 1, 2),)
        assert peak < 2**20

    def test_bit_positions_follow_lex_triple_order(self):
        # triples on 3 points, lex: 012, 021, 102, 120, 201, 210
        assert Betweenness.from_triples(3, [(0, 1, 2)]).mask == 1
        assert Betweenness.from_triples(3, [(0, 2, 1)]).mask == 2
        assert Betweenness.from_triples(3, [(2, 1, 0)]).mask == 32
        assert Betweenness.from_triples(3, [(0, 1, 2), (2, 1, 0)]).mask == 33


class TestMaskWriter:
    """The one writer of encodings, `mask_from_bits`, and the two that write
    through it, against the oracle that sets each member's bit with
    `mask |= 1 << i`."""

    @staticmethod
    def tables(n, rng):
        """Seeded integer and rational tables, one with no members (every
        entry 1 off the diagonal, so each sum is 2) and two all-equal ones:
        all zeros, where every triple is a member, and all ones, where none
        is."""
        return [
            [[0 if i == j else rng.randint(1, 3) for j in range(n)] for i in range(n)],
            [
                [Fraction(0) if i == j else Fraction(rng.randint(1, 6), rng.randint(1, 3))
                 for j in range(n)]
                for i in range(n)
            ],
            [[0 if i == j else 1 for j in range(n)] for i in range(n)],
            [[0] * n for _ in range(n)],
            [[1] * n for _ in range(n)],
        ]

    @pytest.mark.parametrize("n", [*range(2, 13), 40])
    def test_betweenness_mask_sets_the_oracles_bits(self, n):
        rng = random.Random(7100 + n)
        masks = []
        for d in self.tables(n, rng):
            expected = mask_triple_by_triple(
                n, lambda t: d[t[0]][t[2]] == d[t[0]][t[1]] + d[t[1]][t[2]]
            )
            assert betweenness_mask(n, d) == expected
            masks.append(expected)
        assert masks[2:] == [0, (1 << triple_count(n)) - 1, 0]

    @pytest.mark.parametrize("n", [*range(2, 13), 40])
    def test_mask_from_triples_sets_the_oracles_bits(self, n):
        rng = random.Random(7200 + n)
        triples = list(permutations(range(n), 3))
        picked = rng.sample(triples, len(triples) // 3)
        lists = [[], triples, picked, picked + picked[::2]]  # empty, full, duplicates
        if triples:  # bit 0 and the top bit, alone and with others
            lists += [[triples[0]], [triples[-1]], [triples[-1], *picked, triples[0], triples[0]]]
        for chosen in lists:
            expected = mask_triple_by_triple(n, set(chosen).__contains__)
            assert mask_from_triples(n, chosen) == mask_from_triples(n, iter(chosen)) == expected

    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65, 1000])
    def test_mask_from_bits_inverts_set_bits(self, width):
        rng = random.Random(7400 + width)
        masks = [0] + [rng.getrandbits(width) for _ in range(5)]
        if width:
            masks += [1, 1 << width - 1, (1 << width) - 1]
        for mask in masks:
            bits = list(set_bits(mask))
            assert mask_from_bits(bits, width) == mask
            assert mask_from_bits(iter(bits + bits[::-1]), width) == mask  # duplicates collapse

    # walking the triples by their first pair builds 58 points per pair,
    # about 1.2 MB, where the table of all 205,320 ordered triples took about
    # 15 MB: peaks of 1.5 MiB here and 14.3 MiB with that table, Python 3.11
    def test_betweenness_of_60_points_builds_no_triple_table(self):
        rng = random.Random(60)
        rows = [[0 if i == j else rng.randint(1, 2) for j in range(60)] for i in range(60)]
        m = DistanceMatrix(default_labels(60), rows)
        ordered_tuples.cache_clear()
        triple_rows.cache_clear()
        tracemalloc.start()
        try:
            b = betweenness_of(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert b.mask == mask_triple_by_triple(
            60, lambda t: rows[t[0]][t[2]] == rows[t[0]][t[1]] + rows[t[1]][t[2]]
        )
        assert peak < 4 * 2**20


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

    @pytest.mark.parametrize("x, y", [(0, 2.0), (1.0, 2), ("0", 2)])
    def test_non_integer_endpoints_rejected(self, q4, x, y):
        with pytest.raises(ValueError, match="^segment endpoint must be an integer, got "):
            segment(q4, x, y)

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

    def test_non_integer_endpoints_rejected(self):
        with pytest.raises(ValueError, match="^line endpoint must be an integer, got 1.0$"):
            line_of_pair(Betweenness(3, 0), 1.0, 2)


def _relations_for_line_check(n):
    """Every consistent relation at n=3, all 4,455 classes at n=4, and above
    that the empty relation, the full one (n points on a line, where every
    line is universal) and 50 seeded random consistent relations."""
    if n == 3:
        return [Betweenness(3, m) for m in consistent_masks(3)]
    if n == 4:
        return [Betweenness(4, m) for m, _ in canonical_classes(4)]
    rng = random.Random(n)
    on_a_line = [(x, y, z) for x, y, z in ordered_triples(n) if x < y < z or x > y > z]
    full = Betweenness.from_triples(n, on_a_line)
    return [Betweenness(n, 0), full, *(random_consistent(n, rng) for _ in range(50))]


def _counts(ls):
    return ls.line_count, ls.has_universal, ls.satisfies_dbe


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_line_set_matches_member_triples(n):
    for b in _relations_for_line_check(n):
        by_pair, lines, *counts = lines_by_members(n, b.mask)
        # the counts are read off the packed lines, building no point set
        ls = line_set(b)
        assert _counts(ls) == tuple(counts)
        assert not hasattr(ls, "_by_pair") and not hasattr(ls, "_lines")
        assert list(ls.by_pair) == list(ordered_pairs(n))
        assert ls.by_pair == by_pair
        assert ls.lines == lines
        for (x, y), line in by_pair.items():
            assert line_of_pair(b, x, y) == line
        # the public constructor packs by_pair into the same int
        rebuilt = LineSet(n, ls.by_pair, ls.lines)
        assert rebuilt == ls and _counts(rebuilt) == tuple(counts)


UNIVERSAL_3 = dict.fromkeys(ordered_pairs(3), {0, 1, 2})


@pytest.mark.parametrize(
    "by_pair, lines, message",
    [
        ({(0, 1): {0, 1}}, [{0, 1}], "by_pair must map exactly the 6 ordered pairs of 3 points"),
        (
            {**UNIVERSAL_3, (0, 1): {0, 2}},
            [{0, 1, 2}, {0, 2}],
            r"line \[0, 2\] of pair \(0, 1\) must hold 0 and 1 within 0..2",
        ),
        (
            {**UNIVERSAL_3, (2, 0): {0, 2, 3}},
            [{0, 1, 2}, {0, 2, 3}],
            r"line \[0, 2, 3\] of pair \(2, 0\) must hold 2 and 0 within 0..2",
        ),
        (UNIVERSAL_3, [], "lines must be the distinct lines of by_pair"),
        (UNIVERSAL_3, [{0, 1, 2}, {0, 1}], "lines must be the distinct lines of by_pair"),
    ],
)
def test_line_set_constructor_refuses_what_it_cannot_pack(by_pair, lines, message):
    with pytest.raises(ValueError, match=message):
        LineSet(3, by_pair, lines)


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
    other = data.draw(st.integers(min_value=0, max_value=(1 << triple_count(b.n)) - 1))
    _assert_packed_lines_match_member_triples(b, other)


# n=9 reads the packed table's chunk rows, the largest n that has them;
# n=10..12 OR the parts of the members that set_bits lists
@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_packed_lines_match_member_triples_on_both_routes(n):
    assert (_packed_table(n).rows is None) == (n > 9)
    rng = random.Random(2950 + n)
    nbits = triple_count(n)
    masks = [0, 1 << nbits - 1, (1 << nbits) - 1]
    for _ in range(3):
        masks += [
            random_consistent(n, rng).mask,
            mask_from_triples(n, rng.sample(ordered_triples(n), 2 * n)),
            rng.getrandbits(nbits),
        ]
    for mask in masks:
        _assert_packed_lines_match_member_triples(Betweenness(n, mask), rng.getrandbits(nbits))


def test_line_rows_and_conflict_table_share_one_budget():
    # 2^24 bits of chunk rows: 63 chunks of 256 values of 720 bits at n=9,
    # where n=10 would take 90 of 990; the conflict table's values, as wide
    # as the encoding, fit up to n=10 (90 of 720) and not at n=11 (124 of 990)
    assert len(_packed_table(9).rows) == 63
    assert _packed_table(10).rows is None
    assert len(_conflict_table(10)) == 90
    assert _conflict_table(11) is None


def _assert_packed_lines_match_member_triples(b, other):
    n = b.n
    ones, guards = _line_carry(n)
    packed = _packed_lines(n, b.mask)
    expected = [line_from_triples(b, x, y) for (x, y) in ordered_pairs(n)]
    assert packed & guards == 0
    fields = _line_fields(n, packed)
    assert [frozenset(z for z in range(n) if f >> z & 1) for f in fields] == expected
    # one addition finds a universal line; the fields count the lines
    universal = any(len(line) == n for line in expected)
    assert bool((packed + ones) & guards) == universal
    assert len(set(fields)) == len(set(expected))
    ls = line_set(b)
    assert ls.has_universal == universal
    assert ls.line_count == len(set(expected))
    # the packed lines of a union are the OR of theirs, as the theorem walk
    # assumes when it ORs in one pattern at a time
    assert _packed_lines(n, b.mask | other) == packed | _packed_lines(n, other)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_line_table_cap_reads_an_upper_bound_before_building(monkeypatch, n):
    # the estimate, one int of (n+1)n(n-1) bits per triple, bounds the parts
    # as built; a cap one byte under it refuses before any part is built
    width = (n + 1) * n * (n - 1)
    estimate = triple_count(n) * width // 8
    parts = _packed_table.__wrapped__(n).parts
    assert len(parts) == triple_count(n)
    assert max(part.bit_length() for part in parts) <= width

    def no_parts(*args):
        raise AssertionError("a part was built")

    monkeypatch.setattr(core, "LINE_TABLE_CAP", estimate - 1)
    monkeypatch.setattr(core, "ordered_pairs", no_parts)
    with pytest.raises(ValueError, match=f"n={n} means {triple_count(n)} triples, {estimate} bytes"):
        _packed_table.__wrapped__(n)


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

    def test_every_conflicting_pair_on_four_points(self):
        # xyz with yxz, and xyz with xzy, alone and on top of the rest of
        # a consistent relation
        rng = random.Random(2930)
        pairs = [
            ((x, y, z), companion)
            for (x, y, z) in ordered_triples(4)
            for companion in ((y, x, z), (x, z, y))
        ]
        assert len(pairs) == 48
        for pair in pairs:
            mask = mask_from_triples(4, pair)
            for b in (Betweenness(4, mask), Betweenness(4, mask | random_consistent(4, rng).mask)):
                assert not consistency_check(b)
                assert not consistent_by_set_bits(4, b.mask)

    # n=3..10 read the 8-bit conflict table; n=11..13 have none and look
    # up each member's companions
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 11, 12, 13])
    def test_table_agrees_with_the_set_bit_loop(self, n):
        assert (_conflict_table(n) is None) == (n > 10)
        rng = random.Random(2940 + n)
        nbits = triple_count(n)
        top = 1 << nbits - 1
        masks = [0, top, (1 << nbits) - 1]
        for _ in range(6):
            consistent = random_consistent(n, rng).mask
            (x, y, z), (u, v, w) = rng.sample(ordered_triples(n), 2)
            masks += [
                consistent,
                consistent & ~top,
                consistent | mask_from_triples(n, [(x, y, z), (y, x, z)]),
                mask_from_triples(n, [(u, v, w), (u, w, v)]) | top,
                rng.getrandbits(nbits) & rng.getrandbits(nbits) & rng.getrandbits(nbits),
            ]
        verdicts = [consistency_check(Betweenness(n, mask)) for mask in masks]
        assert verdicts == [consistent_by_set_bits(n, mask) for mask in masks]
        assert set(verdicts) == {True, False}

    # two members far apart among the 1,727,880 triples of 121 points: the
    # check reads the members alone, where a string of every bit, one byte
    # per triple and its reversed copy, took about 3.3 MB
    def test_sparse_121_point_check_reads_the_members_alone(self):
        count = triple_count(121)
        sparse = Betweenness(121, 1 | 1 << count - 1)
        tracemalloc.start()
        try:
            verdict = consistency_check(sparse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict
        assert peak < count  # under one byte per triple
        # the first member's companion 021 makes the relation inconsistent
        companion = 1 << triple_bit(121, (0, 2, 1))
        assert not consistency_check(Betweenness(121, sparse.mask | companion))


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


# str() refuses an int of over 4,300 digits: each refusal writes such a value
# through encoding._about, as a power of 2 past 99 digits
HUGE = 1 << 20000


@pytest.mark.parametrize(
    "refuse, message",
    [
        (
            lambda: segment(uniform(3), HUGE, 0),
            "segment endpoint about 2^20000.0 out of range for n=3",
        ),
        (
            lambda: line_of_pair(Betweenness(3, 0), 0, HUGE),
            "line endpoint about 2^20000.0 out of range for n=3",
        ),
        (lambda: Relabeling((0, 1, 2))(HUGE), "point about 2^20000.0 out of range for n=3"),
        (lambda: Digraph(3, [(0, HUGE)]), "arc endpoint about 2^20000.0 out of range for n=3"),
        (
            lambda: Betweenness.from_triples(3, [(0, 1, HUGE)]),
            "not an ordered triple of distinct points in range: (0, 1, about 2^20000.0)",
        ),
        (
            lambda: LineSet(2, {(0, 1): {0, 1, HUGE}, (1, 0): {0, 1}}, []),
            "line [0, 1, about 2^20000.0] of pair (0, 1) must hold 0 and 1 within 0..1",
        ),
        (
            lambda: realize_bounded_integer(Betweenness(3, 0), HUGE),
            "integer search is exhaustive; n=3, K=about 2^20000.0 means up to K^6 matrices, "
            "over the cap of 16777216 (2^24)",
        ),
    ],
    ids=["segment", "line_of_pair", "Relabeling", "Digraph", "from_triples", "LineSet", "int:K"],
)
def test_a_huge_value_is_refused_with_the_programs_own_text(refuse, message):
    with pytest.raises(ValueError) as refused:
        refuse()
    assert str(refused.value) == message


def test_a_violation_writes_a_huge_sum_as_a_power():
    # two entries with 4,002-digit denominators sum to one of 8,003 digits
    p, q = 10**4001 + 7, 10**4001 + 9
    m = DistanceMatrix("abc", [[0, Fraction(1, p), 5], [1, 0, Fraction(1, q)], [1, 1, 0]])
    (violation,) = validate_quasi_metric(m).violations
    assert violation.detail == "d(a,c) = 5 > d(a,b) + d(b,c) = about 2^13292.0/about 2^26582.1"
