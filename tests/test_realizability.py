import random
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings

from qmlines import encoding, enumeration, kernels, realizability
from qmlines.core import Betweenness, DistanceMatrix, betweenness_of, validate_quasi_metric
from qmlines.encoding import orbit
from qmlines.enumeration import canonical_classes, classify, consistent_patterns_on_support
from qmlines.fixtures import (
    THREE_POINT_DIGRAPH_ARCS,
    THREE_POINT_LABELS,
    THREE_POINT_TABLE,
    q4_betweenness,
    q4_matrix,
    three_point_relation,
)
from qmlines.isomorphism import canonical_form, isomorphism_witness
from qmlines.lp import _optimum
from qmlines.realizability import (
    VARIANTS,
    Digraph,
    InconsistentRelationError,
    LinearSystem,
    build_realization_system,
    digraph_distances,
    maximize_slack,
    realize,
    realize_bounded_integer,
    realize_digraph,
    verify_witness,
)

from conftest import metric_matrices, quasi_metrics, random_consistent
from oracles import (
    RULE_CERTIFICATES,
    consistent_masks,
    first_integer_per_class,
    first_integer_realization,
    is_quasi_semimetric,
    orbit_by_relabeling,
    realization_system_by_construction,
    rule_certificate_holds,
)

CYCLE3 = Betweenness.from_triples(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])


def uniform3():
    return DistanceMatrix(("a", "b", "c"), ((0, 1, 1), (1, 0, 1), (1, 1, 0)))


def inconsistent():
    return Betweenness.from_triples(3, [(0, 1, 2), (1, 0, 2)])


def reversed_relation(b):
    return Betweenness.from_triples(b.n, ((z, y, x) for (x, y, z) in b.triples))


def plus_transpose(m):
    d = m.entries
    return DistanceMatrix(m.labels, [[d[i][j] + d[j][i] for j in range(m.n)] for i in range(m.n)])


class TestRealize:
    def test_q4_quasi(self):
        outcome = realize(q4_betweenness(), "quasi")
        assert outcome.realizable
        assert verify_witness(outcome.witness, q4_betweenness())

    def test_q4_metric_refuted(self):
        outcome = realize(q4_betweenness(), "metric")
        assert not outcome.realizable
        assert outcome.optimal_slack <= 0
        assert outcome.witness is None

    def test_directed_cycle_realizable(self):
        outcome = realize(CYCLE3, "quasi")
        assert outcome.realizable
        assert verify_witness(outcome.witness, CYCLE3)

    def test_inconsistent_rejected_early(self):
        with pytest.raises(InconsistentRelationError):
            realize(inconsistent(), "quasi")
        with pytest.raises(InconsistentRelationError):
            build_realization_system(inconsistent(), "quasi")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            build_realization_system(q4_betweenness(), "euclidean")

    def test_all_three_point_reference_relations_realizable(self):
        for row in THREE_POINT_TABLE:
            b = three_point_relation(row)
            assert realize(b, "quasi").realizable
            assert realize(b, "metric").realizable == row["metric"]


class TestRealizationSystem:
    @pytest.mark.parametrize("variant", ["quasi", "metric"])
    def test_equals_the_row_by_row_construction(self, variant):
        relations = [
            Betweenness(2, 0),
            *(Betweenness(3, mask) for mask in consistent_masks(3)),
            *(Betweenness(4, mask) for mask, _ in canonical_classes(4)),
            *(
                random_consistent(n, rng)
                for n, rng in ((5, random.Random(5)), (6, random.Random(6)))
                for _ in range(20)
            ),
        ]
        assert len(set(relations)) == 1 + 18 + 4455 + 40
        for b in relations:
            assert build_realization_system(b, variant).constraints == (
                realization_system_by_construction(b, variant)
            )

    def test_a_system_is_checked_when_built(self):
        with pytest.raises(ValueError, match="variant"):
            LinearSystem(q4_betweenness(), "euclidean")
        with pytest.raises(InconsistentRelationError):
            LinearSystem(inconsistent(), "quasi")

    def test_second_call_constructs_no_constraint(self):
        # a second build picks the template's own row objects
        b = q4_betweenness()
        for variant in ("quasi", "metric"):
            first = build_realization_system(b, variant).constraints
            system = build_realization_system(b, variant)
            assert all(r is s for r, s in zip(system.constraints, first, strict=True))
            assert system.constraints == realization_system_by_construction(b, variant)

    def test_shared_rows_are_read_only(self):
        # rows are shared between systems, so every part of one is a tuple
        # (or an immutable int or str)
        b = q4_betweenness()
        system = build_realization_system(b, "quasi")
        for row in system.constraints:
            coeffs, _, _ = row
            assert type(row) is tuple and type(coeffs) is tuple
            with pytest.raises(TypeError):
                coeffs[0] = 5
        assert build_realization_system(b, "quasi").constraints == (
            realization_system_by_construction(b, "quasi")
        )


class TestLpCallPath:
    """Every LP goes through realizability.maximize_slack applied to
    realizability.build_realization_system, the names a traced run wraps."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(("build_realization_system", "maximize_slack"), 0)
        for name in counts:
            monkeypatch.setattr(realizability, name, self._counted(name, counts))
        return counts

    @staticmethod
    def _counted(name, counts):
        original = getattr(realizability, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        return counted

    @pytest.mark.parametrize("variant", ["quasi", "metric"])
    def test_realize_builds_and_solves_once(self, calls, variant):
        realize(q4_betweenness(), variant)
        assert list(calls.values()) == [1, 1]

    @pytest.mark.parametrize(
        "relation, variant, status, vertex_solves",
        [
            (q4_betweenness(), "quasi", "feasible", 1),
            (q4_betweenness(), "metric", "feasible", 0),  # optimum exactly 0
            (CYCLE3, "metric", "infeasible", 0),
        ],
    )
    def test_only_a_positive_optimum_solves_for_its_vertex(
        self, monkeypatch, relation, variant, status, vertex_solves
    ):
        counts = {"_simplex_max": 0}
        monkeypatch.setattr(realizability, "_simplex_max", self._counted("_simplex_max", counts))
        outcome = realize(relation, variant)
        assert outcome.status == status
        assert (outcome.witness is not None) == outcome.realizable == bool(vertex_solves)
        assert counts["_simplex_max"] == vertex_solves

    def test_the_vertex_path_must_repeat_the_optimum(self, monkeypatch):
        optimum = realizability._optimum

        def off_by_one(*args):
            status, value = optimum(*args)
            return status, value + 1

        monkeypatch.setattr(realizability, "_optimum", off_by_one)
        with pytest.raises(RuntimeError, match="disagree"):
            realize(q4_betweenness(), "quasi")

    def test_the_value_lp_solves_the_rows_the_system_holds(self, monkeypatch):
        systems = [
            build_realization_system(q4_betweenness(), "quasi"),
            build_realization_system(q4_betweenness(), "metric"),
            build_realization_system(CYCLE3, "quasi"),
            build_realization_system(CYCLE3, "metric"),
        ]
        before = [maximize_slack(system) for system in systems]
        assert [(o.status, o.realizable) for o in before] == [
            ("feasible", True), ("feasible", False), ("feasible", True), ("infeasible", False)
        ]

        def no_template(*args):
            raise AssertionError("the row template was read again")

        monkeypatch.setattr(realizability, "_realization_rows", no_template)
        assert [maximize_slack(system) for system in systems] == before

    def test_classify_solves_one_lp_per_verdict(self, calls):
        enumeration._base_records.cache_clear()
        records = classify(3)
        # the metric LP runs only where the quasi LP succeeds
        lps = len(records) + sum(r.realizable_quasi for r in records)
        assert list(calls.values()) == [lps, lps]


@pytest.fixture(scope="module")
def quasi_optima():
    """(mask, (status, value)) of each class of canonical_classes(4), by
    lp._optimum on its quasi value rows: the template with the 12
    positivity rows last, as maximize_slack orders them."""
    optima = []
    for mask, _ in canonical_classes(4):
        rows = build_realization_system(Betweenness(4, mask), "quasi").constraints
        optima.append((mask, _optimum([*rows[12:], *rows[:12]], [0] * 12 + [1])))
    return optima


def _masks_of_zero_optimum(quasi_optima):
    return [mask for mask, optimum in quasi_optima if optimum == ("optimal", 0)]


class TestZeroSlackCheck:
    """maximize_slack settles a 4-point quasi system with no LP when a
    broken Horn rule proves slack <= 0 and a relabeled zero witness proves
    slack >= 0.  Both tables are closed under relabeling, and so is the
    optimum, so the 4,455 classes stand for all 104,976 labeled relations."""

    def test_tables_hold_168_rule_instances_and_37_tight_masks(self):
        assert len(set(realizability._rule_instances())) == 168
        assert len(realizability._zero_tight_masks()) == 37

    def test_settles_exactly_the_classes_whose_optimum_is_zero(self, quasi_optima):
        settled = [mask for mask, _ in quasi_optima if realizability._zero_slack(mask)]
        assert settled == _masks_of_zero_optimum(quasi_optima)
        assert len(settled) == 3048

    def test_a_rule_is_broken_iff_the_class_is_not_lp_positive(self, quasi_optima):
        broken = [mask for mask, _ in quasi_optima if realizability._breaks_a_rule(mask)]
        not_positive = [mask for mask, (_, value) in quasi_optima if value is None or value <= 0]
        assert broken == not_positive
        assert len(broken) == 4182

    def test_every_zero_witness_is_a_quasi_semimetric(self):
        assert all(is_quasi_semimetric(w) for w in realizability._ZERO_WITNESSES)
        # the helper refuses each broken axiom
        assert not is_quasi_semimetric(((0, 2, 0), (0, 0, 0), (0, 0, 0)))
        assert not is_quasi_semimetric(((0, -1), (0, 0)))
        assert not is_quasi_semimetric(((1, 1), (1, 0)))

    def test_every_rule_has_an_integer_certificate(self):
        assert set(RULE_CERTIFICATES) == set(realizability._RULES)
        for rule, vector in RULE_CERTIFICATES.items():
            assert rule_certificate_holds(rule, vector)
            # every row it weights is needed, and a weak row may not be subtracted
            for k, c in enumerate(vector):
                if c:
                    assert not rule_certificate_holds(rule, (*vector[:k], 0, *vector[k + 1:]))
            weak = len(rule.split())
            assert not rule_certificate_holds(rule, (*vector[:weak], -1, *vector[weak + 1:]))

    def test_relabeled_settled_classes_need_no_lp(self, monkeypatch, quasi_optima):
        def no_lp(*args):
            raise AssertionError("the zero-slack check let a settled relation through")

        monkeypatch.setattr(realizability, "_optimum", no_lp)
        rng = random.Random(36)
        for mask in rng.sample(_masks_of_zero_optimum(quasi_optima), 50):
            b = Betweenness(4, orbit_by_relabeling(4, mask)[rng.randrange(24)])
            assert maximize_slack(build_realization_system(b, "quasi")) == (
                "feasible", Fraction(0), None
            )

    def test_metric_systems_and_other_sizes_run_the_lp(self, monkeypatch, quasi_optima):
        # the 3- and 5-point masks here pass the 4-point check as bare ints
        relations = [Betweenness(4, mask) for mask in _masks_of_zero_optimum(quasi_optima)[::20]]
        relations += [Betweenness(3, mask) for mask in consistent_masks(3)]
        fives = (m for m in consistent_masks(5) if m < 1 << 24 and realizability._zero_slack(m))
        relations += [Betweenness(5, mask) for mask in islice(fives, 4)]
        systems = [
            build_realization_system(b, variant)
            for b in relations
            for variant in VARIANTS
            if b.n != 4 or variant == "metric"
        ]
        solved = []
        optimum = realizability._optimum

        def counted(rows, cost):
            solved.append(rows)
            return optimum(rows, cost)

        monkeypatch.setattr(realizability, "_optimum", counted)
        for system in systems:
            maximize_slack(system)
        assert len(solved) == len(systems) == 153 + 36 + 8


class TestVerifyWitness:
    def test_q4_against_reference(self):
        assert verify_witness(q4_matrix(), q4_betweenness())

    def test_q4_against_empty(self):
        assert not verify_witness(q4_matrix(), Betweenness(4, 0))

    def test_uniform_against_empty(self):
        assert verify_witness(uniform3(), Betweenness(3, 0))

    def test_size_mismatch(self):
        assert not verify_witness(uniform3(), Betweenness(4, 0))

    def test_invalid_matrix_fails(self):
        bad = DistanceMatrix(("a", "b", "c"), ((0, 5, 1), (5, 0, 1), (1, 1, 0)))
        assert not verify_witness(bad, betweenness_of(bad))

    def test_scaled_q4_still_realizes(self):
        assert verify_witness(q4_matrix().scaled(Fraction(7, 3)), q4_betweenness())


class TestBoundedInteger:
    def test_q4_absent_at_two(self):
        assert realize_bounded_integer(q4_betweenness(), 2) is None

    def test_q4_present_at_three(self):
        w = realize_bounded_integer(q4_betweenness(), 3)
        assert w is not None
        assert validate_quasi_metric(w).ok
        assert all(v <= 3 for row in w.entries for v in row)
        assert isomorphism_witness(betweenness_of(w), q4_betweenness()) is not None

    def test_empty_relation_at_one(self):
        w = realize_bounded_integer(Betweenness(3, 0), 1)
        assert w is not None
        assert betweenness_of(w).mask == 0

    def test_kmax_must_be_positive(self):
        with pytest.raises(ValueError):
            realize_bounded_integer(Betweenness(3, 0), 0)

    def test_inconsistent_rejected(self):
        with pytest.raises(InconsistentRelationError):
            realize_bounded_integer(inconsistent(), 2)

    def test_sweep_at_the_cap_is_accepted(self):
        # 16^6 = 2^24 matrices in the worst case; the all-ones matrix comes first
        w = realize_bounded_integer(Betweenness(3, 0), 16)
        assert w is not None
        assert betweenness_of(w).mask == 0

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_agrees_with_brute_force_on_every_three_point_relation(self, kmax):
        for mask in consistent_masks(3):
            b = Betweenness(3, mask)
            w = realize_bounded_integer(b, kmax)
            expected = first_integer_realization(3, b.triples, kmax)
            assert (None if w is None else w.entries) == expected

    def test_agrees_with_brute_force_at_four_points(self):
        # the oracle shares no code with the sweep or the orbit tables
        rng = random.Random(10)
        realizable = sorted(first_integer_per_class(4, 2))[::10]
        classes = [canon for canon, _ in canonical_classes(4)]
        masks = [rng.choice(orbit(4, canon)) for canon in realizable + rng.sample(classes, 10)]
        for b in [q4_betweenness(), *(Betweenness(4, mask) for mask in masks)]:
            w = realize_bounded_integer(b, 2)
            expected = first_integer_realization(4, b.triples, 2)
            assert (None if w is None else w.entries) == expected

    def test_one_walk_per_bound_per_process(self, monkeypatch):
        realize_bounded_integer(q4_betweenness(), 3)

        def no_walk(*args):
            raise AssertionError("the integer walk started again")

        monkeypatch.setattr(kernels, "_integer_dfs", no_walk)
        rng = random.Random(20)
        table = kernels.integer_canon_witnesses(4, 3)
        realizable = sorted(set(table) - {min(orbit(4, q4_betweenness().mask))})
        others = [canon for canon, _ in canonical_classes(4) if canon not in table]
        for canon in rng.sample(realizable, 10) + rng.sample(others, 10):
            w = realize_bounded_integer(Betweenness(4, rng.choice(orbit(4, canon))), 3)
            if canon in table:
                assert min(orbit(4, betweenness_of(w).mask)) == canon
            else:
                assert w is None

    @pytest.mark.parametrize(("n", "kmax"), [(3, 17), (5, 3)])
    def test_sweep_over_the_cap_is_refused(self, n, kmax):
        estimate = kmax ** (n * (n - 1))
        with pytest.raises(ValueError, match=f"= {estimate} matrices, over the cap of {2**24}"):
            realize_bounded_integer(Betweenness(n, 0), kmax)


class TestClassKeyLookups:
    """Both sweep lookups read the relation's class key, after the
    consistency check and the map, so a canonical form followed by both
    makes one orbit call."""

    def test_one_orbit_call_per_relation(self, monkeypatch):
        kernels.integer_canon_witnesses(4, 3)
        kernels.digraph_canon_witnesses(4)
        rng = random.Random(27)
        relations = [q4_betweenness()] + [random_consistent(4, rng) for _ in range(6)]
        # orbit reads its table once per call, so counting the table reads
        # counts the orbit calls of every module
        calls = []
        table = encoding._orbit_table

        def counting_table(*args):
            calls.append(args)
            return table(*args)

        monkeypatch.setattr(encoding, "_orbit_table", counting_table)
        for b in relations:
            canon, _ = canonical_form(b)
            realize_bounded_integer(canon, 3)
            realize_digraph(canon)
        assert len(calls) == len(relations)
        calls.clear()
        for b in relations:
            fresh = Betweenness(b.n, b.mask)
            realize_bounded_integer(fresh, 3)
            realize_digraph(fresh)
        assert len(calls) == len(relations)

    def test_canonical_form_of_an_inconsistent_relation_is_refused(self):
        canon, _ = canonical_form(inconsistent())
        with pytest.raises(InconsistentRelationError):
            realize_bounded_integer(canon, 2)
        with pytest.raises(InconsistentRelationError):
            realize_digraph(canon)

    def test_inconsistent_relation_is_refused_before_its_orbit(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("the orbit table was read")

        monkeypatch.setattr(encoding, "_orbit_table", no_table)
        with pytest.raises(InconsistentRelationError):
            realize_bounded_integer(inconsistent(), 2)
        with pytest.raises(InconsistentRelationError):
            realize_digraph(inconsistent())


class TestDigraph:
    def test_arcs_validated(self):
        with pytest.raises(ValueError, match="loop"):
            Digraph(3, frozenset({(1, 1)}))
        with pytest.raises(ValueError, match="range"):
            Digraph(3, frozenset({(0, 3)}))

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_fewer_than_two_points(self, n):
        # refused when built, as Betweenness and DistanceMatrix are, not
        # later inside digraph_distances
        with pytest.raises(ValueError, match=f"^need at least 2 points, got {n}$"):
            Digraph(n, [])

    def test_cycle_distances(self):
        cycle = Digraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
        m = digraph_distances(cycle)
        assert m.entries == (
            (0, 1, 2),
            (2, 0, 1),
            (1, 2, 0),
        )
        assert betweenness_of(m) == CYCLE3

    def test_distances_require_strong_connectivity(self):
        with pytest.raises(ValueError, match="strongly connected"):
            digraph_distances(Digraph(3, frozenset({(0, 1)})))

    def test_q4_not_digraph_realizable(self):
        assert realize_digraph(q4_betweenness()) is None

    def test_cycle_relation_realized(self):
        g = realize_digraph(CYCLE3)
        assert g is not None
        b = betweenness_of(digraph_distances(g))
        assert isomorphism_witness(b, CYCLE3) is not None

    def test_empty_relation_realized(self):
        g = realize_digraph(Betweenness(3, 0))
        assert g is not None
        assert betweenness_of(digraph_distances(g)).mask == 0

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            realize_digraph(Betweenness(6, 0))

    def test_reference_digraphs_realize_their_rows(self):
        index = {lab: i for i, lab in enumerate(THREE_POINT_LABELS)}
        for row, arc_words in zip(THREE_POINT_TABLE, THREE_POINT_DIGRAPH_ARCS):
            arcs = frozenset((index[w[0]], index[w[1]]) for w in arc_words)
            g = Digraph(3, arcs)
            assert betweenness_of(digraph_distances(g)) == three_point_relation(row)


@given(quasi_metrics(max_n=4))
@settings(max_examples=40, deadline=None)
def test_lp_accepts_the_betweenness_of_any_valid_quasi_metric(m):
    # m itself (normalized) is a strictly feasible point, so a negative
    # verdict here would be an LP bug
    outcome = realize(betweenness_of(m), "quasi")
    assert outcome.realizable
    assert verify_witness(outcome.witness, betweenness_of(m))


@given(metric_matrices(max_n=4))
@settings(max_examples=40, deadline=None)
def test_lp_accepts_the_betweenness_of_any_valid_metric(m):
    b = betweenness_of(m)
    # metric betweenness is closed under reversal
    for (x, y, z) in b.triples:
        assert (z, y, x) in b
    outcome = realize(b, "metric")
    assert outcome.realizable
    witness = outcome.witness
    for i in range(m.n):
        for j in range(m.n):
            assert witness.entries[i][j] == witness.entries[j][i]


def test_five_point_digraph_search_smoke():
    g = realize_digraph(Betweenness(5, 0))
    assert g is not None
    assert betweenness_of(digraph_distances(g)).mask == 0


class TestCrossRouteInvariants:
    def test_monotonicity_on_all_three_point_relations(self):
        # metric realizable => quasi realizable; digraph present => quasi realizable
        for mask in consistent_masks(3):
            b = Betweenness(3, mask)
            quasi = realize(b, "quasi").realizable
            if realize(b, "metric").realizable:
                assert quasi
            g = realize_digraph(b)
            if g is not None:
                assert quasi

    def test_digraph_classes_are_integer_classes(self):
        # 4-vertex digraph distances lie in 1..3, so every digraph class must
        # reappear in the kmax=3 sweep
        digraph_canons = set(kernels.digraph_canon_witnesses(4))
        int3_canons = set(kernels.integer_canon_witnesses(4, 3))
        assert digraph_canons <= int3_canons

    def test_integer_witness_maps_are_sound(self):
        for (n, kmax) in [(3, 2), (4, 2), (4, 3), (4, 4)]:
            table = kernels.integer_canon_witnesses(n, kmax)
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            for canon, flat in table.items():
                rows = [[0] * n for _ in range(n)]
                for (i, j), v in zip(pairs, flat):
                    assert 1 <= v <= kmax
                    rows[i][j] = v
                m = DistanceMatrix(tuple(f"x{i}" for i in range(n)), tuple(map(tuple, rows)))
                assert validate_quasi_metric(m).ok
                assert canonical_form(betweenness_of(m))[0].mask == canon

    def test_digraph_witness_maps_are_sound(self):
        for n in (3, 4, 5):
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            for canon, arc_mask in kernels.digraph_canon_witnesses(n).items():
                arcs = frozenset(p for k, p in enumerate(pairs) if arc_mask >> k & 1)
                g = Digraph(n, arcs)
                assert canonical_form(betweenness_of(digraph_distances(g)))[0].mask == canon


class TestReversalClosedRelations:
    """d + d^T keeps each member equality and each strict non-member
    inequality of a relation closed under reversal (xyz in b iff zyx in b),
    and is symmetric: such a relation is metric-realizable iff it is
    quasi-realizable, with the quasi witness plus its transpose as a metric
    witness."""

    @staticmethod
    def quasi_realizable_count(relations):
        count = 0
        for b in relations:
            assert reversed_relation(b) == b
            quasi = realize(b, "quasi")
            assert realize(b, "metric").realizable == quasi.realizable
            if quasi.realizable:
                count += 1
                assert verify_witness(plus_transpose(quasi.witness), b)
        return count

    def test_four_point_classes(self):
        classes = (Betweenness(4, mask) for mask, _ in canonical_classes(4))
        closed = [b for b in classes if reversed_relation(b) == b]
        assert len(closed) == 19
        assert self.quasi_realizable_count(closed) == 9

    def test_random_five_point_relations(self):
        # a relation is reversal-closed iff its pattern on each support is
        patterns = [
            p for p in consistent_patterns_on_support() if p and {t[::-1] for t in p} == p
        ]
        assert len(patterns) == 3  # plus the empty one
        rng = random.Random(21)
        relations = []
        for _ in range(40):
            density = rng.random()
            triples = [
                (sup[x], sup[y], sup[z])
                for sup in combinations(range(5), 3)
                for (x, y, z) in (rng.choice(patterns) if rng.random() < density else ())
            ]
            relations.append(Betweenness.from_triples(5, triples))
        assert self.quasi_realizable_count(relations) == 12
