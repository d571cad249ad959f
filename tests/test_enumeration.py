import hashlib
from itertools import combinations, permutations

import pytest

from qmlines import enumeration, kernels
from qmlines.core import Betweenness, DistanceMatrix, consistency_check, line_set
from qmlines.encoding import orbit, supports
from qmlines.enumeration import (
    TheoremReport,
    canonical_classes,
    classify,
    consistent_patterns_on_support,
    enumerate_consistent,
    verify_theorem_four_points,
)
from qmlines.fixtures import THREE_POINT_TABLE, q4_betweenness, three_point_relation
from qmlines.isomorphism import canonical_form
from qmlines.realizability import verify_witness

from oracles import classes_by_counting, consistent_masks, dbe_failing_relations

# canonical (encoding, orbit size) pairs for n=3, frozen from an independent
# brute-force script
N3_CLASSES = ((0, 1), (1, 6), (6, 6), (10, 3), (25, 2))

RAW_COUNT_N3 = 18
RAW_COUNT_N4 = 18**4  # four independent supports
N4_CLASS_COUNT = 4455
# SHA-256 of repr(canonical_classes(4)), computed by canonicalizing all
# 104,976 raw relations
N4_CLASSES_SHA256 = "50bfeba84c037fdc4c8d7c53c33a0f627aaf18e123fa27a3a381c56b13c06d48"


class TestPatterns:
    def test_exactly_eighteen(self):
        assert len(consistent_patterns_on_support()) == 18

    def test_matches_exhaustive_filter(self):
        # independent route: filter all 64 subsets of the 6 triples by the
        # rule as written, no member xyz together with yxz or xzy
        triples = list(permutations(range(3)))
        expected = set()
        for k in range(7):
            for chosen in combinations(triples, k):
                s = set(chosen)
                if all((y, x, z) not in s and (x, z, y) not in s for (x, y, z) in s):
                    expected.add(frozenset(chosen))
        assert set(consistent_patterns_on_support()) == expected

    def test_contains_reference_patterns(self):
        patterns = set(consistent_patterns_on_support())
        assert frozenset() in patterns
        for t in permutations(range(3)):
            assert frozenset({t}) in patterns
        assert frozenset({(0, 1, 2), (2, 1, 0)}) in patterns  # abc, cba
        assert frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)}) in patterns  # abc, bca, cab


class TestRawStream:
    """The stream of every consistent relation that the oracles count."""

    def test_three_point_count(self):
        assert sum(1 for _ in consistent_masks(3)) == RAW_COUNT_N3

    def test_four_point_count(self):
        assert sum(1 for _ in consistent_masks(4)) == RAW_COUNT_N4

    def test_everything_yielded_is_consistent(self):
        for mask in consistent_masks(4):
            assert consistency_check(Betweenness(4, mask))

    def test_no_duplicates_at_three_points(self):
        masks = list(consistent_masks(3))
        assert len(masks) == len(set(masks))


class TestCanonicalClasses:
    def test_three_point_classes_frozen(self):
        assert canonical_classes(3) == N3_CLASSES

    def test_four_point_orbit_accounting(self):
        classes = canonical_classes(4)
        assert len(classes) == N4_CLASS_COUNT
        assert sum(size for _, size in classes) == RAW_COUNT_N4

    @pytest.mark.parametrize("n", [3, 4])
    def test_walk_matches_counting_oracle(self, n):
        assert canonical_classes(n) == classes_by_counting(n)

    def test_four_point_classes_pinned(self):
        digest = hashlib.sha256(repr(canonical_classes(4)).encode()).hexdigest()
        assert digest == N4_CLASSES_SHA256

    # one orbit call per (support, pattern) builds the digit tables; the walk
    # over the classes then calls orbit no more
    @pytest.mark.parametrize("n, class_count", [(3, len(N3_CLASSES)), (4, N4_CLASS_COUNT)])
    def test_orbit_calls_fixed_by_supports_and_patterns(self, monkeypatch, n, class_count):
        calls = 0

        def counting_orbit(*args):
            nonlocal calls
            calls += 1
            return orbit(*args)

        monkeypatch.setattr(enumeration, "orbit", counting_orbit)
        canonical_classes.cache_clear()
        try:
            classes = canonical_classes(n)
        finally:
            # later callers recompute with the real orbit
            canonical_classes.cache_clear()
        assert len(classes) == class_count
        assert calls == len(supports(n)) * len(consistent_patterns_on_support())

    def test_unsupported_n_refused_before_any_allocation(self, monkeypatch):
        # at n=5 the marks alone would take 18^10 bytes
        def no_patterns(n):
            raise AssertionError(f"pattern masks built for n={n}")

        monkeypatch.setattr(enumeration, "_support_pattern_masks", no_patterns)
        with pytest.raises(ValueError, match=r"enumeration supports n in \(3, 4\), got 5"):
            canonical_classes.__wrapped__(5)

    def test_orbit_sizes_match_direct_computation(self):
        from qmlines.isomorphism import Relabeling, apply_relabeling

        for mask, size in canonical_classes(3):
            b = Betweenness(3, mask)
            orbit = {
                apply_relabeling(b, Relabeling(p)).mask for p in permutations(range(3))
            }
            assert len(orbit) == size

    def test_stream_is_canonical_and_increasing(self):
        previous = -1
        for b in enumerate_consistent(3):
            assert canonical_form(b)[0] == b
            assert b.mask > previous
            previous = b.mask


class TestClassifyThreePoints:
    def test_five_classes_all_quasi_realizable(self):
        records = classify(3)
        assert len(records) == 5
        assert all(r.realizable_quasi for r in records)
        assert all(verify_witness(r.witness, r.canonical) for r in records)

    def test_line_counts_against_reference_table(self):
        by_canon = {r.canonical.mask: r for r in classify(3)}
        for row in THREE_POINT_TABLE:
            canon, _ = canonical_form(three_point_relation(row))
            assert by_canon[canon.mask].line_count == row["line_count"]

    def test_metric_classes_match_reference(self):
        by_canon = {r.canonical.mask: r for r in classify(3)}
        for row in THREE_POINT_TABLE:
            canon, _ = canonical_form(three_point_relation(row))
            assert by_canon[canon.mask].realizable_metric == row["metric"]

    def test_int_bound_one_only_fits_the_empty_relation(self):
        records = classify(3, kmax_list=(1,))
        for r in records:
            assert r.realizable_int[1] == (r.canonical.mask == 0)

    def test_class_sizes(self):
        assert [r.class_size for r in classify(3)] == [1, 6, 6, 3, 2]

    def test_three_point_classes_all_digraph_realizable(self):
        assert all(r.realizable_digraph for r in classify(3))


@pytest.fixture(scope="module")
def records():
    return classify(4, kmax_list=(2, 3))


class TestClassifyFourPoints:
    def test_record_census(self, records):
        # realizable counts double as regression guards; every positive
        # verdict below is certified by a verified witness
        assert len(records) == N4_CLASS_COUNT
        assert sum(r.realizable_quasi for r in records) == 273
        assert sum(r.realizable_metric for r in records) == 9
        assert sum(r.realizable_int[2] for r in records) == 102
        assert sum(r.realizable_int[3] for r in records) == 265
        assert sum(r.realizable_digraph for r in records) == 83

    def test_witness_present_iff_realizable(self, records):
        for r in records:
            assert (r.witness is not None) == r.realizable_quasi
            if r.witness is not None:
                assert verify_witness(r.witness, r.canonical)

    def test_metric_implies_quasi(self, records):
        assert all(r.realizable_quasi for r in records if r.realizable_metric)

    def test_exhaustive_routes_imply_quasi(self, records):
        # every integer or digraph realization is itself a quasi-metric, so a
        # false negative from the LP would show up right here
        for r in records:
            if r.realizable_int[2] or r.realizable_int[3] or r.realizable_digraph:
                assert r.realizable_quasi

    def test_metric_verdicts_are_the_reversal_closed_quasi_verdicts(self, records):
        # a metric realizes b iff a quasi-metric does and b is closed under
        # reversal (xyz in b iff zyx in b): then d + d^T is a metric with
        # betweenness b, since a sum of two triangle inequalities is tight
        # iff both are
        for r in records + classify(3):
            b = r.canonical
            closed = all((z, y, x) in b for (x, y, z) in b.triples)
            assert r.realizable_metric == (r.realizable_quasi and closed)
            if r.realizable_metric:
                d = r.witness.entries
                sym = tuple(tuple(d[i][j] + d[j][i] for j in range(b.n)) for i in range(b.n))
                assert verify_witness(DistanceMatrix(r.witness.labels, sym), b)

    def test_digraph_classes_within_integer_three(self, records):
        for r in records:
            if r.realizable_digraph:
                assert r.realizable_int[3]

    def test_the_single_dbe_failure_is_q4(self, records):
        failing = [r for r in records if not r.satisfies_dbe]
        assert len(failing) == 1
        assert failing[0].canonical == canonical_form(q4_betweenness())[0]
        assert failing[0].realizable_quasi

    def test_deterministic(self, records):
        assert records == classify(4, kmax_list=(2, 3))

    def test_integer_four_sweep_reproduces_the_lp_verdicts(self, records):
        # dual-route check against the exhaustive sweep with entries <= 4,
        # which visits the lex-least of each orbit of its 16.7M matrices: it
        # realizes exactly the classes the LP accepts
        int4 = set(kernels.integer_canon_witnesses(4, 4))
        quasi = {r.canonical.mask for r in records if r.realizable_quasi}
        assert int4 == quasi


class TestTheorem:
    def test_matches_q4(self):
        report = verify_theorem_four_points()
        assert report.n == 4
        assert report.matches_q4
        assert len(report.exceptional_classes) == 1
        rec = report.exceptional_classes[0]
        assert rec.canonical == canonical_form(q4_betweenness())[0]
        assert rec.line_count == 3
        assert not rec.has_universal
        assert not rec.realizable_metric
        assert not rec.realizable_digraph
        assert rec.realizable_int == {2: False}
        assert verify_witness(rec.witness, rec.canonical)

    def test_perturbed_reference_is_reported(self):
        reference = q4_betweenness()
        smaller = Betweenness(4, reference.mask & (reference.mask - 1))  # drop one triple
        report = verify_theorem_four_points(reference=smaller)
        assert not report.matches_q4
        assert len(report.exceptional_classes) == 1  # the landscape itself is unchanged

    def test_dbe_failures_are_the_images_of_the_papers_b(self):
        # an oracle sharing no code with the package finds, among all 104,976
        # consistent relations, exactly the relabelings of the paper's
        # B = {cab, abc, dba, bad} on a, b, c, d, and they form Q4's class
        a, b, c, d = range(4)
        paper_b = ((c, a, b), (a, b, c), (d, b, a), (b, a, d))
        images = {
            frozenset((p[x], p[y], p[z]) for (x, y, z) in paper_b)
            for p in permutations(range(4))
        }
        assert len(images) == 12
        failing = dbe_failing_relations(4)
        assert failing == images
        # the theorem check's walk finds the same relations, each once, in
        # the order of the raw stream
        masks = {Betweenness.from_triples(4, r).mask for r in failing}
        stream = [m for m in consistent_masks(4) if m in masks]
        assert enumeration._dbe_failing_masks(4) == stream
        canon = verify_theorem_four_points().exceptional_classes[0].canonical
        assert {Betweenness.from_triples(4, r).mask for r in images} == set(orbit(4, canon.mask))

    def test_report_equals_the_class_list_route_without_building_it(self, monkeypatch):
        def no_class_list(n):
            raise AssertionError(f"canonical_classes({n}) called")

        reference = q4_betweenness()
        smaller = Betweenness(4, reference.mask & (reference.mask - 1))
        monkeypatch.setattr(enumeration, "canonical_classes", no_class_list)
        report = verify_theorem_four_points()
        perturbed = verify_theorem_four_points(reference=smaller)
        monkeypatch.undo()
        # the route the walk replaced: every class, filtered by its LineSet's
        # DBE verdict, then the same record and LP
        int2 = kernels.integer_canon_witnesses(4, 2)
        exceptional = []
        for mask, size in canonical_classes(4):
            if line_set(Betweenness(4, mask)).satisfies_dbe:
                continue
            rec = enumeration._base_record(4, mask, size)
            if rec.realizable_quasi:
                exceptional.append(rec._replace(realizable_int={2: mask in int2}))
        assert report == TheoremReport(4, tuple(exceptional), True)
        assert perturbed == TheoremReport(4, tuple(exceptional), False)

    def test_walk_nodes_are_pinned(self, monkeypatch):
        # 18 + 324 + 1,206 + 3,132 by depth: the universal-line cut leaves
        # 4,680 of the 18 + 18^2 + 18^3 + 18^4 nodes of the product; each
        # node adds the table's ones once, in its universal-line test
        nodes = 0

        class CountingOnes(int):
            def __radd__(self, other):
                nonlocal nodes
                nodes += 1
                return other + int(self)

        table = enumeration._packed_table(4)
        counting = table._replace(ones=CountingOnes(table.ones))
        monkeypatch.setattr(enumeration, "_packed_table", lambda n: counting)
        assert len(enumeration._dbe_failing_masks(4)) == 12
        assert nodes == 4680
