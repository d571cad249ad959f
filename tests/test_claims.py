"""The claim suite must catch corrupted fixtures, not just bless good ones."""

from collections import Counter
from fractions import Fraction

import pytest

from qmlines import claims, enumeration, fixtures, kernels, realizability
from qmlines.claims import (
    claim_grid_oracle,
    claim_digraph_refutation,
    claim_four_point_corollary,
    claim_integer_refutation,
    claim_metric_refutation,
    claim_q4_betweenness,
    claim_q4_lines,
    claim_four_point_theorem,
    claim_three_point_classification,
    claim_witness_soundness,
    three_point_grid_realizations,
)
from qmlines.core import Betweenness, DistanceMatrix
from qmlines.enumeration import classify, verify_theorem_four_points
from qmlines.fixtures import Q4_LABELS, Q4_ROWS, THREE_POINT_TABLE, q4_betweenness


def altered_q4(changes):
    rows = [list(r) for r in Q4_ROWS]
    for (i, j), v in changes.items():
        rows[i][j] = v
    return DistanceMatrix(Q4_LABELS, tuple(tuple(Fraction(v) for v in r) for r in rows))


def test_happy_path_claims_pass():
    assert claim_q4_betweenness().passed
    assert claim_q4_lines().passed
    assert claim_metric_refutation().passed
    assert claim_integer_refutation().passed
    assert claim_digraph_refutation().passed


def test_corrupted_q4_fails_validation_with_triangle_witness(monkeypatch):
    # d(s,q) lowered to 1 breaks d(s,p) <= d(s,q) + d(q,p)
    s, q = Q4_LABELS.index("s"), Q4_LABELS.index("q")
    monkeypatch.setattr(fixtures, "q4_matrix", lambda: altered_q4({(s, q): 1}))
    claim = claim_q4_betweenness()
    assert not claim.passed
    assert "validation failed" in claim.detail
    assert "d(s,p) = 3 > d(s,q) + d(q,p) = 2" in claim.detail


def test_wrong_reference_is_detected(monkeypatch):
    monkeypatch.setattr(fixtures, "q4_betweenness", lambda: Betweenness(4, 0))
    claim = claim_q4_betweenness()
    assert not claim.passed
    assert "!= reference" in claim.detail


def test_theorem_claim_reports_discrepancy_for_perturbed_reference(monkeypatch):
    ref = q4_betweenness()
    smaller = Betweenness(4, ref.mask & (ref.mask - 1))
    monkeypatch.setattr(fixtures, "q4_betweenness", lambda: smaller)
    claim = claim_four_point_theorem()
    assert not claim.passed
    assert "do not match" in claim.detail
    assert "271392" in claim.detail  # the class list names the real exception


ALL_ONES = DistanceMatrix(Q4_LABELS, [[0 if i == j else 1 for j in range(4)] for i in range(4)])


def test_lines_claim_catches_a_matrix_that_satisfies_dbe(monkeypatch):
    # every pair's line of the all-ones matrix is its own pair: 6 lines, DBE holds
    monkeypatch.setattr(fixtures, "q4_matrix", lambda: ALL_ONES)
    claim = claim_q4_lines()
    assert not claim.passed
    assert "dbe=True" in claim.detail


def test_integer_claim_catches_a_reference_realizable_with_entries_two(monkeypatch):
    # the all-ones matrix realizes the empty relation with entries <= 2
    monkeypatch.setattr(fixtures, "q4_betweenness", lambda: Betweenness(4, 0))
    claim = claim_integer_refutation()
    assert not claim.passed
    assert "unexpected witness with entries <= 2: 0 1 1 1 / 1 0 1 1" in claim.detail
    assert "Fraction(" not in claim.detail


def test_integer_claim_catches_a_reference_realizable_only_at_four(monkeypatch):
    # 8 classes on 4 points need an entry of 4: none has a witness at K=2 or 3
    only_at_four = sorted(
        set(kernels.integer_canon_witnesses(4, 4)) - set(kernels.integer_canon_witnesses(4, 3))
    )
    assert len(only_at_four) == 8
    monkeypatch.setattr(fixtures, "q4_betweenness", lambda: Betweenness(4, only_at_four[0]))
    claim = claim_integer_refutation()
    assert not claim.passed
    assert claim.detail == "no witness with entries <= 3 found"


def test_integer_claim_checks_the_kmax_three_witness(monkeypatch):
    # a K=3 search that hands back a broken matrix fails both of its checks
    s, q = Q4_LABELS.index("s"), Q4_LABELS.index("q")
    search = claims.realize_bounded_integer
    monkeypatch.setattr(
        claims,
        "realize_bounded_integer",
        lambda b, kmax: altered_q4({(s, q): 1}) if kmax == 3 else search(b, kmax),
    )
    claim = claim_integer_refutation()
    assert not claim.passed
    assert claim.detail == (
        "kmax=3 witness is not a quasi-metric; "
        "kmax=3 witness betweenness is not isomorphic to the reference"
    )


def test_digraph_claim_catches_a_digraph_realizable_reference(monkeypatch):
    # the complete digraph realizes the empty relation
    monkeypatch.setattr(fixtures, "q4_betweenness", lambda: Betweenness(4, 0))
    claim = claim_digraph_refutation()
    assert not claim.passed
    assert "unexpected digraph witness" in claim.detail


def test_metric_claim_would_catch_a_realizable_reference(monkeypatch):
    # the reversal-closed relation {abc, cba, ...} on 4 points is metric;
    # handing it to the refutation claim must flip the verdict
    b = Betweenness.from_triples(4, [(0, 1, 2), (2, 1, 0)])
    monkeypatch.setattr(fixtures, "q4_betweenness", lambda: b)
    claim = claim_metric_refutation()
    assert not claim.passed


def _table_with(index, row):
    """THREE_POINT_TABLE with row `index` replaced (or dropped, for None)."""
    rows = list(THREE_POINT_TABLE)
    rows[index : index + 1] = [] if row is None else [row]
    return tuple(rows)


# row 1 is {abc}: 4 lines, not metric, line(a, b) = {a, b, c}; row 0 is the
# empty relation, which is metric
@pytest.mark.parametrize(
    "index, row, detail",
    [
        (1, {**THREE_POINT_TABLE[1], "line_count": 5}, "{abc}: line count 4, expected 5"),
        (
            0,
            {**THREE_POINT_TABLE[0], "metric": False},
            "{}: metric-realizable True, expected False",
        ),
        (
            1,
            {**THREE_POINT_TABLE[1], "lines": {**THREE_POINT_TABLE[1]["lines"], "ab": "ab"}},
            "{abc}: line(0, 1) = [0, 1, 2], expected [0, 1]",
        ),
        (4, None, "classification contains classes beyond the reference five"),
    ],
    ids=["line-count", "metric", "pair-line", "dropped-row"],
)
def test_three_point_claim_catches_a_wrong_table(monkeypatch, index, row, detail):
    monkeypatch.setattr(fixtures, "THREE_POINT_TABLE", _table_with(index, row))
    claim = claim_three_point_classification()
    assert not claim.passed
    assert claim.detail == detail


def test_three_point_claim_catches_a_wrong_classification(monkeypatch):
    # {abc}'s class dropped and the empty relation's marked unrealizable; a
    # missing class is not reported as one beyond the reference five
    records = classify(3)
    doctored = (records[0]._replace(realizable_quasi=False), *records[2:])
    monkeypatch.setattr(claims, "classify", lambda n: doctored)
    claim = claim_three_point_classification()
    assert not claim.passed
    assert claim.detail == (
        "expected 5 classes, got 4; some class is not quasi-realizable; "
        "{abc}: class missing from classification"
    )


def _report_with(monkeypatch, **changes):
    """Make the claims see the theorem report with its one class altered."""
    report = verify_theorem_four_points()
    (rec,) = report.exceptional_classes
    doctored = report._replace(exceptional_classes=(rec._replace(**changes),))
    monkeypatch.setattr(claims, "verify_theorem_four_points", lambda: doctored)


def _int2_map_with_the_class(monkeypatch):
    """Make the K=2 integer map hold the exceptional class, with the all-ones
    matrix as its witness."""
    (rec,) = verify_theorem_four_points().exceptional_classes
    maps = kernels.integer_canon_witnesses

    def with_the_class(n, kmax):
        table = maps(n, kmax)
        return {**table, rec.canonical.mask: (1,) * 12} if kmax == 2 else table

    monkeypatch.setattr(kernels, "integer_canon_witnesses", with_the_class)


@pytest.mark.parametrize(
    "doctor, detail",
    [
        (lambda mp: _report_with(mp, line_count=4), "exceptional class has 4 lines, expected 3"),
        (
            lambda mp: _report_with(mp, realizable_metric=True),
            "exceptional class unexpectedly realizable by metric/digraph/int<=2",
        ),
        (
            _int2_map_with_the_class,
            "exceptional class unexpectedly realizable by metric/digraph/int<=2",
        ),
    ],
    ids=["four-lines", "metric", "int2"],
)
def test_theorem_claim_checks_the_exceptional_class(monkeypatch, doctor, detail):
    doctor(monkeypatch)
    claim = claim_four_point_theorem()
    assert not claim.passed
    assert claim.detail == detail


def test_corollary_names_a_counterexample(monkeypatch):
    # a digraph map that claims Q4's class makes it a realizable DBE failure
    canon = verify_theorem_four_points().exceptional_classes[0].canonical
    digraphs = kernels.digraph_canon_witnesses
    monkeypatch.setattr(
        kernels, "digraph_canon_witnesses", lambda n: {**digraphs(n), canon.mask: 0}
    )
    claim = claim_four_point_corollary()
    assert not claim.passed
    assert claim.detail == (
        "4455 classes; metric-realizable 9, int<=2 102, digraph 84; "
        "counterexample encodings 271392"
    )


def test_witness_claim_catches_witnesses_that_miss_their_class(monkeypatch):
    # each 3-point witness handed to the next realizable class, and the
    # all-ones matrix (the empty relation) as Q4's class's witness
    records = [r for r in classify(3) if r.realizable_quasi]
    shifted = [r._replace(witness=s.witness) for r, s in zip(records, records[1:] + records[:1])]
    monkeypatch.setattr(claims, "classify", lambda n: tuple(shifted))
    _report_with(monkeypatch, witness=ALL_ONES)
    claim = claim_witness_soundness()
    assert not claim.passed
    assert claim.detail == "; ".join(
        [f"bad 3-point witness for encoding {r.canonical.mask}" for r in records]
        + ["bad 4-point witness for encoding 271392"]
    )


def test_grid_oracle_realizes_exactly_the_consistent_relations():
    from qmlines.core import consistency_check

    grid = three_point_grid_realizations()
    assert len(grid) == 18
    for mask in grid:
        assert consistency_check(Betweenness(3, mask))


# one entry of one grid witness changed, in ordered_pairs(3) order: on {abc}
# d(a,c) = 2 lowered to 1 leaves d(a,c) - d(a,b) - d(b,c) = -1, so only
# the member equality breaks and eps stays 1; on the empty relation d(a,c)
# raised to 2 makes abc's triangle tight, so eps = 0 and every row holds
@pytest.mark.parametrize("mask, entry, value", [(1, 1, 1), (0, 1, 2)])
def test_grid_oracle_rejects_a_witness_off_its_system(monkeypatch, mask, entry, value):
    grid = dict(three_point_grid_realizations())
    changed = list(grid[mask])
    changed[entry] = value
    grid[mask] = tuple(changed)
    monkeypatch.setattr(claims, "three_point_grid_realizations", lambda: grid)
    claim = claim_grid_oracle()
    assert not claim.passed
    assert claim.detail == f"encoding {mask}: grid witness violates the LP system"


def test_grid_oracle_catches_a_relation_the_grid_misses(monkeypatch):
    # every consistent 3-point relation is quasi-realizable; a grid without
    # one of them disagrees with the LP there, and only there
    grid = dict(three_point_grid_realizations())
    mask = min(grid)
    del grid[mask]
    monkeypatch.setattr(claims, "three_point_grid_realizations", lambda: grid)
    claim = claim_grid_oracle()
    assert not claim.passed
    assert claim.detail == f"encoding {mask}: LP says True, grid says False"


def test_grid_oracle_asks_no_witness_where_both_refute(monkeypatch):
    # a relation missing from the grid, which the LP refutes too, is an
    # agreement with no witness to check
    grid = dict(three_point_grid_realizations())
    mask = min(grid)
    del grid[mask]
    solve = claims.realize
    refuted = realizability.FeasibilityOutcome("infeasible", None, None)
    monkeypatch.setattr(claims, "three_point_grid_realizations", lambda: grid)
    monkeypatch.setattr(
        claims, "realize", lambda b, variant: refuted if b.mask == mask else solve(b, variant)
    )
    claim = claim_grid_oracle()
    assert claim.passed
    assert claim.detail == (
        "all 18 consistent relations agree; every grid witness satisfies its system"
    )


def test_corollary_runs_no_classification_and_only_reversal_closed_metric_lps(monkeypatch):
    # the corollary reads the class list and the theorem's sweep maps, and
    # runs the metric LP on the 19 reversal-closed classes alone
    def no_classification(n):
        raise AssertionError("the corollary must not classify")

    solve = realizability.maximize_slack
    lps = Counter()

    def counted(system):
        lps[system.variant] += 1
        return solve(system)

    monkeypatch.setattr(enumeration, "_base_records", no_classification)
    monkeypatch.setattr(realizability, "maximize_slack", counted)
    claim = claim_four_point_corollary()
    assert claim.passed
    assert claim.detail == (
        "4455 classes; metric-realizable 9, int<=2 102, digraph 83; counterexamples: none"
    )
    assert lps == {"metric": 19}
