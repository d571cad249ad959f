"""The claim suite must catch corrupted fixtures, not just bless good ones."""

from collections import Counter
from fractions import Fraction

import pytest

from qmlines import claims, enumeration, realizability
from qmlines.claims import (
    claim_grid_oracle,
    claim_digraph_refutation,
    claim_four_point_corollary,
    claim_integer_refutation,
    claim_metric_refutation,
    claim_q4_betweenness,
    claim_q4_lines,
    claim_four_point_theorem,
    three_point_grid_realizations,
)
from qmlines.core import Betweenness, DistanceMatrix
from qmlines.fixtures import Q4_LABELS, Q4_ROWS, q4_betweenness


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


def test_corrupted_q4_fails_validation_with_triangle_witness():
    # d(s,q) lowered to 1 breaks d(s,p) <= d(s,q) + d(q,p)
    s, q = Q4_LABELS.index("s"), Q4_LABELS.index("q")
    claim = claim_q4_betweenness(matrix=altered_q4({(s, q): 1}))
    assert not claim.passed
    assert "validation failed" in claim.detail
    assert "d(s,p) = 3 > d(s,q) + d(q,p) = 2" in claim.detail


def test_wrong_reference_is_detected():
    claim = claim_q4_betweenness(reference=Betweenness(4, 0))
    assert not claim.passed
    assert "!= reference" in claim.detail


def test_theorem_claim_reports_discrepancy_for_perturbed_reference():
    ref = q4_betweenness()
    smaller = Betweenness(4, ref.mask & (ref.mask - 1))
    claim = claim_four_point_theorem(reference=smaller)
    assert not claim.passed
    assert "do not match" in claim.detail
    assert "271392" in claim.detail  # the class list names the real exception


ALL_ONES = DistanceMatrix(Q4_LABELS, [[0 if i == j else 1 for j in range(4)] for i in range(4)])


def test_lines_claim_catches_a_matrix_that_satisfies_dbe():
    # every pair's line of the all-ones matrix is its own pair: 6 lines, DBE holds
    claim = claim_q4_lines(matrix=ALL_ONES)
    assert not claim.passed
    assert "dbe=True" in claim.detail


def test_integer_claim_catches_a_reference_realizable_with_entries_two():
    # the all-ones matrix realizes the empty relation with entries <= 2
    claim = claim_integer_refutation(reference=Betweenness(4, 0))
    assert not claim.passed
    assert "unexpected witness with entries <= 2: 0 1 1 1 / 1 0 1 1" in claim.detail
    assert "Fraction(" not in claim.detail


def test_digraph_claim_catches_a_digraph_realizable_reference():
    # the complete digraph realizes the empty relation
    claim = claim_digraph_refutation(reference=Betweenness(4, 0))
    assert not claim.passed
    assert "unexpected digraph witness" in claim.detail


def test_metric_claim_would_catch_a_realizable_reference():
    # the reversal-closed relation {abc, cba, ...} on 4 points is metric;
    # handing it to the refutation claim must flip the verdict
    b = Betweenness.from_triples(4, [(0, 1, 2), (2, 1, 0)])
    claim = claim_metric_refutation(reference=b)
    assert not claim.passed


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
