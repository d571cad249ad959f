"""Acceptance suite: the ten headline criteria, each with its time budget.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and fails if the underlying exact check fails or the budget is exceeded.
Budgets assume a single worker; caches shared within the session only ever
make later criteria cheaper, never earlier ones.
"""

import time
from fractions import Fraction

from qmlines import claims
from qmlines.core import betweenness_of, line_set
from qmlines.fixtures import q4_betweenness, q4_lines, q4_matrix
from qmlines.realizability import realize

from conftest import acceptance_report


def _run(criterion, budget, claim_fn, *args):
    start = time.perf_counter()
    claim = claim_fn(*args)
    elapsed = time.perf_counter() - start
    status = "PASS" if claim.passed else "FAIL"
    line = f"{status} criterion {criterion} ({claim.ident}): {claim.detail} [{elapsed:.2f} s]"
    print(line)
    acceptance_report.append(line)
    assert claim.passed, f"criterion {criterion}: {claim.detail}"
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f} s, budget {budget} s"
    return claim


def test_criterion_01_q4_betweenness():
    _run(1, 1.0, claims.claim_q4_betweenness)
    assert betweenness_of(q4_matrix()) == q4_betweenness()


def test_criterion_02_q4_lines():
    _run(2, 1.0, claims.claim_q4_lines)
    ls = line_set(betweenness_of(q4_matrix()))
    assert ls.lines == q4_lines()
    assert not line_set(betweenness_of(q4_matrix())).satisfies_dbe


def test_criterion_03_three_point_classification():
    _run(3, 10.0, claims.claim_three_point_classification)


def test_criterion_04_metric_refutation():
    _run(4, 1.0, claims.claim_metric_refutation)
    outcome = realize(q4_betweenness(), "metric")
    assert outcome.status == "infeasible" or outcome.optimal_slack <= 0


def test_criterion_05_bounded_integer_refutation():
    _run(5, 30.0, claims.claim_integer_refutation)


def test_criterion_06_digraph_refutation():
    _run(6, 30.0, claims.claim_digraph_refutation)


def test_criterion_07_four_point_theorem():
    claim = _run(7, 300.0, claims.claim_four_point_theorem)
    assert "271392" in claim.detail


def test_criterion_08_four_point_corollary():
    _run(8, 600.0, claims.claim_four_point_corollary)


def test_criterion_09_witness_soundness():
    _run(9, 60.0, claims.claim_witness_soundness)
    # spot-check the scaling half directly
    scaled = q4_matrix().scaled(Fraction(7, 3))
    assert betweenness_of(scaled) == q4_betweenness()


def test_criterion_10_grid_oracle_agreement():
    _run(10, 60.0, claims.claim_grid_oracle)
