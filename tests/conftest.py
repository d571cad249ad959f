from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from qmlines.core import Betweenness, DistanceMatrix, default_labels
from qmlines.enumeration import consistent_patterns_on_support

from oracles import min_plus_closure

# one line per acceptance criterion, filled by tests/test_acceptance.py and
# echoed after the run so the report shows up without -s
acceptance_report: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_report:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report:
            terminalreporter.write_line(line)


@pytest.fixture
def q4():
    from qmlines.fixtures import q4_matrix

    return q4_matrix()


def _positive_fractions():
    return st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=8)


@st.composite
def quasi_metrics(draw, min_n=2, max_n=5):
    """Random valid quasi-metrics via min-plus closure of positive entries."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rows = [
        [Fraction(0) if i == j else draw(_positive_fractions()) for j in range(n)]
        for i in range(n)
    ]
    return DistanceMatrix(default_labels(n), min_plus_closure(rows))


# small numerators over mixed denominators, zero and negatives included, so
# that ties and every kind of violation occur
_TABLE_VALUES = [Fraction(a, b) for a in range(-1, 7) for b in (1, 2, 3, 4, 6)]


@st.composite
def rational_tables(draw, min_n=2, max_n=4):
    """Random rational n-by-n tables, quasi-metrics or not; the diagonal is
    zero in about half of them."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    zero_diagonal = draw(st.booleans())
    values = st.sampled_from(_TABLE_VALUES)
    rows = [
        [Fraction(0) if i == j and zero_diagonal else draw(values) for j in range(n)]
        for i in range(n)
    ]
    return DistanceMatrix(default_labels(n), rows)


@st.composite
def metric_matrices(draw, min_n=2, max_n=5):
    """Random valid metrics: symmetric start, closure preserves symmetry."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(_positive_fractions())
    return DistanceMatrix(default_labels(n), min_plus_closure(rows))


def random_consistent(n, rng):
    """A consistent relation: one random pattern on each 3-point support."""
    patterns = consistent_patterns_on_support()
    triples = [
        (sup[x], sup[y], sup[z])
        for sup in combinations(range(n), 3)
        for (x, y, z) in rng.choice(patterns)
    ]
    return Betweenness.from_triples(n, triples)
