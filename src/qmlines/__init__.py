"""qmlines: lines, betweenness and exact realizability of finite quasi-metric
spaces.

The package computes segments, betweenness relations, lines and
universal-line/line-count verdicts for labeled rational distance matrices;
canonicalizes betweenness relations under relabeling; decides realizability
by quasi-metrics, metrics, bounded-integer spaces and digraphs (exact
rational LP plus exhaustive search); and exhaustively classifies all
consistent relations on 3 and 4 points.  Arithmetic is exact everywhere.
"""

from .core import (
    Betweenness,
    DistanceMatrix,
    LineSet,
    ValidationResult,
    Violation,
    betweenness_of,
    consistency_check,
    line_of_pair,
    line_set,
    segment,
    validate_quasi_metric,
)
from .enumeration import (
    ClassificationRecord,
    TheoremReport,
    canonical_classes,
    classify,
    consistent_patterns_on_support,
    enumerate_consistent,
    verify_theorem_four_points,
)
from .fileformats import ParseError, format_matrix, format_triples, parse_matrix, parse_triples
from .isomorphism import Relabeling, apply_relabeling, canonical_form, isomorphism_witness
from .realizability import (
    Digraph,
    FeasibilityOutcome,
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

__version__ = "0.1.0"

__all__ = [
    "Betweenness",
    "ClassificationRecord",
    "Digraph",
    "DistanceMatrix",
    "FeasibilityOutcome",
    "InconsistentRelationError",
    "LinearSystem",
    "LineSet",
    "ParseError",
    "Relabeling",
    "TheoremReport",
    "ValidationResult",
    "Violation",
    "apply_relabeling",
    "betweenness_of",
    "build_realization_system",
    "canonical_classes",
    "canonical_form",
    "classify",
    "consistency_check",
    "consistent_patterns_on_support",
    "digraph_distances",
    "enumerate_consistent",
    "format_matrix",
    "format_triples",
    "isomorphism_witness",
    "line_of_pair",
    "line_set",
    "maximize_slack",
    "parse_matrix",
    "parse_triples",
    "realize",
    "realize_bounded_integer",
    "realize_digraph",
    "segment",
    "validate_quasi_metric",
    "verify_theorem_four_points",
    "verify_witness",
]
