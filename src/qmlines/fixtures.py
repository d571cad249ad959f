"""Embedded reference data: the exceptional four-point space Q4 and the
complete three-point classification table.

Q4 is the quasi-metric space on {p, s, q, r} whose betweenness breaks the
"universal line or at least n lines" property; it is the pivot of every
refutation claim this package verifies.
"""

from .core import Betweenness, DistanceMatrix

Q4_LABELS = ("p", "s", "q", "r")

# row = from, column = to
Q4_ROWS = (
    (0, 1, 1, 3),
    (3, 0, 2, 3),
    (1, 2, 0, 2),
    (1, 1, 2, 0),
)

Q4_BETWEENNESS_WORDS = ("pqr", "rpq", "sqp", "qps")

Q4_LINE_WORDS = ("pqr", "pqs", "rs")


def q4_matrix() -> DistanceMatrix:
    return DistanceMatrix(Q4_LABELS, Q4_ROWS)


def _indices(word: str, labels=Q4_LABELS) -> tuple[int, ...]:
    return tuple(labels.index(ch) for ch in word)


def q4_betweenness() -> Betweenness:
    """The literal reference relation {pqr, rpq, sqp, qps} on Q4's labels."""
    return Betweenness.from_triples(4, [_indices(w) for w in Q4_BETWEENNESS_WORDS])


def q4_lines() -> frozenset[frozenset[int]]:
    return frozenset(frozenset(_indices(w)) for w in Q4_LINE_WORDS)


# Three-point classification: the five pairwise non-isomorphic relations,
# their per-pair lines, line counts, and which are metric-realizable.
# Points are a, b, c (indices 0, 1, 2); triples and lines are label words.
THREE_POINT_LABELS = ("a", "b", "c")

THREE_POINT_TABLE = (
    {
        "triples": (),
        "lines": {"ab": "ab", "ba": "ab", "ac": "ac", "ca": "ac", "bc": "bc", "cb": "bc"},
        "line_count": 3,
        "metric": True,
    },
    {
        "triples": ("abc",),
        "lines": {"ab": "abc", "ba": "ab", "ac": "abc", "ca": "ac", "bc": "abc", "cb": "bc"},
        "line_count": 4,
        "metric": False,
    },
    {
        "triples": ("abc", "bca"),
        "lines": {"ab": "abc", "ba": "abc", "ac": "abc", "ca": "abc", "bc": "abc", "cb": "bc"},
        "line_count": 2,
        "metric": False,
    },
    {
        "triples": ("abc", "cba"),
        "lines": {"ab": "abc", "ba": "abc", "ac": "abc", "ca": "abc", "bc": "abc", "cb": "abc"},
        "line_count": 1,
        "metric": True,
    },
    {
        "triples": ("abc", "bca", "cab"),
        "lines": {"ab": "abc", "ba": "abc", "ac": "abc", "ca": "abc", "bc": "abc", "cb": "abc"},
        "line_count": 1,
        "metric": False,
    },
)

# Digraphs on {a, b, c} realizing each of the five relations (same order as
# THREE_POINT_TABLE); arcs are label words.
THREE_POINT_DIGRAPH_ARCS = (
    ("ab", "ba", "bc", "cb", "ac", "ca"),
    ("ab", "ba", "bc", "cb", "ca"),
    ("ab", "bc", "cb", "ca"),
    ("ab", "ba", "bc", "cb"),
    ("ab", "bc", "ca"),
)


def three_point_relation(row: dict) -> Betweenness:
    return Betweenness.from_triples(
        3, [_indices(w, THREE_POINT_LABELS) for w in row["triples"]]
    )


def three_point_lines_expected(row: dict) -> dict[tuple[int, int], frozenset[int]]:
    out = {}
    for pair_word, line_word in row["lines"].items():
        pair = _indices(pair_word, THREE_POINT_LABELS)
        out[pair] = frozenset(_indices(line_word, THREE_POINT_LABELS))
    return out
