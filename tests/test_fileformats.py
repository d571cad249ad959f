from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qmlines.core import Betweenness, DistanceMatrix, consistency_check
from qmlines import encoding
from qmlines.encoding import triple_count
from qmlines.fileformats import (
    ParseError,
    format_matrix,
    format_triples,
    parse_matrix,
    parse_triples,
)
from qmlines.fixtures import (
    Q4_LABELS,
    THREE_POINT_LABELS,
    THREE_POINT_TABLE,
    q4_betweenness,
    q4_matrix,
    three_point_relation,
)

from conftest import quasi_metrics, rational_tables

DATA = Path(__file__).resolve().parent.parent / "data"

Q4_TEXT = """\
# the exceptional four-point space
p s q r
0 1 1 3
3 0 2 3
1 2 0 2
1 1 2 0
"""


class TestParseMatrix:
    def test_q4_file(self):
        m = parse_matrix(Q4_TEXT)
        assert m == q4_matrix()
        assert m.entries[m.index("p")][m.index("r")] == 3
        assert m.entries[m.index("r")][m.index("p")] == 1

    def test_two_point_matrix(self):
        m = parse_matrix("a b\n0 1\n1 0\n")
        assert m.labels == ("a", "b")
        assert m.entries[0][1] == 1

    def test_fraction_entries(self):
        m = parse_matrix("a b\n0 3/2\n1/2 0\n")
        assert m.entries[0][1] == Fraction(3, 2)
        assert m.entries[1][0] == Fraction(1, 2)

    def test_decimals_rejected(self):
        with pytest.raises(ParseError, match="decimal"):
            parse_matrix("a b\n0 0.5\n1 0\n")

    def test_negative_rejected(self):
        with pytest.raises(ParseError, match="rational"):
            parse_matrix("a b\n0 -1\n1 0\n")

    # re's \d and int() read "١" as 1; a matrix numeral is ASCII digits alone
    @pytest.mark.parametrize("token", ["\u0661", "\uff11", "1/\u0662"])
    def test_non_ascii_digits_rejected(self, token):
        with pytest.raises(ParseError, match=f"^line 2, token 2: not a rational: {token!r}"):
            parse_matrix(f"a b\n0 {token}\n1 0\n")

    # int() refuses a numeral of over 4,300 digits with Python's own text
    @pytest.mark.parametrize(
        "token",
        ["7" * 5000, "1/" + "7" * 5000, "7" * 5000 + "/1"],
        ids=["integer", "denominator", "numerator"],
    )
    def test_a_numeral_past_the_digit_limit_is_a_parse_error(self, token):
        message = "^line 3, token 1: 5000-digit numeral; at most 4300 digits are read$"
        with pytest.raises(ParseError, match=message):
            parse_matrix(f"a b\n0 1\n{token} 0\n")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="denominator"):
            parse_matrix("a b\n0 1/0\n1 0\n")

    def test_duplicate_labels(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_matrix("a a\n0 1\n1 0\n")

    def test_row_length_mismatch_reports_line(self):
        with pytest.raises(ParseError, match="line 3") as exc:
            parse_matrix("a b\n0 1\n1\n")
        assert exc.value.line == 3

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="rows"):
            parse_matrix("a b c\n0 1 1\n1 0 1\n")

    def test_bad_token_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("a b\n0 x\n1 0\n")
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse_matrix("# just a comment\n")

    def test_one_label_header_rejected(self):
        with pytest.raises(ParseError, match="^line 2: need at least 2 point labels$"):
            parse_matrix("# one point\na\n0\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\na b\n# middle\n0 1\n\n1 0\n"
        assert parse_matrix(text).labels == ("a", "b")


class TestParseTriples:
    def test_q4_reference_triples(self):
        text = "p q r\nr p q\ns q p\nq p s\n"
        b = parse_triples(text, ("p", "s", "q", "r"))
        assert b == q4_betweenness()

    def test_empty_file_gives_empty_relation(self):
        assert parse_triples("", ("a", "b", "c")).mask == 0

    def test_duplicates_collapse(self):
        b = parse_triples("a b c\na b c\n", ("a", "b", "c"))
        assert len(b) == 1

    def test_repeated_point_rejected(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_triples("a a b\n", ("a", "b", "c"))

    def test_unknown_label_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_triples("a b d\n", ("a", "b", "c"))

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="3 labels"):
            parse_triples("a b\n", ("a", "b", "c"))

    def test_duplicate_label_universe_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_triples("", ("a", "a"))

    def test_one_label_universe_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 point labels$"):
            parse_triples("", ["a"])

    def test_121_labels_build_no_table_of_triples(self, monkeypatch):
        # one triple among 1,727,880 is placed by arithmetic, and so are the
        # companions that the consistency check reads: the list of every
        # triple is never built
        built, asked = encoding.ordered_tuples, []
        monkeypatch.setattr(
            encoding, "ordered_tuples", lambda n, k: asked.append((n, k)) or built(n, k)
        )
        labels = [f"x{i}" for i in range(121)]
        b = parse_triples("x0 x2 x1\nx120 x0 x119\n", labels)
        assert (0, 2, 1) in b and (120, 0, 119) in b and (0, 1, 2) not in b
        assert len(b) == 2
        assert consistency_check(b)
        assert not consistency_check(parse_triples("x0 x2 x1\nx0 x1 x2\n", labels))
        assert (121, 3) not in asked


class TestShippedDataFiles:
    """The README examples, the CI steps and the CLI pins read data/; the
    claims read the fixtures.  The two copies must agree."""

    def test_q4_matrix_file_matches_embedded_fixture(self):
        assert parse_matrix((DATA / "q4.matrix").read_text()) == q4_matrix()
        triples = parse_triples((DATA / "q4.triples").read_text(), Q4_LABELS)
        assert triples == q4_betweenness()

    def test_three_point_files_match_their_table_rows(self):
        # every shipped file is checked here or above
        names = sorted(path.name for path in DATA.iterdir())
        assert names == ["cycle3.triples", "path3.triples", "q4.matrix", "q4.triples"]
        relations = {row["triples"]: three_point_relation(row) for row in THREE_POINT_TABLE}
        for name, words in (("path3", ("abc", "cba")), ("cycle3", ("abc", "bca", "cab"))):
            text = (DATA / f"{name}.triples").read_text()
            assert parse_triples(text, THREE_POINT_LABELS) == relations[words]


class TestRoundTrips:
    def test_q4_matrix_round_trip(self):
        m = q4_matrix()
        assert parse_matrix(format_matrix(m)) == m

    def test_q4_triples_round_trip(self):
        b = q4_betweenness()
        labels = ("p", "s", "q", "r")
        assert parse_triples(format_triples(b, labels), labels) == b

    @given(quasi_metrics())
    def test_matrix_round_trip_random(self, m):
        assert parse_matrix(format_matrix(m)) == m

    def test_negative_entry_is_refused(self):
        # written as "0 -1", the parser would reject it
        m = DistanceMatrix(("a", "b"), ((0, -1), (1, 0)))
        with pytest.raises(ValueError, match="negative entry -1 in row 'a', column 'b'"):
            format_matrix(m)

    @given(rational_tables())
    def test_any_table_reads_back_or_is_refused(self, m):
        # rational_tables draws negative entries and nonzero diagonals
        negative = [v for row in m.entries for v in row if v < 0]
        if negative:
            with pytest.raises(ValueError, match=f"negative entry {negative[0]} in row"):
                format_matrix(m)
            return
        assert parse_matrix(format_matrix(m)) == m

    # labels are read through str, as DistanceMatrix reads them: the int 1
    # is written as "1" and matches the token "1"
    def test_triples_round_trip_with_integer_labels(self):
        b = Betweenness.from_triples(3, [(0, 1, 2), (2, 1, 0)])
        text = format_triples(b, [1, 2, 3])
        assert text == "1 2 3\n3 2 1\n"
        assert parse_triples(text, [1, 2, 3]) == b
        assert parse_triples("1 2 3\n", [1, 2, 3]) == Betweenness.from_triples(3, [(0, 1, 2)])

    def test_q4_triples_round_trip_with_integer_labels(self):
        b = q4_betweenness()
        labels = (10, 20, 30, 40)
        assert parse_triples(format_triples(b, labels), labels) == b
        assert parse_triples(format_triples(b, labels), map(str, labels)) == b

    def test_triples_format_requires_matching_labels(self):
        with pytest.raises(ValueError, match="labels"):
            format_triples(Betweenness(3, 0), ("a", "b"))


@st.composite
def _label_lists(draw, n):
    """n labels: distinct tokens over a small alphabet with '#' in it, and in
    half of the lists one of them replaced by any text, so empty labels,
    whitespace the parser splits or strips on (line breaks included) and
    duplicates occur."""
    tokens = st.text("ab1/é#", min_size=1, max_size=3)
    labels = draw(st.lists(tokens, min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        wild = st.text("a#é \t\n\r\x0b\x1c\x85\u2028", max_size=3) | st.text(max_size=3)
        labels[draw(st.integers(0, n - 1))] = draw(wild)
    return labels


def _holdable(labels, line_starts) -> bool:
    """The label rule of the file formats: distinct nonempty labels without
    whitespace, and no '#' at the start of a written line."""
    return (
        len(set(labels)) == len(labels)
        and all(lab and not any(c.isspace() for c in lab) for lab in labels)
        and not any(lab.startswith("#") for lab in line_starts)
    )


class TestLabelRule:
    def test_hash_label_starting_a_triple_line_rejected(self):
        # written as "#a b c", the triple would read back as a comment
        with pytest.raises(ValueError, match="comment"):
            format_triples(Betweenness.from_triples(3, [(0, 1, 2)]), ("#a", "b", "c"))

    def test_hash_label_inside_a_line_is_kept(self):
        b = Betweenness.from_triples(3, [(0, 1, 2)])
        assert parse_triples(format_triples(b, ("b", "#a", "c")), ("b", "#a", "c")) == b
        m = DistanceMatrix(("a", "#b"), ((0, 1), (1, 0)))
        assert parse_matrix(format_matrix(m)) == m

    @pytest.mark.parametrize("labels", [("#a", "b"), ("a b", "c"), ("", "b"), ("a", "b\n")])
    def test_matrix_header_the_parser_rejects_is_refused(self, labels):
        with pytest.raises(ValueError, match="label"):
            format_matrix(DistanceMatrix(labels, ((0, 1), (1, 0))))

    def test_duplicate_triple_labels_refused(self):
        with pytest.raises(ValueError, match="duplicate"):
            format_triples(Betweenness(3, 0), ("a", "a", "b"))

    # the first full-Unicode st.text draw in _label_lists builds Hypothesis's
    # charmap cache, a one-time cost of seconds in a fresh checkout with no
    # .hypothesis/ directory; it says nothing about the inputs' speed
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(quasi_metrics(max_n=4), st.data())
    def test_matrix_round_trip_for_every_label_set_it_accepts(self, m, data):
        labels = data.draw(_label_lists(m.n))
        assume(len(set(labels)) == m.n)  # a DistanceMatrix has distinct labels
        m = DistanceMatrix(labels, m.entries)
        if not _holdable(labels, labels[:1]):
            with pytest.raises(ValueError, match="label"):
                format_matrix(m)
            return
        assert parse_matrix(format_matrix(m)) == m

    # the same one-time charmap cache build as above
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << triple_count(n)) - 1))
    ), st.data())
    def test_triples_round_trip_for_every_label_set_it_accepts(self, relation, data):
        b = Betweenness(*relation)
        labels = data.draw(_label_lists(b.n))
        if not _holdable(labels, [labels[t[0]] for t in b.triples]):
            with pytest.raises(ValueError, match="label"):
                format_triples(b, labels)
            return
        assert parse_triples(format_triples(b, labels), labels) == b
