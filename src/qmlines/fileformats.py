"""Flat-file formats for distance matrices and triple sets.

Matrix files: a header line of whitespace-separated point labels, then n
rows of n rationals written as "3" or "3/2".  Triples files: one triple of
labels per line.  Lines starting with '#' are comments in both.  Decimal
tokens are rejected outright; converting them would break the exactness
contract.  A label is a nonempty token with no whitespace; the formatters
refuse one that would start a written line with '#'.
"""

import re
from fractions import Fraction

from .core import Betweenness, DistanceMatrix

_NUMBER = re.compile(r"\+?(\d+)(?:/(\d+))?$")


class ParseError(ValueError):
    """Input file rejected; carries 1-based line and token diagnostics."""

    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}" if column is None else f"line {line}, token {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped.split()


def _parse_rational(token: str, lineno: int, column: int) -> Fraction:
    m = _NUMBER.match(token)
    if not m and token[:1] == "-" and _NUMBER.match(token[1:]):
        raise ParseError(
            f"negative entry {token!r} (distances are rationals >= 0)", lineno, column
        )
    if not m:
        raise ParseError(
            f"not a rational: {token!r} (write integers or fractions like 3/2; "
            "decimals are rejected)",
            lineno,
            column,
        )
    num, den = m.group(1), m.group(2)
    if den is not None and int(den) == 0:
        raise ParseError(f"zero denominator in {token!r}", lineno, column)
    return Fraction(int(num), int(den)) if den is not None else Fraction(int(num))


def parse_matrix(text: str) -> DistanceMatrix:
    """Parse a matrix file into a DistanceMatrix candidate.

    Structural problems (labels, shape, token syntax) raise ParseError; the
    quasi-metric axioms are deliberately not checked here.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty matrix file", 1)
    header_line, labels = lines[0]
    if len(labels) < 2:
        raise ParseError("need at least 2 point labels", header_line)
    seen = {}
    for col, lab in enumerate(labels, start=1):
        if lab in seen:
            raise ParseError(f"duplicate label {lab!r}", header_line, col)
        seen[lab] = col
    n = len(labels)
    body = lines[1:]
    if len(body) != n:
        raise ParseError(
            f"expected {n} entry rows for {n} labels, found {len(body)}",
            body[-1][0] if body else header_line,
        )
    rows = []
    for lineno, tokens in body:
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", lineno)
        rows.append(
            tuple(_parse_rational(tok, lineno, col) for col, tok in enumerate(tokens, start=1))
        )
    return DistanceMatrix(tuple(labels), tuple(rows))


def _check_writable(labels, line_starts) -> None:
    """Refuse labels that a written file could not give back: an empty
    label, one holding whitespace (tokens are split on it), or one in
    line_starts that starts with '#' (its line would read as a comment)."""
    for lab in labels:
        if not lab or any(c.isspace() for c in lab):
            raise ValueError(f"label {lab!r} is empty or holds whitespace; files cannot hold it")
    for lab in line_starts:
        if lab.startswith("#"):
            raise ValueError(f"label {lab!r} would start a line with '#', which reads as a comment")


def format_matrix(m: DistanceMatrix) -> str:
    """The matrix file of m; ValueError for labels it cannot hold (see
    :func:`_check_writable`), of which only the first starts a line."""
    _check_writable(m.labels, m.labels[:1])
    lines = [" ".join(m.labels)]
    for row in m.entries:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_triples(text: str, labels) -> Betweenness:
    """Parse a triples file against a known label sequence.

    Duplicate lines collapse; order is irrelevant.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in {labels}")
    if len(labels) < 2:
        raise ValueError("need at least 2 point labels")
    index = {lab: i for i, lab in enumerate(labels)}
    triples = set()
    for lineno, tokens in _content_lines(text):
        if len(tokens) != 3:
            raise ParseError(f"expected 3 labels per triple, found {len(tokens)}", lineno)
        idx = []
        for col, tok in enumerate(tokens, start=1):
            if tok not in index:
                raise ParseError(f"unknown label {tok!r}", lineno, col)
            idx.append(index[tok])
        if len(set(idx)) != 3:
            raise ParseError(f"repeated point in triple {' '.join(tokens)!r}", lineno)
        triples.add(tuple(idx))
    return Betweenness.from_triples(len(labels), triples)


def format_triples(b: Betweenness, labels) -> str:
    """The triples file of b under labels; ValueError for duplicate labels
    and for labels it cannot hold (see :func:`_check_writable`), where the
    first label of each member triple starts a line."""
    labels = tuple(labels)
    if len(labels) != b.n:
        raise ValueError(f"{len(labels)} labels for {b.n} points")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in {labels}")
    triples = b.triples
    _check_writable(labels, [labels[t[0]] for t in triples])
    lines = [" ".join(labels[i] for i in t) for t in triples]
    return "\n".join(lines) + ("\n" if lines else "")
