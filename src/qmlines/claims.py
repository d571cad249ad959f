"""The built-in claim suite: every headline fact about 3- and 4-point
quasi-metric spaces that this package is able to machine-check.

Each claim function recomputes one fact from scratch and reports PASS/FAIL
with the computed artifact in the detail string.  Claims take no arguments;
tests corrupt :mod:`qmlines.fixtures` instead, to confirm each can fail.
`run_all_claims` drives the `verify-paper` CLI command and the acceptance
test suite.
"""

import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import fixtures, kernels
from .core import (
    Betweenness,
    betweenness_of,
    line_of_pair,
    line_set,
    validate_quasi_metric,
)
from .enumeration import (
    classify,
    consistent_patterns_on_support,
    enumerate_consistent,
    verify_theorem_four_points,
)
from .encoding import _chunk_or, ordered_pairs, ordered_triples
from .isomorphism import canonical_form, isomorphism_witness
from .realizability import (
    _certificate_tables,
    build_realization_system,
    realize,
    realize_bounded_integer,
    realize_digraph,
    verify_witness,
)


class Claim(NamedTuple):
    ident: str
    description: str
    passed: bool
    detail: str


def _fmt_points(points, labels) -> str:
    return "{" + ",".join(sorted(labels[i] for i in points)) + "}"


def _fmt_lines(lines, labels) -> str:
    return " ".join(sorted(_fmt_points(l, labels) for l in lines))


def claim_q4_betweenness() -> Claim:
    """The embedded Q4 table is a quasi-metric with betweenness exactly
    {pqr, rpq, sqp, qps}."""
    m = fixtures.q4_matrix()
    ref = fixtures.q4_betweenness()
    check = validate_quasi_metric(m)
    if not check.ok:
        detail = "; ".join(v.detail for v in check.violations)
        return Claim("q4-betweenness", "Q4 betweenness", False, f"validation failed: {detail}")
    b = betweenness_of(m)
    words = [" ".join(m.labels[i] for i in t) for t in b.triples]
    ok = b == ref
    return Claim(
        "q4-betweenness",
        "Q4 betweenness",
        ok,
        f"computed {{{', '.join(words)}}}" + ("" if ok else " != reference"),
    )


def claim_q4_lines() -> Claim:
    """Q4 has exactly the three lines {p,q,r}, {p,q,s}, {r,s}; none is
    universal, so the space fails the universal-or-n-lines property."""
    m = fixtures.q4_matrix()
    b = betweenness_of(m)
    ls = line_set(b)
    lines_idx = frozenset(ls.lines)
    ok = (
        lines_idx == fixtures.q4_lines()
        and not ls.has_universal
        and not ls.satisfies_dbe
    )
    return Claim(
        "q4-lines",
        "Q4 line set",
        ok,
        f"lines = {_fmt_lines(ls.lines, m.labels)}; universal={ls.has_universal}; "
        f"dbe={ls.satisfies_dbe}",
    )


def claim_three_point_classification() -> Claim:
    """classify(3) finds exactly the five reference classes, with matching
    per-pair lines, line counts, and metric verdicts."""
    records = classify(3)
    by_canon = {r.canonical.mask: r for r in records}
    problems = []
    if len(records) != 5:
        problems.append(f"expected 5 classes, got {len(records)}")
    if not all(r.realizable_quasi for r in records):
        problems.append("some class is not quasi-realizable")
    seen_canons = set()
    for row in fixtures.THREE_POINT_TABLE:
        b = fixtures.three_point_relation(row)
        name = "{" + ",".join(row["triples"]) + "}"
        # per-pair lines, cell for cell
        expected = fixtures.three_point_lines_expected(row)
        for pair, want in expected.items():
            got = line_of_pair(b, *pair)
            if got != want:
                problems.append(f"{name}: line{pair} = {sorted(got)}, expected {sorted(want)}")
        canon, _ = canonical_form(b)
        seen_canons.add(canon.mask)
        rec = by_canon.get(canon.mask)
        if rec is None:
            problems.append(f"{name}: class missing from classification")
            continue
        if rec.line_count != row["line_count"]:
            problems.append(
                f"{name}: line count {rec.line_count}, expected {row['line_count']}"
            )
        if rec.realizable_metric != row["metric"]:
            problems.append(
                f"{name}: metric-realizable {rec.realizable_metric}, expected {row['metric']}"
            )
    if set(by_canon) - seen_canons:
        problems.append("classification contains classes beyond the reference five")
    counts = [by_canon[c].line_count for c in sorted(by_canon)] if by_canon else []
    detail = f"5 classes, line counts {counts}, metric classes " + str(
        sum(r.realizable_metric for r in records)
    )
    if problems:
        detail = "; ".join(problems)
    return Claim("three-point-table", "3-point classification", not problems, detail)


def claim_metric_refutation() -> Claim:
    """No metric space has Q4's betweenness."""
    b = fixtures.q4_betweenness()
    outcome = realize(b, "metric")
    ok = not outcome.realizable
    return Claim(
        "metric-refutation",
        "Q4 is not metric-realizable",
        ok,
        f"status={outcome.status}, optimal slack={outcome.optimal_slack}",
    )


def claim_integer_refutation() -> Claim:
    """No quasi-metric with distances <= 2 has betweenness isomorphic to
    Q4's; with distances <= 3 one exists (Q4 itself has entries in 1..3)."""
    b = fixtures.q4_betweenness()
    at2 = realize_bounded_integer(b, 2)
    at3 = realize_bounded_integer(b, 3)
    problems = []
    if at2 is not None:
        rows = " / ".join(" ".join(str(v) for v in row) for row in at2.entries)
        problems.append(f"unexpected witness with entries <= 2: {rows}")
    if at3 is None:
        problems.append("no witness with entries <= 3 found")
    else:
        if not validate_quasi_metric(at3).ok:
            problems.append("kmax=3 witness is not a quasi-metric")
        if isomorphism_witness(betweenness_of(at3), b) is None:
            problems.append("kmax=3 witness betweenness is not isomorphic to the reference")
    detail = "; ".join(problems) if problems else (
        "kmax=2 absent (exhaustive over 2^12 entry patterns); kmax=3 witness verified"
    )
    return Claim("integer-refutation", "bounded-integer realizability", not problems, detail)


def claim_digraph_refutation() -> Claim:
    """No strongly connected digraph on 4 vertices induces a betweenness
    isomorphic to Q4's."""
    b = fixtures.q4_betweenness()
    found = realize_digraph(b)
    ok = found is None
    detail = (
        "absent (exhaustive over all 2^12 arc sets)"
        if ok
        else f"unexpected digraph witness: {sorted(found.arcs)}"
    )
    return Claim("digraph-refutation", "Q4 is not digraph-realizable", ok, detail)


def claim_four_point_theorem() -> Claim:
    """Among all 104,976 consistent candidates on 4 points, exactly one
    canonical class is quasi-realizable with no universal line and fewer
    than four lines, and it is Q4's class."""
    report = verify_theorem_four_points()
    recs = report.exceptional_classes
    problems = []
    if not report.matches_q4:
        listed = ", ".join(str(r.canonical.mask) for r in recs) or "none"
        problems.append(f"exceptional classes do not match: [{listed}]")
    if len(recs) == 1:
        rec = recs[0]
        if rec.line_count != 3:
            problems.append(f"exceptional class has {rec.line_count} lines, expected 3")
        at2 = realize_bounded_integer(rec.canonical, 2)
        if rec.realizable_metric or rec.realizable_digraph or at2 is not None:
            problems.append("exceptional class unexpectedly realizable by metric/digraph/int<=2")
    detail = "; ".join(problems) if problems else (
        f"unique exceptional class, encoding {recs[0].canonical.mask}, "
        f"orbit size {recs[0].class_size}, 3 lines, metric/digraph/int<=2 all refuted"
    )
    return Claim("four-point-theorem", "4-point uniqueness", not problems, detail)


def claim_four_point_corollary() -> Claim:
    """Every 4-point class realizable by a metric, by distances <= 2, or by
    a digraph has a universal line or at least four lines.

    A metric betweenness is closed under reversal: with d symmetric, xyz is
    in b iff zyx is.  So the metric LP runs only on reversal-closed classes,
    and the paper's B is not metric: it holds cab but not bac.  The
    reversal of a mask is one read of the sign check's present-bit rows,
    from their reversal lane on.
    """
    classes = list(enumerate_consistent(4))
    int2 = kernels.integer_canon_witnesses(4, 2)
    digraph = kernels.digraph_canon_witnesses(4)
    _, _, reversal, _, present = _certificate_tables()
    closed = [b for b in classes if _chunk_or(present, b.mask) >> reversal == b.mask]
    metric = {b.mask for b in closed if realize(b, "metric").realizable}
    realizable = {*metric, *int2, *digraph}
    bad = [b for b in classes if b.mask in realizable and not line_set(b).satisfies_dbe]
    counts = (
        f"{len(classes)} classes; metric-realizable {len(metric)}, int<=2 "
        f"{sum(b.mask in int2 for b in classes)}, digraph "
        f"{sum(b.mask in digraph for b in classes)}"
    )
    ok = not bad
    detail = counts + (
        "; counterexamples: none"
        if ok
        else "; counterexample encodings " + ", ".join(str(b.mask) for b in bad)
    )
    return Claim("four-point-corollary", "4-point DBE corollary", ok, detail)


# how many random positive factors claim_witness_soundness applies to Q4
_Q4_RESCALINGS = 100


def claim_witness_soundness() -> Claim:
    """Every stored realizability witness reproduces its class exactly, and
    positive rational rescaling never changes betweenness or lines."""
    problems = []
    checked = 0
    for rec in classify(3):
        if rec.realizable_quasi:
            checked += 1
            if not verify_witness(rec.witness, rec.canonical):
                problems.append(f"bad 3-point witness for encoding {rec.canonical.mask}")
    for rec in verify_theorem_four_points().exceptional_classes:
        checked += 1
        if not verify_witness(rec.witness, rec.canonical):
            problems.append(f"bad 4-point witness for encoding {rec.canonical.mask}")
    m = fixtures.q4_matrix()
    b0 = betweenness_of(m)
    lines0 = line_set(b0).lines
    rng = random.Random(271392)
    for _ in range(_Q4_RESCALINGS):
        factor = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
        scaled = m.scaled(factor)
        if betweenness_of(scaled) != b0 or line_set(betweenness_of(scaled)).lines != lines0:
            problems.append(f"scaling by {factor} changed betweenness or lines")
    detail = "; ".join(problems) if problems else (
        f"{checked} witnesses verified; {_Q4_RESCALINGS} rescalings of Q4 "
        "left everything unchanged"
    )
    return Claim("witness-soundness", "witness soundness", not problems, detail)


@lru_cache(maxsize=None)
def three_point_grid_realizations() -> dict[int, tuple[int, ...]]:
    """Brute-force oracle: betweenness encodings realized by 3-point matrices
    with entries in {1/4, ..., 8/4}, with one witness each (in quarter units).

    Deliberately self-contained integer arithmetic; shares no code with the
    LP route it cross-checks.  The entries are set in lex order, one per
    depth; each triangle is checked at the depth that sets its last entry,
    and a branch is cut at its first failure, since it holds no valid matrix.
    So each encoding still keeps its lex-first witness.
    """
    pairs = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    trips = [
        (x, y, z)
        for x in range(3)
        for y in range(3)
        for z in range(3)
        if len({x, y, z}) == 3
    ]
    checks_at = [[] for _ in pairs]
    for bit, (x, y, z) in enumerate(trips):
        depth = max(pairs.index((x, y)), pairs.index((y, z)), pairs.index((x, z)))
        checks_at[depth].append((bit, x, y, z))
    found: dict[int, tuple[int, ...]] = {}
    d = [[0] * 3 for _ in range(3)]
    values = range(1, 9)

    def walk(depth, mask):
        i, j = pairs[depth]
        for v in values:
            d[i][j] = v
            m = mask
            for bit, x, y, z in checks_at[depth]:
                s = d[x][y] + d[y][z]
                if d[x][z] > s:
                    break
                if d[x][z] == s:
                    m |= 1 << bit
            else:
                if depth + 1 < len(pairs):
                    walk(depth + 1, m)
                elif m not in found:
                    found[m] = tuple(d[a][b] for a, b in pairs)

    walk(0, 0)
    return found


def claim_grid_oracle() -> Claim:
    """On 3 points the LP verdict agrees with the exhaustive grid oracle for
    all 18 consistent relations, and each grid witness satisfies the LP
    system with positive slack."""
    grid = three_point_grid_realizations()
    patterns = consistent_patterns_on_support()
    problems = []
    agreements = 0
    for pattern in patterns:
        b = Betweenness.from_triples(3, pattern)
        lp_verdict = realize(b, "quasi").realizable
        grid_verdict = b.mask in grid
        if lp_verdict != grid_verdict:
            problems.append(
                f"encoding {b.mask}: LP says {lp_verdict}, grid says {grid_verdict}"
            )
            continue
        agreements += 1
        if not grid_verdict:
            continue
        # the witness over its entry sum S, with eps its least margin: each
        # entry and each non-member's triangle slack; all rows times S
        quarters = grid[b.mask]
        d = dict(zip(ordered_pairs(3), quarters))
        non_members = [t for t in ordered_triples(3) if t not in b]
        eps = min(*quarters, *(d[x, y] + d[y, z] - d[x, z] for x, y, z in non_members))
        point, total = (*quarters, eps), sum(quarters)
        rows = build_realization_system(b, "quasi").constraints
        holds = all(
            lhs <= rhs * total and (relation == "<=" or lhs == rhs * total)
            for coeffs, relation, rhs in rows
            for lhs in [sum(c * v for c, v in zip(coeffs, point))]
        )
        if eps <= 0 or not holds:
            problems.append(f"encoding {b.mask}: grid witness violates the LP system")
    detail = "; ".join(problems) if problems else (
        f"all {agreements} consistent relations agree; every grid witness satisfies its system"
    )
    return Claim("grid-oracle", "LP vs grid oracle", not problems, detail)


def run_all_claims() -> tuple[Claim, ...]:
    """All claims in report order (mirrors the acceptance criteria 1..10)."""
    return (
        claim_q4_betweenness(),
        claim_q4_lines(),
        claim_three_point_classification(),
        claim_metric_refutation(),
        claim_integer_refutation(),
        claim_digraph_refutation(),
        claim_four_point_theorem(),
        claim_four_point_corollary(),
        claim_witness_soundness(),
        claim_grid_oracle(),
    )
