"""Command-line interface.

Commands are scriptable predicates: exit 0 for success or a positive
verdict, 1 for a negative verdict (invalid matrix, not realizable, not
isomorphic, a failed claim), 2 for input errors.  Every command takes
--json for a machine-readable report with the same content; reports go to
stdout, diagnostics to stderr.  Each `cmd_*` returns (verdict, payload,
text): the verdict a bool, the payload the JSON object, text the report's
lines.  `main` alone renders the report and turns the verdict into the
exit code.
"""

import argparse
import json
import os
import sys

from . import claims as claims_mod
from .claims import _fmt_points
from .core import (
    Betweenness,
    DistanceMatrix,
    betweenness_of,
    line_set,
    validate_quasi_metric,
)
from .enumeration import classify
from .fileformats import ParseError, format_matrix, parse_matrix, parse_triples
from .isomorphism import canonical_form, isomorphism_witness
from .realizability import (
    VARIANTS,
    Digraph,
    digraph_distances,
    realize,
    realize_bounded_integer,
    realize_digraph,
    verify_witness,
)


class InputError(Exception):
    """User input rejected; maps to exit code 2."""


Report = tuple[bool, dict, list[str]]  # what each cmd_* returns: verdict, payload, text


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_matrix(path: str) -> DistanceMatrix:
    try:
        return parse_matrix(_read(path))
    except (ParseError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_validated_matrix(path: str) -> DistanceMatrix:
    m = _load_matrix(path)
    check = validate_quasi_metric(m)
    if not check.ok:
        details = "; ".join(v.detail for v in check.violations)
        raise InputError(f"{path}: not a quasi-metric: {details}")
    return m


def _split_labels(raw: str) -> tuple[str, ...]:
    labels = tuple(s.strip() for s in raw.split(",") if s.strip())
    if len(labels) < 2:
        raise InputError(f"need at least 2 labels, got {raw!r}")
    return labels


def _load_triples(path: str, labels_spec: str) -> tuple[Betweenness, tuple[str, ...]]:
    labels = _split_labels(labels_spec)
    try:
        return parse_triples(_read(path), labels), labels
    except (ParseError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _betweenness_source(args) -> tuple[Betweenness, tuple[str, ...]]:
    """Either a validated matrix file or a triples file with labels."""
    if args.matrix is not None and args.triples is not None:
        raise InputError("give a matrix file or --triples, not both")
    if args.matrix is not None and args.labels is not None:
        raise InputError("--labels goes with --triples; a matrix file names its own points")
    if args.matrix is not None:
        m = _load_validated_matrix(args.matrix)
        return betweenness_of(m), m.labels
    if args.triples is None:
        raise InputError("give a matrix file or --triples FILE --labels ...")
    if args.labels is None:
        raise InputError("--triples requires --labels")
    return _load_triples(args.triples, args.labels)


def _is_decimal(token: str) -> bool:
    """ASCII digits alone, as an integer bound is written: int() would also
    read "٣" as 3 and "1_0" as 10."""
    return token.isascii() and token.isdigit()


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _matrix_json(m: DistanceMatrix | None):
    if m is None:
        return None
    return {
        "labels": list(m.labels),
        "rows": [[str(v) for v in row] for row in m.entries],
    }


def _witness(m: DistanceMatrix | None, heading: str):
    """A witness matrix's JSON value, and its text lines under `heading`
    (none when there is no witness)."""
    if m is None:
        return None, []
    return _matrix_json(m), [heading, *format_matrix(m).rstrip("\n").split("\n")]


# ------------------------------------------------------------------ commands


def cmd_validate(args) -> Report:
    m = _load_matrix(args.matrix)
    check = validate_quasi_metric(m)
    payload = {
        "command": "validate",
        "ok": check.ok,
        "violations": [
            {
                "kind": v.kind,
                "points": [m.labels[i] for i in v.points],
                "detail": v.detail,
            }
            for v in check.violations
        ],
    }
    text = ["ok"] if check.ok else [f"violation ({v.kind}): {v.detail}" for v in check.violations]
    return check.ok, payload, text


def cmd_betweenness(args) -> Report:
    m = _load_validated_matrix(args.matrix)
    b = betweenness_of(m)
    words = [[m.labels[i] for i in t] for t in b.triples]
    payload = {"command": "betweenness", "labels": list(m.labels), "triples": words}
    return True, payload, [" ".join(w) for w in words]


def cmd_lines(args) -> Report:
    b, labels = _betweenness_source(args)
    ls = line_set(b)
    pairs = sorted(ls.by_pair.items())
    family = sorted(sorted(labels[i] for i in l) for l in ls.lines)
    payload = {
        "command": "lines",
        "labels": list(labels),
        "by_pair": [
            {"pair": [labels[x], labels[y]], "line": sorted(labels[i] for i in line)}
            for (x, y), line in pairs
        ],
        "lines": family,
        "line_count": ls.line_count,
        "has_universal": ls.has_universal,
    }
    text = [
        f"line {labels[x]} {labels[y]} = {_fmt_points(line, labels)}" for (x, y), line in pairs
    ]
    text.append(f"lines ({ls.line_count}): " + " ".join("{" + ",".join(l) + "}" for l in family))
    text.append(f"universal: {_yn(ls.has_universal)}")
    return True, payload, text


def cmd_dbe(args) -> Report:
    b, _ = _betweenness_source(args)
    ls = line_set(b)
    payload = {
        "command": "dbe",
        "line_count": ls.line_count,
        "has_universal": ls.has_universal,
        "satisfies_dbe": ls.satisfies_dbe,
    }
    text = [
        f"line count: {ls.line_count}",
        f"universal line: {_yn(ls.has_universal)}",
        f"dbe: {_yn(ls.satisfies_dbe)}",
    ]
    return ls.satisfies_dbe, payload, text


def cmd_canon(args) -> Report:
    b, labels = _load_triples(args.triples, args.labels)
    canon, relabeling = canonical_form(b)
    payload = {
        "command": "canon",
        "encoding": canon.mask,
        "triples": [list(t) for t in canon.triples],
        "relabeling": {labels[i]: relabeling(i) for i in range(b.n)},
    }
    text = [
        f"canonical encoding: {canon.mask}",
        "canonical triples: " + " ".join(",".join(map(str, t)) for t in canon.triples),
        "relabeling: " + " ".join(f"{labels[i]}->{relabeling(i)}" for i in range(b.n)),
    ]
    return True, payload, text


def cmd_iso(args) -> Report:
    b1, labels1 = _load_triples(args.file_a, args.labels)
    b2, labels2 = _load_triples(args.file_b, args.labels_b or args.labels)
    witness = isomorphism_witness(b1, b2)
    if witness is None:
        mapping, text = None, ["not isomorphic"]
    else:
        mapping = {labels1[i]: labels2[witness(i)] for i in range(b1.n)}
        text = ["isomorphic: " + " ".join(f"{a}->{b}" for a, b in mapping.items())]
    payload = {"command": "iso", "isomorphic": mapping is not None, "witness": mapping}
    return mapping is not None, payload, text


def cmd_realize(args) -> Report:
    b, labels = _load_triples(args.triples, args.labels)
    variant = args.variant
    payload = {"command": "realize", "variant": variant}
    key = "witness"
    if variant in VARIANTS:
        outcome = realize(b, variant)
        realizable, slack = outcome.realizable, outcome.optimal_slack
        payload["status"] = outcome.status
        payload["optimal_slack"] = None if slack is None else str(slack)
        text = [
            f"status: {outcome.status}",
            f"optimal slack: {slack}",
            f"realizable: {_yn(realizable)}",
        ]
        m = outcome.witness
        if m is not None:
            # its rows are the query's points, in --labels order
            m = DistanceMatrix(labels, m.entries)
        witness, shown = _witness(m, "witness:")
    elif variant.startswith("int:"):
        kmax = variant.split(":", 1)[1].strip()
        if not _is_decimal(kmax):
            raise InputError(f"bad variant {variant!r}; expected int:K with integer K")
        kmax = int(kmax)
        m = realize_bounded_integer(b, kmax)
        realizable = m is not None
        text = [f"realizable with integer distances <= {kmax}: {_yn(realizable)}"]
        witness, shown = _witness(m, "witness (isomorphic realization, fresh labels):")
    elif variant == "digraph":
        g = realize_digraph(b)
        realizable = g is not None
        text = [f"realizable by a digraph: {_yn(realizable)}"]
        key, witness, shown = "witness_arcs", None, []
        if realizable:
            # the map holds one digraph per class: relabel it onto b itself
            f = isomorphism_witness(betweenness_of(digraph_distances(g)), b)
            g = Digraph(b.n, ((f(i), f(j)) for (i, j) in g.arcs))
            if not verify_witness(digraph_distances(g), b):
                raise RuntimeError(f"relabeled digraph does not realize {b}; this is a bug")
            witness = sorted([labels[i], labels[j]] for (i, j) in g.arcs)
            arcs = " ".join(f"{labels[i]}->{labels[j]}" for (i, j) in sorted(g.arcs))
            shown = [f"witness arcs: {arcs}"]
    else:
        raise InputError(f"unknown variant {variant!r}")
    payload["realizable"] = realizable
    payload[key] = witness
    return realizable, payload, text + shown


def cmd_enumerate(args) -> Report:
    bounds = ()
    if args.int is not None:
        tokens = [tok.strip() for tok in args.int.split(",") if tok.strip()]
        if not tokens:
            raise InputError(f"bad --int value {args.int!r}; expected e.g. 2,3")
        for tok in tokens:
            if not _is_decimal(tok):
                raise InputError(f"bad --int value {tok!r}; expected e.g. 2,3")
        bounds = tuple(map(int, tokens))
        if any(k < 1 for k in bounds):
            raise InputError("--int bounds must be >= 1")
    records = classify(args.n, kmax_list=bounds)
    bounds = tuple(sorted(set(bounds)))
    payload = {
        "command": "enumerate",
        "n": args.n,
        "class_count": len(records),
        "classes": [
            {
                "encoding": r.canonical.mask,
                "triples": [list(t) for t in r.canonical.triples],
                "class_size": r.class_size,
                "line_count": r.line_count,
                "has_universal": r.has_universal,
                "satisfies_dbe": r.satisfies_dbe,
                "realizable_quasi": r.realizable_quasi,
                "realizable_metric": r.realizable_metric,
                "realizable_int": {str(k): v for k, v in sorted(r.realizable_int.items())},
                "realizable_digraph": r.realizable_digraph,
                "witness": _matrix_json(r.witness),
            }
            for r in records
        ],
    }
    header = ["encoding", "size", "lines", "universal", "dbe", "quasi", "metric"]
    header += [f"int{k}" for k in bounds] + ["digraph"]
    text = ["\t".join(header)]
    for r in records:
        cells = [
            str(r.canonical.mask),
            str(r.class_size),
            str(r.line_count),
            _yn(r.has_universal),
            _yn(r.satisfies_dbe),
            _yn(r.realizable_quasi),
            _yn(r.realizable_metric),
        ]
        cells += [_yn(r.realizable_int[k]) for k in bounds]
        cells.append(_yn(r.realizable_digraph))
        text.append("\t".join(cells))
    text.append(f"classes: {len(records)}")
    return True, payload, text


def cmd_verify_paper(args) -> Report:
    results = claims_mod.run_all_claims()
    all_pass = all(c.passed for c in results)
    payload = {
        "command": "verify-paper",
        "all_pass": all_pass,
        "claims": [
            {
                "ident": c.ident,
                "description": c.description,
                "passed": c.passed,
                "detail": c.detail,
            }
            for c in results
        ],
    }
    text = [
        f"{'PASS' if c.passed else 'FAIL'}  {c.ident}: {c.detail}" for c in results
    ]
    text.append("all claims pass" if all_pass else "SOME CLAIMS FAILED")
    return all_pass, payload, text


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmlines",
        description="Lines, betweenness and realizability of finite quasi-metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "check the quasi-metric axioms of a matrix file")
    p.add_argument("matrix", help="matrix file")

    p = add("betweenness", cmd_betweenness, "betweenness triples of a matrix file")
    p.add_argument("matrix", help="matrix file")

    for name, func, help_text in (
        ("lines", cmd_lines, "lines of a space or a betweenness relation"),
        ("dbe", cmd_dbe, "universal-line / line-count verdict"),
    ):
        p = add(name, func, help_text)
        p.add_argument("matrix", nargs="?", help="matrix file")
        p.add_argument("--triples", help="triples file (alternative to a matrix)")
        p.add_argument("--labels", help="comma-separated point labels for --triples")

    p = add("canon", cmd_canon, "canonical form of a betweenness relation")
    p.add_argument("--triples", required=True, help="triples file")
    p.add_argument("--labels", required=True, help="comma-separated point labels")

    p = add("iso", cmd_iso, "isomorphism witness between two relations")
    p.add_argument("file_a", help="first triples file")
    p.add_argument("file_b", help="second triples file")
    p.add_argument("--labels", required=True, help="labels for the first file")
    p.add_argument("--labels-b", help="labels for the second file (defaults to --labels)")

    p = add("realize", cmd_realize, "realizability of a betweenness relation")
    p.add_argument("--variant", required=True, help="quasi | metric | int:K | digraph")
    p.add_argument("--triples", required=True, help="triples file")
    p.add_argument("--labels", required=True, help="comma-separated point labels")

    p = add("enumerate", cmd_enumerate, "classify all consistent relations on n points")
    p.add_argument("--n", type=int, required=True, help="point count (3 or 4)")
    p.add_argument("--int", help="comma-separated integer distance bounds, e.g. 2,3")

    add("verify-paper", cmd_verify_paper, "run the full built-in claim suite")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        verdict, payload, text = args.func(args)
    except (InputError, ValueError) as exc:
        # ParseError and the domain rejections are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in text:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered to devnull,
        # so that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
