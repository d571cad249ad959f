"""The benchmark's workloads: seeded inputs, the timed loop, output checks.

Every workload runs as a closed loop, one caller in one thread: the next
item starts when the previous one has been decided.  An item is one relation
with all of its queries.  The number of items is fixed by ``--seconds`` (sized
so that a run takes about that long on the pure-Python, ``Fraction`` setup),
so every commit does the same work for the same seed and ``wall_s`` compares
like with like.  Between items, about every ``REFERENCE_EVERY_S`` seconds, the
loop runs the reference task of ``reference.py`` to gauge the machine's speed.

Only names in ``qmlines.__all__`` are used, reached through the package
object passed in as ``qm``.
"""

import hashlib
import random
from collections import Counter
from itertools import combinations
from time import perf_counter

from reference import run_once as reference_task
from tracing import LP_OUTCOMES, lp_outcome

CLASSES_4 = 4455  # isomorphism classes of consistent relations on 4 points
LABELED_4 = 104976  # consistent relations on 4 points, 18^4
REFERENCE_EVERY_S = 0.5


class Ledger:
    """Operations attempted and failed, item times and outputs of one run.

    An operation is one call into qmlines that the benchmark makes; it fails
    when it raises or when a check on its output fails.
    """

    def __init__(self):
        self.items = []  # (input, {op name: result}, seconds)
        self.attempted = 0
        self.failures = {}  # (item index or op name, op name) -> message
        self.lp = Counter()  # LP outcomes of the timed region
        self.reference_s = []  # durations of the reference task in the timed region

    def op(self, name: str, ok: bool, message: str) -> None:
        """Count one checked operation made outside the item loop."""
        self.attempted += 1
        self.check(name, name, ok, message)

    def check(self, where, op: str, ok: bool, message: str) -> None:
        """Fail operation op of item (or step) where, once, if not ok."""
        if not ok:
            self.failures.setdefault((where, op), f"{where}: {op}: {message}")

    def reference(self) -> None:
        self.reference_s.append(reference_task())

    def run_items(self, inputs, decide) -> None:
        """Time decide(x, out) per input; out collects one result per call.
        Runs the reference task between items when one is due, and after
        the last."""
        clock = perf_counter
        due = clock() + REFERENCE_EVERY_S
        for k, x in enumerate(inputs):
            out = {}
            start = clock()
            try:
                decide(x, out)
            except Exception as exc:  # a failed operation, counted below
                seconds = clock() - start
                failed = f"call {len(out) + 1}"
                self.attempted += 1
                self.failures[(k, failed)] = f"{k}: {failed}: {type(exc).__name__}: {exc}"
            else:
                seconds = clock() - start
            self.attempted += len(out)
            self.items.append((x, out, seconds))
            if clock() >= due:
                self.reference()
                due = clock() + REFERENCE_EVERY_S
        self.reference()


def _witness_ok(qm, witness, b) -> bool:
    return qm.validate_quasi_metric(witness).ok and qm.betweenness_of(witness) == b


def _check_lp(qm, ledger, k, b, out) -> None:
    """Witness checks on a quasi and an optional metric verdict; tallies LP
    outcomes for the timed region."""
    quasi = out.get("quasi")
    if quasi is None:
        return
    ledger.lp[lp_outcome(quasi)] += 1
    if quasi.realizable:
        ledger.check(k, "quasi", _witness_ok(qm, quasi.witness, b), "witness fails")
    metric = out.get("metric")
    if metric is None:
        return
    ledger.lp[lp_outcome(metric)] += 1
    if metric.realizable:
        w = metric.witness
        symmetric = all(w.entries[i][j] == w.entries[j][i] for i in range(b.n) for j in range(b.n))
        ledger.check(k, "metric", _witness_ok(qm, w, b) and symmetric, "witness fails")
        ledger.check(k, "metric", quasi.realizable, "metric-realizable but not quasi")


def _fmt_matrix(w) -> str:
    return "" if w is None else ";".join(",".join(str(v) for v in row) for row in w.entries)


def _fmt_outcome(outcome) -> str:
    if outcome is None:
        return "-"
    return f"{outcome.status}|{outcome.optimal_slack}|{_fmt_matrix(outcome.witness)}"


def _canonical_ok(qm, b, canon, relabeling) -> bool:
    """canon is b relabeled by relabeling, and its own canonical form."""
    return qm.apply_relabeling(b, relabeling) == canon and qm.canonical_form(canon)[0] == canon


def _classes_ok(classes) -> bool:
    return len(classes) == CLASSES_4 and sum(size for _, size in classes) == LABELED_4


def _random_relation(qm, rng, n, patterns, density):
    """A consistent relation on n points: on each 3-point support, with
    probability density one of the given consistent patterns, else none."""
    triples = []
    for sup in combinations(range(n), 3):
        if rng.random() < density:
            triples += [(sup[x], sup[y], sup[z]) for (x, y, z) in rng.choice(patterns)]
    return qm.Betweenness.from_triples(n, triples)


class Classify4:
    """A seeded sample of the 4-point classes through classify's per-class
    steps: line set, quasi LP, metric LP when quasi is positive."""

    name = "classify4"
    items_per_second = 18.0

    def setup(self, qm, rng, n_items):
        classes = qm.canonical_classes(4)
        n_items = min(n_items, len(classes))
        # one class from each of n_items equal strata of the encoding order
        picks = [
            classes[rng.randrange(k * len(classes) // n_items, (k + 1) * len(classes) // n_items)]
            for k in range(n_items)
        ]
        return {"classes": classes, "items": [qm.Betweenness(4, mask) for mask, _ in picks]}

    def run(self, qm, inputs, ledger):
        def decide(b, out):
            out["line_set"] = qm.line_set(b)
            out["quasi"] = quasi = qm.realize(b, "quasi")
            if quasi.realizable:
                out["metric"] = qm.realize(b, "metric")

        ledger.run_items(inputs["items"], decide)

    def check(self, qm, inputs, ledger):
        ledger.op("canonical_classes", _classes_ok(inputs["classes"]), "not 4455 classes over 104976 relations")
        rows = []
        for k, (b, out, _) in enumerate(ledger.items):
            _check_lp(qm, ledger, k, b, out)
            ls = out.get("line_set")
            lines = "-" if ls is None else f"{ls.line_count}|{ls.has_universal}"
            rows.append(f"{b.mask}|{lines}|{_fmt_outcome(out.get('quasi'))}|{_fmt_outcome(out.get('metric'))}")
        return rows


class Sweep4:
    """A cold four-point theorem check, then, for random labeled relations of
    distinct classes, the canonical form and the bounded-integer (K=3) and
    digraph searches on it."""

    name = "sweep4"
    items_per_second = 1.1
    kmax = 3

    def setup(self, qm, rng, n_items):
        # labeled relations rather than canonical_classes, so that the
        # theorem check below is the first caller of canonical_classes
        patterns = qm.consistent_patterns_on_support()
        seen = set()
        items = []
        while len(items) < n_items:
            b = _random_relation(qm, rng, 4, patterns, 1.0)
            canon, _ = qm.canonical_form(b)
            if canon.mask not in seen:
                seen.add(canon.mask)
                items.append(b)
        return {"items": items}

    def run(self, qm, inputs, ledger):
        ledger.attempted += 1
        try:
            inputs["report"] = qm.verify_theorem_four_points()
        except Exception as exc:  # a failed operation, counted as such
            ledger.check("theorem", "verify_theorem_four_points", False, f"{type(exc).__name__}: {exc}")

        def decide(b, out):
            out["canonical_form"] = qm.canonical_form(b)
            canon = out["canonical_form"][0]
            out["int"] = qm.realize_bounded_integer(canon, self.kmax)
            out["digraph"] = qm.realize_digraph(canon)

        ledger.run_items(inputs["items"], decide)

    def check(self, qm, inputs, ledger):
        report = inputs.get("report")
        rows = []
        if report is not None:
            ok = report.matches_q4 and len(report.exceptional_classes) == 1
            ledger.check("theorem", "verify_theorem_four_points", ok, "report does not match Q4")
            rows.append(f"theorem|{report.matches_q4}|" + ",".join(
                f"{r.canonical.mask}:{r.realizable_metric}:{_fmt_matrix(r.witness)}"
                for r in report.exceptional_classes
            ))
            self._recount_theorem_lps(qm, report, ledger)
        classes = qm.canonical_classes(4)
        ledger.op("canonical_classes", _classes_ok(classes), "not 4455 classes over 104976 relations")
        known = {mask for mask, _ in classes}
        for k, (labeled, out, _) in enumerate(ledger.items):
            b, relabeling = out.get("canonical_form", (None, None))
            if b is None:
                continue
            ok = _canonical_ok(qm, labeled, b, relabeling) and b.mask in known
            ledger.check(k, "canonical_form", ok, "not a canonical class reached by relabeling the input")
            witnesses = []
            if out.get("int") is not None:
                witnesses.append(("int", out["int"]))
            if out.get("digraph") is not None:
                witnesses.append(("digraph", qm.digraph_distances(out["digraph"])))
            for op, w in witnesses:
                ok = qm.validate_quasi_metric(w).ok
                ok = ok and qm.isomorphism_witness(qm.betweenness_of(w), b) is not None
                ledger.check(k, op, ok, "witness is not a quasi-metric with the queried betweenness")
            if witnesses:
                ledger.check(k, witnesses[0][0], qm.realize(b, "quasi").realizable, "witness but LP says not realizable")
            # int/digraph witness values are internal to the searches; only
            # the verdicts enter the digest
            rows.append(
                f"{labeled.mask}|{b.mask}|{relabeling.perm}|"
                f"{out.get('int') is not None}|{out.get('digraph') is not None}|{len(out)}"
            )
        return rows

    @staticmethod
    def _recount_theorem_lps(qm, report, ledger):
        """Re-run the LPs the theorem check ran (the classes that pass its
        line filter) to know their exact outcomes; the exceptional classes
        must be exactly the quasi-positive ones."""
        positive = []
        for mask, _ in qm.canonical_classes(4):
            b = qm.Betweenness(4, mask)
            ls = qm.line_set(b)
            if ls.has_universal or ls.line_count >= 4:
                continue
            quasi = qm.realize(b, "quasi")
            ledger.lp[lp_outcome(quasi)] += 1
            if quasi.realizable:
                positive.append(mask)
                ledger.lp[lp_outcome(qm.realize(b, "metric"))] += 1
        exceptional = [r.canonical.mask for r in report.exceptional_classes]
        ledger.check("theorem", "verify_theorem_four_points", exceptional == positive, "exceptional classes differ from LP")


class Realize5:
    """Seeded random consistent relations on 5 points, each canonicalized
    and then decided by the quasi LP and, when positive, the metric LP."""

    name = "realize5"
    items_per_second = 2.2

    def setup(self, qm, rng, n_items):
        patterns = [p for p in qm.consistent_patterns_on_support() if p]
        # stratified densities: sparse relations tend to be realizable,
        # dense ones infeasible, so every run mixes all three LP outcomes
        return {
            "items": [
                _random_relation(qm, rng, 5, patterns, (k + rng.random()) / n_items)
                for k in range(n_items)
            ]
        }

    def run(self, qm, inputs, ledger):
        def decide(b, out):
            out["canonical_form"] = qm.canonical_form(b)
            canon = out["canonical_form"][0]
            out["quasi"] = quasi = qm.realize(canon, "quasi")
            if quasi.realizable:
                out["metric"] = qm.realize(canon, "metric")

        ledger.run_items(inputs["items"], decide)

    def check(self, qm, inputs, ledger):
        rows = []
        for k, (b, out, _) in enumerate(ledger.items):
            canon, relabeling = out.get("canonical_form", (None, None))
            if canon is None:
                continue
            ok = _canonical_ok(qm, b, canon, relabeling)
            ledger.check(k, "canonical_form", ok, "not an idempotent relabeling of the input")
            _check_lp(qm, ledger, k, canon, out)
            rows.append(
                f"{b.mask}|{canon.mask}|{relabeling.perm}|"
                f"{_fmt_outcome(out.get('quasi'))}|{_fmt_outcome(out.get('metric'))}"
            )
        return rows


WORKLOADS = {w.name: w for w in (Classify4(), Sweep4(), Realize5())}


def n_items(workload, seconds: float) -> int:
    return max(2, round(workload.items_per_second * seconds))


def make_rng(workload, seed: int) -> random.Random:
    return random.Random(f"{workload.name}:{seed}")


def digest(rows) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def lp_counts(ledger) -> dict:
    return {o: ledger.lp[o] for o in LP_OUTCOMES}
